"""Declarative JSON run configurations.

The document is schema-validated before any computation: unknown keys are
rejected, every error message names the offending key path.  Grids exclude
zero, so t_start must be at least dt.

Every object in the document, from the top level down to a mixture
component, is read by one reader, ``_fields``: it checks the object's keys
against a table of key -> parser and parses each value at its key path, in
table order.  Targets, initial laws, processes, Lévy measure components and
diffusion coefficients are tagged: a table maps the value of the kind tag
to the constructor and to the parsers of its required and optional keys.
An optional key that is absent leaves the model's own default in place, so
every default is written once, in the model class.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .boundary import GridError, TimeGrid
from .calibrate import (
    EmpiricalInitial,
    InitialDistribution,
    NormalInitial,
    PointInitial,
    UniformInitial,
)
from .processes import (
    OU,
    BesselDrift,
    BrownianDrift,
    Constant,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    Linear,
    OneSidedStable,
    Power,
)
from .rng import MAX_SIZE
from .targets import (
    EmpiricalTarget,
    Exponential,
    InverseGaussianHitting,
    LevyHittingLaw,
    Mixture,
    PointMass,
    TargetDistribution,
    Weibull,
)


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _fields(spec, path: str, required: dict, optional: dict, base_dir: str) -> dict:
    """The object's values by key, each parsed at its key path in table order.

    required and optional map a key to its parser; an absent optional key
    is left out.  A parser's TypeError or ValueError is reported at path.
    """
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected an object, got {type(spec).__name__}")
    for key in required:
        if key not in spec:
            raise ConfigError(path, f"missing key '{key}'")
    unknown = set(spec) - set(required) - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown key '{sorted(unknown)[0]}'")
    try:
        return {
            key: parse(spec[key], f"{path}.{key}" if path else key, base_dir)
            for key, parse in {**required, **optional}.items()
            if key in spec
        }
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


# Value parsers: (value, key path, directory of the config file) -> value.


def _number(v, path: str, base_dir: str = ".") -> float:
    # json reads the non-standard literals NaN and Infinity as floats
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(path, "expected a finite number")
    return float(v)


def _integer(v, path: str, base_dir: str = ".") -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, "expected an integer")
    return v


def _within(parse, ok, message: str):
    """The parser that reads with parse and reports message at the key path
    unless ok(value)."""

    def parse_within(v, path: str, base_dir: str = "."):
        value = parse(v, path)
        if not ok(value):
            raise ConfigError(path, message)
        return value

    return parse_within


# a count of particles, samples, grid steps or substeps
_size = _within(_integer, lambda n: n <= MAX_SIZE, f"must be at most {MAX_SIZE}")
parse_seed = _within(_integer, lambda n: 0 <= n < 2**64, "seed must be a 64-bit unsigned integer")


def _string(v, path: str, base_dir: str = ".") -> str:
    if not isinstance(v, str):
        raise ConfigError(path, "expected a string")
    return v


def _path(v, path: str, base_dir: str) -> str:
    """A file path string; a relative one is under the config's directory."""
    return os.path.join(base_dir, _string(v, path))


def _extended(v, path: str, base_dir: str = ".") -> float | None:
    """A number, 'inf' or '-inf'; None for null, which keeps the default."""
    if v is None:
        return None
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v):
        raise ConfigError(path, "expected a number, 'inf', '-inf' or null")
    return float(v)


def _as_is(v, path: str, base_dir: str = "."):
    """The value unchanged; the constructor checks it."""
    return v


def _samples(relpath, path: str, base_dir: str) -> np.ndarray:
    if not isinstance(relpath, str):
        raise ConfigError(path, "expected a file path string")
    full = os.path.join(base_dir, relpath)
    try:
        data = np.loadtxt(full, ndmin=1)
    except OSError as exc:
        raise ConfigError(path, f"cannot read {full!r}: {exc}") from exc
    if data.size == 0:
        raise ConfigError(path, "sample file is empty")
    # +inf is a sample (never-hit mass of a target); NaN is no value at all
    nan = np.flatnonzero(np.isnan(data))
    if len(nan):
        raise ConfigError(path, f"sample file holds NaN at entry {nan[0]}")
    return data


def _list(parse, what: str, nonempty: bool = False):
    """The parser of a list whose items parse reads at path[i]."""

    def parse_list(items, path: str, base_dir: str) -> tuple:
        if not isinstance(items, list) or (nonempty and not items):
            raise ConfigError(path, f"expected a {what}")
        return tuple(parse(item, f"{path}[{i}]", base_dir) for i, item in enumerate(items))

    return parse_list


def _dict_of(required: dict, optional: dict):
    """The parser of an object with these keys: its values by key."""
    return lambda spec, path, base_dir: _fields(spec, path, required, optional, base_dir)


def _tuple_of(required: dict):
    """The parser of an object with exactly these keys: its values in table order."""
    return lambda spec, path, base_dir: tuple(_fields(spec, path, required, {}, base_dir).values())


def _build(spec, path: str, tag: str, table: dict, base_dir: str):
    """The object that ``spec[tag]`` names in table, built from the other keys.

    Required values go to the constructor in table order, optional ones by
    key.  A constructor's TypeError or ValueError is reported at path.
    """
    # the keys of every kind are allowed until the tag names one
    allowed = {key: _as_is for _, required, optional in table.values() for key in (*required, *optional)}
    kind = _fields(spec, path, {tag: _string}, allowed, base_dir)[tag]
    if kind not in table:
        raise ConfigError(f"{path}.{tag}", f"unknown {tag} {kind!r}, expected one of {', '.join(table)}")
    make, required, optional = table[kind]
    values = _fields(spec, path, {tag: _string, **required}, optional, base_dir)
    # a parsed None (null for L or R) keeps the default, like an absent key
    options = {key: v for key, v in values.items() if key in optional and v is not None}
    try:
        return make(*(values[key] for key in required), **options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _one_of(tag: str, table: dict):
    """The parser of an object whose tag names its kind in table."""
    return lambda spec, path, base_dir: _build(spec, path, tag, table, base_dir)


# kind -> (constructor, {required key: parser}, {optional key: parser}); the
# required keys are listed in the order of the constructor's arguments

MEASURES = {
    "atoms": (FiniteAtoms, {"atoms": _as_is}, {}),
    "stable": (
        OneSidedStable,
        {"side": _string, "alpha": _number, "intensity": _number},
        {"tempering": _number},
    ),
    "gamma": (GammaSubordinatorMeasure, {"side": _string, "shape": _number, "rate": _number}, {}),
}

COEFFICIENTS = {
    "constant": (Constant, {"value": _number}, {}),
    "linear": (Linear, {"a": _number, "b": _number}, {}),
    "ou": (OU, {"theta": _number}, {}),
    "bessel_drift": (BesselDrift, {"delta": _number}, {}),
    "power": (Power, {"p": _number, "coeff": _number}, {}),
}
_coefficient = _one_of("name", COEFFICIENTS)

PROCESSES = {
    "brownian": (BrownianDrift, {"mu": _number, "vol": _number}, {}),
    "levy": (
        Levy,
        {"a": _number, "sigma2": _number, "measure": _list(_one_of("type", MEASURES), "list of measure components")},
        {"small_jump_mode": _string, "eta": _number},
    ),
    "diffusion": (
        IntervalDiffusion,
        {"beta": _coefficient, "sigma": _coefficient},
        {"L": _extended, "R": _extended, "lower_boundary_behavior": _string, "dt_substeps": _size},
    ),
}

INITIALS = {
    "point": (PointInitial, {"x": _number}, {}),
    "uniform": (UniformInitial, {"a": _number, "b": _number}, {}),
    "normal": (NormalInitial, {"mean": _number, "std": _number}, {}),
    "empirical": (EmpiricalInitial, {"path": _samples}, {}),
}


def _target(spec, path: str, base_dir: str):
    # a function, so that a mixture component can name TARGETS before it exists
    return _build(spec, path, "kind", TARGETS, base_dir)


TARGETS = {
    "exponential": (Exponential, {"rate": _number}, {}),
    "weibull": (Weibull, {"shape": _number, "scale": _number}, {}),
    "levy_hitting": (LevyHittingLaw, {"c": _number}, {}),
    "inverse_gaussian_hitting": (InverseGaussianHitting, {"c": _number, "gamma": _number}, {}),
    "point_mass": (PointMass, {"t0": _number}, {}),
    "mixture": (
        Mixture,
        {"components": _list(_tuple_of({"weight": _number, "target": _target}), "nonempty list of components", True)},
        {},
    ),
    "empirical": (EmpiricalTarget, {"path": _samples}, {}),
}


def _grid(spec, path: str, base_dir: str) -> TimeGrid:
    fields = {"t_start": _number, "dt": _number, "steps": _size}
    t_start, dt, steps = _fields(spec, path, fields, {}, base_dir).values()
    if t_start < dt:
        raise ConfigError(f"{path}.t_start", "t_start must be >= dt (grids exclude 0)")
    try:
        return TimeGrid(t_start, dt, steps)
    except GridError as exc:
        raise ConfigError(path, str(exc)) from exc


_SIDE = {"process": _one_of("kind", PROCESSES), "initial": _one_of("kind", INITIALS), "target": _target}

# section -> parser; each section is optional, and a command requires the
# ones it needs
SECTIONS = {
    **_SIDE,
    "grid": _grid,
    "particles": _within(_size, lambda n: n >= 2, "need at least 2 particles"),
    "seed": parse_seed,
    "output": _dict_of({}, {"boundary_csv": _string, "report": _string, "fpt": _string}),
    "verify": _dict_of(
        {
            "boundary_csv": _path,
            "samples": _within(_size, lambda n: n >= 1, "need at least 1 sample"),
            "seed": parse_seed,
            "tolerance": _within(_number, lambda x: 0.0 < x <= 1.0, "tolerance must be in (0, 1]"),
        },
        {},
    ),
    "compare": _tuple_of(
        {
            "left": _tuple_of(_SIDE),
            "right": _tuple_of(_SIDE),
            "slack": _within(_number, lambda x: x >= 0, "slack must be >= 0"),
        }
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run document; sections beyond a command's needs stay None."""

    process: object | None
    initial: InitialDistribution | None
    target: TargetDistribution | None
    grid: TimeGrid | None
    particles: int | None
    seed: int | None
    output: dict
    verify: dict | None
    compare: tuple | None
    raw: dict


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("", "document nested too deeply") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _check_side(process, initial, grid: TimeGrid | None, prefix: str) -> None:
    """Checks a process against the grid and the initial law, at prefix + process/initial."""
    if process is None:
        return
    # a Levy jump-count table grows with the per-step mean; bound it before any step
    if isinstance(process, Levy) and grid is not None:
        try:
            process.check_step(grid.max_step)
        except ValueError as exc:
            raise ConfigError(prefix + "process", str(exc)) from exc
    # a law whose support leaves (L, R) would fail the first position check; a
    # normal law's support is the whole line, so the sampler checks its draws
    lo, hi = process.state_bounds
    inside = {
        PointInitial: lambda: lo < initial.x < hi,
        UniformInitial: lambda: lo <= initial.a and initial.b <= hi,
        EmpiricalInitial: lambda: lo < initial.samples[0] and initial.samples[-1] < hi,
    }.get(type(initial), lambda: True)
    if not inside():
        raise ConfigError(prefix + "initial", f"the initial law must lie in the process's state space ({lo:g}, {hi:g})")


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    try:
        sections = _fields(raw, "", {}, SECTIONS, base_dir)
    except RecursionError as exc:
        # the reader recurses into each level of a nested mixture
        raise ConfigError("", "document nested too deeply") from exc
    grid = sections.get("grid")
    _check_side(sections.get("process"), sections.get("initial"), grid, "")
    for name, (process, initial, _) in zip(("left", "right"), sections.get("compare", ())):
        _check_side(process, initial, grid, f"compare.{name}.")
    return RunConfig(**{**dict.fromkeys(SECTIONS), "output": {}, **sections}, raw=raw)


def require(config: RunConfig, *sections: str):
    for name in sections:
        if getattr(config, name) is None:
            raise ConfigError("", f"missing key '{name}'")
