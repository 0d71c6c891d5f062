"""Declarative JSON run configurations.

The document is schema-validated before any computation: unknown keys are
rejected, every error message names the offending key path.  Grids exclude
zero, so t_start must be at least dt.

Targets, initial laws, processes, Lévy measure components and diffusion
coefficients are read through one table each.  A table maps the value of
the kind tag to the constructor and to the parsers of its required and
optional keys.  An optional key that is absent leaves the model's own
default in place, so every default is written once, in the model class.
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
    LevyMeasureSpec,
    LevyTriple,
    Linear,
    OneSidedStable,
    Power,
)
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


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ConfigError(path, f"missing key '{key}'")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown key '{sorted(unknown)[0]}'")


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


def parse_seed(v, path: str) -> int:
    """A seed: an integer in [0, 2**64)."""
    seed = _integer(v, path)
    if not 0 <= seed < 2**64:
        raise ConfigError(path, "seed must be a 64-bit unsigned integer")
    return seed


def _string(v, path: str, base_dir: str = ".") -> str:
    if not isinstance(v, str):
        raise ConfigError(path, "expected a string")
    return v


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
    full = relpath if os.path.isabs(relpath) else os.path.join(base_dir, relpath)
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


def _build(spec, path: str, tag: str, table: dict, base_dir: str = "."):
    """The object that ``spec[tag]`` names in table, built from the other keys.

    Required values go to the constructor in table order, optional ones by
    key.  A constructor's TypeError or ValueError is reported at path.
    """
    allowed = {key for _, required, optional in table.values() for key in (*required, *optional)}
    _check_keys(spec, path, {tag}, allowed)
    kind = _string(spec[tag], f"{path}.{tag}")
    if kind not in table:
        raise ConfigError(f"{path}.{tag}", f"unknown {tag} {kind!r}, expected one of {', '.join(table)}")
    make, required, optional = table[kind]
    _check_keys(spec, path, {tag, *required}, set(optional))
    try:
        args = [parse(spec[key], f"{path}.{key}", base_dir) for key, parse in required.items()]
        options = {
            key: parse(spec[key], f"{path}.{key}", base_dir) for key, parse in optional.items() if key in spec
        }
        # a parsed None (null for L or R) keeps the default, like an absent key
        return make(*args, **{key: v for key, v in options.items() if v is not None})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _components(items, path: str, base_dir: str) -> tuple:
    if not isinstance(items, list) or not items:
        raise ConfigError(path, "expected a nonempty list of components")
    comps = []
    for i, item in enumerate(items):
        ipath = f"{path}[{i}]"
        _check_keys(item, ipath, {"weight", "target"})
        weight = _number(item["weight"], f"{ipath}.weight")
        comps.append((weight, _build(item["target"], f"{ipath}.target", "kind", TARGETS, base_dir)))
    return tuple(comps)


def _measure(items, path: str, base_dir: str) -> LevyMeasureSpec:
    if not isinstance(items, list):
        raise ConfigError(path, "expected a list of measure components")
    return LevyMeasureSpec(
        tuple(_build(item, f"{path}[{i}]", "type", MEASURES, base_dir) for i, item in enumerate(items))
    )


def _coefficient(spec, path: str, base_dir: str):
    return _build(spec, path, "name", COEFFICIENTS, base_dir)


def _levy(a: float, sigma2: float, measure: LevyMeasureSpec, **options) -> Levy:
    return Levy(LevyTriple(a, sigma2, measure), **options)


# kind -> (constructor, {required key: parser}, {optional key: parser}); the
# required keys are listed in the order of the constructor's arguments

TARGETS = {
    "exponential": (Exponential, {"rate": _number}, {}),
    "weibull": (Weibull, {"shape": _number, "scale": _number}, {}),
    "levy_hitting": (LevyHittingLaw, {"c": _number}, {}),
    "inverse_gaussian_hitting": (InverseGaussianHitting, {"c": _number, "gamma": _number}, {}),
    "point_mass": (PointMass, {"t0": _number}, {}),
    "mixture": (Mixture, {"components": _components}, {}),
    "empirical": (EmpiricalTarget, {"path": _samples}, {}),
}

INITIALS = {
    "point": (PointInitial, {"x": _number}, {}),
    "uniform": (UniformInitial, {"a": _number, "b": _number}, {}),
    "normal": (NormalInitial, {"mean": _number, "std": _number}, {}),
    "empirical": (EmpiricalInitial, {"path": _samples}, {}),
}

PROCESSES = {
    "brownian": (BrownianDrift, {"mu": _number, "vol": _number}, {}),
    "levy": (
        _levy,
        {"a": _number, "sigma2": _number, "measure": _measure},
        {"small_jump_mode": _string, "eta": _number},
    ),
    "diffusion": (
        IntervalDiffusion,
        {"beta": _coefficient, "sigma": _coefficient},
        {"L": _extended, "R": _extended, "lower_boundary_behavior": _string, "dt_substeps": _integer},
    ),
}

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


def build_grid(spec: dict, path: str = "grid") -> TimeGrid:
    _check_keys(spec, path, {"t_start", "dt", "steps"})
    t_start = _number(spec["t_start"], f"{path}.t_start")
    dt = _number(spec["dt"], f"{path}.dt")
    steps = _integer(spec["steps"], f"{path}.steps")
    if t_start < dt:
        raise ConfigError(f"{path}.t_start", "t_start must be >= dt (grids exclude 0)")
    try:
        return TimeGrid.arithmetic(t_start, dt, steps)
    except GridError as exc:
        raise ConfigError(path, str(exc)) from exc


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


_TOP_KEYS = {"process", "initial", "target", "grid", "particles", "seed", "output", "verify", "compare"}


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    _check_keys(raw, "", set(), _TOP_KEYS)

    process = _build(raw["process"], "process", "kind", PROCESSES) if "process" in raw else None
    initial = _build(raw["initial"], "initial", "kind", INITIALS, base_dir) if "initial" in raw else None
    target = _build(raw["target"], "target", "kind", TARGETS, base_dir) if "target" in raw else None
    grid = build_grid(raw["grid"]) if "grid" in raw else None

    particles = None
    if "particles" in raw:
        particles = _integer(raw["particles"], "particles")
        if particles < 2:
            raise ConfigError("particles", "need at least 2 particles")
    seed = parse_seed(raw["seed"], "seed") if "seed" in raw else None

    output = {}
    if "output" in raw:
        _check_keys(raw["output"], "output", set(), {"boundary_csv", "report", "fpt"})
        output = {key: _string(v, f"output.{key}") for key, v in raw["output"].items()}

    verify = None
    if "verify" in raw:
        v = raw["verify"]
        _check_keys(v, "verify", {"boundary_csv", "samples", "seed", "tolerance"})
        verify = {
            "boundary_csv": _string(v["boundary_csv"], "verify.boundary_csv"),
            "samples": _integer(v["samples"], "verify.samples"),
            "seed": parse_seed(v["seed"], "verify.seed"),
            "tolerance": _number(v["tolerance"], "verify.tolerance"),
            "base_dir": base_dir,
        }
        if verify["samples"] < 1:
            raise ConfigError("verify.samples", "need at least 1 sample")
        if not 0.0 < verify["tolerance"] <= 1.0:
            raise ConfigError("verify.tolerance", "tolerance must be in (0, 1]")

    compare = None
    if "compare" in raw:
        c = raw["compare"]
        _check_keys(c, "compare", {"left", "right", "slack"})
        sides = []
        for name in ("left", "right"):
            side = c[name]
            spath = f"compare.{name}"
            _check_keys(side, spath, {"process", "initial", "target"})
            sides.append(
                (
                    _build(side["process"], f"{spath}.process", "kind", PROCESSES),
                    _build(side["initial"], f"{spath}.initial", "kind", INITIALS, base_dir),
                    _build(side["target"], f"{spath}.target", "kind", TARGETS, base_dir),
                )
            )
        slack = _number(c["slack"], "compare.slack")
        if slack < 0:
            raise ConfigError("compare.slack", "slack must be >= 0")
        compare = (sides[0], sides[1], slack)

    return RunConfig(
        process=process,
        initial=initial,
        target=target,
        grid=grid,
        particles=particles,
        seed=seed,
        output=output,
        verify=verify,
        compare=compare,
        raw=raw,
    )


def require(config: RunConfig, *sections: str):
    for name in sections:
        if getattr(config, name) is None:
            raise ConfigError("", f"missing key '{name}'")
