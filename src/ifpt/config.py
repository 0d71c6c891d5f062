"""Declarative JSON run configurations.

The document is schema-validated before any computation: unknown keys are
rejected, every error message names the offending key path.  Grids exclude
zero, so t_start must be at least dt.
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
    COEFFICIENTS,
    BrownianDrift,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    LevyMeasureSpec,
    LevyTriple,
    OneSidedStable,
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


def _number(obj: dict, path: str, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", "expected a number")
    return float(v)


def _integer(obj: dict, path: str, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", "expected an integer")
    return v


def _string(obj: dict, path: str, key: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}", "expected a string")
    return v


def _extended(obj: dict, path: str, key: str, default: float) -> float:
    v = obj.get(key)
    if v is None:
        return default
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", "expected a number, 'inf', '-inf' or null")
    return float(v)


def build_target(spec: dict, path: str = "target", base_dir: str = ".") -> TargetDistribution:
    _check_keys(spec, path, {"kind"}, {"rate", "shape", "scale", "c", "gamma", "t0", "components", "path"})
    kind = _string(spec, path, "kind")
    try:
        if kind == "exponential":
            _check_keys(spec, path, {"kind", "rate"})
            return Exponential(rate=_number(spec, path, "rate"))
        if kind == "weibull":
            _check_keys(spec, path, {"kind", "shape", "scale"})
            return Weibull(shape=_number(spec, path, "shape"), scale=_number(spec, path, "scale"))
        if kind == "levy_hitting":
            _check_keys(spec, path, {"kind", "c"})
            return LevyHittingLaw(c=_number(spec, path, "c"))
        if kind == "inverse_gaussian_hitting":
            _check_keys(spec, path, {"kind", "c", "gamma"})
            return InverseGaussianHitting(c=_number(spec, path, "c"), gamma=_number(spec, path, "gamma"))
        if kind == "point_mass":
            _check_keys(spec, path, {"kind", "t0"})
            return PointMass(t0=_number(spec, path, "t0"))
        if kind == "mixture":
            _check_keys(spec, path, {"kind", "components"})
            comps = []
            for i, item in enumerate(spec["components"]):
                ipath = f"{path}.components[{i}]"
                _check_keys(item, ipath, {"weight", "target"})
                comps.append(
                    (_number(item, ipath, "weight"), build_target(item["target"], f"{ipath}.target", base_dir))
                )
            return Mixture(components=tuple(comps))
        if kind == "empirical":
            _check_keys(spec, path, {"kind", "path"})
            return EmpiricalTarget(samples=_load_samples(spec["path"], path, base_dir))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown target kind {kind!r}")


def build_initial(spec: dict, path: str = "initial", base_dir: str = ".") -> InitialDistribution:
    _check_keys(spec, path, {"kind"}, {"x", "a", "b", "mean", "std", "path"})
    kind = _string(spec, path, "kind")
    if kind == "point":
        _check_keys(spec, path, {"kind", "x"})
        return PointInitial(x=_number(spec, path, "x"))
    if kind == "uniform":
        _check_keys(spec, path, {"kind", "a", "b"})
        return UniformInitial(a=_number(spec, path, "a"), b=_number(spec, path, "b"))
    if kind == "normal":
        _check_keys(spec, path, {"kind", "mean", "std"})
        return NormalInitial(mean=_number(spec, path, "mean"), std=_number(spec, path, "std"))
    if kind == "empirical":
        _check_keys(spec, path, {"kind", "path"})
        return EmpiricalInitial(samples=_load_samples(spec["path"], path, base_dir))
    raise ConfigError(f"{path}.kind", f"unknown initial kind {kind!r}")


def _load_samples(relpath, path: str, base_dir: str) -> np.ndarray:
    if not isinstance(relpath, str):
        raise ConfigError(f"{path}.path", "expected a file path string")
    full = relpath if os.path.isabs(relpath) else os.path.join(base_dir, relpath)
    try:
        data = np.loadtxt(full, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"{path}.path", f"cannot read {full!r}: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"{path}.path", "sample file is empty")
    return data


def _build_coefficient(spec: dict, path: str):
    _check_keys(spec, path, {"name"}, {"value", "a", "b", "theta", "delta", "p", "coeff"})
    name = _string(spec, path, "name")
    if name not in COEFFICIENTS:
        raise ConfigError(f"{path}.name", f"unknown coefficient {name!r}")
    params = {
        "constant": ("value",),
        "linear": ("a", "b"),
        "ou": ("theta",),
        "bessel_drift": ("delta",),
        "power": ("p", "coeff"),
    }[name]
    _check_keys(spec, path, {"name", *params})
    return COEFFICIENTS[name](*(_number(spec, path, k) for k in params))


def _build_measure(items, path: str) -> LevyMeasureSpec:
    if not isinstance(items, list):
        raise ConfigError(path, "expected a list of measure components")
    comps = []
    for i, item in enumerate(items):
        ipath = f"{path}[{i}]"
        _check_keys(item, ipath, {"type"}, {"atoms", "side", "alpha", "intensity", "tempering", "shape", "rate"})
        typ = _string(item, ipath, "type")
        try:
            if typ == "atoms":
                _check_keys(item, ipath, {"type", "atoms"})
                pairs = item["atoms"]
                comps.append(FiniteAtoms(atoms=tuple((float(x), float(r)) for x, r in pairs)))
            elif typ == "stable":
                _check_keys(item, ipath, {"type", "side", "alpha", "intensity"}, {"tempering"})
                comps.append(
                    OneSidedStable(
                        side=_string(item, ipath, "side"),
                        alpha=_number(item, ipath, "alpha"),
                        intensity=_number(item, ipath, "intensity"),
                        tempering=_number(item, ipath, "tempering") if "tempering" in item else 0.0,
                    )
                )
            elif typ == "gamma":
                _check_keys(item, ipath, {"type", "side", "shape", "rate"})
                comps.append(
                    GammaSubordinatorMeasure(
                        side=_string(item, ipath, "side"),
                        shape=_number(item, ipath, "shape"),
                        rate=_number(item, ipath, "rate"),
                    )
                )
            else:
                raise ConfigError(f"{ipath}.type", f"unknown measure component {typ!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(ipath, str(exc)) from exc
    return LevyMeasureSpec(components=tuple(comps))


def build_process(spec: dict, path: str = "process"):
    _check_keys(
        spec,
        path,
        {"kind"},
        {"mu", "vol", "a", "sigma2", "measure", "eta", "small_jump_mode",
         "beta", "sigma", "L", "R", "lower_boundary_behavior", "dt_substeps"},
    )
    kind = _string(spec, path, "kind")
    try:
        if kind == "brownian":
            _check_keys(spec, path, {"kind", "mu", "vol"})
            return BrownianDrift(mu=_number(spec, path, "mu"), vol=_number(spec, path, "vol"))
        if kind == "levy":
            _check_keys(spec, path, {"kind", "a", "sigma2", "measure"}, {"eta", "small_jump_mode"})
            triple = LevyTriple(
                a=_number(spec, path, "a"),
                sigma2=_number(spec, path, "sigma2"),
                levy_measure=_build_measure(spec["measure"], f"{path}.measure"),
            )
            return Levy(
                triple=triple,
                small_jump_mode=_string(spec, path, "small_jump_mode") if "small_jump_mode" in spec else "gaussian",
                eta=_number(spec, path, "eta") if "eta" in spec else 1e-2,
            )
        if kind == "diffusion":
            _check_keys(
                spec, path, {"kind", "beta", "sigma"},
                {"L", "R", "lower_boundary_behavior", "dt_substeps"},
            )
            return IntervalDiffusion(
                beta=_build_coefficient(spec["beta"], f"{path}.beta"),
                sigma=_build_coefficient(spec["sigma"], f"{path}.sigma"),
                L=_extended(spec, path, "L", -math.inf),
                R=_extended(spec, path, "R", math.inf),
                lower_boundary_behavior=(
                    _string(spec, path, "lower_boundary_behavior")
                    if "lower_boundary_behavior" in spec
                    else "unattainable"
                ),
                dt_substeps=_integer(spec, path, "dt_substeps") if "dt_substeps" in spec else 1,
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown process kind {kind!r}")


def build_grid(spec: dict, path: str = "grid") -> TimeGrid:
    _check_keys(spec, path, {"t_start", "dt", "steps"})
    t_start = _number(spec, path, "t_start")
    dt = _number(spec, path, "dt")
    steps = _integer(spec, path, "steps")
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

    process = build_process(raw["process"]) if "process" in raw else None
    initial = build_initial(raw["initial"], base_dir=base_dir) if "initial" in raw else None
    target = build_target(raw["target"], base_dir=base_dir) if "target" in raw else None
    grid = build_grid(raw["grid"]) if "grid" in raw else None

    particles = None
    if "particles" in raw:
        particles = _integer(raw, "", "particles")
        if particles < 2:
            raise ConfigError("particles", "need at least 2 particles")
    seed = None
    if "seed" in raw:
        seed = _integer(raw, "", "seed")
        if not 0 <= seed < 2**64:
            raise ConfigError("seed", "seed must be a 64-bit unsigned integer")

    output = {}
    if "output" in raw:
        _check_keys(raw["output"], "output", set(), {"boundary_csv", "report", "fpt"})
        output = dict(raw["output"])

    verify = None
    if "verify" in raw:
        v = raw["verify"]
        _check_keys(v, "verify", {"boundary_csv", "samples", "seed", "tolerance"})
        verify = {
            "boundary_csv": _string(v, "verify", "boundary_csv"),
            "samples": _integer(v, "verify", "samples"),
            "seed": _integer(v, "verify", "seed"),
            "tolerance": _number(v, "verify", "tolerance"),
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
                    build_process(side["process"], f"{spath}.process"),
                    build_initial(side["initial"], f"{spath}.initial", base_dir),
                    build_target(side["target"], f"{spath}.target", base_dir),
                )
            )
        compare = (sides[0], sides[1], _number(c, "compare", "slack"))

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
