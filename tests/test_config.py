import json
import math
import pathlib
import re
import sys

import pytest

from ifpt.config import COEFFICIENTS, INITIALS, MEASURES, PROCESSES, TARGETS, ConfigError, parse_config
from ifpt.processes import IntervalDiffusion, Levy, OneSidedStable
from ifpt.targets import InverseGaussianHitting, Mixture

BASE = {
    "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "exponential", "rate": 1.0},
    "grid": {"t_start": 0.125, "dt": 0.125, "steps": 8},
    "particles": 100,
    "seed": 1,
}


def test_valid_document_parses():
    cfg = parse_config(dict(BASE))
    assert cfg.particles == 100
    assert len(cfg.grid) == 8


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_config(dict(BASE, extra=1))


def test_unknown_nested_key_names_path():
    bad = dict(BASE, process={"kind": "brownian", "mu": 0.0, "vol": 1.0, "volatility": 2.0})
    with pytest.raises(ConfigError, match="process.*volatility"):
        parse_config(bad)


def test_missing_required_field_named():
    bad = dict(BASE, target={"kind": "weibull", "shape": 1.0})
    with pytest.raises(ConfigError, match="missing key 'scale'"):
        parse_config(bad)


def test_grid_must_exclude_zero():
    bad = dict(BASE, grid={"t_start": 0.01, "dt": 0.125, "steps": 8})
    with pytest.raises(ConfigError, match="t_start"):
        parse_config(bad)


def test_seed_range():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(dict(BASE, seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(dict(BASE, seed=2**64))


@pytest.mark.parametrize(
    "process, path",
    [
        ({"kind": "brownian", "mu": math.nan, "vol": 1.0}, "process.mu"),
        ({"kind": "brownian", "mu": -math.inf, "vol": 1.0}, "process.mu"),
        (
            {"kind": "diffusion", "beta": {"name": "constant", "value": 0.0},
             "sigma": {"name": "constant", "value": 1.0}, "L": math.nan},
            "process.L",
        ),
        (
            {"kind": "levy", "a": 0.0, "sigma2": 0.0, "measure": [{"type": "atoms", "atoms": [[math.nan, 1.0]]}]},
            "process.measure[0]",
        ),
    ],
)
def test_non_finite_numbers_rejected(process, path):
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(BASE, process=process))
    assert exc.value.path == path


def test_infinite_bound_accepted():
    spec = {"kind": "diffusion", "beta": {"name": "constant", "value": 0.0},
            "sigma": {"name": "constant", "value": 1.0}, "L": -math.inf, "R": math.inf}
    assert parse_config(dict(BASE, process=spec)).process.state_bounds == (-math.inf, math.inf)


def test_particles_floor():
    with pytest.raises(ConfigError, match="particles"):
        parse_config(dict(BASE, particles=1))


def test_levy_measure_components():
    cfg = parse_config(
        dict(
            BASE,
            process={
                "kind": "levy",
                "a": 0.5,
                "sigma2": 0.0,
                "measure": [
                    {"type": "atoms", "atoms": [[1.0, 2.0]]},
                    {"type": "stable", "side": "+", "alpha": 0.5, "intensity": 1.0},
                    {"type": "gamma", "side": "-", "shape": 1.0, "rate": 2.0},
                ],
            },
        )
    )
    model = cfg.process
    assert isinstance(model, Levy)
    comps = model.measure
    assert isinstance(comps[1], OneSidedStable) and comps[1].tempering == 0.0
    assert isinstance(comps[2], OneSidedStable) and comps[2].alpha == 0.0
    assert model.eta == 1e-2 and model.small_jump_mode == "gaussian"


def test_bad_measure_parameter_reports_index():
    bad = dict(
        BASE,
        process={
            "kind": "levy",
            "a": 0.0,
            "sigma2": 0.0,
            "measure": [{"type": "stable", "side": "+", "alpha": 2.5, "intensity": 1.0}],
        },
    )
    with pytest.raises(ConfigError, match=r"measure\[0\]"):
        parse_config(bad)


def test_diffusion_extended_bounds():
    cfg = parse_config(
        dict(
            BASE,
            # the point start must lie in the open state space (0, inf)
            initial={"kind": "point", "x": 1.0},
            process={
                "kind": "diffusion",
                "beta": {"name": "bessel_drift", "delta": 3.0},
                "sigma": {"name": "constant", "value": 1.0},
                "L": 0.0,
                "R": None,
                "lower_boundary_behavior": "reflecting",
                "dt_substeps": 2,
            },
        )
    )
    model = cfg.process
    assert isinstance(model, IntervalDiffusion)
    assert model.L == 0.0 and model.R == math.inf


def test_mixture_target_recursion():
    cfg = parse_config(
        dict(
            BASE,
            target={
                "kind": "mixture",
                "components": [
                    {"weight": 0.5, "target": {"kind": "exponential", "rate": 1.0}},
                    {"weight": 0.5, "target": {"kind": "point_mass", "t0": 0.5}},
                ],
            },
        )
    )
    assert isinstance(cfg.target, Mixture)


def test_relative_boundary_csv_is_under_the_config_directory(tmp_path):
    verify = {"boundary_csv": "b.csv", "samples": 10, "seed": 1, "tolerance": 0.1}
    cfg = parse_config(dict(BASE, verify=verify), base_dir=str(tmp_path))
    assert cfg.verify["boundary_csv"] == str(tmp_path / "b.csv")
    absolute = str(tmp_path / "elsewhere" / "b.csv")
    cfg = parse_config(dict(BASE, verify=dict(verify, boundary_csv=absolute)), base_dir="/unused")
    assert cfg.verify["boundary_csv"] == absolute


def test_mixture_nested_past_the_recursion_limit_is_config_error():
    # it used to escape as a RecursionError, which the CLI reports as exit 3
    target = {"kind": "exponential", "rate": 1.0}
    for _ in range(sys.getrecursionlimit()):
        target = {"kind": "mixture", "components": [{"weight": 1.0, "target": target}]}
    with pytest.raises(ConfigError) as err:
        parse_config(dict(BASE, target=target))
    assert (err.value.path, str(err.value)) == ("", "document nested too deeply")


def test_compare_section_shape():
    side = {
        "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
        "initial": {"kind": "point", "x": 0.0},
        "target": {"kind": "exponential", "rate": 1.0},
    }
    cfg = parse_config(
        {
            "compare": {"left": side, "right": side, "slack": 0.0},
            "grid": BASE["grid"],
            "particles": 100,
            "seed": 1,
        }
    )
    left, right, slack = cfg.compare
    assert slack == 0.0 and len(left) == 3 and len(right) == 3


# One minimal spec per table entry, keyed by (table, kind); each is read at
# the key path given by its table's entry in PLACES
MINIMAL = {
    ("target", "exponential"): {"kind": "exponential", "rate": 1.0},
    ("target", "weibull"): {"kind": "weibull", "shape": 1.5, "scale": 2.0},
    ("target", "levy_hitting"): {"kind": "levy_hitting", "c": 1.0},
    ("target", "inverse_gaussian_hitting"): {"kind": "inverse_gaussian_hitting", "c": 1.0, "gamma": 0.5},
    ("target", "point_mass"): {"kind": "point_mass", "t0": 0.5},
    ("target", "mixture"): {
        "kind": "mixture",
        "components": [{"weight": 1.0, "target": {"kind": "exponential", "rate": 1.0}}],
    },
    ("target", "empirical"): {"kind": "empirical", "path": "samples.txt"},
    ("initial", "point"): {"kind": "point", "x": 0.0},
    ("initial", "uniform"): {"kind": "uniform", "a": 0.0, "b": 1.0},
    ("initial", "normal"): {"kind": "normal", "mean": 0.0, "std": 1.0},
    ("initial", "empirical"): {"kind": "empirical", "path": "samples.txt"},
    ("process", "brownian"): {"kind": "brownian", "mu": 0.0, "vol": 1.0},
    ("process", "levy"): {"kind": "levy", "a": 0.0, "sigma2": 1.0, "measure": []},
    ("process", "diffusion"): {
        "kind": "diffusion",
        "beta": {"name": "ou", "theta": 1.0},
        "sigma": {"name": "constant", "value": 1.0},
    },
    ("measure", "atoms"): {"type": "atoms", "atoms": [[1.0, 2.0]]},
    ("measure", "stable"): {"type": "stable", "side": "+", "alpha": 0.5, "intensity": 1.0},
    ("measure", "gamma"): {"type": "gamma", "side": "-", "shape": 1.0, "rate": 2.0},
    ("coefficient", "constant"): {"name": "constant", "value": 1.0},
    ("coefficient", "linear"): {"name": "linear", "a": 0.0, "b": 1.0},
    ("coefficient", "ou"): {"name": "ou", "theta": 1.0},
    ("coefficient", "bessel_drift"): {"name": "bessel_drift", "delta": 3.0},
    ("coefficient", "power"): {"name": "power", "p": 2.0, "coeff": 1.0},
}

# table -> (the table, the key path of a spec, the document holding the
# spec, the object built from it)
PLACES = {
    "target": (TARGETS, "target", lambda spec: {"target": spec}, lambda cfg: cfg.target),
    "initial": (INITIALS, "initial", lambda spec: {"initial": spec}, lambda cfg: cfg.initial),
    "process": (PROCESSES, "process", lambda spec: {"process": spec}, lambda cfg: cfg.process),
    "measure": (
        MEASURES,
        "process.measure[0]",
        lambda spec: {"process": {"kind": "levy", "a": 0.0, "sigma2": 0.0, "measure": [spec]}},
        lambda cfg: cfg.process.measure[0],
    ),
    "coefficient": (
        COEFFICIENTS,
        "process.beta",
        lambda spec: {"process": {"kind": "diffusion", "beta": spec, "sigma": {"name": "constant", "value": 1.0}}},
        lambda cfg: cfg.process.beta,
    ),
}


def test_every_table_entry_has_a_minimal_spec():
    assert set(MINIMAL) == {(name, kind) for name, place in PLACES.items() for kind in place[0]}


def _parse_at(table_name, spec, tmp_path):
    (tmp_path / "samples.txt").write_text("0.5\n1.0\n1.5\n")
    return parse_config(PLACES[table_name][2](spec), base_dir=str(tmp_path))


@pytest.mark.parametrize("table_name, kind", sorted(MINIMAL))
def test_minimal_spec_builds(table_name, kind, tmp_path):
    table, _, _, pick = PLACES[table_name]
    built = pick(_parse_at(table_name, MINIMAL[table_name, kind], tmp_path))
    make = table[kind][0]
    # the brownian, levy, gamma and levy_hitting entries' constructors are
    # functions; each returns the type named here
    types = {"brownian": IntervalDiffusion, "levy": Levy, "gamma": OneSidedStable, "levy_hitting": InverseGaussianHitting}
    assert isinstance(built, make if isinstance(make, type) else types[kind])


@pytest.mark.parametrize(
    "table_name, kind, key",
    [(t, k, key) for (t, k) in sorted(MINIMAL) for key in PLACES[t][0][k][1]],
)
def test_missing_required_key_named_at_its_path(table_name, kind, key, tmp_path):
    spec = {k: v for k, v in MINIMAL[table_name, kind].items() if k != key}
    with pytest.raises(ConfigError, match=f"missing key '{key}'") as err:
        _parse_at(table_name, spec, tmp_path)
    assert err.value.path == PLACES[table_name][1]


@pytest.mark.parametrize("table_name, kind", sorted(MINIMAL))
def test_extra_key_rejected_at_its_path(table_name, kind, tmp_path):
    spec = dict(MINIMAL[table_name, kind], bogus=1)
    with pytest.raises(ConfigError, match="unknown key 'bogus'") as err:
        _parse_at(table_name, spec, tmp_path)
    assert err.value.path == PLACES[table_name][1]


@pytest.mark.parametrize(
    "table_name, spec, path, problem",
    [
        # each used to build and exit 0: c = 0 puts mass at t = 0, a
        # negative std reverses the monotone coupling, a > b is no interval
        ("target", {"kind": "levy_hitting", "c": 0.0}, "target", "c must be > 0"),
        ("target", {"kind": "inverse_gaussian_hitting", "c": 0.0, "gamma": 0.5}, "target", "c must be > 0"),
        (
            "target",
            {"kind": "mixture", "components": [{"weight": 1.0, "target": {"kind": "levy_hitting", "c": 0.0}}]},
            "target.components[0].target",
            "c must be > 0",
        ),
        ("initial", {"kind": "normal", "mean": 0.0, "std": -1.0}, "initial", "std must be > 0"),
        ("initial", {"kind": "uniform", "a": 1.0, "b": 0.5}, "initial", "a must be < b"),
        # each used to pass only through a probe of the survival function
        ("target", {"kind": "exponential", "rate": -1.0}, "target", "rate must be >= 0"),
        ("target", {"kind": "weibull", "shape": 0.0, "scale": 1.0}, "target", "shape must be > 0"),
        ("target", {"kind": "weibull", "shape": 1.0, "scale": 0.0}, "target", "scale must be > 0"),
        ("target", {"kind": "point_mass", "t0": 0.0}, "target", "t0 must be > 0"),
        (
            "target",
            {
                "kind": "mixture",
                "components": [
                    {"weight": 1.5, "target": {"kind": "exponential", "rate": 1.0}},
                    {"weight": -0.5, "target": {"kind": "exponential", "rate": 2.0}},
                ],
            },
            "target",
            "weights must be >= 0",
        ),
        ("target", {"kind": "empirical", "path": "nonpositive.txt"}, "target", "samples must be > 0"),
        # each used to be read through float() and calibrate with exit 0
        ("measure", {"type": "atoms", "atoms": [[True, 1.0]]}, "process.measure[0]", "sizes and rates must be numbers"),
        ("measure", {"type": "atoms", "atoms": [["1", 1.0]]}, "process.measure[0]", "sizes and rates must be numbers"),
        # each used to report the text of a Python TypeError or ValueError
        ("measure", {"type": "atoms", "atoms": [[1.0, None]]}, "process.measure[0]", "sizes and rates must be numbers"),
        ("measure", {"type": "atoms", "atoms": [[1.0, 2.0, 3.0]]}, "process.measure[0]", r"a pair \[size, rate\]"),
        ("measure", {"type": "atoms", "atoms": [1.0]}, "process.measure[0]", r"a pair \[size, rate\]"),
        # an object calibrated as an empty measure, a number reported Python's
        # "not iterable" and a string reported its characters as atoms
        ("measure", {"type": "atoms", "atoms": {}}, "process.measure[0]", r"atoms must be a list of pairs"),
        ("measure", {"type": "atoms", "atoms": 5}, "process.measure[0]", r"atoms must be a list of pairs"),
        ("measure", {"type": "atoms", "atoms": "ab"}, "process.measure[0]", r"atoms must be a list of pairs"),
        # the untempered stable density at alpha = 0 has an infinite tail rate
        ("measure", {"type": "stable", "side": "+", "alpha": 0.0, "intensity": 1.0}, "process.measure[0]", "alpha = 0 needs tempering > 0"),
    ],
)
def test_parameter_outside_the_model_rejected_at_its_path(table_name, spec, path, problem, tmp_path):
    (tmp_path / "nonpositive.txt").write_text("0.5\n0.0\n1.5\n")
    with pytest.raises(ConfigError, match=problem) as err:
        _parse_at(table_name, spec, tmp_path)
    assert err.value.path == path


def test_initial_law_may_touch_the_state_space_ends(tmp_path):
    # a uniform law on [L, R] is accepted, and a normal law, whose support is
    # the whole line, is left to the initial sampler's check
    process = {"kind": "diffusion", "beta": {"name": "constant", "value": 0.0},
               "sigma": {"name": "constant", "value": 1.0}, "L": 2.0, "R": 4.0}
    for initial in ({"kind": "uniform", "a": 2.0, "b": 4.0}, {"kind": "normal", "mean": 0.0, "std": 1.0}):
        assert parse_config({"process": process, "initial": initial}).initial is not None


def _readme_json_documents():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        for doc in re.split(r"\n\s*\n", block.strip()):
            yield json.loads(doc)


def test_readme_specs_parse():
    docs = list(_readme_json_documents())
    processes = [doc for doc in docs if "kind" in doc]
    assert {p["kind"] for p in processes} == {"levy", "diffusion"}
    for spec in processes:
        parse_config({"process": spec})
    for doc in docs:
        if "kind" not in doc:
            parse_config(doc)


SIDE = {
    "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "exponential", "rate": 1.0},
}
VERIFY = {"boundary_csv": "b.csv", "samples": 100, "seed": 1, "tolerance": 0.1}


def _compare(**changes):
    return {"compare": dict({"left": SIDE, "right": SIDE, "slack": 0.0}, **changes), "grid": BASE["grid"]}


def _mixture(*components):
    return dict(BASE, target={"kind": "mixture", "components": list(components)})


EXP = {"kind": "exponential", "rate": 1.0}


@pytest.mark.parametrize(
    "doc, path, message",
    [
        # the top level
        ([], "", "expected an object, got list"),
        (dict(BASE, extra=1), "", "unknown key 'extra'"),
        (dict(BASE, particles=1), "particles", "need at least 2 particles"),
        (dict(BASE, particles=2.5), "particles", "expected an integer"),
        (dict(BASE, seed="1"), "seed", "expected an integer"),
        (dict(BASE, seed=2**64), "seed", "seed must be a 64-bit unsigned integer"),
        # the grid
        (dict(BASE, grid=[0.125, 0.125, 8]), "grid", "expected an object, got list"),
        (dict(BASE, grid={"t_start": 0.125, "dt": 0.125}), "grid", "missing key 'steps'"),
        (dict(BASE, grid=dict(BASE["grid"], bogus=1)), "grid", "unknown key 'bogus'"),
        (dict(BASE, grid=dict(BASE["grid"], dt="0.125")), "grid.dt", "expected a finite number"),
        (dict(BASE, grid=dict(BASE["grid"], steps=8.0)), "grid.steps", "expected an integer"),
        (dict(BASE, grid=dict(BASE["grid"], t_start=0.0625)), "grid.t_start", "t_start must be >= dt (grids exclude 0)"),
        (dict(BASE, grid=dict(BASE["grid"], dt=0.0)), "grid", "dt must be > 0"),
        (dict(BASE, grid=dict(BASE["grid"], steps=0)), "grid", "steps must be >= 1"),
        (dict(BASE, grid={"t_start": 1e308, "dt": 1e308, "steps": 3}), "grid", "the last grid point must be finite"),
        # output
        (dict(BASE, output="out"), "output", "expected an object, got str"),
        (dict(BASE, output={"csv": "b.csv"}), "output", "unknown key 'csv'"),
        (dict(BASE, output={"boundary_csv": 1}), "output.boundary_csv", "expected a string"),
        (dict(BASE, output={"fpt": None}), "output.fpt", "expected a string"),
        # verify
        (dict(BASE, verify=["b.csv"]), "verify", "expected an object, got list"),
        (dict(BASE, verify={k: v for k, v in VERIFY.items() if k != "tolerance"}), "verify", "missing key 'tolerance'"),
        (dict(BASE, verify=dict(VERIFY, alpha=0.05)), "verify", "unknown key 'alpha'"),
        (dict(BASE, verify=dict(VERIFY, boundary_csv=1)), "verify.boundary_csv", "expected a string"),
        (dict(BASE, verify=dict(VERIFY, samples="100")), "verify.samples", "expected an integer"),
        (dict(BASE, verify=dict(VERIFY, samples=0)), "verify.samples", "need at least 1 sample"),
        (dict(BASE, verify=dict(VERIFY, seed=-1)), "verify.seed", "seed must be a 64-bit unsigned integer"),
        (dict(BASE, verify=dict(VERIFY, tolerance=0.0)), "verify.tolerance", "tolerance must be in (0, 1]"),
        (dict(BASE, verify=dict(VERIFY, tolerance=1.5)), "verify.tolerance", "tolerance must be in (0, 1]"),
        (dict(BASE, verify=dict(VERIFY, tolerance=True)), "verify.tolerance", "expected a finite number"),
        # compare and its sides
        ({"compare": [SIDE, SIDE]}, "compare", "expected an object, got list"),
        ({"compare": {"left": SIDE, "right": SIDE}}, "compare", "missing key 'slack'"),
        (_compare(bogus=1), "compare", "unknown key 'bogus'"),
        (_compare(slack=-0.1), "compare.slack", "slack must be >= 0"),
        (_compare(slack="0"), "compare.slack", "expected a finite number"),
        (_compare(left=[SIDE]), "compare.left", "expected an object, got list"),
        (_compare(right={"process": SIDE["process"], "initial": SIDE["initial"]}), "compare.right", "missing key 'target'"),
        (_compare(left=dict(SIDE, grid=BASE["grid"])), "compare.left", "unknown key 'grid'"),
        (
            _compare(left=dict(SIDE, process={"kind": "brownian", "mu": 0.0, "vol": "1"})),
            "compare.left.process.vol",
            "expected a finite number",
        ),
        (
            _compare(right=dict(SIDE, initial={"kind": "dirac", "x": 0.0})),
            "compare.right.initial.kind",
            "unknown kind 'dirac', expected one of point, uniform, normal, empirical",
        ),
        (_compare(right=dict(SIDE, target={"kind": "point_mass", "t0": -1.0})), "compare.right.target", "t0 must be > 0"),
        # mixture components
        (dict(BASE, target={"kind": "mixture", "components": EXP}), "target.components", "expected a nonempty list of components"),
        (_mixture(1.0), "target.components[0]", "expected an object, got float"),
        (_mixture({"target": EXP}), "target.components[0]", "missing key 'weight'"),
        (_mixture({"weight": 1.0, "target": EXP, "rate": 1.0}), "target.components[0]", "unknown key 'rate'"),
        (
            _mixture({"weight": 0.5, "target": EXP}, {"weight": True, "target": EXP}),
            "target.components[1].weight",
            "expected a finite number",
        ),
        (
            _mixture({"weight": 1.0, "target": {"kind": "gamma", "rate": 1.0}}),
            "target.components[0].target.kind",
            "unknown kind 'gamma', expected one of exponential, weibull, levy_hitting, inverse_gaussian_hitting, "
            "point_mass, mixture, empirical",
        ),
    ],
)
def test_malformed_section_reported_at_its_path(doc, path, message):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path == path
    assert str(err.value) == (f"{path}: {message}" if path else message)
