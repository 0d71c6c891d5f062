"""CLI runs load no more of scipy than they evaluate, and no OpenSSL or
importlib.metadata for the report.

scipy.integrate, with the scipy.optimize/linalg/sparse tree it loads, costs
about 0.3 s and 25 MiB per process, and no CLI command integrates: only the
quadrature helpers import it, when called.  scipy.special costs about
0.25 s and 25 MiB; only normal initial laws evaluate one of its functions
(ndtri).  The Brownian hitting laws and the Lévy measure evaluate theirs
in-house, so Brownian motion, a Lévy process or the OU diffusion from a
point or a uniform law, to any target law, loads no scipy module at all,
and no run loads numpy.random.  Each report hashes its config with
CPython's own SHA-256, not hashlib (OpenSSL, 3.5 MiB), and reads scipy's
version from its dist-info directory's name, not through
importlib.metadata (email, csv and socket, 1.4 MiB).  The checks run in a
fresh interpreter, because other test modules import scipy, hashlib and
importlib.metadata themselves.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ifpt
from ifpt import cli

SRC = os.path.dirname(os.path.dirname(ifpt.__file__))

SCRIPT = textwrap.dedent(
    """
    import json, math, os, sys

    from ifpt import cli
    scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    assert not scipy, f"import ifpt.cli: {scipy[:5]} loaded"

    # the Brownian hitting law evaluates its normal CDF in-house
    cfg = {
        "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0}, "initial": {"kind": "point", "x": 0.0},
        "target": {"kind": "levy_hitting", "c": 1.0}, "grid": {"t_start": 0.0625, "dt": 0.0625, "steps": 16},
        "particles": 500, "seed": 1,
    }
    path, out = os.path.join(sys.argv[1], "brownian.json"), os.path.join(sys.argv[1], "out")
    with open(path, "w") as f:
        json.dump(cfg, f)
    assert cli.main(["calibrate", "-c", path, "-o", out]) == 0
    assert os.path.isfile(os.path.join(out, "boundary.csv"))
    scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    assert not scipy, f"levy_hitting calibrate: {scipy[:5]} loaded"

    from scipy.special import gamma, gammainc
    from ifpt.processes import (
        Constant, IntervalDiffusion, LevyMeasureSpec, LevyTriple, OneSidedStable, Power,
        levy_char_exponent, scale_transform,
    )

    # tempered stable (alpha, c, lam): psi = -c Gamma(-alpha) ((lam - i theta)^alpha - lam^alpha)
    # plus the compensator i theta c int_0^1 x^-alpha e^(-lam x) dx
    alpha, c, lam, theta = 0.5, 0.5, 1.0, 0.7
    triple = LevyTriple(0.0, 0.0, LevyMeasureSpec((OneSidedStable("+", alpha, c, lam),)))
    want = -c * gamma(-alpha) * ((lam - 1j * theta) ** alpha - lam**alpha)
    want += 1j * theta * c * lam ** (alpha - 1) * gamma(1 - alpha) * gammainc(1 - alpha, lam)
    got = levy_char_exponent(triple, theta)
    assert abs(got - want) <= 1e-9 * abs(want), (got, want)

    # sigma(x) = x: the scale function from 1 is log x
    model = IntervalDiffusion(beta=Constant(0.0), sigma=Power(1.0, 1.0), L=0.0, R=math.inf)
    got = scale_transform(model, math.e, 1.0)
    assert abs(got - 1.0) <= 1e-10, got
    assert "scipy.integrate" in sys.modules
    print("ok")
    """
)


# calibrate, then verify the written boundary, then list the scipy modules
# loaded, and numpy.random, which no run needs: every draw is keyed; and
# hashlib, importlib.metadata and email, which the report does not need
ROUND_TRIP = textwrap.dedent(
    """
    import json, os, sys
    from ifpt import cli

    work, cfg = sys.argv[1], json.loads(sys.argv[2])
    out = os.path.join(work, "out")
    path = os.path.join(work, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    assert cli.main(["calibrate", "-c", path, "-o", out]) == 0
    cfg["verify"] = {"boundary_csv": os.path.join(out, "boundary.csv"), "samples": 500, "seed": 2, "tolerance": 1.0}
    with open(path, "w") as f:
        json.dump(cfg, f)
    assert cli.main(["verify", "-c", path, "-o", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    assert report["versions"]["scipy"] and report["config_sha256"]
    report_modules = {"hashlib", "_hashlib", "importlib.metadata"}
    print(json.dumps(sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("scipy", "email") or m.startswith("numpy.random") or m in report_modules
    )))
    """
)

GRID = {"t_start": 0.0625, "dt": 0.0625, "steps": 16}
BROWNIAN = {"kind": "brownian", "mu": 0.0, "vol": 1.0}
ROUND_TRIPS = {
    # BENCH1: the level-hitting law of Brownian motion (ndtr)
    "brownian": {
        "process": BROWNIAN,
        "initial": {"kind": "point", "x": 0.0},
        "target": {"kind": "levy_hitting", "c": 1.0},
    },
    # a downward-drifting line: the only target that evaluates erfcx
    "inverse_gaussian": {
        "process": BROWNIAN,
        "initial": {"kind": "point", "x": 0.0},
        "target": {"kind": "inverse_gaussian_hitting", "c": 1.0, "gamma": -0.5},
    },
    # every Lévy measure component: tempered and untempered stable, gamma, atoms
    "levy": {
        "process": {
            "kind": "levy", "a": 0.0, "sigma2": 0.25, "eta": 0.01, "small_jump_mode": "gaussian",
            "measure": [
                {"type": "stable", "side": "+", "alpha": 0.5, "intensity": 0.5, "tempering": 1.0},
                {"type": "stable", "side": "-", "alpha": 1.5, "intensity": 0.1},
                {"type": "gamma", "side": "+", "shape": 0.5, "rate": 2.0},
                {"type": "atoms", "atoms": [[1.0, 2.0], [-0.5, 1.0]]},
            ],
        },
        "initial": {"kind": "point", "x": 0.0},
        "target": {"kind": "exponential", "rate": 1.0},
    },
    "ou": {
        "process": {
            "kind": "diffusion", "beta": {"name": "ou", "theta": 1.0}, "sigma": {"name": "constant", "value": 1.0},
            "L": 0.0, "R": None, "lower_boundary_behavior": "reflecting", "dt_substeps": 4,
        },
        "initial": {"kind": "point", "x": 0.5},
        "target": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
    },
    # config OU of test_cli.py: initial positions drawn from a uniform law
    "uniform": {
        "process": {
            "kind": "diffusion", "beta": {"name": "ou", "theta": 1.0}, "sigma": {"name": "constant", "value": 1.0},
            "L": 0.0, "R": None, "lower_boundary_behavior": "reflecting", "dt_substeps": 4,
        },
        "initial": {"kind": "uniform", "a": 0.5, "b": 1.5},
        "target": {"kind": "exponential", "rate": 2.0},
    },
}


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_do_not_import_scipy_integrate(tmp_path):
    assert run_fresh(SCRIPT, str(tmp_path)) == "ok"


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_round_trip_loads_no_scipy(tmp_path, name):
    cfg = dict(ROUND_TRIPS[name], grid=GRID, particles=500, seed=1)
    assert json.loads(run_fresh(ROUND_TRIP, str(tmp_path), json.dumps(cfg))) == []


@pytest.fixture
def fresh_versions():
    # _versions caches its answer for the process: clear it around the test
    cli._versions.cache_clear()
    yield cli._versions
    cli._versions.cache_clear()


def dist_info(directory, name, version):
    info = directory / f"{name}-{version}.dist-info"
    info.mkdir()
    (info / "METADATA").write_text(f"Metadata-Version: 2.1\nName: {name}\nVersion: {version}\n")


def test_versions_reads_the_first_scipy_dist_info_name(tmp_path, monkeypatch, fresh_versions):
    from importlib import metadata

    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    dist_info(first, "numpy", "9.0.0")
    dist_info(first, "scipy", "1.2.3")
    dist_info(second, "scipy", "4.5.6")
    monkeypatch.setattr(sys, "path", [str(tmp_path / "missing"), str(first), str(second)])
    assert fresh_versions()["scipy"] == metadata.version("scipy") == "1.2.3"


def test_versions_without_a_scipy_dist_info_asks_importlib_metadata(tmp_path, monkeypatch, fresh_versions):
    from importlib import metadata

    # a legacy egg-info, which importlib.metadata reads and the name scan skips
    (tmp_path / "scipy-7.8.9.egg-info").write_text("Metadata-Version: 1.0\nName: scipy\nVersion: 7.8.9\n")
    monkeypatch.setattr(sys, "path", [str(tmp_path)])
    assert fresh_versions()["scipy"] == metadata.version("scipy") == "7.8.9"


def test_versions_without_scipy_is_none(tmp_path, monkeypatch, fresh_versions):
    dist_info(tmp_path, "numpy", "9.0.0")
    monkeypatch.setattr(sys, "path", [str(tmp_path)])
    assert fresh_versions() == {"ifpt": ifpt.__version__, "numpy": np.__version__, "scipy": None}
