"""No run imports scipy: numpy is ifpt's one runtime dependency.

Every special function a run evaluates is in-house: the normal CDF and its
inverse (the hitting-law targets and a normal initial law), erfcx (a
downward line), and the Lévy measure's incomplete gamma tails and Poisson
table.  The quadrature oracles live in tests/oracles.py, where scipy is a
test dependency.  Each config below runs calibrate, then verify, in a fresh
interpreter whose first import finder refuses scipy, as on an install
without it; the report records the versions of ifpt and numpy only.  The
same run also lists numpy.random, which no run needs (every draw is keyed),
and hashlib, importlib.metadata and email, which the report does not need:
it hashes its config with CPython's own SHA-256, not OpenSSL's.  Other test
modules import scipy, hashlib and importlib.metadata themselves, so the
runs cannot share this interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ifpt

SRC = os.path.dirname(os.path.dirname(ifpt.__file__))

# calibrate, then verify the written boundary, with scipy refused; print the
# refused imports, the report's versions and the listed modules that loaded
ROUND_TRIP = textwrap.dedent(
    """
    import json, os, sys


    class RefuseScipy:
        refused = []

        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                self.refused.append(name)
                raise ModuleNotFoundError(f"scipy is refused: {name}", name=name)
            return None


    sys.meta_path.insert(0, RefuseScipy())
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
    report_modules = {"hashlib", "_hashlib", "importlib.metadata"}
    modules = sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("scipy", "email") or m.startswith("numpy.random") or m in report_modules
    )
    print(json.dumps({"refused": RefuseScipy.refused, "versions": report["versions"], "modules": modules}))
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
    # initial positions by the inverse normal CDF (ndtri)
    "normal": {
        "process": BROWNIAN,
        "initial": {"kind": "normal", "mean": 0.0, "std": 0.1},
        "target": {"kind": "exponential", "rate": 1.0},
    },
}


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_round_trip_loads_no_scipy(tmp_path, name):
    cfg = dict(ROUND_TRIPS[name], grid=GRID, particles=500, seed=1)
    run = json.loads(run_fresh(ROUND_TRIP, str(tmp_path), json.dumps(cfg)))
    assert run == {"refused": [], "versions": {"ifpt": ifpt.__version__, "numpy": np.__version__}, "modules": []}
