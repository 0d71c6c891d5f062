"""CLI runs load no more of scipy than they evaluate.

scipy.integrate, with the scipy.optimize/linalg/sparse tree it loads, costs
about 0.3 s and 25 MiB per process, and no CLI command integrates: only the
quadrature helpers import it, when called.  scipy.special costs about
0.25 s and 25 MiB; only normal initial laws, the two Brownian hitting laws
and Lévy processes evaluate a special function, so a run of the OU
diffusion to a Weibull law from a point loads no scipy module at all.  The
checks run in a fresh interpreter, because other test modules import scipy
themselves.
"""

import os
import subprocess
import sys
import textwrap

import ifpt

SRC = os.path.dirname(os.path.dirname(ifpt.__file__))

SCRIPT = textwrap.dedent(
    """
    import json, math, os, sys

    HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")

    def loaded(when):
        heavy = [m for m in HEAVY if m in sys.modules]
        assert not heavy, f"{when}: {heavy} loaded"

    def none_loaded(when):
        scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not scipy, f"{when}: {scipy[:5]} loaded"

    from ifpt import cli
    none_loaded("import ifpt.cli")

    grid = {"t_start": 0.0625, "dt": 0.0625, "steps": 16}
    start = {"kind": "point", "x": 0.0}
    levy = {
        "kind": "levy", "a": 0.0, "sigma2": 0.25, "eta": 0.01, "small_jump_mode": "gaussian",
        "measure": [{"type": "stable", "side": "+", "alpha": 0.5, "intensity": 0.5, "tempering": 1.0}],
    }
    ou = {
        "kind": "diffusion", "beta": {"name": "ou", "theta": 1.0}, "sigma": {"name": "constant", "value": 1.0},
        "L": 0.0, "R": None, "lower_boundary_behavior": "reflecting", "dt_substeps": 4,
    }
    # the OU run goes first: it evaluates no special function
    configs = {
        "ou": {"process": ou, "initial": {"kind": "point", "x": 0.5},
               "target": {"kind": "weibull", "shape": 2.0, "scale": 1.0}},
        "brownian": {"process": {"kind": "brownian", "mu": 0.0, "vol": 1.0}, "initial": start,
                     "target": {"kind": "levy_hitting", "c": 1.0}},
        "levy": {"process": levy, "initial": start, "target": {"kind": "exponential", "rate": 1.0}},
    }
    work = sys.argv[1]

    def write(name, cfg):
        path = os.path.join(work, name + ".json")
        with open(path, "w") as f:
            json.dump(dict(cfg, grid=grid, particles=500, seed=1), f)
        return path

    for name, cfg in configs.items():
        out = os.path.join(work, name)
        assert cli.main(["calibrate", "-c", write(name, cfg), "-o", out]) == 0, name
        assert os.path.isfile(os.path.join(out, "boundary.csv")), name
        loaded(f"calibrate {name}")
        if name == "ou":
            check = {"boundary_csv": os.path.join(out, "boundary.csv"), "samples": 500, "seed": 2, "tolerance": 1.0}
            vout = os.path.join(work, "ou-verify")
            assert cli.main(["verify", "-c", write("ou-verify", dict(cfg, verify=check)), "-o", vout]) == 0
            assert os.path.isfile(os.path.join(vout, "report.json"))
            none_loaded("calibrate and verify ou")

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


def test_commands_do_not_import_scipy_integrate(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "ok"
