"""Regenerates the brute-force linear-boundary crossing oracle.

Runs 10^6 Brownian paths at dt = 1e-4 through ``forward_fpt`` and prints
the empirical crossing probabilities next to the closed form
``1 - InverseGaussianHitting(c, gamma).survival(t)``.  Takes several
minutes.

The frozen values in tests/test_verify.py (``LINEAR_ORACLE_MC``) came from
an earlier version of this script, whose paths were drawn from a Philox
stream.  The paths now come from the solver's keyed stream, so the script
reproduces those values in law, within Monte-Carlo error, not bit for bit;
the values are kept as they were.
"""

import json
import os
import sys

from ifpt.targets import InverseGaussianHitting

# the oracle is a test helper, tests/oracles.py
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from oracles import bm_linear_crossing_mc  # noqa: E402


def main():
    out = {}
    cases = [
        (1.0, 1.0, [1.0], 20260808),
        (1.0, 0.5, [0.25, 0.5, 1.0, 1.5, 2.0], 20260809),
    ]
    for c, gamma, ts, seed in cases:
        mc = bm_linear_crossing_mc(c, gamma, ts, n_paths=1_000_000, dt=1e-4, seed=seed)
        for t, m in zip(ts, mc):
            a = 1.0 - float(InverseGaussianHitting(c, gamma).survival(t))
            print(f"c={c} gamma={gamma} t={t}: mc={m:.6f} analytic={a:.6f} diff={a - m:+.6f}")
        out[f"c{c}_g{gamma}"] = {"ts": ts, "mc": mc.tolist()}
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
