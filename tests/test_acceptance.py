"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them).  The two
large benchmark runs go through the CLI so the end-to-end surface is what
gets measured; their outputs are shared across criteria via session
fixtures.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from ifpt import cli, io
from ifpt.boundary import TimeGrid
from ifpt.calibrate import (
    PointInitial,
    UniformInitial,
    _select_kills,
    calibrate,
)
from ifpt.orders import check_hazard_order
from ifpt.processes import (
    BrownianDrift,
    Constant,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    OneSidedStable,
    OU,
    Uniqueness,
    classify_levy,
    step_increments,
)
from ifpt.rng import StreamKeys
from ifpt.targets import (
    Exponential,
    InverseGaussianHitting,
    Mixture,
    PointMass,
)
from ifpt.verify import (
    compare_boundaries,
    forward_fpt,
    ks_statistic,
)
from oracles import levy_char_exponent

INF = math.inf

BENCH1 = {
    "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "levy_hitting", "c": 1.0},
    "grid": {"t_start": 1 / 512, "dt": 1 / 512, "steps": 1024},
    "particles": 200_000,
    "seed": 20260801,
}

BENCH3 = {
    "process": {
        "kind": "levy",
        "a": 0.0,
        "sigma2": 0.25,
        "measure": [
            {"type": "stable", "side": "+", "alpha": 0.5, "intensity": 0.5, "tempering": 1.0}
        ],
        "eta": 0.01,
        "small_jump_mode": "gaussian",
    },
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "exponential", "rate": 1.0},
    "grid": {"t_start": 1 / 256, "dt": 1 / 256, "steps": 1024},
    "particles": 100_000,
    "seed": 20260803,
}

# brute-force path oracle at spec scale (10^6 paths, dt = 1e-4), recorded
# by scripts/run_linear_oracle.py
LINEAR_MC = {0.25: 0.026156, 0.5: 0.090103, 1.0: 0.178249, 1.5: 0.228409, 2.0: 0.260044}


def report_line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli_calibrate(tmp_path_factory, cfg, name, threads="1"):
    base = tmp_path_factory.mktemp(name)
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = base / "out"
    t0 = time.perf_counter()
    rc = cli.main(["calibrate", "-c", str(cfg_path), "-o", str(out), "--threads", threads])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return {"config": str(cfg_path), "dir": out, "csv": out / "boundary.csv", "elapsed": elapsed}


@pytest.fixture(scope="session")
def bench1(tmp_path_factory):
    return run_cli_calibrate(tmp_path_factory, BENCH1, "bench1")


@pytest.fixture(scope="session")
def bench3(tmp_path_factory):
    return run_cli_calibrate(tmp_path_factory, BENCH3, "bench3")


def test_criterion_01_level_boundary_inversion(bench1):
    ts, bs = io.read_boundary_csv(bench1["csv"])
    mask = ts >= 0.1
    dev = float(np.max(np.abs(bs[mask] - 1.0)))
    ok = dev <= 0.05 and bench1["elapsed"] <= 60.0
    report_line(1, ok, f"sup|b-1| on [0.1,2] = {dev:.4f} (tol 0.05), runtime {bench1['elapsed']:.1f}s (tol 60s)")


def test_criterion_02_round_trip_ks(bench1, tmp_path):
    cfg = {k: BENCH1[k] for k in ("process", "initial", "target", "grid")}
    cfg["verify"] = {
        "boundary_csv": str(bench1["csv"]),
        "samples": 100_000,
        "seed": 777,
        "tolerance": 0.02,
    }
    cfg_path = tmp_path / "verify1.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["verify", "-c", str(cfg_path), "-o", str(tmp_path)])
    ks = json.loads((tmp_path / "report.json").read_text())["ks_statistic"]
    report_line(2, rc == 0, f"round-trip KS = {ks:.5f} (tol 0.02)")


def test_criterion_03_jump_model_round_trip(bench3, tmp_path):
    cfg = {k: BENCH3[k] for k in ("process", "initial", "target", "grid")}
    cfg["verify"] = {
        "boundary_csv": str(bench3["csv"]),
        "samples": 100_000,
        "seed": 999,
        "tolerance": 0.03,
    }
    cfg_path = tmp_path / "verify3.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["verify", "-c", str(cfg_path), "-o", str(tmp_path)])
    ks = json.loads((tmp_path / "report.json").read_text())["ks_statistic"]
    report_line(3, rc == 0, f"Exp target under tempered-stable jumps: KS = {ks:.5f} (tol 0.03)")


def test_criterion_04_linear_boundary_inversion():
    law = InverseGaussianHitting(1.0, 0.5)
    worst_gap = max(abs(1.0 - float(law.survival(t)) - mc) for t, mc in LINEAR_MC.items())
    assert worst_gap <= 0.005, "closed form disagrees with the path oracle"
    grid = TimeGrid(1 / 512, 1 / 512, 1024)
    est = calibrate(
        BrownianDrift(0.0, 1.0),
        PointInitial(0.0),
        InverseGaussianHitting(1.0, 0.5),
        grid,
        200_000,
        4444,
    )
    mask = grid.points >= 0.1
    dev = float(np.max(np.abs(est.curve.values[mask] - (1.0 + 0.5 * grid.points[mask]))))
    report_line(
        4,
        dev <= 0.07,
        f"oracle gap {worst_gap:.4f} (tol 0.005); sup|b-(1+t/2)| = {dev:.4f} (tol 0.07)",
    )


def test_criterion_05_comparison_principle():
    grid = TimeGrid(1 / 256, 1 / 256, 512)
    hazard = check_hazard_order(Exponential(2.0), Exponential(1.0), grid)
    assert hazard.holds, "hazard-rate order hypothesis failed"
    b1 = calibrate(BrownianDrift(0.0, 1.0), PointInitial(0.0), Exponential(2.0), grid, 50_000, 606)
    b2 = calibrate(BrownianDrift(0.0, 1.0), PointInitial(0.5), Exponential(1.0), grid, 50_000, 606)
    rep = compare_boundaries(b1, b2, slack=0.0)
    frac = float(np.mean(b1.curve.values <= b2.curve.values))
    report_line(5, rep.holds and frac == 1.0, f"b1 <= b2 at {frac:.2%} of grid points, slack 0")


def test_criterion_06_truncation_order_preservation():
    # the solver's own kill: keeping ceil(alpha n) entries of x keeps its lower alpha-tail
    def lower_tail(x, alpha):
        _, killed = _select_kills(x, math.ceil(alpha * len(x)))
        return np.sort(np.delete(x, killed))

    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    passed = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 40))
        b = np.asarray(rng.normal(size=n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1))
        a = b - rng.exponential(0.7, size=n)
        a1 = float(rng.uniform(0.02, 1.0))
        a2 = float(rng.uniform(a1, 1.0))
        ta = lower_tail(a, a1)
        tb = lower_tail(b, a2)
        # brute-force CDF comparison on the merged support is the oracle
        cs = np.union1d(ta, tb)
        fa = np.searchsorted(ta, cs, side="right") / len(ta)
        fb = np.searchsorted(tb, cs, side="right") / len(tb)
        if np.all(fa >= fb - 1e-12):
            passed += 1
    elapsed = time.perf_counter() - t0
    ok = passed == trials and elapsed <= 5.0
    report_line(6, ok, f"{passed}/{trials} ordered pairs preserved, {elapsed:.2f}s (tol 5s)")


def test_criterion_07_levy_simulator_fidelity():
    models = {
        "tempered stable": Levy(0.0, 0.25, (OneSidedStable("+", 0.5, 0.5, 1.0),), "gaussian", 0.01),
        "two atoms": Levy(0.0, 0.25, (FiniteAtoms(((1.0, 2.0), (-0.5, 1.0))),), "gaussian", 0.01),
    }
    n = 1_000_000
    worst = 0.0
    for j, (name, model) in enumerate(models.items()):
        keys = StreamKeys(seed=42 + j, step_index=0, ids=np.arange(n), n_total=n)
        x = step_increments(model, np.zeros(n), 1.0, keys)
        for theta in (-2.0, -1.0, 1.0, 2.0):
            emp = complex(np.exp(1j * theta * x).mean())
            exact = np.exp(-levy_char_exponent(model, theta))
            worst = max(worst, abs(emp - exact))
    report_line(7, worst <= 0.01, f"max |emp char fn - exp(-psi)| = {worst:.5f} (tol 0.01)")


def test_criterion_08_survival_exactness_with_atoms():
    n = 100_000
    target = Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(0.5))))
    grid = TimeGrid(1 / 64, 1 / 64, 64)
    est = calibrate(
        BrownianDrift(0.0, 1.0),
        PointInitial(0.0),
        target,
        grid,
        n,
        55,
    )
    k = int(np.flatnonzero(np.isclose(grid.points, 0.5))[0])
    alive = int(round(est.survival_achieved[k] * n))
    want = int(math.floor(n * 0.5 * math.exp(-0.5) + 0.5))
    gap = float(np.max(np.abs(est.survival_achieved - est.survival_target)))
    ok = alive == want and gap <= 1.0 / n
    report_line(8, ok, f"alive at t=0.5: {alive} == round(N*S) = {want}; max gap {gap * n:.3f}/N")


def test_criterion_09_degenerate_point_mass():
    grid = TimeGrid(1 / 8, 1 / 8, 16)
    est = calibrate(
        BrownianDrift(0.0, 1.0),
        PointInitial(0.0),
        PointMass(1.0),
        grid,
        5000,
        3,
    )
    before = grid.points < 1.0
    t_star = float(grid.points[~before][0])
    ok = bool(np.all(est.curve.values[before] == INF))
    ok &= est.curve.values[~before][0] == -INF
    sample = forward_fpt(BrownianDrift(0.0, 1.0), PointInitial(0.0), est.curve, 5000, 4)
    frac = float((sample.times == t_star).mean())
    ok &= frac == 1.0
    report_line(9, ok, f"+inf before 1.0, -inf at {t_star}, {frac:.0%} of FPTs equal {t_star}")


def test_criterion_10_monotone_boundary_subordinator_regime():
    # (-X) a driftless Gamma subordinator; discard mode keeps paths monotone
    shape, rate = 1.0, 1.0
    a0 = shape * (1.0 - math.exp(-rate)) / rate
    model = Levy(a0, 0.0, (GammaSubordinatorMeasure("-", shape, rate),), "discard", 0.01)
    grid = TimeGrid(1 / 128, 1 / 128, 256)
    values = []
    for seed in (11, 12, 13, 14):
        est = calibrate(
            model,
            UniformInitial(0.0, 1.0),
            Exponential(1.0),
            grid,
            100_000,
            seed,
        )
        values.append(est.curve.values)
    values = np.array(values)
    primary = values[0]
    se = values.std(axis=0, ddof=1)
    rises = np.diff(primary)
    band = 2.0 * np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
    worst = float(np.max(rises - band))
    report_line(10, worst <= 0.0, f"max rise beyond 2 SE = {worst:.5f} (needs <= 0)")


def test_criterion_11_diffusion_stepper_fidelity():
    n = 100_000
    model = IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.0))
    x = np.full(n, 1.0)
    for k in range(512):
        keys = StreamKeys(seed=5, step_index=k, ids=np.arange(n), n_total=n)
        x = step_increments(model, x, 1.0 / 512, keys)
    mean, var = math.exp(-1.0), (1.0 - math.exp(-2.0)) / 2.0
    xs = np.sort(x)
    ks = float(np.max(np.abs(np.arange(1, n + 1) / n - ndtr((xs - mean) / math.sqrt(var)))))

    from ifpt.processes import BesselDrift, Linear, Power
    from oracles import scale_transform

    cases = [
        (Constant(2.0), (-3.0, 3.0)),
        (Linear(1.0, 0.5), (0.0, 3.0)),
        (Power(0.7, 1.3), (0.1, 5.0)),
        (BesselDrift(3.0), (0.1, 5.0)),
        (OU(-2.0), (0.1, 5.0)),
    ]
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for sigma, (lo, hi) in cases:
        m = IntervalDiffusion(beta=Constant(0.0), sigma=sigma, L=lo - 1e-9, R=hi + 1e-9)
        c = 0.5 * (lo + hi)
        for xq in rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 100):
            h = 1e-5 * max(1.0, abs(xq))
            num = (scale_transform(m, xq + h, c) - scale_transform(m, xq - h, c)) / (2 * h)
            worst_rel = max(worst_rel, abs(num - 1.0 / float(sigma(xq))) * abs(float(sigma(xq))))
    ok = ks <= 0.02 and worst_rel <= 1e-6
    report_line(11, ok, f"OU KS = {ks:.5f} (tol 0.02); scale derivative rel err {worst_rel:.2e} (tol 1e-6)")


def test_criterion_12_classifier_truth_table():
    brownian = classify_levy(Levy(0.0, 1.0, ()))
    neg_gamma = classify_levy(Levy(0.0, 0.0, (GammaSubordinatorMeasure("-", 1.0, 1.0),)))
    poisson = classify_levy(Levy(0.0, 0.0, (FiniteAtoms(((1.0, 1.0),)),)))
    lo = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 0.5, 1.0),)))
    hi = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 1.5, 1.0),)))
    ok = (
        brownian.existence_diffuse
        and brownian.unbounded_variation
        and brownian.uniqueness is Uniqueness.FULL_INTERVAL
        and neg_gamma.existence_diffuse
        and neg_gamma.uniqueness is Uniqueness.SUPPORT_ONLY
        and not poisson.existence_diffuse
        and poisson.uniqueness is Uniqueness.UNKNOWN
        and not lo.unbounded_variation
        and hi.unbounded_variation
    )
    report_line(12, ok, "Brownian / negative-Gamma / constant-jump / stable-alpha flags all match")


def test_criterion_13_byte_identical_reruns(bench1, bench3, tmp_path_factory):
    rerun1 = run_cli_calibrate(tmp_path_factory, BENCH1, "bench1_rerun", threads="4")
    rerun3 = run_cli_calibrate(tmp_path_factory, BENCH3, "bench3_rerun", threads="4")
    same1 = bench1["csv"].read_bytes() == rerun1["csv"].read_bytes()
    same3 = bench3["csv"].read_bytes() == rerun3["csv"].read_bytes()
    report_line(13, same1 and same3, "criteria 1 and 3 CSVs byte-identical across --threads 1/4")
