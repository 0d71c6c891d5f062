"""Round-trip benchmark for ifpt: calibrate, then verify the written boundary.

    python3 perfbench/run.py --workload brownian-level --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports ``ifpt`` from ``src/``.
Each sample is one user-facing round trip through ``ifpt.cli.main``
(``calibrate``, then ``verify`` against the written ``boundary.csv``) in a
fresh single-threaded child process.  Samples run one at a time, in a
closed loop, until the next one would overrun ``--seconds``.  A few
set-up-only children (start, ``import ifpt``, ``load_config``) run first.

``--trace 0`` reports the end-to-end metrics as medians over the samples.
``--trace 1`` alternates untraced and traced round trips and reports the
per-layer self times and counts of the first traced one (see tracer.py),
plus the tracing overhead against the untraced ones.

Every round trip is checked: both exit codes are 0, the verify KS
statistic is within the workload's tolerance, the achieved survival stays
within one particle of the target, the Brownian level is recovered to
0.05 on t >= 0.1, and every round trip at one seed writes a byte-identical
``boundary.csv``.  A round trip that fails any check counts in ``failed``.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170

# The acceptance configs of tests/test_acceptance.py (BENCH1, BENCH3) and
# the diffusion of the README, with their acceptance tolerances.  calibrate
# runs each config verbatim, seed included, so the level check below is
# criterion 1 itself: at other calibrate seeds the solver misses it now and
# then (sup|b - 1| of 0.050 and 0.055 on 2 of 12 seeds, where grid-time
# monitoring alone biases b by -0.026).  The workload seed is verify's seed,
# so each seed checks the boundary against fresh paths.
WORKLOADS = {
    "brownian-level": {
        "why": "BENCH1: 52% of particles alive at the horizon, so full-width draws are mostly used and "
        "select/kill/gather self time is largest; an alive-width RNG should gain nothing here",
        "config": {
            "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
            "initial": {"kind": "point", "x": 0.0},
            "target": {"kind": "levy_hitting", "c": 1.0},
            "grid": {"t_start": 1 / 512, "dt": 1 / 512, "steps": 1024},
            "particles": 200_000,
            "seed": 20260801,
        },
        "verify": {"samples": 100_000, "tolerance": 0.02},
        # criterion 1: the boundary of the level-hitting law is the level c
        "level": {"value": 1.0, "t_min": 0.1, "tolerance": 0.05},
    },
    "levy-tempered": {
        "why": "BENCH3: the population collapses to 1.8%, it is the only Poisson-plus-jump-row path and "
        "RNG is about 82% of calibrate, so alive-width draws show their largest effect here",
        "config": {
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
        },
        "verify": {"samples": 100_000, "tolerance": 0.03},
    },
    "diffusion-ou": {
        "why": "README OU diffusion: the only normal_block and Euler-substep path, survival reaches zero "
        "so the last 64 steps do no work, and the only run that writes a 100k-line file through io",
        "config": {
            "process": {
                "kind": "diffusion",
                "beta": {"name": "ou", "theta": 1.0},
                "sigma": {"name": "constant", "value": 1.0},
                "L": 0.0,
                "R": None,
                "lower_boundary_behavior": "reflecting",
                "dt_substeps": 4,
            },
            "initial": {"kind": "point", "x": 0.5},
            "target": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
            "grid": {"t_start": 1 / 128, "dt": 1 / 128, "steps": 512},
            "particles": 100_000,
            "seed": 20260805,
        },
        "verify": {"samples": 100_000, "tolerance": 0.03},
        "output": {"fpt": "fpt.txt"},
    },
}

END_TO_END_UNITS = {"setup_s": "s", "calibrate_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}

PHASES = ("calibrate", "verify")
# What each layer metric should move (shares from the traced runs in baseline.json):
#   rng.draw_s               calibrate_s and verify_s everywhere; ~82 % of both on levy-tempered
#   rng.generated, .used,    counts; an alive-width RNG should lower generated and move calibrate_s and
#   .used_ratio, .jump_rows  verify_s on levy-tempered (ratio 0.11) and diffusion-ou (0.25), not on
#                            brownian-level (0.72)
#   processes.step_self_s    calibrate_s on diffusion-ou (Euler substeps) and levy-tempered (jump ppf)
#   calibrate.self_s         calibrate_s on brownian-level (select, kill, gather, scatter: ~27 %)
#   verify.self_s, .ks_s     verify_s
#   config.load_s            setup_s
#   io.write_s, .bytes_written  verify_s on diffusion-ou, the only run writing a 100k-line file
# Layers seen in both phases carry the phase as a suffix.
_SHARED_LAYERS = [
    "rng.draw_s", "rng.init_s", "rng.generated", "rng.used", "rng.used_ratio", "rng.jump_rows",
    "processes.step_self_s", "processes.particle_steps", "targets.survival_s", "config.load_s",
    "io.write_s", "io.bytes_written", "cli.self_s", "cli.wall_s", "bench.trace_overhead_s",
]
PER_LAYER_NAMES = [f"{m}.{phase}" for phase in PHASES for m in _SHARED_LAYERS] + [
    "calibrate.self_s", "verify.self_s", "verify.ks_s", "io.read_s.verify",
]
# counts made by the program that must repeat exactly at one seed
EXACT_COUNTS = [n for n in PER_LAYER_NAMES if n.split(".")[1] in ("generated", "used", "jump_rows", "particle_steps")]


def per_layer_unit(name: str) -> str:
    metric = name.split(".")[1]
    if metric.endswith("_s"):
        return "s"
    return {"used_ratio": "ratio", "bytes_written": "B"}.get(metric, "count")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildError(RuntimeError):
    pass


class Bench:
    """One benchmark run: a workload at one seed, in a scratch directory."""

    def __init__(self, workload: dict, seed: int, work: Path, src: Path):
        self.workload = workload
        self.src = src
        self.verify_seed = seed
        self.calibrate_config = work / "calibrate.json"
        self.verify_config = work / "verify.json"
        self.boundary_csv = work / "out" / "boundary.csv"
        cfg = workload["config"]
        self.calibrate_config.write_text(json.dumps(cfg))
        vcfg = {k: cfg[k] for k in ("process", "initial", "target", "grid")}
        vcfg["verify"] = dict(workload["verify"], boundary_csv=str(self.boundary_csv), seed=seed)
        if "output" in workload:
            vcfg["output"] = workload["output"]
        self.verify_config.write_text(json.dumps(vcfg))

    def _spawn(self, job: dict) -> dict:
        env = dict(os.environ, PYTHONPATH=str(self.src), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        job = dict(job, calibrate_config=str(self.calibrate_config), spawned_at=monotonic())
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        if not Path(result["ifpt_file"]).resolve().is_relative_to(self.src.resolve()):
            raise ChildError(f"child imported ifpt from {result['ifpt_file']}, not from {self.src}")
        return result

    def setup_probe(self) -> dict:
        return self._spawn({"mode": "setup"})

    def round_trip(self, trace: bool) -> tuple[dict, list[str]]:
        """Runs one round trip; returns its measurements and failed checks."""
        out = self.boundary_csv.parent
        shutil.rmtree(out, ignore_errors=True)
        rt = self._spawn({
            "mode": "roundtrip", "trace": trace, "out": str(out),
            "verify_config": str(self.verify_config),
            "verify_seed": self.verify_seed,
        })
        problems = []
        if rt["rc_calibrate"] != 0:
            problems.append(f"calibrate exited {rt['rc_calibrate']}")
        if rt["rc_verify"] != 0:
            problems.append(f"verify exited {rt['rc_verify']}")
        if self.boundary_csv.is_file():
            data = self.boundary_csv.read_bytes()
            rt["csv_sha256"] = hashlib.sha256(data).hexdigest()
            problems += check_boundary(self.workload, data.decode())
        else:
            problems.append("no boundary.csv written")
        report = out / "report.json"
        if rt["rc_verify"] in (0, 1) and report.is_file():
            rt["ks"] = json.loads(report.read_text())["ks_statistic"]
            if not rt["ks"] <= self.workload["verify"]["tolerance"]:
                problems.append(f"KS {rt['ks']} above tolerance {self.workload['verify']['tolerance']}")
        return rt, problems


def check_boundary(workload: dict, text: str) -> list[str]:
    """Survival gap and, for the level workload, criterion 1."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    t, b, s_target, s_achieved = ([float(r[i]) for r in rows] for i in range(4))
    n = workload["config"]["particles"]
    problems = []
    gap = max(abs(a - s) for a, s in zip(s_achieved, s_target))
    if not gap <= 1 / n:
        problems.append(f"max |S_achieved - S_target| = {gap} exceeds 1/N = {1 / n}")
    level = workload.get("level")
    if level:
        dev = max(abs(v - level["value"]) for tk, v in zip(t, b) if tk >= level["t_min"])
        if not dev <= level["tolerance"]:
            problems.append(f"sup|b - {level['value']}| on t >= {level['t_min']} = {dev} above {level['tolerance']}")
    return problems


def summarize(name: str, values: list[float], unit: str) -> str:
    # a run holds too few samples for any percentile above the median to
    # have ten samples beyond it, so the median comes with the maximum
    return f"{name}: median {statistics.median(values):.6g} {unit}, max {max(values):.6g}, n={len(values)}"


def run(workload: dict, seed: int, seconds: float, trace: bool, work: Path, src: Path) -> dict:
    started = monotonic()
    bench = Bench(workload, seed, work, src)
    probes = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    print("versions:", json.dumps(probes[0]["versions"]), f"cpus={os.cpu_count()}")

    samples, failures = [], []
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = monotonic()
        try:
            rt, problems = bench.round_trip(traced)
        except ChildError as exc:
            rt, problems = None, [str(exc)]
        took = monotonic() - t0
        if rt is not None:
            rt["traced"] = traced
            reference = next((s["csv_sha256"] for s in samples if "csv_sha256" in s), None)
            if reference and rt.get("csv_sha256") not in (None, reference):
                problems.append("boundary.csv differs from the first round trip at this seed")
            samples.append(rt)
        failures.append(problems)
        for p in problems:
            print(f"round trip {len(failures)}: FAILED: {p}")
        needs_traced = trace and not any(s["traced"] for s in samples)
        if (monotonic() - started + took > seconds and not needs_traced) or rt is None:
            break

    untraced = [s for s in samples if not s["traced"]]
    traced_runs = [s for s in samples if s["traced"]]
    if not untraced or (trace and not traced_runs):
        raise ChildError("no round trip completed")
    for i, s in enumerate(samples):
        print(f"round trip {i + 1}{' (traced)' if s['traced'] else ''}: calibrate {s['calibrate_s']:.3f} s, "
              f"verify {s['verify_s']:.3f} s, KS {s.get('ks')}, sha256 {s.get('csv_sha256', '-')[:16]}")

    if trace:
        metrics = layer_metrics(traced_runs, untraced, failures)
    else:
        series = {
            "setup_s": [p["setup_s"] for p in probes] + [s["setup_s"] for s in untraced],
            "calibrate_s": [s["calibrate_s"] for s in untraced],
            "verify_s": [s["verify_s"] for s in untraced],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        }
        metrics = {}
        for name, values in series.items():
            print(summarize(name, values, END_TO_END_UNITS[name]))
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
    failed = sum(1 for p in failures if p)
    print(f"fail_rate: {failed}/{len(failures)}")
    return {"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}


def layer_metrics(traced: list[dict], untraced: list[dict], failures: list[list[str]]) -> dict:
    layers = dict(traced[0]["layers"])
    for other in traced[1:]:
        for name in EXACT_COUNTS:
            if other["layers"].get(name, 0) != layers.get(name, 0):
                failures[-1].append(f"{name} differs between traced round trips at one seed")
    for phase in PHASES:
        generated = layers.get(f"rng.generated.{phase}", 0)
        layers[f"rng.used_ratio.{phase}"] = layers.get(f"rng.used.{phase}", 0) / generated if generated else 0.0
        untraced_wall = statistics.median(s[f"{phase}_s"] for s in untraced)
        wall = layers[f"cli.wall_s.{phase}"]
        layers[f"bench.trace_overhead_s.{phase}"] = wall - untraced_wall
        print(f"{phase}: traced wall {wall:.4f} s, untraced median {untraced_wall:.4f} s, "
              f"overhead {wall - untraced_wall:+.4f} s")
        # self times of every layer in this phase; they must sum to the wall time
        parts = {k: v for k, v in layers.items() if _phase_of(k) == phase and k.split(".")[1].endswith("_s")
                 and not k.startswith(("bench.", "cli.wall_s"))}
        for k, v in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"  {k:<32} {v:10.4f} s  {100 * v / wall:5.1f} %")
        if min(parts.values()) < -1e-9 or abs(sum(parts.values()) - wall) > 1e-9 * max(wall, 1.0):
            raise ChildError(f"{phase}: self times do not account for the traced wall time")
    return {name: {"value": layers.get(name, 0), "unit": per_layer_unit(name)} for name in PER_LAYER_NAMES}


def _phase_of(name: str) -> str:
    parts = name.split(".")
    return parts[-1] if parts[-1] in PHASES else parts[0]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ifpt" / "cli.py").is_file():
        print(f"perfbench: no ifpt sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    (root / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=root / ".bench_build"))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, src)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
