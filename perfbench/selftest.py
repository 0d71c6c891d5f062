"""Self-test of the benchmark harness at a tiny problem size.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  For each workload it runs the real
pipeline (set-up probes, child processes, checks, tracer) on a shrunken
config and asserts that

* every metric named in BENCHMARK.json is emitted with its unit, untraced
  for the end-to-end metrics and traced for the per-layer ones;
* the exact counts repeat between two traced runs at one seed;
* a deliberately failed check (a KS tolerance no sample can meet) shows up
  in ``failed`` and turns ``correct`` false;

and that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = Path.cwd()


def tiny(workload: dict) -> dict:
    w = copy.deepcopy(workload)
    # enough particles that the level workload kills at every step after
    # t = 0.1, so its boundary is finite where the level check reads it
    w["config"]["particles"] = 20_000
    w["config"]["grid"]["steps"] = 128
    w["verify"] = {"samples": 2000, "tolerance": 1.0}
    if "level" in w:
        # so few particles cannot meet criterion 1; the check still runs
        w["level"]["tolerance"] = 1.0
    return w


def bench_run(workload: dict, trace: bool, seed: int = 1) -> dict:
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_build"))
    try:
        return run.run(workload, seed, 0, trace, work, ROOT / "src")
    finally:
        shutil.rmtree(work)


def assert_emitted(result: dict, declared: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"emitted {got}, declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def test_checks():
    n = run.WORKLOADS["brownian-level"]["config"]["particles"]
    header = "t,b,S_target,S_achieved\n"
    ok = header + f"0.5,1.0,0.5,{0.5 + 0.5 / n}\n"
    assert run.check_boundary(run.WORKLOADS["brownian-level"], ok) == []
    gap = header + f"0.5,1.0,0.5,{0.5 + 2 / n}\n"
    assert len(run.check_boundary(run.WORKLOADS["brownian-level"], gap)) == 1
    level = header + "0.5,1.06,0.5,0.5\n"
    assert len(run.check_boundary(run.WORKLOADS["brownian-level"], level)) == 1


def test_workload(name: str, spec: dict):
    w = tiny(run.WORKLOADS[name])
    untraced = bench_run(w, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0, untraced
    assert_emitted(untraced, spec["end_to_end"])

    traced = [bench_run(w, trace=True) for _ in range(2)]
    for result in traced:
        assert result["correct"], result
        assert_emitted(result, spec["per_layer"])
    for count in run.EXACT_COUNTS:
        values = [r["metrics"][count]["value"] for r in traced]
        assert values[0] == values[1], (count, values)
    assert traced[0]["metrics"]["rng.generated.calibrate"]["value"] > 0

    broken = copy.deepcopy(w)
    broken["verify"]["tolerance"] = 1e-9
    failing = bench_run(broken, trace=False)
    assert not failing["correct"] and failing["failed"] == failing["attempted"] >= 1, failing
    print(f"selftest {name}: ok")


def test_bare_directory():
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "brownian-level",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0, proc
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("selftest bare directory: ok")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]]["why"], w["name"]
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    test_checks()
    for name in run.WORKLOADS:
        test_workload(name, spec)
    test_bare_directory()
    print("selftest: all ok")


if __name__ == "__main__":
    main()
