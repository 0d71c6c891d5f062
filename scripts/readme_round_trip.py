"""Runs the README's examples through the installed ``ifpt`` console script.

    python scripts/readme_round_trip.py DIR

writes the calibrate, verify, compare and classify examples of README.md
into DIR as config.json, verify.json, compare.json and classify.json, at
1000 particles and 1000 samples, and runs each there with ``-o`` out, vout,
cout and clout.  verify reads the out/boundary.csv that calibrate writes,
and writes its sample to fpt.txt.

calibrate and classify must exit 0.  verify and compare must exit 0 or 1:
the check ran to the end, where 2 or 3 is a config or runtime error.
fpt.txt must hold one first-passage time per sample, one per line.  Every
report must name its command, hash its canonical config with SHA-256 and
record the versions of ifpt and numpy, and no other.  Run from the
repository root; an assertion names the first check that fails.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

SAMPLES = 1000

# command -> (config file, output directory, allowed exit codes)
RUNS = {
    "calibrate": ("config.json", "out", (0,)),
    "verify": ("verify.json", "vout", (0, 1)),
    "compare": ("compare.json", "cout", (0, 1)),
    "classify": ("classify.json", "clout", (0,)),
}


def section(readme: str, name: str) -> dict:
    return json.loads(re.search(rf"### {name}\s+```json\n(.*?)```", readme, re.S).group(1))


def write_configs(work: str) -> None:
    with open("README.md", encoding="utf-8") as f:
        readme = f.read()
    configs = {name: section(readme, name) for name in RUNS}
    configs["calibrate"]["particles"] = 1000
    configs["verify"]["verify"]["samples"] = SAMPLES
    configs["verify"]["output"] = {"fpt": "fpt.txt"}
    configs["compare"]["particles"] = 1000
    for name, cfg in configs.items():
        with open(os.path.join(work, RUNS[name][0]), "w", encoding="utf-8") as f:
            json.dump(cfg, f)


def main(work: str) -> None:
    write_configs(work)
    for command, (config, out, codes) in RUNS.items():
        rc = subprocess.run(["ifpt", command, "-c", config, "-o", out], cwd=work).returncode
        assert rc in codes, f"ifpt {command} exited {rc}"
        with open(os.path.join(work, config), encoding="utf-8") as f:
            canonical = json.dumps(json.load(f), sort_keys=True, separators=(",", ":"))
        with open(os.path.join(work, out, "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        assert report["command"] == command, (out, report.get("command"))
        assert report["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest(), out
        assert set(report["versions"]) == {"ifpt", "numpy"}, (out, report["versions"])
    assert os.path.isfile(os.path.join(work, "out", "boundary.csv"))
    with open(os.path.join(work, "vout", "fpt.txt"), encoding="utf-8") as f:
        lines = sum(1 for _ in f)
    assert lines == SAMPLES, f"fpt.txt holds {lines} lines"


if __name__ == "__main__":
    main(sys.argv[1])
