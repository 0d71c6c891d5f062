"""Writes the README's example configs into a directory, scaled down.

    python scripts/readme_configs.py DIR

writes the calibrate, verify, compare and classify examples of README.md as
DIR/config.json, verify.json, compare.json and classify.json, at 1000
particles and 1000 samples.  verify reads the out/boundary.csv that
``ifpt calibrate -c config.json -o out`` writes, and writes its sample to
fpt.txt.  Run from the repository root.
"""

import json
import re
import sys


def section(readme: str, name: str) -> dict:
    return json.loads(re.search(rf"### {name}\s+```json\n(.*?)```", readme, re.S).group(1))


def main(out: str) -> None:
    with open("README.md", encoding="utf-8") as f:
        readme = f.read()
    configs = {name: section(readme, name) for name in ("calibrate", "verify", "compare", "classify")}
    configs["calibrate"]["particles"] = 1000
    configs["verify"]["verify"]["samples"] = 1000
    configs["verify"]["output"] = {"fpt": "fpt.txt"}
    configs["compare"]["particles"] = 1000
    files = {"calibrate": "config.json", "verify": "verify.json", "compare": "compare.json", "classify": "classify.json"}
    for name, cfg in configs.items():
        with open(f"{out}/{files[name]}", "w", encoding="utf-8") as f:
            json.dump(cfg, f)


if __name__ == "__main__":
    main(sys.argv[1])
