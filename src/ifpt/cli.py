"""Batch command line interface.

    ifpt <calibrate|verify|compare|classify> -c config.json [-o dir]
         [--seed u64] [--threads n]

Exit codes: 0 success (verify/compare: check passed), 1 check failed,
2 configuration or input-format error, 3 runtime model error.  Given a
seed, every command is a pure function of its config: repeated runs
produce byte-identical outputs.  --threads is accepted and echoed in the
report, but the solver runs on one thread.

``COMMANDS``, the command table, maps each command to its function, the
config sections it requires, the config key of its seed and the config keys
of its files with their default names.  One runner loads and checks the
config, resolves the seed, resolves and checks the paths before any work,
calls the command, writes ``report.json`` and prints the command's lines.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

import numpy as np

from . import __version__, io
from .boundary import BoundaryCurve
from .calibrate import calibrate
from .config import ConfigError, RunConfig, load_config, parse_seed, require
from .orders import check_hazard_order
from .processes import Levy, StateSpaceError, classify_levy
from .verify import compare_boundaries, dkw_critical_value, forward_fpt, ks_statistic

# CPython's own SHA-256, for the report's config hash: hashlib would load
# OpenSSL (3.5 MiB resident) for this one digest
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# level of the DKW critical value reported next to the verify tolerance
DKW_ALPHA = 0.05

# the sections of one model, echoed in the report
MODEL = ("process", "initial", "target", "grid")
# the file every command writes, see COMMANDS
REPORT = {"output.report": "report.json"}

# mallopt's parameters (malloc.h), and the values glibc's dynamic thresholds
# reach on a 64-bit host: the largest mmap threshold, and twice it
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def _seed_arg(text: str) -> int:
    try:
        return parse_seed(int(text), "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _threads_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 thread, got {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ifpt", description="inverse first-passage time solver")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("-c", "--config", required=True, help="JSON run configuration")
        sp.add_argument("-o", "--out", default=".", help="output directory")
        sp.add_argument("--seed", type=_seed_arg, default=None, help="override the config seed")
        sp.add_argument(
            "--threads",
            type=_threads_arg,
            default=1,
            help="accepted and echoed in the report; the solver runs on one thread",
        )
    return p


def _echo_model(config: RunConfig) -> dict:
    return {k: config.raw[k] for k in MODEL if k in config.raw}


def _provenance(config: RunConfig) -> dict:
    """The versions of ifpt and numpy, its one runtime dependency, and the
    SHA-256 of the canonical config: the parsed document dumped with sorted
    keys and no whitespace."""
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    versions = {"ifpt": __version__, "numpy": np.__version__}
    return {"versions": versions, "config_sha256": sha256(canonical.encode()).hexdigest()}


def _set_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds where its dynamic ones settle.
    Below them, the heap top that each step frees would be trimmed and faulted
    back in on the next step.  Both or neither: M_TRIM_THRESHOLD alone also
    stops the mmap threshold from adapting, and every particle array is then
    mapped and faulted in afresh."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # no mallopt (macOS), or no process-wide symbol table (Windows)
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def _paths(config: RunConfig, out_dir: str, files: dict) -> dict[str, str]:
    """The path at each config key ``section.key`` of files, else its default
    name; outputs are under out_dir unless absolute.  Checked before any work,
    so that a bad path exits 2 instead of failing after the run: no two keys
    (an input first, then the outputs) may name one file, and the error names
    the later key.  Only then are the output directories created, and each
    output must be writable."""
    paths, seen = {}, {}
    for key, default in files.items():
        section, name = key.split(".")
        path = getattr(config, section).get(name, default)
        if path is None:
            continue
        if not path:
            raise ConfigError(key, "empty path")
        if key.startswith("output."):
            path = os.path.join(out_dir, path)
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(key, f"{path!r} is also {seen[real]}")
        paths[key], seen[real] = path, key
    for key, path in paths.items():
        if not key.startswith("output."):
            continue
        parent = os.path.dirname(path) or "."
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise ConfigError(key, f"cannot create directory {parent!r}: {exc.strerror}") from exc
        if os.path.isdir(path):
            raise ConfigError(key, f"{path!r} is a directory")
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise ConfigError(key, f"{path!r} is not writable")
    return paths


def cmd_calibrate(config: RunConfig, seed: int, paths: dict) -> tuple[int, dict, list[str]]:
    csv_path = paths["output.boundary_csv"]
    t0 = time.perf_counter()
    est = calibrate(config.process, config.initial, config.target, config.grid, config.particles, seed)
    elapsed = time.perf_counter() - t0

    io.write_estimate_csv(csv_path, est)
    body = {
        "model": _echo_model(config),
        "elapsed_seconds": elapsed,
        "boundary_csv": csv_path,
        "boundary": io.estimate_document(est),
    }
    return EXIT_OK, body, [f"calibrate: wrote {csv_path} ({len(config.grid)} grid points, seed {seed})"]


def cmd_verify(config: RunConfig, seed: int, paths: dict) -> tuple[int, dict, list[str]]:
    v = config.verify
    csv_in = paths["verify.boundary_csv"]
    try:
        ts, bs = io.read_boundary_csv(csv_in)
    except OSError as exc:
        raise ConfigError("verify.boundary_csv", f"cannot read {csv_in!r}: {exc.strerror}") from exc
    if not config.grid.matches(ts):
        raise io.CsvFormatError("boundary CSV grid does not match the config grid")
    try:
        curve = BoundaryCurve(config.grid, bs, domain_bounds=config.process.state_bounds)
    except ValueError as exc:
        raise io.CsvFormatError(f"boundary CSV: {exc}") from exc
    sample = forward_fpt(config.process, config.initial, curve, v["samples"], seed)
    ks, witness = ks_statistic(sample, config.target)
    passed = ks <= v["tolerance"]
    dkw = dkw_critical_value(v["samples"], DKW_ALPHA)
    if "output.fpt" in paths:
        io.write_fpt_sample(paths["output.fpt"], sample)
    body = {
        "model": _echo_model(config),
        "ks_statistic": ks,
        "ks_witness_time": witness,
        "tolerance": v["tolerance"],
        "dkw_alpha": DKW_ALPHA,
        "dkw_critical_value": dkw,
        # below the DKW value, a correct boundary may fail more often than alpha
        "tolerance_below_dkw": bool(v["tolerance"] < dkw),
        "censored_fraction": sample.censored_fraction,
        "passed": bool(passed),
    }
    line = (
        f"verify: KS={ks:.6f} tolerance={v['tolerance']:g} "
        f"censored={sample.censored_fraction:.4f} -> {'pass' if passed else 'FAIL'}"
    )
    return (EXIT_OK if passed else EXIT_FAIL), body, [line]


def cmd_compare(config: RunConfig, seed: int, paths: dict) -> tuple[int, dict, list[str]]:
    (left, right, slack) = config.compare
    hazard = check_hazard_order(left[2], right[2], config.grid)
    est1 = calibrate(*left, config.grid, config.particles, seed)
    est2 = calibrate(*right, config.grid, config.particles, seed)
    report_cmp = compare_boundaries(est1, est2, slack)
    body = {
        "slack": slack,
        "hazard_order": io.order_report_document(hazard),
        "boundary_order": io.order_report_document(report_cmp),
        "left": io.estimate_document(est1),
        "right": io.estimate_document(est2),
    }
    line = (
        f"compare: hazard order {'holds' if hazard.holds else 'FAILS'}; "
        f"b_left <= b_right + {slack:g} {'holds' if report_cmp.holds else 'FAILS'}"
    )
    return (EXIT_OK if report_cmp.holds else EXIT_FAIL), body, [line]


def cmd_classify(config: RunConfig, seed: None, paths: dict) -> tuple[int, dict, list[str]]:
    if not isinstance(config.process, Levy):
        raise ConfigError("process", "classify needs a levy process")
    cls = classify_levy(config.process)
    existence = (
        "yes (diffuse marginals)"
        if cls.existence_diffuse
        else "not guaranteed (marginals not diffuse; a diffuse start restores it)"
    )
    uniq = {
        "full_interval": "full interval (0, t_xi)",
        "support_only": f"on {cls.i_xi_description}",
        "unknown": "unknown",
    }[cls.uniqueness.value]
    body = {
        "model": _echo_model(config),
        "existence_diffuse": cls.existence_diffuse,
        "unbounded_variation": cls.unbounded_variation,
        "zero_in_supp": cls.zero_in_supp,
        "pos_mass": cls.pos_mass,
        "neg_mass": cls.neg_mass,
        "uniqueness": cls.uniqueness.value,
        "i_xi": cls.i_xi_description,
    }
    return EXIT_OK, body, [f"existence: {existence}", f"uniqueness: {uniq}"]


# The command table: command -> (function, the config sections it requires,
# the config key of its seed (None: it draws none), and the config keys of its
# files, inputs first, -> default name (None: used only when the config names one))
COMMANDS = {
    "calibrate": (cmd_calibrate, (*MODEL, "particles"), "seed", {"output.boundary_csv": "boundary.csv", **REPORT}),
    "verify": (
        cmd_verify, (*MODEL, "verify"), "verify.seed", {"verify.boundary_csv": None, **REPORT, "output.fpt": None}
    ),
    "compare": (cmd_compare, ("compare", "grid", "particles"), "seed", REPORT),
    "classify": (cmd_classify, ("process",), None, REPORT),
}


def _run(args) -> int:
    # load_config, calibrate, forward_fpt, ks_statistic and the io writers are
    # looked up when called, so that a tracer can rebind them
    command, sections, seed_key, files = COMMANDS[args.command]
    config = load_config(args.config)
    require(config, *sections)
    # --seed, else the config's seed at seed_key: a top-level key or section.key
    seed = args.seed if seed_key else None
    if seed_key and seed is None:
        section, _, name = seed_key.partition(".")
        require(config, section)
        seed = getattr(config, section)[name] if name else getattr(config, section)
    paths = _paths(config, args.out, files)
    code, body, lines = command(config, seed, paths)
    run = {"seed": seed, "threads": args.threads} if seed_key else {}
    io.write_json(paths["output.report"], {"command": args.command, **run, **body, **_provenance(config)})
    for line in lines:
        print(line)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    np.seterr(over="ignore")
    _set_heap_thresholds()
    try:
        return _run(args)
    except (ConfigError, io.CsvFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StateSpaceError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError has no text
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
