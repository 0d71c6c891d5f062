"""Batch command line interface.

    ifpt <calibrate|verify|compare|classify> -c config.json [-o dir]
         [--seed u64] [--threads n]

Exit codes: 0 success (verify/compare: check passed), 1 check failed,
2 configuration or input-format error, 3 runtime model error.  Given a
seed, every command is a pure function of its config: repeated runs
produce byte-identical outputs.  --threads is accepted and echoed in the
report, but the solver runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io
from .boundary import BoundaryCurve, TimeGrid
from .calibrate import CalibrationOptions, calibrate
from .config import ConfigError, RunConfig, load_config, parse_seed, require
from .orders import check_hazard_order
from .processes import Levy, StateSpaceError, classify_levy
from .verify import compare_boundaries, dkw_critical_value, forward_fpt, ks_statistic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# level of the DKW critical value reported next to the verify tolerance
DKW_ALPHA = 0.05


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
    for name in ("calibrate", "verify", "compare", "classify"):
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
    return {k: config.raw[k] for k in ("process", "initial", "target", "grid") if k in config.raw}


def _out_path(args, config: RunConfig, key: str, default: str) -> str:
    """The path output.<key> names, under the output directory unless absolute."""
    name = config.output.get(key, default)
    if not name:
        raise ConfigError(f"output.{key}", "empty path")
    return name if os.path.isabs(name) else os.path.join(args.out, name)


def _check_paths(paths: dict[str, str]) -> None:
    """Checks before any work, so that a bad path exits 2 instead of failing
    after the run.  No two config keys of one command (an input first, then
    its outputs) may name one file; the error names the later key.  Only then
    are the output directories created, and each output must be writable."""
    seen = {}
    for key, path in paths.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(key, f"{path!r} is also {seen[real]}")
        seen[real] = key
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


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    require(config, "process", "initial", "target", "grid", "particles")
    if args.seed is None:
        require(config, "seed")
    seed = args.seed if args.seed is not None else config.seed
    csv_path = _out_path(args, config, "boundary_csv", "boundary.csv")
    report_path = _out_path(args, config, "report", "report.json")
    _check_paths({"output.boundary_csv": csv_path, "output.report": report_path})
    opts = CalibrationOptions(particles=config.particles, grid=config.grid, seed=seed)
    t0 = time.perf_counter()
    est = calibrate(config.process, config.initial, config.target, opts)
    elapsed = time.perf_counter() - t0

    io.write_estimate_csv(csv_path, est)
    report = {
        "command": "calibrate",
        "seed": seed,
        "threads": args.threads,
        "model": _echo_model(config),
        "elapsed_seconds": elapsed,
        "boundary_csv": csv_path,
        "boundary": io.estimate_document(est),
    }
    io.write_json(report_path, report)
    print(f"calibrate: wrote {csv_path} ({len(config.grid)} grid points, seed {seed})")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    require(config, "process", "initial", "target", "grid", "verify")
    v = config.verify
    csv_in = v["boundary_csv"]
    if not os.path.isabs(csv_in):
        csv_in = os.path.join(v["base_dir"], csv_in)
    report_path = _out_path(args, config, "report", "report.json")
    fpt_path = _out_path(args, config, "fpt", "fpt.txt") if "fpt" in config.output else None
    paths = {"verify.boundary_csv": csv_in, "output.report": report_path}
    if fpt_path is not None:
        paths["output.fpt"] = fpt_path
    _check_paths(paths)
    try:
        ts, bs = io.read_boundary_csv(csv_in)
    except OSError as exc:
        raise ConfigError("verify.boundary_csv", f"cannot read {csv_in!r}: {exc.strerror}") from exc
    grid = config.grid
    if len(ts) != len(grid) or not grid.matches(TimeGrid(ts)):
        raise io.CsvFormatError("boundary CSV grid does not match the config grid")
    curve = BoundaryCurve(grid, bs, domain_bounds=config.process.state_bounds)
    seed = args.seed if args.seed is not None else v["seed"]
    sample = forward_fpt(config.process, config.initial, curve, v["samples"], seed)
    ks, witness = ks_statistic(sample, config.target)
    passed = ks <= v["tolerance"]
    dkw = dkw_critical_value(v["samples"], DKW_ALPHA)
    report = {
        "command": "verify",
        "seed": seed,
        "threads": args.threads,
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
    io.write_json(report_path, report)
    if fpt_path is not None:
        io.write_fpt_sample(fpt_path, sample)
    print(
        f"verify: KS={ks:.6f} tolerance={v['tolerance']:g} "
        f"censored={sample.censored_fraction:.4f} -> {'pass' if passed else 'FAIL'}"
    )
    return EXIT_OK if passed else EXIT_FAIL


def cmd_compare(args) -> int:
    config = load_config(args.config)
    require(config, "compare", "grid", "particles")
    if args.seed is None:
        require(config, "seed")
    (left, right, slack) = config.compare
    seed = args.seed if args.seed is not None else config.seed
    report_path = _out_path(args, config, "report", "report.json")
    _check_paths({"output.report": report_path})
    opts = CalibrationOptions(particles=config.particles, grid=config.grid, seed=seed)
    hazard = check_hazard_order(left[2], right[2], config.grid)
    est1 = calibrate(left[0], left[1], left[2], opts)
    est2 = calibrate(right[0], right[1], right[2], opts)
    report_cmp = compare_boundaries(est1, est2, slack)
    report = {
        "command": "compare",
        "seed": seed,
        "threads": args.threads,
        "slack": slack,
        "hazard_order": io.order_report_document(hazard),
        "boundary_order": io.order_report_document(report_cmp),
        "left": io.estimate_document(est1),
        "right": io.estimate_document(est2),
    }
    io.write_json(report_path, report)
    print(
        f"compare: hazard order {'holds' if hazard.holds else 'FAILS'}; "
        f"b_left <= b_right + {slack:g} {'holds' if report_cmp.holds else 'FAILS'}"
    )
    return EXIT_OK if report_cmp.holds else EXIT_FAIL


def cmd_classify(args) -> int:
    config = load_config(args.config)
    require(config, "process")
    if not isinstance(config.process, Levy):
        raise ConfigError("process", "classify needs a levy process")
    report_path = _out_path(args, config, "report", "report.json")
    _check_paths({"output.report": report_path})
    cls = classify_levy(config.process.triple)
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
    report = {
        "command": "classify",
        "model": _echo_model(config),
        "existence_diffuse": cls.existence_diffuse,
        "unbounded_variation": cls.unbounded_variation,
        "zero_in_supp": cls.zero_in_supp,
        "pos_mass": cls.pos_mass,
        "neg_mass": cls.neg_mass,
        "uniqueness": cls.uniqueness.value,
        "i_xi": cls.i_xi_description,
    }
    io.write_json(report_path, report)
    print(f"existence: {existence}")
    print(f"uniqueness: {uniq}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    np.seterr(over="ignore")
    handler = {
        "calibrate": cmd_calibrate,
        "verify": cmd_verify,
        "compare": cmd_compare,
        "classify": cmd_classify,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, io.CsvFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StateSpaceError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
