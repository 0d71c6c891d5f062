"""CSV and JSON document serialization.

Floats are printed with 17 significant digits so outputs round-trip
bit-exactly; infinities use the literals ``inf`` and ``-inf``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .boundary import BoundaryEstimate, TimeGrid
from .verify import FptSample


class CsvFormatError(ValueError):
    pass


def parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError as exc:
        raise CsvFormatError(f"bad float literal {s.strip()!r}") from exc


def write_estimate_csv(path, est: BoundaryEstimate):
    columns = (est.curve.grid.points, est.curve.values, est.survival_target, est.survival_achieved)
    _write_rows(path, "t,b,S_target,S_achieved", *columns)


def read_boundary_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) from a boundary CSV; header must start with t,b."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"boundary CSV is not UTF-8: {exc}") from exc
    if not lines:
        raise CsvFormatError("empty boundary CSV")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:2] != ["t", "b"]:
        raise CsvFormatError(f"expected header starting 't,b', got {lines[0]!r}")
    ts, bs = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CsvFormatError(f"row has {len(cells)} cells, header has {len(header)}")
        ts.append(parse_float(cells[0]))
        bs.append(parse_float(cells[1]))
    if not ts:
        raise CsvFormatError("boundary CSV has no data rows")
    return np.array(ts), np.array(bs)


def write_fpt_sample(path, sample: FptSample):
    _write_rows(path, "", sample.times)


_CHUNK = 1 << 14


def _write_rows(path, header: str, *columns):
    """One line per row of the columns, after the header line if there is one.

    One %-format and one write per chunk of rows: "%.17g" prints each float
    with 17 significant digits, and memory stays bounded for any row count.
    """
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for a in range(0, len(columns[0]), _CHUNK):
            rows = np.column_stack([c[a : a + _CHUNK] for c in columns])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def grid_document(grid: TimeGrid) -> dict:
    return {
        "points": len(grid),
        "t_first": float(grid.points[0]),
        "t_last": float(grid.points[-1]),
        "t_start": grid.t_start,
        "dt": grid.dt,
        "steps": grid.steps,
    }


def estimate_document(est: BoundaryEstimate) -> dict:
    """Structured-text form of a calibrated boundary with grid metadata."""
    return {
        "grid": grid_document(est.curve.grid),
        "domain_bounds": [_jsonf(est.curve.domain_bounds[0]), _jsonf(est.curve.domain_bounds[1])],
        "off_grid_value": _jsonf(est.curve.off_grid_value),
        "values": [_jsonf(v) for v in est.curve.values],
        "particles": est.particles,
        "seed": est.seed,
        "diagnostics": est.diagnostics,
    }


def order_report_document(report) -> dict:
    return {
        "holds": bool(report.holds),
        "worst_violation": _jsonf(report.worst_violation),
        "witness": _jsonf(report.witness),
    }


def _jsonf(x: float):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def write_json(path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
