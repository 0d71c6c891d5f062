import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifpt import io
from ifpt.boundary import BoundaryCurve, BoundaryEstimate, TimeGrid
from ifpt.verify import FptSample


def g17(x) -> str:
    """A float with 17 significant digits, as the writers print it."""
    return format(float(x), ".17g")


def test_format_float_17_digits_round_trip(tmp_path):
    finite = [0.001953125, 1 / 3, 1e-17, 123456.789, math.pi]
    path = tmp_path / "fpt.txt"
    io.write_fpt_sample(path, FptSample(times=np.array(finite + [math.inf, -math.inf]), grid=TimeGrid(1.0, 1.0, 1)))
    lines = path.read_text().splitlines()
    assert [float(s) for s in lines[:-2]] == finite
    assert lines[-2:] == ["inf", "-inf"]
    assert io.parse_float("inf") == math.inf
    assert io.parse_float("-inf") == -math.inf
    with pytest.raises(io.CsvFormatError):
        io.parse_float("nope")


@settings(max_examples=500)
@given(x=st.floats(allow_nan=False))
def test_parse_inverts_format(x):
    y = io.parse_float(g17(x))
    assert np.float64(y).tobytes() == np.float64(x).tobytes()


@settings(max_examples=200)
@given(times=st.lists(st.floats(allow_nan=False), max_size=50))
def test_fpt_sample_lines_are_format_float(times):
    # the writer formats a chunk of rows at once; each line must be the
    # element's g17, signed zeros, subnormals and infinities included
    sample = FptSample(times=np.array(times, dtype=float), grid=TimeGrid(1.0, 1.0, 1))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fpt.txt")
        io.write_fpt_sample(path, sample)
        with open(path) as fh:
            assert fh.read() == "".join(g17(t) + "\n" for t in times)


@settings(max_examples=100)
@given(
    data=st.data(),
    dt=st.floats(1e-300, 1e300),
    start_in_steps=st.floats(1.0, 1e6),
    steps=st.integers(1, 20),
)
def test_estimate_csv_round_trip_is_exact(data, dt, start_in_steps, steps):
    grid = TimeGrid(dt * start_in_steps, dt, steps)
    values = data.draw(st.lists(st.floats(allow_nan=False), min_size=len(grid), max_size=len(grid)))
    survival = np.linspace(1.0, 0.0, len(grid))
    est = BoundaryEstimate(BoundaryCurve(grid, values), survival, survival, particles=2, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "boundary.csv")
        io.write_estimate_csv(path, est)
        ts, bs = io.read_boundary_csv(path)
    # the check verify runs on the times it reads back
    assert grid.matches(ts)
    assert ts.tobytes() == grid.points.tobytes()
    assert bs.tobytes() == est.curve.values.tobytes()


def test_estimate_csv_lines_are_format_float_across_chunks(tmp_path):
    # more rows than one chunk of the writer; each cell is its g17
    grid = TimeGrid(0.5, 0.5, 2**14 + 3)
    values = np.random.default_rng(5).normal(size=len(grid))
    values[::7] = -math.inf
    target = np.linspace(1.0, 0.0, len(grid))
    achieved = np.round(target, 3)
    path = tmp_path / "boundary.csv"
    io.write_estimate_csv(path, BoundaryEstimate(BoundaryCurve(grid, values), target, achieved, particles=2, seed=1))
    rows = zip(grid.points, values, target, achieved)
    expected = "t,b,S_target,S_achieved\n" + "".join(",".join(map(g17, row)) + "\n" for row in rows)
    assert path.read_text() == expected


def test_curve_csv_round_trip(tmp_path):
    grid = TimeGrid(0.5, 0.5, 3)
    curve = BoundaryCurve(grid, [math.inf, 0.25, -math.inf])
    path = tmp_path / "curve.csv"
    io.write_estimate_csv(path, BoundaryEstimate(curve, [1.0, 0.5, 0.0], [1.0, 0.5, 0.0], particles=2, seed=1))
    ts, bs = io.read_boundary_csv(path)
    assert np.array_equal(ts, grid.points)
    assert bs[0] == math.inf and bs[1] == 0.25 and bs[2] == -math.inf


def test_estimate_csv_readable_as_boundary(tmp_path):
    grid = TimeGrid(0.5, 0.5, 2)
    est = BoundaryEstimate(
        BoundaryCurve(grid, [0.1, -math.inf]), [1.0, 0.5], [1.0, 0.5], particles=10, seed=1
    )
    path = tmp_path / "est.csv"
    io.write_estimate_csv(path, est)
    ts, bs = io.read_boundary_csv(path)
    assert list(ts) == [0.5, 1.0]
    assert bs[1] == -math.inf


def test_read_rejects_bad_header_and_ragged_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(io.CsvFormatError):
        io.read_boundary_csv(p)
    p.write_text("t,b\n1,2,3\n")
    with pytest.raises(io.CsvFormatError):
        io.read_boundary_csv(p)
    p.write_text("t,b\n")
    with pytest.raises(io.CsvFormatError):
        io.read_boundary_csv(p)


def test_documents_mark_infinities():
    grid = TimeGrid(0.25, 0.25, 2)
    est = BoundaryEstimate(
        BoundaryCurve(grid, [math.inf, 0.5]), [1.0, 0.9], [1.0, 0.9], particles=4, seed=2
    )
    doc = io.estimate_document(est)
    assert doc["values"] == ["inf", 0.5]
    assert doc["grid"]["dt"] == 0.25
    assert doc["domain_bounds"] == ["-inf", "inf"]
