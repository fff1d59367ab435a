"""Raster assembly on whole arrays against the per-point reference in oracles.py."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import ValidationError
from defect_forge import io_formats as io
from defect_forge.spectro import RasterMap, raster_map

from oracles import raster_csv_reference, raster_reference

VALUES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
FINITE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)


@st.composite
def scans(draw, values=VALUES):
    """Scan triples on a jittered rectilinear grid, with gaps, repeats and shuffles.

    Axis jitter is drawn per column and per row, up to 0.45% of the pitch, so
    most scans pass the 1% grid check and some fail it.  A few points can
    also move on their own, up to 2% of the pitch, which may push them off
    the grid, and by up to 4e-13, under the 1e-12 merge of equal values.
    """
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pitch = draw(st.sampled_from([0.5, 2.0, 1e-3, 3.7]))
    x0, y0 = (draw(st.sampled_from([0.0, -0.0, -5.0, -1e6, 1e6, 12.345])) for _ in "xy")
    jitter = draw(st.sampled_from([0.0, 0.002, 0.0045])) * pitch
    unit = st.floats(-1.0, 1.0)
    jx = draw(st.lists(unit, min_size=nx, max_size=nx))
    jy = draw(st.lists(unit, min_size=ny, max_size=ny))
    keep = draw(st.lists(st.integers(0, 5), min_size=nx * ny, max_size=nx * ny))
    points = []
    for k, (iy, ix) in enumerate((iy, ix) for iy in range(ny) for ix in range(nx)):
        if keep[k] == 0 and k > 0:  # a gap; the first point always stays
            continue
        x = x0 + ix * pitch + jitter * jx[ix]
        y = y0 + iy * pitch + jitter * jy[iy]
        if keep[k] == 1:
            x += draw(st.sampled_from([0.02 * pitch, 4e-13, -4e-13])) * draw(unit)
        points.append((x, y, draw(values)))
    for k, v in draw(st.lists(st.tuples(st.integers(0, 10**6), values), max_size=4)):
        x, y, _ = points[k % len(points)]
        points.append((x, y, v))
    return draw(st.permutations(points)) if draw(st.booleans()) else points


def _assert_matches_reference(points, rmap_input=None):
    try:
        xs, ys, values, missing = raster_reference(points)
    except ValueError as exc:
        with pytest.raises(ValidationError) as err:
            raster_map(points if rmap_input is None else rmap_input)
        assert str(err.value) == str(exc)
        return
    rmap = raster_map(points if rmap_input is None else rmap_input)
    assert rmap.xs.tobytes() == xs.tobytes() and rmap.ys.tobytes() == ys.tobytes()
    assert rmap.values.tobytes() == values.tobytes()
    assert repr(rmap.missing) == repr(missing)  # repr tells -0.0 from 0.0
    assert io.write_raster_csv(rmap) == raster_csv_reference(xs, ys, values)
    assert io.write_raster_pgm(rmap) == io.write_raster_pgm(RasterMap(xs, ys, values))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scans())
def test_raster_map_matches_per_point_reference(points):
    _assert_matches_reference(points)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scans(values=FINITE_VALUES))
def test_raster_csv_round_trip_matches_reference(points):
    """The CLI path: rows written to CSV, parsed to one array, assembled from it."""
    text = "x_um,y_um,counts\n" + "".join("%r,%r,%r\n" % p for p in points)
    arr = io.parse_raster_points(text)
    assert arr.shape == (len(points), 3)
    _assert_matches_reference(points, rmap_input=arr)


def test_repeated_point_keeps_last_row():
    points = [(0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 0.0, 3.0), (1.0, 0.0, -0.0), (0.0, 0.0, 4.0)]
    for given_points in (points, np.array(points), iter(points)):
        rmap = raster_map(given_points)
        assert rmap.values.tolist() == [[4.0, 0.0]]
        assert np.signbit(rmap.values[0, 1])
    # a NaN last row leaves the cell missing, as it did before
    rmap = raster_map(points + [(1.0, 0.0, np.nan)])
    assert rmap.missing == ((1.0, 0.0),)


def test_negative_zero_and_negative_origin():
    points = [(-0.0, -4.0, 1.0), (0.5, -4.0, 2.0), (0.0, -3.5, 3.0)]
    rmap = raster_map(points)
    assert repr(rmap.xs.tolist()) == "[-0.0, 0.5]"
    assert rmap.ys.tolist() == [-4.0, -3.5]
    assert repr(rmap.missing) == "((0.5, -3.5),)"
    assert io.write_raster_csv(rmap).splitlines()[0] == "y_um\\x_um,-0,0.5"


@pytest.mark.parametrize("points, shape", [
    ([(0.0, 5.0, 1.0), (2.0, 5.0, 2.0), (4.0, 5.0, 3.0)], (1, 3)),
    ([(7.0, 0.0, 1.0), (7.0, 1.5, 2.0)], (2, 1)),
    ([(3.0, 3.0, 1.0)], (1, 1)),
])
def test_single_row_or_column(points, shape):
    rmap = raster_map(points)
    assert rmap.values.shape == shape
    assert rmap.values.ravel().tolist() == [p[2] for p in points]


@pytest.mark.parametrize("points", [[], [(0.0, 0.0)], [(0.0, np.nan, 1.0)], [(np.inf, 0.0, 1.0)]])
def test_raster_map_rejects_malformed_points(points):
    with pytest.raises(ValidationError):
        raster_map(points)


def test_raster_map_memory_stays_linear_in_points():
    """A 200 x 200 scan assembles without an (n_points x n_centres) distance matrix."""
    iy, ix = np.divmod(np.arange(200 * 200), 200)
    keep = np.random.default_rng(5).random(len(ix)) > 0.001
    points = np.column_stack([ix * 0.5, iy * 0.5, np.arange(len(ix), dtype=float)])[keep]
    tracemalloc.start()
    try:
        rmap = raster_map(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rmap.values.shape == (200, 200) and len(rmap.missing) == int((~keep).sum())
    assert peak < 16e6
