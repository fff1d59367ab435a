"""Dose-curve calibration and fluence regime classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import ValidationError, calibrate, classify
from defect_forge.dose import (
    REGIME_BELOW,
    REGIME_DAMAGE,
    REGIME_ERASE,
    REGIME_REWRITE,
    REGIME_WRITE,
    classify_with_segment,
)


def g_center_fixture():
    """Write near 16 mJ/cm^2, suppression near 30, reoccurrence at 44.5
    (fluence anchors are measured; intensities synthetic)."""
    return calibrate(
        [(10.0, 150.0), (16.0, 1000.0), (22.0, 500.0), (30.0, 60.0),
         (38.0, 420.0), (44.5, 900.0)],
        label="G",
    )


def test_three_point_rise_fall():
    curve = calibrate([(1.0, 10.0), (2.0, 100.0), (3.0, 20.0)])
    assert curve.boundaries == (2.0,)
    assert [s.direction for s in curve.segments] == ["rising", "falling"]


def test_monotone_data_no_boundaries():
    curve = calibrate([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 45.0)])
    assert curve.boundaries == ()
    assert len(curve.segments) == 1
    assert curve.segments[0].regime == REGIME_WRITE


def test_g_fixture_boundaries():
    curve = g_center_fixture()
    assert len(curve.boundaries) == 2
    b1, b2 = curve.boundaries
    assert b1 == pytest.approx(16.0)       # apex of the write rise
    assert 30.0 <= b2 < 44.5               # trough before reoccurrence
    regimes = [s.regime for s in curve.segments]
    assert regimes == [REGIME_WRITE, REGIME_ERASE, REGIME_REWRITE]


def test_classification_anchors():
    curve = g_center_fixture()
    assert classify(curve, 16.0, 100.0) == REGIME_WRITE
    assert classify(curve, 30.0, 100.0) == REGIME_ERASE
    assert classify(curve, 44.5, 100.0) == REGIME_REWRITE
    assert classify(curve, 300.0, 100.0) == REGIME_DAMAGE
    assert classify(curve, 5.0, 100.0) == REGIME_BELOW


def test_classify_validation():
    curve = g_center_fixture()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            classify(curve, bad, 100.0)
    for threshold in (40.0, float("nan")):  # below the calibrated range, or not a number
        with pytest.raises(ValidationError):
            classify(curve, 20.0, threshold)


def test_classify_with_segment_indices():
    curve = g_center_fixture()
    assert classify_with_segment(curve, 12.0, 100.0) == (REGIME_WRITE, 0)
    assert classify_with_segment(curve, 25.0, 100.0) == (REGIME_ERASE, 1)
    assert classify_with_segment(curve, 40.0, 100.0) == (REGIME_REWRITE, 2)
    assert classify_with_segment(curve, 300.0, 100.0) == (REGIME_DAMAGE, None)
    assert classify_with_segment(curve, 1.0, 100.0) == (REGIME_BELOW, None)


def test_every_calibration_fluence_classifies_into_the_segment_that_ends_there():
    """A boundary (the apex at 16 and the trough at 30) belongs to the segment on its left;
    the first fluence opens the first segment."""
    curve = g_center_fixture()
    indices = [classify_with_segment(curve, float(f), 100.0)[1] for f in curve.fluences]
    assert indices == [0, 0, 1, 1, 2, 2]
    for f, idx in zip(curve.fluences[1:], indices[1:]):
        assert curve.segments[idx].lo < f <= curve.segments[idx].hi
    assert [classify_with_segment(curve, b, 100.0)[1] for b in curve.boundaries] == [0, 1]


def test_interpolation_reproduces_calibration_points():
    curve = g_center_fixture()
    for f, i in zip(curve.fluences, curve.intensities):
        assert curve.interpolate(float(f)) == i


def test_reordered_points_identical_curve():
    pts = [(10.0, 150.0), (16.0, 1000.0), (22.0, 500.0), (30.0, 60.0)]
    a = calibrate(pts, label="G")
    b = calibrate(list(reversed(pts)), label="G")
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 1e4)),
                min_size=3, max_size=12,
                unique_by=lambda p: round(p[0], 3)),
       st.randoms(use_true_random=False))
def test_calibrate_order_invariance_property(points, shuffler):
    a = calibrate(points)
    shuffled = list(points)
    shuffler.shuffle(shuffled)
    assert calibrate(shuffled) == a
    # interpolant reproduces every calibration point
    for f, i in points:
        assert a.interpolate(f) == pytest.approx(i, abs=1e-9)


def test_duplicate_fluences_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        calibrate([(1.0, 10.0), (1.0, 20.0), (2.0, 30.0)])


def test_too_few_points_rejected():
    with pytest.raises(ValidationError):
        calibrate([(1.0, 10.0), (2.0, 20.0)])


def test_regimes_invariant_under_intensity_scaling():
    pts = [(10.0, 150.0), (16.0, 1000.0), (22.0, 500.0), (30.0, 60.0), (44.5, 900.0)]
    a = calibrate(pts)
    b = calibrate([(f, 7.5 * i) for f, i in pts])
    assert a.boundaries == b.boundaries
    assert [s.regime for s in a.segments] == [s.regime for s in b.segments]
    for f in (12.0, 16.0, 25.0, 40.0):
        assert classify(a, f, 100.0) == classify(b, f, 100.0)


def test_w_center_damage_anchor():
    """A W-forming fluence far above threshold classifies as near-damage even
    on a curve calibrated for another emitter."""
    curve = g_center_fixture()
    assert classify(curve, 300.0, 100.0) == "near-damage(W-forming)"
