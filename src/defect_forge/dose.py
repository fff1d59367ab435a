"""Fluence-response calibration and write/erase/rewrite regime classification.

The dose model is deliberately non-parametric: a piecewise-linear
interpolant through the calibration points, split into rising and falling
segments at interior extrema.  Regimes follow the emitter-programming
vocabulary: the first rising segment writes emitters, falling segments
erase them, and a rising segment after a fall rewrites them.  Fluences at
or above the damage threshold form lattice-damage (W-center) conditions
regardless of the calibration.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._record import fields_equal, readonly
from .errors import ValidationError

__all__ = ["DoseCurve", "Segment", "calibrate", "classify",
           "REGIME_BELOW", "REGIME_WRITE", "REGIME_ERASE", "REGIME_REWRITE", "REGIME_DAMAGE"]

REGIME_BELOW = "below-calibration"
REGIME_WRITE = "write"
REGIME_ERASE = "erase"
REGIME_REWRITE = "rewrite"
REGIME_DAMAGE = "near-damage(W-forming)"


@dataclass(frozen=True)
class Segment:
    lo: float       # fluence range, mJ/cm^2
    hi: float
    direction: str  # "rising" | "falling"
    regime: str


@dataclass(frozen=True, eq=False)
class DoseCurve:
    """Piecewise-linear (fluence, intensity) calibration for one emitter species.

    boundaries, computed from the segments, holds the interior extrema: the
    fluence where each segment but the last ends.
    """

    label: str
    fluences: np.ndarray
    intensities: np.ndarray
    segments: tuple[Segment, ...]

    __eq__ = fields_equal

    def __post_init__(self):
        object.__setattr__(self, "fluences", readonly(self.fluences))
        object.__setattr__(self, "intensities", readonly(self.intensities))

    @property
    def boundaries(self) -> tuple[float, ...]:
        return tuple(s.hi for s in self.segments[:-1])


def calibrate(points, label: str = "") -> DoseCurve:
    """Build a DoseCurve from (fluence mJ/cm^2, peak intensity) pairs.

    Points are sorted by fluence; duplicate fluences are rejected.  Plateau
    steps extend the preceding segment.
    """
    pts = sorted((float(f), float(i)) for f, i in points)
    if len(pts) < 3:
        raise ValidationError(f"calibration needs >= 3 points, got {len(pts)}")
    flu = np.array([p[0] for p in pts])
    inten = np.array([p[1] for p in pts])
    if np.any(flu[1:] == flu[:-1]):  # compared, not subtracted: any two distinct fluences are kept
        raise ValidationError("duplicate fluences in calibration data")
    if np.any(inten < 0):
        raise ValidationError("intensities must be >= 0")

    directions = []
    last = "rising"
    for d in np.diff(inten):
        if d > 0:
            last = "rising"
        elif d < 0:
            last = "falling"
        directions.append(last)

    # one segment per run of equal direction
    segments = []
    seen_fall = False
    start = 0
    for direction, run in groupby(directions):
        end = start + len(list(run))
        if direction == "rising":
            regime = REGIME_REWRITE if seen_fall else REGIME_WRITE
        else:
            regime = REGIME_ERASE
            seen_fall = True
        segments.append(Segment(lo=float(flu[start]), hi=float(flu[end]), direction=direction,
                                regime=regime))
        start = end
    return DoseCurve(label=label, fluences=flu, intensities=inten, segments=tuple(segments))


def classify(curve: DoseCurve, fluence: float, damage_threshold: float) -> tuple[str, int | None]:
    """(regime label, segment index) of one fluence given a damage threshold (mJ/cm^2).

    The index is None outside the calibration: below its first fluence, or at
    or above the damage threshold.  A fluence at an interior boundary belongs
    to the segment on its left, so the apex of the first rise still classifies
    as write.  Fluences above the calibrated range but below the threshold
    extend the last segment.
    """
    if not np.isfinite(fluence):
        raise ValidationError(f"fluence must be finite, got {fluence}")
    if fluence < 0:
        raise ValidationError(f"fluence must be >= 0, got {fluence}")
    if not damage_threshold > curve.fluences[-1]:
        raise ValidationError(
            f"damage threshold {damage_threshold:g} must exceed the largest "
            f"calibrated fluence {curve.fluences[-1]:g}"
        )
    if fluence >= damage_threshold:
        return REGIME_DAMAGE, None
    if fluence < curve.fluences[0]:
        return REGIME_BELOW, None
    # the first segment that ends at or above the fluence: a boundary belongs to the segment on its left
    idx = min(bisect_left([s.hi for s in curve.segments], fluence), len(curve.segments) - 1)
    return curve.segments[idx].regime, idx
