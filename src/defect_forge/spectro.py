"""Measured-data analysis: PL peak fits, TR-PL lifetimes, saturation, rasters.

Peak seeding uses a robust threshold (median + 5*MAD) so the broad phonon
sideband does not spawn spurious seeds, and ranks the local maxima above it
by topographic prominence, both as SciPy's find_peaks defines them (see
_find_peaks).  Refinement is the damped Gauss-Newton solver with analytic
Jacobians (fitting.py).  Lorentzian is the default line shape for the
zero-phonon lines measured here at 6 K; Gaussian is available.  Linewidths at
or below the grating resolution are flagged resolution-limited rather than
reported as physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._record import fields_equal, readonly, require_finite
from .errors import ValidationError
from .fitting import (
    LINE_SHAPES,
    decay_jacobian,
    decay_model,
    gauss_newton,
    peak_jacobian,
    peak_model,
    saturation_jacobian,
    saturation_model,
)

__all__ = [
    "Spectrum",
    "PeakFit",
    "DecayTrace",
    "DecayFit",
    "SaturationFit",
    "TemperatureSeries",
    "RasterMap",
    "fit_peaks",
    "fit_lifetime",
    "fit_saturation",
    "temperature_series",
    "raster_map",
    "grating_resolution_nm",
]

MIN_SPECTRUM_SAMPLES = 16
# measured reference point: 0.03 nm resolution at 1200 grooves/mm; scales
# inversely with groove density
RESOLUTION_NM_GPMM = 36.0
PITCH_TOLERANCE = 0.01  # fraction of the median pitch a raster point may sit off its grid line


def grating_resolution_nm(grating_gpmm: float) -> float:
    if grating_gpmm <= 0:
        raise ValidationError(f"grating groove density must be > 0, got {grating_gpmm}")
    resolution = RESOLUTION_NM_GPMM / grating_gpmm
    if not math.isfinite(resolution):  # a density below about 2e-307 overflows the floor
        raise ValidationError(f"grating groove density {grating_gpmm} gives no finite resolution floor")
    return resolution


def _samples(axis, counts, name: str, min_count: int, too_few: str) -> tuple[np.ndarray, np.ndarray]:
    """axis and counts copied read-only, or a ValidationError: they must be 1-D of equal length,
    finite (a CSV file cannot hold a nan or inf), at least min_count long (too_few, formatted with
    min and n, says so) and on a strictly increasing axis; a row names the first bad sample."""
    axis, counts = readonly(axis), readonly(counts)
    if axis.ndim != 1 or axis.shape != counts.shape:
        raise ValidationError(f"{name} and counts must be 1-D arrays of equal length")
    finite = np.isfinite(axis) & np.isfinite(counts)
    if not finite.all():
        raise ValidationError(f"{name} and counts must be finite", row=int(np.argmin(finite)))
    if len(axis) < min_count:
        raise ValidationError(too_few.format(min=min_count, n=len(axis)))
    rising = axis[1:] > axis[:-1]  # compared, not subtracted: a difference may overflow
    if not rising.all():  # row: the first sample not above its predecessor
        raise ValidationError(f"{name} axis must be strictly increasing", row=int(np.argmin(rising)) + 1)
    return axis, counts


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Wavelength-intensity series with acquisition metadata.

    Every sample is finite, on a strictly increasing wavelength axis, with counts >= 0; each
    number of the metadata is finite, and a grating groove density is > 0 with a finite
    resolution floor (grating_resolution_nm).
    """

    wavelength_nm: np.ndarray
    counts: np.ndarray
    temperature_k: float | None = None
    power_mw: float | None = None
    grating_gpmm: float | None = None
    x_um: float | None = None
    y_um: float | None = None
    location: str | None = None

    __eq__ = fields_equal

    def __post_init__(self):
        wl, ct = _samples(self.wavelength_nm, self.counts, "wavelength", MIN_SPECTRUM_SAMPLES,
                          "spectrum needs >= {min} samples, got {n}")
        if np.any(ct < 0):
            raise ValidationError("counts must be >= 0", row=int(np.argmax(ct < 0)))
        require_finite(self, "temperature_k", "power_mw", "grating_gpmm", "x_um", "y_um")
        if self.grating_gpmm is not None:  # refused as parse_spectrum refuses it
            grating_resolution_nm(self.grating_gpmm)
        loc = self.location  # written as the stripped comment line '# location=...'
        if loc is not None and (len(loc.splitlines()) > 1 or loc != loc.strip()):
            raise ValidationError(f"location must hold no line break and no surrounding whitespace, got {loc!r}")
        object.__setattr__(self, "wavelength_nm", wl)
        object.__setattr__(self, "counts", ct)


@dataclass(frozen=True)
class PeakFit:
    center_nm: float
    fwhm_nm: float
    amplitude: float
    baseline: float
    model: str
    residual_rms: float
    resolution_limited: bool | None


def _find_peaks(x: np.ndarray, height: float):
    """Local maxima of x at or above height and their prominences, bit for bit as SciPy's
    find_peaks(x, height=height, prominence=0) gives them.  A maximum is a run of equal samples
    above the runs on each side, counted at its middle sample (the left one of two), never at
    an end.  Its prominence is its height above the higher of the lowest samples on each side
    up to the nearest strictly higher sample or the end of x."""
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    run = x[starts]
    top = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:]) & (run[1:-1] >= height)) + 1
    peaks = (starts[top] + starts[top + 1] - 1) // 2
    tall = np.flatnonzero(x >= height)  # every sample higher than a peak
    prominences = np.empty(len(peaks))
    for k, i in enumerate(peaks):
        higher = tall[x[tall] > x[i]]
        j = np.searchsorted(higher, i)
        left = higher[j - 1] + 1 if j > 0 else 0
        right = higher[j] if j < len(higher) else len(x)
        prominences[k] = x[i] - max(x[left:i].min(), x[i + 1:right].min())
    return peaks, prominences


def _seed_peaks(spec: Spectrum, max_peaks: int):
    """Baseline and, in increasing order, the max_peaks most prominent local maxima at or above
    median + 5*MAD (one per flat top, see _find_peaks); of equal prominences the lower index wins."""
    counts = spec.counts
    baseline = float(np.median(counts))
    mad = float(np.median(np.abs(counts - baseline)))
    threshold = baseline + 5.0 * mad
    idx, prominences = _find_peaks(counts, threshold)
    if len(idx) == 0:
        raise ValidationError(
            f"no peak above the seeding threshold (median + 5*MAD = {threshold:g} counts)"
        )
    # rank by prominence, not height: a noise maximum on the flank of a tall
    # line is high but not prominent, and must not displace a weaker real line
    order = np.argsort(-prominences, kind="stable")[:max_peaks]
    seeds = np.sort(idx[order])
    return baseline, seeds


def _halfmax_width(spec: Spectrum, i: int, baseline: float) -> float:
    wl, ct = spec.wavelength_nm, spec.counts
    half = baseline + 0.5 * (ct[i] - baseline)
    left = i
    while left > 0 and ct[left] > half:
        left -= 1
    right = i
    while right < len(ct) - 1 and ct[right] > half:
        right += 1
    width = wl[right] - wl[left]
    spacing = float(np.min(np.diff(wl)))
    return max(width, 2.0 * spacing)


def fit_peaks(spec: Spectrum, model: str = "lorentzian", max_peaks: int = 1) -> list[PeakFit]:
    """Find up to max_peaks peaks and refine them jointly with a shared baseline.

    Peaks are returned sorted by amplitude (descending).  A fit that does not
    converge raises FitNonConvergence and returns no peak.
    """
    if max_peaks < 1:
        raise ValidationError(f"max_peaks must be >= 1, got {max_peaks}")
    if model not in LINE_SHAPES:
        raise ValidationError(f"model must be {' or '.join(map(repr, LINE_SHAPES))}, got '{model}'")
    baseline, seeds = _seed_peaks(spec, max_peaks)
    wl, ct = spec.wavelength_nm, spec.counts

    params = [baseline]
    for i in seeds:
        params += [float(ct[i] - baseline), float(wl[i]), _halfmax_width(spec, int(i), baseline)]
    x0 = np.array(params)

    result = gauss_newton(
        lambda p: peak_model(wl, p, model) - ct,
        lambda p: peak_jacobian(wl, p, model),
        x0,
        "peak",
    )
    fitted_baseline = float(result.params[0])
    floor = None if spec.grating_gpmm is None else grating_resolution_nm(spec.grating_gpmm)
    fits = []
    for a, c, wdt in result.params[1:].reshape(-1, 3):
        wdt = abs(float(wdt))
        # the flag tolerates float noise right at the floor; a flagged width is
        # reported at the floor, since the instrument cannot resolve below it
        limited = None if floor is None else bool(wdt <= floor * (1.0 + 1e-9))
        fits.append(PeakFit(
            center_nm=float(c),
            fwhm_nm=max(wdt, floor) if limited else wdt,
            amplitude=float(a),
            baseline=fitted_baseline,
            model=model,
            residual_rms=result.residual_rms,
            resolution_limited=limited,
        ))
    fits.sort(key=lambda f: f.amplitude, reverse=True)
    return fits


@dataclass(frozen=True)
class DecayFit:
    amplitude: float          # extrapolated to t = 0
    tau_ns: float
    background: float
    tau_stderr_ns: float
    residual_rms: float


@dataclass(frozen=True, eq=False)
class DecayTrace:
    """Time-resolved photon counts: at least one finite sample, on a strictly increasing time axis."""

    time_ns: np.ndarray
    counts: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        # a decay file holds at least one row
        t, ct = _samples(self.time_ns, self.counts, "time", 1, "decay trace needs >= {min} sample")
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "counts", ct)


def fit_lifetime(trace: DecayTrace) -> DecayFit:
    """Fit A*exp(-t/tau) + B from the peak channel onward (t in absolute ns).

    tau comes with its asymptotic standard error.  A rising signal (no decay
    after the peak) is rejected.
    """
    peak = int(np.argmax(trace.counts))
    t = trace.time_ns[peak:]
    ct = trace.counts[peak:]
    if len(t) < 10:
        raise ValidationError(f"need >= 10 samples after the peak channel, got {len(t)}")
    quarter = max(len(ct) // 4, 1)
    with np.errstate(over="ignore"):  # finite counts near the largest float may sum to inf
        rising = np.mean(ct[-quarter:]) >= np.mean(ct[:quarter])
    if rising:
        raise ValidationError("signal does not decay after its peak; not a first-order decay")

    b0 = float(np.min(ct))
    tau0 = (t[-1] - t[0]) / 3.0
    above = ct - b0 + 1e-9
    # crude log-slope estimate over the first decade refines tau0
    top = above[0] / np.e
    k = int(np.searchsorted(-above, -top))
    if 0 < k < len(t):
        tau0 = float(t[k] - t[0])
    with np.errstate(over="ignore", invalid="ignore"):  # a window far from t = 0 overflows
        a0 = float((ct[0] - b0) * np.exp(t[0] / tau0))
        # a0 underflows to 0 far before t = 0; the start model is then 0 * inf at t[0]
        underflow = a0 == 0 and np.isinf(np.exp(-t[0] / tau0))
    if not math.isfinite(a0) or underflow:
        cause = "underflows to 0" if underflow else "is not a finite number"
        raise ValidationError(f"amplitude extrapolated to t = 0 {cause}: the decay is fitted "
                              f"from t = {t[0]:g} ns with a starting lifetime of {tau0:g} ns")

    result = gauss_newton(
        lambda p: decay_model(t, p) - ct,
        lambda p: decay_jacobian(t, p),
        np.array([a0, tau0, b0]),
        "lifetime",
    )
    a, tau, b = result.params
    if tau <= 0:
        raise ValidationError(f"fitted lifetime is non-positive ({tau:g} ns)")
    return DecayFit(
        amplitude=float(a),
        tau_ns=float(tau),
        background=float(b),
        tau_stderr_ns=float(result.param_stderr[1]),
        residual_rms=result.residual_rms,
    )


@dataclass(frozen=True)
class SaturationFit:
    i_sat: float
    p_sat_mw: float
    i_sat_stderr: float
    p_sat_stderr_mw: float
    residual_rms: float
    identifiable: bool


def fit_saturation(powers_mw, intensities) -> SaturationFit:
    """Fit I(P) = I_sat * P / (P + P_sat); FitNonConvergence when the fit does not converge.

    The knee is constrained by the data only when it lies inside the measured
    power range.  A P_sat above the highest power (every point in the linear
    regime) or below the lowest (a flat, fully saturated curve) is flagged
    identifiable=False.
    """
    p = np.asarray(powers_mw, dtype=float)
    i = np.asarray(intensities, dtype=float)
    if p.ndim != 1 or p.shape != i.shape:
        raise ValidationError("powers and intensities must be 1-D arrays of equal length")
    if len(p) < 4:
        raise ValidationError(f"need >= 4 points to fit a saturation curve, got {len(p)}")
    if np.any(p <= 0):
        raise ValidationError("powers must be > 0 mW")
    if not np.any(i):
        raise ValidationError("every intensity is 0; a saturation curve needs a signal")

    p_sat0 = float(np.median(p))
    i_sat0 = float(np.max(i)) * 2.0
    if not math.isfinite(i_sat0):
        raise ValidationError(f"starting saturation intensity 2 * max(I) is not a finite number: "
                              f"the largest intensity is {np.max(i):g}")
    result = gauss_newton(
        lambda q: saturation_model(p, q) - i,
        lambda q: saturation_jacobian(p, q),
        np.array([i_sat0, p_sat0]),
        "saturation",
    )
    i_sat, p_sat = result.params
    identifiable = bool(np.min(p) <= p_sat <= np.max(p))
    return SaturationFit(
        i_sat=float(i_sat),
        p_sat_mw=float(p_sat),
        i_sat_stderr=float(result.param_stderr[0]),
        p_sat_stderr_mw=float(result.param_stderr[1]),
        residual_rms=result.residual_rms,
        identifiable=identifiable,
    )


@dataclass(frozen=True)
class TemperatureSeries:
    rows: tuple[tuple[float, float, float], ...]  # (T_K, amplitude, center_nm)
    decreasing_fraction: float


def temperature_series(spectra, model: str = "lorentzian") -> TemperatureSeries:
    """Dominant-peak amplitude/center per temperature, sorted by T.

    decreasing_fraction reports the fraction of consecutive steps with
    falling amplitude (1.0 = strictly quenching with temperature).
    """
    spectra = list(spectra)
    if not spectra:
        raise ValidationError("temperature_series needs at least one spectrum")
    for s in spectra:
        if s.temperature_k is None:
            raise ValidationError("every spectrum must carry temperature metadata")
    rows = []
    for s in sorted(spectra, key=lambda s: s.temperature_k):
        best = fit_peaks(s, model=model, max_peaks=1)[0]
        rows.append((float(s.temperature_k), best.amplitude, best.center_nm))
    if len(rows) > 1:
        drops = sum(1 for a, b in zip(rows[:-1], rows[1:]) if b[1] < a[1])
        fraction = drops / (len(rows) - 1)
    else:
        fraction = 1.0
    return TemperatureSeries(rows=tuple(rows), decreasing_fraction=fraction)


@dataclass(frozen=True, eq=False)
class RasterMap:
    """Dense scan grid: values[iy, ix] at (ys[iy], xs[ix]); missing points are NaN.

    missing, computed from the values, holds the (x, y) of every NaN cell in
    row-major order.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        for name in ("xs", "ys", "values"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @cached_property
    def missing(self) -> tuple[tuple[float, float], ...]:
        iy, ix = np.nonzero(np.isnan(self.values))
        return tuple(zip(self.xs[ix].tolist(), self.ys[iy].tolist()))


def _nearest(centers: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest of the sorted centers for each value; the lower index wins a tie.

    Float subtraction rounds monotonically, so the smallest distance is always
    to one of the two centres that bracket the value.  With centres spaced far
    above rounding error, as the grid check ensures, this is
    np.argmin(np.abs(centers - v)).
    """
    right = np.minimum(np.searchsorted(centers, values), len(centers) - 1)
    left = np.maximum(right - 1, 0)
    return np.where(np.abs(centers[right] - values) < np.abs(centers[left] - values), right, left)


def _grid_axis(values: np.ndarray, name: str):
    vals = np.sort(values)
    # a Python float difference overflows to inf without a warning; within a
    # finite extent no difference taken below can overflow
    if not np.isfinite(float(vals[-1]) - float(vals[0])):
        raise ValidationError(f"raster {name} coordinates from {vals[0]:g} to {vals[-1]:g} span more than "
                              "the largest float")
    # the sequential rules below compare each value with the last kept centre,
    # which a repeated value never changes, so they run over distinct values only
    distinct = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    centers = [distinct[0]]
    for v in distinct[1:].tolist():
        if v - centers[-1] > 1e-12:
            centers.append(v)
    centers = np.array(centers)
    if len(centers) > 1:
        pitch = float(np.median(np.diff(centers)))
        tol = PITCH_TOLERANCE * pitch
        merged = [centers[0]]
        for c in centers[1:].tolist():
            if c - merged[-1] <= tol:
                continue
            merged.append(c)
        centers = np.array(merged)
        off = np.abs(centers[_nearest(centers, distinct)] - distinct)
        spacing_dev = np.abs(np.diff(centers) - pitch) if len(centers) > 1 else np.zeros(1)
        if np.any(off > tol) or np.any(spacing_dev > tol):
            worst = max(off.max(), spacing_dev.max())
            raise ValidationError(
                "scan points do not sit on a uniform rectilinear grid "
                f"(worst deviation {worst:g} exceeds {tol:g} = {PITCH_TOLERANCE:.0%} of pitch)"
            )
    return centers


def raster_map(points) -> RasterMap:
    """Assemble (x_um, y_um, counts) scan points into a dense row-major grid.

    points is an (n, 3) array or any iterable of triples.  Each point goes to
    the nearest axis centre; where several land on one cell, the last wins.
    """
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float)
    if pts.size == 0:
        raise ValidationError("raster_map needs at least one point")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError("raster points must be (x, y, counts) triples")
    if not np.isfinite(pts[:, :2]).all():
        raise ValidationError("raster point coordinates must be finite")
    xs = _grid_axis(pts[:, 0], "x")
    ys = _grid_axis(pts[:, 1], "y")
    cell = _nearest(ys, pts[:, 1]) * len(xs) + _nearest(xs, pts[:, 0])
    # numpy leaves the order of repeated indices in one assignment unspecified,
    # so pick each cell's last point first: the first in reversed order
    _, first_reversed = np.unique(cell[::-1], return_index=True)
    last = len(cell) - 1 - first_reversed
    grid = np.full(len(ys) * len(xs), np.nan)
    grid[cell[last]] = pts[last, 2]
    return RasterMap(xs=xs, ys=ys, values=grid.reshape(len(ys), len(xs)))
