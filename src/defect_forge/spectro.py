"""Measured-data analysis: PL peak fits, TR-PL lifetimes, saturation, rasters.

Peak seeding uses a robust threshold (median + 5*MAD) so the broad phonon
sideband does not spawn spurious seeds; refinement is the damped
Gauss-Newton solver with analytic Jacobians (fitting.py).  Lorentzian is
the default line shape for the zero-phonon lines measured here at 6 K;
Gaussian is available.  Linewidths at or below the grating resolution are
flagged resolution-limited rather than reported as physical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitNonConvergence, ValidationError
from .fitting import (
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


def grating_resolution_nm(grating_gpmm: float) -> float:
    if grating_gpmm <= 0:
        raise ValidationError(f"grating groove density must be > 0, got {grating_gpmm}")
    return RESOLUTION_NM_GPMM / grating_gpmm


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Wavelength-intensity series with acquisition metadata."""

    wavelength_nm: np.ndarray
    counts: np.ndarray
    temperature_k: float | None = None
    power_mw: float | None = None
    grating_gpmm: float | None = None
    x_um: float | None = None
    y_um: float | None = None
    location: str | None = None

    def __post_init__(self):
        wl = np.asarray(self.wavelength_nm, dtype=float)
        ct = np.asarray(self.counts, dtype=float)
        if wl.ndim != 1 or wl.shape != ct.shape:
            raise ValidationError("wavelength and counts must be 1-D arrays of equal length")
        if len(wl) < MIN_SPECTRUM_SAMPLES:
            raise ValidationError(f"spectrum needs >= {MIN_SPECTRUM_SAMPLES} samples, got {len(wl)}")
        if not np.all(np.diff(wl) > 0):  # row: the first sample not above its predecessor
            raise ValidationError("wavelength axis must be strictly increasing",
                                  row=int(np.argmin(np.diff(wl) > 0)) + 1)
        if np.any(ct < 0):
            raise ValidationError("counts must be >= 0", row=int(np.argmax(ct < 0)))
        wl.flags.writeable = False
        ct.flags.writeable = False
        object.__setattr__(self, "wavelength_nm", wl)
        object.__setattr__(self, "counts", ct)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (np.array_equal(self.wavelength_nm, other.wavelength_nm)
                and np.array_equal(self.counts, other.counts)
                and (self.temperature_k, self.power_mw, self.grating_gpmm,
                     self.x_um, self.y_um, self.location)
                == (other.temperature_k, other.power_mw, other.grating_gpmm,
                    other.x_um, other.y_um, other.location))


@dataclass(frozen=True)
class PeakFit:
    center_nm: float
    fwhm_nm: float
    amplitude: float
    baseline: float
    model: str
    residual_rms: float
    resolution_limited: bool | None
    converged: bool


def _seed_peaks(spec: Spectrum, max_peaks: int):
    # local import: scipy costs about 1.2 s of start-up that most commands never use
    from scipy.signal import find_peaks

    counts = spec.counts
    baseline = float(np.median(counts))
    mad = float(np.median(np.abs(counts - baseline)))
    threshold = baseline + 5.0 * mad
    idx, props = find_peaks(counts, height=threshold, prominence=0)
    if len(idx) == 0:
        raise ValidationError(
            f"no peak above the seeding threshold (median + 5*MAD = {threshold:g} counts)"
        )
    # rank by prominence, not height: a noise maximum on the flank of a tall
    # line is high but not prominent, and must not displace a weaker real line
    order = np.argsort(-props["prominences"], kind="stable")[:max_peaks]
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

    Peaks are returned sorted by amplitude (descending).  Non-convergence
    returns the best-so-far parameters with converged=False.
    """
    if max_peaks < 1:
        raise ValidationError(f"max_peaks must be >= 1, got {max_peaks}")
    if model not in ("lorentzian", "gaussian"):
        raise ValidationError(f"model must be 'lorentzian' or 'gaussian', got '{model}'")
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
    )
    fitted_baseline = float(result.params[0])
    floor = grating_resolution_nm(spec.grating_gpmm) if spec.grating_gpmm else None
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
            converged=result.converged,
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
    converged: bool


@dataclass(frozen=True, eq=False)
class DecayTrace:
    """Time-resolved photon counts; fit carries the first-order decay result."""

    time_ns: np.ndarray
    counts: np.ndarray
    fit: DecayFit | None = None

    def __post_init__(self):
        t = np.asarray(self.time_ns, dtype=float)
        ct = np.asarray(self.counts, dtype=float)
        if t.ndim != 1 or t.shape != ct.shape:
            raise ValidationError("time and counts must be 1-D arrays of equal length")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("time axis must be strictly increasing",
                                  row=int(np.argmin(np.diff(t) > 0)) + 1)
        t.flags.writeable = False
        ct.flags.writeable = False
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "counts", ct)

    def __eq__(self, other):
        if not isinstance(other, DecayTrace):
            return NotImplemented
        return (np.array_equal(self.time_ns, other.time_ns)
                and np.array_equal(self.counts, other.counts) and self.fit == other.fit)


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
    if np.mean(ct[-quarter:]) >= np.mean(ct[:quarter]):
        raise ValidationError("signal does not decay after its peak; not a first-order decay")

    b0 = float(np.min(ct))
    tau0 = max((t[-1] - t[0]) / 3.0, 1e-3)
    above = ct - b0 + 1e-9
    # crude log-slope estimate over the first decade refines tau0
    top = above[0] / np.e
    k = int(np.searchsorted(-above, -top))
    if 0 < k < len(t):
        tau0 = max(float(t[k] - t[0]), 1e-3)
    a0 = float((ct[0] - b0) * np.exp(t[0] / tau0))

    result = gauss_newton(
        lambda p: decay_model(t, p) - ct,
        lambda p: decay_jacobian(t, p),
        np.array([a0, tau0, b0]),
    )
    if not result.converged:
        raise FitNonConvergence(
            f"lifetime fit did not converge in {result.n_iter} iterations "
            f"(residual rms {result.residual_rms:g})"
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
        converged=result.converged,
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
    """Fit I(P) = I_sat * P / (P + P_sat).

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

    p_sat0 = float(np.median(p))
    i_sat0 = float(np.max(i)) * 2.0
    result = gauss_newton(
        lambda q: saturation_model(p, q) - i,
        lambda q: saturation_jacobian(p, q),
        np.array([i_sat0, p_sat0]),
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
    """Dense scan grid: values[iy, ix] at (ys[iy], xs[ix]); missing points are NaN."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    missing: tuple[tuple[float, float], ...]

    def __eq__(self, other):
        if not isinstance(other, RasterMap):
            return NotImplemented
        return (np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)
                and np.array_equal(self.values, other.values, equal_nan=True)
                and self.missing == other.missing)


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


def _grid_axis(values: np.ndarray, tol_fraction: float):
    vals = np.sort(values)
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
        tol = tol_fraction * pitch
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
                f"(worst deviation {worst:g} exceeds {tol:g} = {tol_fraction:.0%} of pitch)"
            )
    return centers


def raster_map(points, pitch_tolerance: float = 0.01) -> RasterMap:
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
    xs = _grid_axis(pts[:, 0], pitch_tolerance)
    ys = _grid_axis(pts[:, 1], pitch_tolerance)
    cell = _nearest(ys, pts[:, 1]) * len(xs) + _nearest(xs, pts[:, 0])
    # numpy leaves the order of repeated indices in one assignment unspecified,
    # so pick each cell's last point first: the first in reversed order
    _, first_reversed = np.unique(cell[::-1], return_index=True)
    last = len(cell) - 1 - first_reversed
    grid = np.full(len(ys) * len(xs), np.nan)
    grid[cell[last]] = pts[last, 2]
    grid = grid.reshape(len(ys), len(xs))
    iy, ix = np.nonzero(np.isnan(grid))
    missing = tuple(zip(xs[ix].tolist(), ys[iy].tolist()))
    xs.flags.writeable = False
    ys.flags.writeable = False
    grid.flags.writeable = False
    return RasterMap(xs=xs, ys=ys, values=grid, missing=missing)
