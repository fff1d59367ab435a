"""Peak fitting, lifetimes, saturation, temperature series, raster maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import (
    DecayTrace,
    FitNonConvergence,
    Spectrum,
    ValidationError,
    fit_lifetime,
    fit_peaks,
    fit_saturation,
    raster_map,
    temperature_series,
)
from defect_forge.fitting import decay_model, peak_model, saturation_model
from defect_forge.spectro import _find_peaks, grating_resolution_nm


def make_spectrum(wl, counts, **meta):
    return Spectrum(wavelength_nm=wl, counts=counts, **meta)


def narrow_line_spectrum(center=1450.8, fwhm=0.03, amplitude=1000.0, baseline=5.0,
                         grating=1200.0, half_window=0.6):
    wl = np.arange(center - half_window, center + half_window, 0.003)
    counts = peak_model(wl, [baseline, amplitude, center, fwhm], "lorentzian")
    return make_spectrum(wl, counts, grating_gpmm=grating)


def test_noiseless_lorentzian_recovery():
    spec = narrow_line_spectrum()
    peak = fit_peaks(spec, max_peaks=1)[0]
    assert peak.center_nm == pytest.approx(1450.8, abs=0.002)
    assert peak.fwhm_nm == pytest.approx(0.03, rel=0.03)
    assert peak.resolution_limited is True   # 0.03 nm at 1200 g/mm is the floor
    assert peak.amplitude == pytest.approx(1000.0, rel=0.02)


def test_resolution_flag_depends_on_grating():
    assert grating_resolution_nm(1200.0) == pytest.approx(0.03)
    spec = narrow_line_spectrum(fwhm=0.5, grating=1200.0, half_window=6.0)
    peak = fit_peaks(spec, max_peaks=1)[0]
    assert peak.resolution_limited is False
    no_meta = narrow_line_spectrum(grating=1200.0)
    no_meta = Spectrum(no_meta.wavelength_nm, no_meta.counts)  # strip metadata
    assert fit_peaks(no_meta, max_peaks=1)[0].resolution_limited is None


def test_sub_resolution_width_reports_the_floor():
    """A line narrower than the grating floor is flagged and reported at the floor."""
    spec = narrow_line_spectrum(fwhm=0.01, grating=1200.0)
    peak = fit_peaks(spec, max_peaks=1)[0]
    assert peak.resolution_limited is True
    assert peak.fwhm_nm == pytest.approx(grating_resolution_nm(1200.0), rel=1e-9)


def test_flat_spectrum_has_no_peak():
    wl = np.linspace(1400.0, 1460.0, 200)
    with pytest.raises(ValidationError, match="no peak"):
        fit_peaks(make_spectrum(wl, np.full_like(wl, 100.0)))


def test_five_peak_spectrum():
    centers = [1415.4, 1441.7, 1444.3, 1450.8, 1453.6]
    amps = [400.0, 900.0, 650.0, 1200.0, 800.0]
    wl = np.arange(1410.0, 1460.0, 0.02)
    params = [20.0]
    for a, c in zip(amps, centers):
        params += [a, c, 0.35]
    counts = peak_model(wl, params, "lorentzian")
    spec = make_spectrum(wl, counts)
    peaks = fit_peaks(spec, max_peaks=5)
    assert len(peaks) == 5
    found = sorted(p.center_nm for p in peaks)
    np.testing.assert_allclose(found, centers, atol=0.05)
    # sorted by amplitude, strongest first
    assert peaks[0].amplitude >= peaks[-1].amplitude


def _demo_pl_spectrum(seed):
    """The 5-line PL spectrum of the seeded demo benchmark input, and its true centres.

    The generator draws a potential offset and two sets of 63 site-potential
    noises before the spectrum; they are drawn here too so that the noise
    matches that input seed for seed.
    """
    rng = np.random.default_rng([seed, 1])
    rng.uniform()
    rng.normal(size=63)
    rng.normal(size=63)
    wl = np.arange(1410.0, 1460.0, 0.01)
    centers = [c + rng.uniform(-0.3, 0.3) for c in (1415.4, 1441.7, 1444.3, 1450.8, 1453.6)]
    params = [15.0]
    for amp, center in zip((420.0, 900.0, 600.0, 1200.0, 800.0), centers):
        params += [amp, center, 0.30]
    counts = peak_model(wl, params, "lorentzian") + rng.normal(0.0, 2.0, len(wl)).clip(-10, None)
    return make_spectrum(wl, np.clip(counts, 0.0, None), grating_gpmm=150.0), centers


@pytest.mark.parametrize("seed", [315, 316, 317, 318, 327, 334, 335, 3001])
def test_noise_maximum_on_a_tall_line_does_not_displace_a_weak_line(seed):
    """Seeds on which ranking local maxima by height seeded a tall line twice and missed a line."""
    spec, centers = _demo_pl_spectrum(seed)
    peaks = fit_peaks(spec, max_peaks=5)
    assert peaks[0].residual_rms < 5.0  # the noise is 2 counts
    np.testing.assert_allclose(sorted(p.center_nm for p in peaks), sorted(centers), atol=0.02)


# float draws, and small-integer alphabets for plateaus and ties, some with their
# highest value at both ends
SMALL_INTEGERS = st.lists(st.integers(0, 3).map(float), min_size=1, max_size=64)
PEAK_FINDER_INPUTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
    SMALL_INTEGERS,
    SMALL_INTEGERS.map(lambda v: [4.0, *v[:62], 4.0]),
).map(np.array)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(x=PEAK_FINDER_INPUTS, height=st.sampled_from(["-inf", "median", "max"]))
def test_find_peaks_matches_scipy(x, height):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    h = {"-inf": -np.inf, "median": float(np.median(x)), "max": float(np.max(x))}[height]
    # a peak's height minus a base may overflow to inf when x is not >= 0, as counts are
    with np.errstate(over="ignore"):
        idx, prominences = _find_peaks(x, h)
    expected, props = find_peaks(x, height=h, prominence=0)
    np.testing.assert_array_equal(idx, expected)
    assert prominences.tobytes() == props["prominences"].tobytes()


def test_find_peaks_plateaus_and_ends():
    """A flat top counts once at its middle sample, the left one of two; an end sample never counts."""
    x = np.array([5.0, 1.0, 3.0, 3.0, 0.0, 2.0, 2.0, 2.0, 1.0, 4.0, 1.0, 6.0])
    idx, prominences = _find_peaks(x, -np.inf)
    assert idx.tolist() == [2, 6, 9]
    assert prominences.tolist() == [2.0, 1.0, 3.0]


def test_peaks_sorted_by_amplitude():
    wl = np.arange(1440.0, 1460.0, 0.02)
    counts = peak_model(wl, [10.0, 300.0, 1445.0, 0.4, 900.0, 1455.0, 0.4], "lorentzian")
    peaks = fit_peaks(make_spectrum(wl, counts), max_peaks=2)
    assert peaks[0].center_nm == pytest.approx(1455.0, abs=0.01)
    assert peaks[1].center_nm == pytest.approx(1445.0, abs=0.01)


def test_gaussian_model_recovery():
    wl = np.arange(1448.0, 1454.0, 0.01)
    counts = peak_model(wl, [8.0, 500.0, 1450.8, 0.25], "gaussian")
    peak = fit_peaks(make_spectrum(wl, counts), model="gaussian", max_peaks=1)[0]
    assert peak.center_nm == pytest.approx(1450.8, abs=0.002)
    assert peak.fwhm_nm == pytest.approx(0.25, rel=0.01)
    assert peak.model == "gaussian"


def test_unknown_line_shape_is_refused():
    with pytest.raises(ValidationError, match="^model must be 'lorentzian' or 'gaussian', got 'voigt'$"):
        fit_peaks(narrow_line_spectrum(), model="voigt")


def test_peak_fit_shift_equivariance():
    """Shifting the wavelength axis shifts the centers, widths unchanged."""
    spec = narrow_line_spectrum()
    delta = 5.0
    shifted = make_spectrum(spec.wavelength_nm + delta, spec.counts,
                            grating_gpmm=spec.grating_gpmm)
    a = fit_peaks(spec, max_peaks=1)[0]
    b = fit_peaks(shifted, max_peaks=1)[0]
    assert b.center_nm - a.center_nm == pytest.approx(delta, abs=1e-6)
    assert b.fwhm_nm == pytest.approx(a.fwhm_nm, abs=1e-6)


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        make_spectrum(np.linspace(0, 1, 8), np.zeros(8))  # too few samples
    wl = np.linspace(1400, 1410, 32)
    with pytest.raises(ValidationError):
        make_spectrum(wl[::-1], np.zeros(32))
    with pytest.raises(ValidationError):
        make_spectrum(wl, np.full(32, -1.0))


@pytest.mark.parametrize("column, row, value", [
    ("counts", 3, np.inf), ("counts", 3, np.nan), ("wavelength_nm", 15, np.inf), ("wavelength_nm", 0, -np.inf),
])
def test_spectrum_refuses_a_non_finite_sample(column, row, value):
    """A CSV row cannot hold nan or inf, so the constructor names the row that does."""
    arrays = {"wavelength_nm": np.linspace(1440.0, 1460.0, 16), "counts": np.arange(16.0)}
    arrays[column][row] = value
    with pytest.raises(ValidationError, match="must be finite") as err:
        Spectrum(**arrays)
    assert err.value.row == row


@pytest.mark.parametrize("grating", [0.0, -0.0, -5.0])
def test_spectrum_refuses_a_non_positive_grating(grating):
    with pytest.raises(ValidationError, match="grating"):
        make_spectrum(np.linspace(1440.0, 1460.0, 16), np.arange(16.0), grating_gpmm=grating)


@pytest.mark.parametrize("grating", [5e-324, 1e-320, 1e-308])
def test_spectrum_refuses_a_grating_with_no_finite_resolution_floor(grating):
    """36 / grating overflows to inf below about 2e-307 grooves/mm."""
    with pytest.raises(ValidationError, match="^grating groove density .* gives no finite resolution floor$"):
        make_spectrum(np.linspace(1440.0, 1460.0, 16), np.arange(16.0), grating_gpmm=grating)


@pytest.mark.parametrize("column, row, value", [
    ("counts", 1, np.nan), ("counts", 2, np.inf), ("time_ns", 3, np.inf), ("time_ns", 0, np.nan),
])
def test_decay_trace_refuses_a_non_finite_sample(column, row, value):
    arrays = {"time_ns": np.arange(4.0), "counts": np.array([5.0, 4.0, 3.0, 2.0])}
    arrays[column][row] = value
    with pytest.raises(ValidationError, match="must be finite") as err:
        DecayTrace(**arrays)
    assert err.value.row == row


def test_decay_trace_refuses_an_empty_trace():
    with pytest.raises(ValidationError, match="^decay trace needs >= 1 sample$"):
        DecayTrace(np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("make, message, row", [
    (lambda: Spectrum(np.arange(5.0), [0.0, 1.0, np.inf, 3.0, 4.0]), "wavelength and counts must be finite", 2),
    (lambda: Spectrum(np.arange(5.0)[::-1], np.ones(5)), "spectrum needs >= 16 samples, got 5", -1),
    (lambda: Spectrum(np.zeros((16, 2)), np.zeros((16, 2))),
     "wavelength and counts must be 1-D arrays of equal length", -1),
    (lambda: DecayTrace([[0.0, np.nan]], [[1.0, 2.0]]), "time and counts must be 1-D arrays of equal length", -1),
    (lambda: DecayTrace(np.zeros((0, 2)), np.zeros((0, 2))), "time and counts must be 1-D arrays of equal length", -1),
], ids=["short spectrum with inf", "short falling spectrum", "2-D spectrum", "2-D decay with nan", "empty 2-D decay"])
def test_sample_checks_run_in_order(make, message, row):
    """Shape, then finite samples, then the sample count, then a rising axis: the first broken
    rule is the one reported, at its row."""
    with pytest.raises(ValidationError) as err:
        make()
    assert (str(err.value), err.value.row) == (message, row)


# --- lifetimes ---------------------------------------------------------------------


def decay_trace(tau, amplitude=1000.0, background=10.0, rng=None, t_end=None):
    t = np.linspace(0.0, t_end or 10.0 * tau, 400)
    ideal = decay_model(t, [amplitude, tau, background])
    counts = rng.poisson(ideal).astype(float) if rng is not None else ideal
    return DecayTrace(time_ns=t, counts=counts)


def test_lifetime_3ns_poisson(rng):
    fit = fit_lifetime(decay_trace(3.0, rng=rng))
    assert fit.tau_ns == pytest.approx(3.0, rel=0.05)
    assert fit.background == pytest.approx(10.0, rel=0.5)


def test_lifetime_8ns_poisson(rng):
    fit = fit_lifetime(decay_trace(8.0, rng=rng))
    assert fit.tau_ns == pytest.approx(8.0, rel=0.05)


def test_lifetime_amplitude_scale_invariance(rng):
    a = fit_lifetime(decay_trace(3.0, amplitude=1000.0, rng=rng)).tau_ns
    b = fit_lifetime(decay_trace(3.0, amplitude=2000.0, rng=rng)).tau_ns
    assert a == pytest.approx(b, rel=0.05)


def test_lifetime_time_origin_invariance():
    """Shifting t by t0 multiplies the t=0 amplitude by e^{t0/tau}, tau unchanged."""
    base = decay_trace(4.0)
    t0 = 7.5
    shifted = DecayTrace(time_ns=base.time_ns + t0, counts=base.counts)
    fa, fb = fit_lifetime(base), fit_lifetime(shifted)
    assert fb.tau_ns == pytest.approx(fa.tau_ns, rel=1e-6)
    assert fb.amplitude == pytest.approx(fa.amplitude * np.exp(t0 / fa.tau_ns), rel=1e-5)
    assert fb.background == pytest.approx(fa.background, abs=1e-6)


def test_lifetime_rejects_rising_signal():
    t = np.linspace(0.0, 30.0, 60)
    with pytest.raises(ValidationError):
        fit_lifetime(DecayTrace(time_ns=t, counts=np.linspace(5.0, 100.0, 60)))


def test_lifetime_needs_samples_after_peak():
    t = np.linspace(0.0, 30.0, 12)
    counts = np.concatenate([np.linspace(0, 100, 8), [90.0, 70.0, 50.0, 30.0]])
    with pytest.raises(ValidationError, match="after the peak"):
        fit_lifetime(DecayTrace(time_ns=t, counts=counts))


@pytest.mark.parametrize("k", [-20, -30])
def test_lifetime_in_sub_picosecond_units(k):
    """tau scales with the time axis; the starting values have no absolute floor."""
    t = np.linspace(0.0, 30.0, 600)
    counts = np.random.default_rng(7).poisson(decay_model(t, [1200.0, 3.0, 12.0])).astype(float)
    tau = fit_lifetime(DecayTrace(time_ns=t, counts=counts)).tau_ns
    scaled = fit_lifetime(DecayTrace(time_ns=t * 2.0**k, counts=counts)).tau_ns
    assert scaled == pytest.approx(tau * 2.0**k, rel=1e-9)


def test_lifetime_reports_stderr(rng):
    fit = fit_lifetime(decay_trace(3.0, rng=rng))
    assert 0 < fit.tau_stderr_ns < 0.5


# --- saturation ----------------------------------------------------------------------


def test_saturation_exact_points():
    p = np.linspace(0.05, 3.0, 12)
    data = saturation_model(p, [5000.0, 0.7])
    fit = fit_saturation(p, data)
    assert fit.identifiable
    assert fit.p_sat_mw == pytest.approx(0.7, rel=1e-6)
    assert fit.i_sat == pytest.approx(5000.0, rel=1e-6)


def test_saturation_noisy_knee(rng):
    p = np.geomspace(0.05, 3.0, 20)
    data = saturation_model(p, [5000.0, 0.7]) * rng.normal(1.0, 0.02, len(p))
    fit = fit_saturation(p, data)
    assert fit.identifiable
    assert fit.p_sat_mw == pytest.approx(0.7, rel=0.10)


def test_saturation_linear_regime_unidentifiable():
    p = np.linspace(0.01, 0.06, 6)  # far below the knee
    data = saturation_model(p, [5000.0, 0.7])
    fit = fit_saturation(p, data)
    assert not fit.identifiable


def test_saturation_flat_curve_unidentifiable():
    p = np.linspace(0.05, 3.0, 16)  # fully saturated: the knee lies below the lowest power
    fit = fit_saturation(p, np.full(16, 500.0))
    assert not fit.identifiable


def test_saturation_scale_equivariance():
    p = np.linspace(0.05, 3.0, 12)
    data = saturation_model(p, [5000.0, 0.7])
    a, b = fit_saturation(p, data), fit_saturation(p, 3.0 * data)
    assert b.i_sat == pytest.approx(3.0 * a.i_sat, rel=1e-9)
    assert b.p_sat_mw == pytest.approx(a.p_sat_mw, rel=1e-9)


def test_saturation_input_validation():
    with pytest.raises(ValidationError):
        fit_saturation([0.1, 0.2, 0.3], [1, 2, 3])
    with pytest.raises(ValidationError):
        fit_saturation([0.0, 0.2, 0.3, 0.4], [1, 2, 3, 4])
    with pytest.raises(ValidationError, match="every intensity is 0"):
        fit_saturation([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="^powers and intensities must be 1-D arrays of equal length$"):
        fit_saturation(np.ones((4, 2)), np.ones((4, 2)))


# --- temperature series -----------------------------------------------------------------


def thermal_spectrum(temperature, amplitude):
    wl = np.arange(1450.0, 1456.0, 0.01)
    counts = peak_model(wl, [5.0, amplitude, 1453.0, 0.5], "lorentzian")
    return make_spectrum(wl, counts, temperature_k=temperature)


def test_temperature_series_quenching_fixture():
    temps = [6.0, 12.0, 20.0, 28.0, 37.5]
    amps = [1000.0, 800.0, 550.0, 300.0, 150.0]
    series = temperature_series([thermal_spectrum(t, a) for t, a in zip(temps, amps)])
    assert [row[0] for row in series.rows] == temps
    assert series.decreasing_fraction == 1.0
    fitted = [row[1] for row in series.rows]
    np.testing.assert_allclose(fitted, amps, rtol=0.02)


def test_temperature_series_single_spectrum():
    series = temperature_series([thermal_spectrum(6.0, 500.0)])
    assert len(series.rows) == 1


def test_temperature_series_order_independent():
    spectra = [thermal_spectrum(t, a) for t, a in [(20.0, 550.0), (6.0, 1000.0), (12.0, 800.0)]]
    a = temperature_series(spectra)
    b = temperature_series(list(reversed(spectra)))
    assert a == b


def noise_only_spectrum(**meta):
    """Flat noise whose strongest maximum passes the seeding threshold: its one-line fit does not converge."""
    wl = np.linspace(1440.0, 1460.0, 2001)
    counts = np.clip(50.0 + np.random.default_rng(11).normal(0.0, 2.0, 2001), 0.0, None)
    return make_spectrum(wl, counts, **meta)


def test_temperature_series_refuses_a_fit_that_does_not_converge():
    with pytest.raises(FitNonConvergence, match="^peak fit did not converge"):
        temperature_series([thermal_spectrum(6.0, 500.0), noise_only_spectrum(temperature_k=12.0)])


def test_temperature_series_of_no_spectra_is_refused():
    with pytest.raises(ValidationError, match="^temperature_series needs at least one spectrum$"):
        temperature_series([])


def test_temperature_series_requires_metadata():
    wl = np.arange(1450.0, 1456.0, 0.01)
    counts = peak_model(wl, [5.0, 100.0, 1453.0, 0.5], "lorentzian")
    with pytest.raises(ValidationError):
        temperature_series([make_spectrum(wl, counts)])


# --- raster maps ----------------------------------------------------------------------------


def test_raster_3x3_complete():
    points = [(x, y, 10.0 * iy + ix)
              for iy, y in enumerate((0.0, 2.0, 4.0))
              for ix, x in enumerate((0.0, 2.0, 4.0))]
    rmap = raster_map(points)
    assert rmap.values.shape == (3, 3)
    assert rmap.values[1, 2] == 12.0
    assert rmap.missing == ()


def test_raster_missing_point_reported():
    points = [(x, y, 1.0) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0) if (x, y) != (1.0, 1.0)]
    rmap = raster_map(points)
    assert rmap.missing == ((1.0, 1.0),)
    assert np.isnan(rmap.values[1, 1])


def test_raster_rejects_off_grid_points():
    points = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.31, 0.0, 1.0),
              (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.31, 1.0, 1.0)]
    with pytest.raises(ValidationError) as err:
        raster_map(points)
    assert str(err.value) == ("scan points do not sit on a uniform rectilinear grid "
                              "(worst deviation 0.155 exceeds 0.01155 = 1% of pitch)")


def test_raster_fluence_row_ordering(rng):
    """Rows written with increasing fluence must come out in the same order."""
    ny = nx = 20
    row_means = []
    points = []
    for iy in range(ny):
        level = 50.0 * (iy + 1)
        row_means.append(level)
        for ix in range(nx):
            points.append((float(ix), float(iy), level + rng.normal(0, 2.0)))
    rmap = raster_map(points)
    means = rmap.values.mean(axis=1)
    assert list(np.argsort(means)) == list(range(ny))
