"""Gauss-Newton core: gradient correctness, convergence, determinism."""

import numpy as np
import pytest

from defect_forge import FitNonConvergence, ValidationError, fitting
from defect_forge.fitting import (
    decay_jacobian,
    decay_model,
    gauss_newton,
    peak_jacobian,
    peak_model,
    saturation_jacobian,
    saturation_model,
)


def finite_difference_jacobian(fn, x, params, h=1e-7):
    params = np.asarray(params, dtype=float)
    cols = []
    for k in range(len(params)):
        up, dn = params.copy(), params.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fn(x, up) - fn(x, dn)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
def test_peak_jacobian_matches_finite_differences(shape):
    x = np.linspace(1440.0, 1460.0, 80)
    params = np.array([12.0, 900.0, 1450.8, 0.4, 300.0, 1455.0, 1.1])
    ana = peak_jacobian(x, params, shape)
    num = finite_difference_jacobian(lambda x, p: peak_model(x, p, shape), x, params)
    np.testing.assert_allclose(ana, num, rtol=2e-5, atol=1e-4)


@pytest.mark.parametrize("fn", [peak_model, peak_jacobian])
@pytest.mark.parametrize("params", [[1.0], [1.0, 10.0, 0.0, 1.0]], ids=["no-peak", "one-peak"])
def test_unknown_line_shape_is_refused_with_or_without_peaks(fn, params):
    """The shape is checked before the per-peak loop, so a baseline-only model refuses it too."""
    with pytest.raises(ValidationError, match="unknown line shape 'foo'"):
        fn(np.linspace(-1.0, 1.0, 5), params, "foo")


def test_gauss_newton_refuses_a_start_whose_cost_overflows():
    """Finite residuals whose sum of squares overflows: no step can descend from inf."""
    t = np.linspace(0.0, 30.0, 50)
    data = np.full(50, 1e300)
    with pytest.raises(FitNonConvergence, match=r"^decay fit did not converge in 0 iterations \(residual rms inf\)$"):
        gauss_newton(lambda p: decay_model(t, p) - data, lambda p: decay_jacobian(t, p),
                     np.array([1.0, 3.0, 0.0]), "decay")


def test_decay_jacobian_matches_finite_differences():
    t = np.linspace(0.0, 30.0, 60)
    params = np.array([1000.0, 3.0, 10.0])
    ana = decay_jacobian(t, params)
    num = finite_difference_jacobian(decay_model, t, params)
    np.testing.assert_allclose(ana, num, rtol=1e-5, atol=1e-6)


def test_saturation_jacobian_matches_finite_differences():
    p = np.linspace(0.05, 3.0, 40)
    params = np.array([5000.0, 0.7])
    ana = saturation_jacobian(p, params)
    num = finite_difference_jacobian(saturation_model, p, params)
    np.testing.assert_allclose(ana, num, rtol=1e-5, atol=1e-4)


def test_gauss_newton_exact_recovery():
    t = np.linspace(0.0, 40.0, 200)
    truth = np.array([800.0, 5.0, 20.0])
    data = decay_model(t, truth)
    result = gauss_newton(
        lambda p: decay_model(t, p) - data,
        lambda p: decay_jacobian(t, p),
        np.array([500.0, 2.0, 0.0]),
        "decay",
    )
    np.testing.assert_allclose(result.params, truth, rtol=1e-7)
    assert result.residual_rms < 1e-8


def test_gauss_newton_damping_survives_bad_start():
    """A start that overshoots into overflow territory must still converge."""
    t = np.linspace(0.0, 40.0, 200)
    truth = np.array([800.0, 5.0, 20.0])
    data = decay_model(t, truth)
    result = gauss_newton(
        lambda p: decay_model(t, p) - data,
        lambda p: decay_jacobian(t, p),
        np.array([10.0, 35.0, 500.0]),
        "decay",
    )
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_gauss_newton_deterministic():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 40.0, 120)
    data = decay_model(t, [600.0, 4.0, 15.0]) + rng.normal(0, 3.0, len(t))
    run = lambda: gauss_newton(
        lambda p: decay_model(t, p) - data,
        lambda p: decay_jacobian(t, p),
        np.array([500.0, 2.0, 0.0]),
        "decay",
    )
    a, b = run(), run()
    assert np.array_equal(a.params, b.params)
    assert a.n_iter == b.n_iter


def test_gauss_newton_reports_nonconvergence(monkeypatch):
    t = np.linspace(0.0, 40.0, 60)
    data = decay_model(t, [800.0, 5.0, 20.0])
    monkeypatch.setattr(fitting, "MAX_ITER", 2)
    with pytest.raises(FitNonConvergence, match=r"^decay fit did not converge in 2 iterations \(residual rms "):
        gauss_newton(
            lambda p: decay_model(t, p) - data,
            lambda p: decay_jacobian(t, p),
            np.array([500.0, 2.0, 0.0]),
            "decay",
        )


def test_gauss_newton_without_a_descent_direction_does_not_converge():
    """A Jacobian of the wrong sign points every step uphill: all MAX_HALVINGS halvings raise the
    cost, so the first iteration ends the fit."""
    calls = []

    def residual(x):
        calls.append(x.copy())
        return x

    with pytest.raises(FitNonConvergence, match=r"^toy fit did not converge in 1 iterations \(residual rms 1\)$"):
        gauss_newton(residual, lambda x: -np.eye(1), np.array([1.0]), "toy")
    assert len(calls) == 1 + fitting.MAX_HALVINGS
    assert all(c[0] > 1.0 for c in calls[1:])


def test_gauss_newton_stderr_scale():
    """Asymptotic errors shrink like 1/sqrt(n) on replicated data."""
    rng = np.random.default_rng(11)
    outs = []
    for n in (100, 400):
        t = np.linspace(0.0, 40.0, n)
        data = decay_model(t, [800.0, 5.0, 20.0]) + rng.normal(0, 5.0, n)
        res = gauss_newton(
            lambda p: decay_model(t, p) - data,
            lambda p: decay_jacobian(t, p),
            np.array([700.0, 4.0, 10.0]),
            "decay",
        )
        outs.append(res.param_stderr[1])
    assert outs[1] < outs[0]
