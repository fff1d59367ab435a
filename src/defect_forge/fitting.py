"""Damped Gauss-Newton least squares with analytic Jacobians.

One small deterministic solver backs every fitter in the package: solve
J dx = -r by least squares, halve the step while the cost does not
decrease, stop when the relative parameter step drops below STEP_TOL.  A
fit that gets there in no more than MAX_ITER steps is returned; any other
raises FitNonConvergence here, so no fitter sees parameters that did not converge.
Models supply value and Jacobian in closed form so gradient correctness is
testable by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitNonConvergence, ValidationError

__all__ = [
    "FitResult",
    "gauss_newton",
    "peak_model",
    "peak_jacobian",
    "decay_model",
    "decay_jacobian",
    "saturation_model",
    "saturation_jacobian",
]

STEP_TOL = 1e-8    # converged when no parameter moves by more than this fraction
MAX_HALVINGS = 30  # step halvings before a step counts as no descent
MAX_ITER = 200     # Gauss-Newton steps before a fit counts as not converged
LINE_SHAPES = ("lorentzian", "gaussian")  # the shapes peak_model and peak_jacobian know


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    n_iter: int
    residual_rms: float
    param_stderr: np.ndarray


def _cost(r):
    """Sum of squares of r; inf when r holds a non-finite value or the sum overflows."""
    return float(np.dot(r, r)) if np.isfinite(r).all() else np.inf


# near the largest or smallest float a model, a cost or J^T J may overflow or divide by
# zero; the solve judges each result by np.isfinite, so numpy's warnings are off throughout
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def gauss_newton(residual, jacobian, x0, what: str) -> FitResult:
    """Minimize sum(residual(x)^2) from x0, or raise FitNonConvergence naming the `what` fit."""
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    if not np.isfinite(r).all():
        raise ValidationError("residuals are non-finite at the starting point")
    cost = _cost(r)
    if cost == np.inf:
        raise FitNonConvergence(f"{what} fit did not converge in 0 iterations (residual rms inf)")
    converged = False
    for it in range(1, MAX_ITER + 1):
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.isfinite(jac).all():
            break  # no usable descent direction
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x + alpha * step
            r_new = np.asarray(residual(cand), dtype=float)
            c_new = _cost(r_new)
            if c_new <= cost:
                break
            alpha *= 0.5
        else:
            break  # no descent direction left
        rel = np.abs(alpha * step) / np.maximum(np.abs(x), 1e-30)
        x = cand
        r = r_new
        cost = c_new
        if rel.max() < STEP_TOL:
            converged = True
            break

    m, n = len(r), len(x)
    rms = float(np.sqrt(cost / m))
    if not converged:
        raise FitNonConvergence(f"{what} fit did not converge in {it} iterations (residual rms {rms:g})")
    stderr = np.full(n, np.nan)
    if m > n:
        jac = np.asarray(jacobian(x), dtype=float)
        jtj = jac.T @ jac
        if not np.isfinite(jtj).all():
            raise ValidationError(f"{what} fit: J^T J overflows at the fitted parameters, "
                                  "so their standard errors are not determined")
        try:
            cov = np.linalg.pinv(jtj) * (cost / (m - n))
            stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        except np.linalg.LinAlgError:
            pass
    return FitResult(params=x, n_iter=it, residual_rms=rms, param_stderr=stderr)


# --- spectral line shapes -------------------------------------------------
# Parameter layout for a k-peak spectrum: [baseline, A_1, c_1, w_1, ..., A_k, c_k, w_k]
# with amplitude A (counts), center c (nm) and full width at half maximum w (nm).

def peak_model(x, params, shape: str = "lorentzian"):
    if shape not in LINE_SHAPES:
        raise ValidationError(f"unknown line shape '{shape}'")
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, float(params[0]))
    for a, c, wdt in np.asarray(params[1:], dtype=float).reshape(-1, 3):
        if shape == "lorentzian":
            hw = 0.5 * wdt
            out = out + a * hw * hw / ((x - c) ** 2 + hw * hw)
        else:
            sig = wdt / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            out = out + a * np.exp(-0.5 * ((x - c) / sig) ** 2)
    return out


def peak_jacobian(x, params, shape: str = "lorentzian"):
    if shape not in LINE_SHAPES:
        raise ValidationError(f"unknown line shape '{shape}'")
    x = np.asarray(x, dtype=float)
    n = len(params)
    jac = np.zeros((len(x), n))
    jac[:, 0] = 1.0
    trip = np.asarray(params[1:], dtype=float).reshape(-1, 3)
    for k, (a, c, wdt) in enumerate(trip):
        base = 1 + 3 * k
        if shape == "lorentzian":
            hw = 0.5 * wdt
            denom = (x - c) ** 2 + hw * hw
            jac[:, base] = hw * hw / denom
            jac[:, base + 1] = 2.0 * a * hw * hw * (x - c) / denom**2
            # d/dw = d/d(hw) * 1/2;  d/d(hw) = 2 a hw (x-c)^2 / denom^2
            jac[:, base + 2] = a * hw * (x - c) ** 2 / denom**2
        else:
            sig = wdt / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            g = np.exp(-0.5 * ((x - c) / sig) ** 2)
            jac[:, base] = g
            jac[:, base + 1] = a * g * (x - c) / sig**2
            dsig = a * g * (x - c) ** 2 / sig**3
            jac[:, base + 2] = dsig / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return jac


# --- first-order decay: params [A, tau, B], model A*exp(-t/tau) + B --------

def decay_model(t, params):
    a, tau, b = params
    return a * np.exp(-np.asarray(t, dtype=float) / tau) + b


def decay_jacobian(t, params):
    t = np.asarray(t, dtype=float)
    a, tau, _ = params
    e = np.exp(-t / tau)
    jac = np.empty((len(t), 3))
    jac[:, 0] = e
    jac[:, 1] = a * e * t / tau**2
    jac[:, 2] = 1.0
    return jac


# --- saturation: params [i_sat, p_sat], model I = i_sat * P / (P + p_sat) --

def saturation_model(p, params):
    i_sat, p_sat = params
    p = np.asarray(p, dtype=float)
    return i_sat * p / (p + p_sat)


def saturation_jacobian(p, params):
    i_sat, p_sat = params
    p = np.asarray(p, dtype=float)
    denom = p + p_sat
    jac = np.empty((len(p), 2))
    jac[:, 0] = p / denom
    jac[:, 1] = -i_sat * p / denom**2
    return jac
