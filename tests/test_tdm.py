"""Transition dipole moments on periodic grids against analytic oracles."""

import numpy as np
import pytest

from defect_forge import CrystalCell, GridFunction, ValidationError, transition_dipole
from defect_forge.units import BOHR_ANG

from oracles import hydrogenic_1s_2pz_squared_tdm


def cube_cell(side):
    return CrystalCell(np.eye(3) * side)


def grid_points(cell, n):
    idx = [np.arange(m) / m for m in (n, n, n)]
    frac = np.stack(np.meshgrid(*idx, indexing="ij"), axis=-1)
    return frac @ cell.lattice


def hydrogenic_pair(n=64, half_box_bohr=15.0):
    """1s and 2p_z states centered in a cube large enough to kill the tails."""
    side = 2.0 * half_box_bohr * BOHR_ANG
    cell = cube_cell(side)
    xyz = grid_points(cell, n) - 0.5 * side
    r = np.linalg.norm(xyz, axis=-1)
    a = BOHR_ANG
    psi_1s = np.exp(-r / a)
    with np.errstate(invalid="ignore"):
        cos_theta = np.where(r > 0, xyz[..., 2] / np.where(r > 0, r, 1.0), 0.0)
    psi_2pz = r * np.exp(-r / (2.0 * a)) * cos_theta
    return (GridFunction((n, n, n), psi_1s, cell), GridFunction((n, n, n), psi_2pz, cell))


def gaussian_state(cell, n, center_frac, width, polarization=None):
    xyz = grid_points(cell, n)
    center = np.asarray(center_frac) @ cell.lattice
    d = xyz - center
    r2 = np.einsum("...i,...i->...", d, d)
    psi = np.exp(-r2 / (2.0 * width**2))
    if polarization is not None:
        psi = psi * (d @ np.asarray(polarization, float))
    return GridFunction((n, n, n), psi, cell)


def test_identical_state_gives_zero():
    psi, _ = hydrogenic_pair(n=32)
    with pytest.warns(UserWarning, match="orthogonal"):
        result = transition_dipole(psi, psi)
    assert result.squared_total < 1e-24
    assert abs(abs(result.overlap) - 1.0) < 1e-12


def test_hydrogenic_1s_2pz_matches_radial_quadrature():
    """Grid quadrature against the independent 1-D radial oracle (and the
    closed form 128*sqrt(2)/243 * a0 behind it)."""
    oracle = hydrogenic_1s_2pz_squared_tdm()
    assert oracle == pytest.approx(3.585, abs=2e-3)  # closed-form cross-check
    psi_i, psi_f = hydrogenic_pair(n=64)
    result = transition_dipole(psi_i, psi_f)
    assert result.squared_total == pytest.approx(oracle, rel=0.02)
    # dipole is pure z by symmetry
    assert result.squared_components[0] < 1e-6 * result.squared_total
    assert result.squared_components[1] < 1e-6 * result.squared_total


def test_exchange_symmetry():
    psi_i, psi_f = hydrogenic_pair(n=32)
    a = transition_dipole(psi_i, psi_f).squared_total
    b = transition_dipole(psi_f, psi_i).squared_total
    assert a == pytest.approx(b, rel=1e-12)


def test_global_phase_invariance():
    psi_i, psi_f = hydrogenic_pair(n=32)
    base = transition_dipole(psi_i, psi_f).squared_total
    for theta in (0.7, 2.2):
        rotated = GridFunction(psi_i.dims, psi_i.values * np.exp(1j * theta), psi_i.cell)
        assert transition_dipole(rotated, psi_f).squared_total == pytest.approx(base, rel=1e-12)
        rotated_f = GridFunction(psi_f.dims, psi_f.values * np.exp(1j * theta), psi_f.cell)
        assert transition_dipole(psi_i, rotated_f).squared_total == pytest.approx(base, rel=1e-12)


def test_mirror_plane_component_vanishes():
    """Two states on different atoms sharing the z = const mirror plane: the
    dipole component normal to the plane vanishes to quadrature accuracy."""
    cell = cube_cell(12.0)
    n = 48
    psi_a = gaussian_state(cell, n, (0.35, 0.5, 0.5), width=0.9)
    psi_b = gaussian_state(cell, n, (0.65, 0.5, 0.5), width=1.1)
    with pytest.warns(UserWarning, match="orthogonal"):
        result = transition_dipole(psi_a, psi_b)
    assert result.squared_components[2] < 1e-3 * result.squared_total
    assert result.squared_components[1] < 1e-3 * result.squared_total
    assert result.squared_total > 0


def smooth_pair(n):
    """Orthogonal-by-parity s/p_z Gaussian pair (no cusps)."""
    cell = cube_cell(12.0)
    s = gaussian_state(cell, n, (0.5, 0.5, 0.5), width=1.2)
    pz = gaussian_state(cell, n, (0.5, 0.5, 0.5), width=1.4, polarization=(0, 0, 1))
    return s, pz


def test_grid_refinement_stability():
    """Doubling the resolution moves the smooth-state result by < 0.5%."""
    coarse = transition_dipole(*smooth_pair(24)).squared_total
    fine = transition_dipole(*smooth_pair(48)).squared_total
    assert abs(fine - coarse) / fine < 5e-3


def test_nonorthogonal_states_warn_and_report_overlap():
    cell = cube_cell(10.0)
    n = 24
    a = gaussian_state(cell, n, (0.5, 0.5, 0.5), width=1.0)
    b = gaussian_state(cell, n, (0.55, 0.5, 0.5), width=1.0)
    with pytest.warns(UserWarning, match="orthogonal"):
        result = transition_dipole(a, b)
    assert abs(result.overlap) > 0.5


def test_grid_mismatch_rejected():
    cell = cube_cell(10.0)
    a = gaussian_state(cell, 16, (0.5, 0.5, 0.5), 1.0, polarization=(0, 0, 1))
    b = gaussian_state(cell, 24, (0.5, 0.5, 0.5), 1.0)
    with pytest.raises(ValidationError):
        transition_dipole(a, b)
    other = gaussian_state(cube_cell(11.0), 16, (0.5, 0.5, 0.5), 1.0)
    with pytest.raises(ValidationError):
        transition_dipole(a, other)


def test_degenerate_grid_rejected():
    cell = cube_cell(10.0)
    with pytest.raises(ValidationError):
        GridFunction((4, 4, 4), np.zeros(64), cell)
    with pytest.raises(ValidationError):
        GridFunction((4, 4, 4), np.ones(63), cell)
    with pytest.raises(ValidationError):
        GridFunction((4, 4, 4), np.full(64, np.nan), cell)


@pytest.mark.parametrize("peak, side", [(1e308, 1.0), (4e153, 10.0)])
def test_grid_whose_l2_norm_overflows_is_rejected(peak, side):
    """|value|^2 summed, times the cell volume per point, must be finite: here it overflows
    in the square, and in the weight of 125 A^3 per point."""
    values = np.full(8, 1e-3)
    values[0] = peak
    with np.errstate(over="raise"), pytest.raises(ValidationError, match="L2 norm overflows"):
        GridFunction((2, 2, 2), values, cube_cell(side))
