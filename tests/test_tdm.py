"""Transition dipole moments on periodic grids against analytic oracles."""

import tracemalloc

import numpy as np
import pytest

from defect_forge import CrystalCell, GridFunction, ValidationError, transition_dipole
from defect_forge.optics import OVERLAP_TOLERANCE
from defect_forge.units import BOHR_ANG, DEBYE_PER_E_ANG

from oracles import hydrogenic_1s_2pz_squared_tdm, transition_dipole_reference


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


def random_pair(lattice, dims, seed):
    rng = np.random.default_rng(seed)
    cell = CrystalCell(np.array(lattice, dtype=float))
    return tuple(GridFunction(dims, rng.normal(size=dims) + 1j * rng.normal(size=dims), cell)
                 for _ in range(2))


SKEWED = [[6.0, 0.0, 0.0], [1.2, 5.5, 0.0], [0.4, 0.8, 7.1]]
OBLIQUE = [[4.1, 0.3, -0.2], [-1.7, 5.2, 0.9], [0.6, -2.3, 6.4]]


@pytest.mark.filterwarnings("ignore:states are not orthogonal:UserWarning")
@pytest.mark.parametrize("make_pair", [
    lambda: smooth_pair(24),
    lambda: random_pair(np.eye(3) * 7.5, (12, 12, 12), 1),
    lambda: random_pair(SKEWED, (5, 7, 3), 2),
    lambda: random_pair(OBLIQUE, (17, 9, 31), 3),
    lambda: random_pair(np.eye(3) * 3.0, (1, 1, 1), 4),
], ids=["cubic-smooth", "cubic", "skewed-odd", "oblique-odd", "one-point"])
def test_transition_dipole_matches_out_of_place_reference_bit_for_bit(make_pair):
    psi_i, psi_f = make_pair()
    got = transition_dipole(psi_i, psi_f)
    want = transition_dipole_reference(psi_i, psi_f, DEBYE_PER_E_ANG, OVERLAP_TOLERANCE)
    fields = (got.components_debye, got.squared_components, got.squared_total, got.overlap,
              got.centroid_frac)
    for g, w in zip(fields, want, strict=True):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.filterwarnings("ignore:states are not orthogonal:UserWarning")
def test_transition_dipole_leaves_the_callers_records_as_they_were():
    """The dipole lets go of the records it is given, but never of its caller's."""
    pair = random_pair(SKEWED, (5, 7, 3), 2)
    before = [(psi.values.tobytes(), psi.sum_abs2) for psi in pair]
    first = transition_dipole(*pair)
    assert [(psi.values.tobytes(), psi.sum_abs2) for psi in pair] == before
    assert not any(psi.values.flags.writeable for psi in pair)
    second = transition_dipole(*pair)
    for name in ("components_debye", "squared_components", "squared_total", "overlap", "centroid_frac"):
        assert np.asarray(getattr(first, name)).tobytes() == np.asarray(getattr(second, name)).tobytes()


def test_transition_dipole_peak_memory_stays_under_four_grids():
    """Beyond its two inputs, the call holds three grids' worth of bytes at its peak: the two
    normalized states and their |value|^2, then the kernel, the pair density and the
    (n1, n2, n3, 3) coordinates, each built in place and unwrapped one x-plane at a time."""
    psi_i, psi_f = smooth_pair(32)
    tracemalloc.start()
    try:
        transition_dipole(psi_i, psi_f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * psi_i.values.nbytes


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


@pytest.mark.parametrize("dtype, bound", [(complex, 1.1), (float, 1.6)])
def test_grid_function_copies_its_values_once(dtype, bound):
    """A complex array is checked where it is and copied last; one of another type is converted,
    and that copy is the record's own.  Either way the call holds one copy of the values, and
    at most the |value|^2 temporary of half a grid beside the conversion."""
    values = np.random.default_rng(5).normal(size=(32, 32, 32)).astype(dtype)
    tracemalloc.start()
    try:
        grid = GridFunction(values.shape, values, cube_cell(10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not grid.values.flags.writeable and not np.shares_memory(grid.values, values)
    assert peak < bound * grid.values.nbytes


@pytest.mark.parametrize("peak, side", [(1e308, 1.0), (4e153, 10.0)])
def test_grid_whose_l2_norm_overflows_is_rejected(peak, side):
    """|value|^2 summed, times the cell volume per point, must be finite: here it overflows
    in the square, and in the weight of 125 A^3 per point."""
    values = np.full(8, 1e-3)
    values[0] = peak
    with np.errstate(over="raise"), pytest.raises(ValidationError, match="L2 norm overflows"):
        GridFunction((2, 2, 2), values, cube_cell(side))
