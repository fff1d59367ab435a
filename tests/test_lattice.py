"""Lattice algebra, wrapping, supercells, minimum images."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import CrystalCell, Site, ValidationError, reciprocal, supercell
from defect_forge.lattice import minimum_image, wrap_frac, ws_inscribed_radius

TWO_PI = 2.0 * np.pi


def test_site_positions_of_a_cell_without_sites_is_empty():
    assert CrystalCell(np.eye(3) * 4.0).site_positions().shape == (0, 3)


def test_reciprocal_cubic_identity():
    cell = CrystalCell(np.eye(3) * 4.0)
    np.testing.assert_allclose(reciprocal(cell), TWO_PI / 4.0 * np.eye(3), atol=1e-14)


def test_reciprocal_defining_property(skewed_cell):
    b = reciprocal(skewed_cell)
    np.testing.assert_allclose(skewed_cell.lattice @ b.T, TWO_PI * np.eye(3), atol=1e-12)


def test_reciprocal_matches_cofactor_oracle(rng):
    """Oracle: rows of 2*pi*(L^T)^-1 built from explicit cofactors."""
    lat = np.eye(3) * 5 + rng.uniform(-1, 1, (3, 3))
    if np.linalg.det(lat) < 0:
        lat[2] = -lat[2]
    cell = CrystalCell(lat)
    a1, a2, a3 = lat
    vol = np.dot(a1, np.cross(a2, a3))
    oracle = TWO_PI * np.array([np.cross(a2, a3), np.cross(a3, a1), np.cross(a1, a2)]) / vol
    np.testing.assert_allclose(reciprocal(cell), oracle, rtol=1e-12)


def test_reciprocal_of_reciprocal_recovers_lattice(skewed_cell):
    np.testing.assert_allclose(reciprocal(CrystalCell(reciprocal(skewed_cell))),
                               skewed_cell.lattice, atol=1e-10)


def test_singular_lattice_rejected():
    bad = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(ValidationError):
        CrystalCell(bad)


def test_left_handed_lattice_rejected():
    with pytest.raises(ValidationError):
        CrystalCell(-np.eye(3))


def test_lattice_whose_volume_overflows_is_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal must be the only message
        with pytest.raises(ValidationError, match=r"must be finite and > 0 \(got inf\)"):
            CrystalCell(np.eye(3) * 1e120)


def test_dielectric_validation():
    with pytest.raises(ValidationError):
        CrystalCell(np.eye(3), dielectric=[[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError):
        CrystalCell(np.eye(3), dielectric=-np.eye(3))
    cell = CrystalCell(np.eye(3), dielectric=11.7)
    np.testing.assert_allclose(cell.dielectric, 11.7 * np.eye(3))



def test_three_dielectric_numbers_are_the_diagonal_tensor():
    cell = CrystalCell(np.eye(3), dielectric=(10.9, 11.7, 12.6))
    np.testing.assert_array_equal(cell.dielectric, np.diag([10.9, 11.7, 12.6]))


def test_dielectric_of_another_shape_is_refused():
    with pytest.raises(ValidationError, match=r"^dielectric tensor must be 3x3, got shape \(2,\)$"):
        CrystalCell(np.eye(3), dielectric=[1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_site_refuses_a_non_finite_coordinate(bad):
    """A structure file holds finite coordinates only; inf would otherwise wrap to nan."""
    with pytest.raises(ValidationError, match="fractional coordinates must be finite"):
        Site("Si", (0.25, bad, 0.5))


def test_wrap_canonicalization():
    np.testing.assert_allclose(wrap_frac([1.0, -0.25, 2.5]), [0.0, 0.75, 0.5], atol=1e-15)
    assert wrap_frac([1.0])[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_wrap_range_and_idempotence(x):
    w = float(wrap_frac([x])[0])
    assert 0.0 <= w < 1.0
    assert float(wrap_frac([w])[0]) == w


def test_supercell_si_333_counts(si_motif):
    sc = supercell(si_motif, 3, 3, 3)
    assert len(sc.sites) == 54
    np.testing.assert_allclose(sc.volume, 27 * si_motif.volume, rtol=1e-12)


def test_supercell_identity(si_motif):
    sc = supercell(si_motif, 1, 1, 1)
    assert sc == si_motif


def test_supercell_211_enumeration(skewed_cell):
    """Direct enumeration: every original coordinate appears at x/2 and x/2 + 1/2."""
    sc = supercell(skewed_cell, 2, 1, 1)
    np.testing.assert_allclose(sc.volume, 2 * skewed_cell.volume, rtol=1e-12)
    fracs = sorted(tuple(s.frac) for s in sc.sites)
    x, y, z = skewed_cell.sites[0].frac
    expected = sorted([(x / 2, y, z), (x / 2 + 0.5, y, z)])
    np.testing.assert_allclose(fracs, expected, atol=1e-15)


def test_supercell_rejects_bad_counts(si_motif):
    with pytest.raises(ValidationError):
        supercell(si_motif, 0, 1, 1)
    with pytest.raises(ValidationError):
        supercell(si_motif, 2, -1, 1)


def test_minimum_image_cubic(cubic_cell):
    d = minimum_image(cubic_cell, [0.9, 0.0, 0.0])
    np.testing.assert_allclose(d, [-0.5, 0, 0])


def test_ws_inscribed_radius_cubic(cubic_cell):
    assert ws_inscribed_radius(cubic_cell) == pytest.approx(2.5)


def _brute_force_shortest(cell, frac, reach=8):
    """Lengths of the shortest images of frac over all shifts in [-reach, reach]^3."""
    d = frac - np.round(frac)
    axis = np.arange(-reach, reach + 1, dtype=float)
    shifts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    best = []
    for chunk in np.array_split(d, max(1, len(d) // 100)):
        cand = (chunk[:, None, :] + shifts[None, :, :]) @ cell.lattice
        best.append(np.einsum("nsi,nsi->ns", cand, cand).min(axis=1))
    return np.sqrt(np.concatenate(best))


@pytest.mark.parametrize("lattice", [
    [[10.0, 0.0, 0.0], [9.0, 1.5, 0.0], [0.0, 0.0, 10.0]],
    [[6.0, 0.0, 0.0], [1.2, 5.5, 0.0], [0.4, 0.8, 7.1]],
    [[3.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 40.0]],
    [[5.0, 0.0, 0.0], [-2.5, 4.33, 0.0], [7.5, -4.33, 9.0]],
])
def test_minimum_image_matches_brute_force(lattice):
    cell = CrystalCell(lattice)
    frac = np.random.default_rng(7).uniform(-1.5, 1.5, size=(2000, 3))
    disp = minimum_image(cell, frac)
    # each result is an image of its input ...
    shift = disp @ np.linalg.inv(cell.lattice) - frac
    np.testing.assert_allclose(shift, np.round(shift), atol=1e-9)
    # ... and no image in a wide block is shorter
    np.testing.assert_allclose(np.linalg.norm(disp, axis=1), _brute_force_shortest(cell, frac),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(minimum_image(cell, frac[5]), disp[5])


@pytest.mark.parametrize("lattice", [
    [[10.0, 0.0, 0.0], [9.0, 1.5, 0.0], [0.0, 0.0, 10.0]],
    [[10.0, 0.0, 0.0], [29.0, 1.5, 0.0], [0.0, 0.3, 10.0]],
    [[3.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 40.0]],
])
def test_ws_inscribed_radius_matches_brute_force(lattice):
    cell = CrystalCell(lattice)
    axis = np.arange(-25, 26, dtype=float)
    n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    n = n[np.any(n != 0, axis=1)]
    shortest = np.linalg.norm(n @ cell.lattice, axis=1).min()
    assert ws_inscribed_radius(cell) == pytest.approx(0.5 * shortest, rel=1e-12)
