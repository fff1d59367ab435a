"""Anisotropic Ewald summation against independent image-sum oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from defect_forge import (
    CorrectionResult,
    CrystalCell,
    EwaldContext,
    Site,
    ValidationError,
    ewald_potential,
    finite_size_correction,
    lattice_energy,
)
from defect_forge import ewald
from defect_forge.lattice import reciprocal
from defect_forge.units import COULOMB_EV_ANG

from oracles import block_madelung_alpha, block_potential


@pytest.fixture(scope="module")
def ctx5():
    return EwaldContext.for_cell(CrystalCell(np.eye(3) * 5.0))


def test_zero_charge_zero_potential(ctx5):
    assert ewald_potential(ctx5, 0.0, [1.0, 2.0, 0.5]) == 0.0


def test_potential_matches_block_image_sum(ctx5):
    """Direct real-space image sum (background-corrected 21^3 block, extrapolated
    in the block radius) agrees with the Ewald potential to 1e-4 V."""
    for r in ([1.3, 0.7, 2.1], [2.5, 0.0, 0.0], [0.6, 0.6, 0.6], [4.0, 3.2, 1.1]):
        v_ewald = ewald_potential(ctx5, 1.0, r)
        v_oracle = block_potential(5.0, 1.0, np.array(r), half=10)
        assert v_ewald == pytest.approx(v_oracle, abs=1e-4)


def test_potential_gauge_free_differences(ctx5):
    """Potential differences are summation-convention free; tighter check."""
    r1, r2 = np.array([1.3, 0.7, 2.1]), np.array([2.5, 0.0, 0.0])
    d_ewald = ewald_potential(ctx5, 1.0, r1) - ewald_potential(ctx5, 1.0, r2)
    d_oracle = block_potential(5.0, 1.0, r1, half=10) - block_potential(5.0, 1.0, r2, half=10)
    assert d_ewald == pytest.approx(d_oracle, abs=2e-5)


def test_singular_site_rejected(ctx5):
    with pytest.raises(ValidationError):
        ewald_potential(ctx5, 1.0, [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        ewald_potential(ctx5, 1.0, [5.0, 5.0, 5.0])  # a periodic image


def test_anisotropic_rescaling_identity():
    """diag(eps) potential equals the vacuum problem on the x_i/sqrt(eps_i)
    lattice with charge q/sqrt(eps1*eps2*eps3)."""
    eps = np.diag([11.7, 9.5, 13.1])
    cell = CrystalCell(np.eye(3) * 5.0, dielectric=eps)
    ctx = EwaldContext.for_cell(cell)
    scale = 1.0 / np.sqrt(np.diag(eps))
    ctx_iso = EwaldContext.for_cell(CrystalCell((np.eye(3) * 5.0) * scale[None, :]))
    q_iso = 1.0 / np.sqrt(np.linalg.det(eps))
    for r in ([1.1, -0.6, 0.9], [2.0, 2.0, 0.3]):
        v_ani = ewald_potential(ctx, 1.0, r)
        v_iso = ewald_potential(ctx_iso, q_iso, np.asarray(r) * scale)
        assert v_ani == pytest.approx(v_iso, rel=1e-6)


def test_anisotropic_rescaling_energy():
    eps = np.diag([11.7, 9.5, 13.1])
    ctx = EwaldContext.for_cell(CrystalCell(np.eye(3) * 5.0, dielectric=eps))
    scale = 1.0 / np.sqrt(np.diag(eps))
    ctx_iso = EwaldContext.for_cell(CrystalCell((np.eye(3) * 5.0) * scale[None, :]))
    e_ani = lattice_energy(ctx, 1.0)
    e_iso = lattice_energy(ctx_iso, 1.0) / np.sqrt(np.linalg.det(eps))
    assert e_ani == pytest.approx(e_iso, rel=1e-6)


def test_madelung_constant_vs_image_sum_oracle(ctx5):
    e = lattice_energy(ctx5, 1.0)
    alpha = -2.0 * e * 5.0 / COULOMB_EV_ANG
    alpha_oracle = block_madelung_alpha(5.0, half=10)
    assert alpha == pytest.approx(alpha_oracle, rel=1e-4)
    # literature cross-check only (simple-cubic shape constant)
    assert alpha == pytest.approx(2.8373, abs=2e-4)


def test_energy_scales_inversely_with_cell_size():
    e1 = lattice_energy(EwaldContext.for_cell(CrystalCell(np.eye(3) * 5.0)), 1.0)
    e2 = lattice_energy(EwaldContext.for_cell(CrystalCell(np.eye(3) * 10.0)), 1.0)
    assert e2 == pytest.approx(0.5 * e1, rel=1e-9)


def test_energy_quadratic_in_charge(ctx5):
    assert lattice_energy(ctx5, 2.0) == pytest.approx(4.0 * lattice_energy(ctx5, 1.0), rel=1e-14)


def test_eta_independence():
    cell = CrystalCell(np.eye(3) * 5.0, dielectric=11.7)
    eta0 = EwaldContext.for_cell(cell).eta
    energies = [
        lattice_energy(EwaldContext.for_cell(cell, eta=f * eta0), -1.0)
        for f in (0.5, 0.75, 1.0, 1.5, 2.0)
    ]
    assert max(energies) - min(energies) < 1e-7


def test_makov_payne_shape_constant():
    """E * (2 eps L) / q^2 is size-independent for cubic cells to 0.1%."""
    eps = 11.7
    consts = []
    for m in (1, 2, 3):
        ctx = EwaldContext.for_cell(CrystalCell(np.eye(3) * (5.0 * m), dielectric=eps))
        consts.append(lattice_energy(ctx, 1.0) * 2.0 * eps * 5.0 * m)
    assert max(consts) - min(consts) < 1e-3 * abs(consts[0])


def test_rotation_covariance_full_tensor():
    """Rigidly rotating the lattice and the dielectric tensor together leaves
    the lattice energy and potentials unchanged (exercises non-diagonal eps)."""
    theta = 0.37
    q_rot = np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    lat = np.array([[6.0, 0.0, 0.0], [1.2, 5.5, 0.0], [0.4, 0.8, 7.1]])
    eps = np.diag([11.7, 9.5, 13.1])
    ctx = EwaldContext.for_cell(CrystalCell(lat, dielectric=eps))
    ctx_rot = EwaldContext.for_cell(CrystalCell(lat @ q_rot, dielectric=q_rot.T @ eps @ q_rot))
    assert lattice_energy(ctx_rot, -2.0) == pytest.approx(lattice_energy(ctx, -2.0), rel=1e-10)
    r = np.array([1.3, 0.9, -0.4])
    assert ewald_potential(ctx_rot, 1.0, r @ q_rot) == pytest.approx(
        ewald_potential(ctx, 1.0, r), rel=1e-10)


def test_eta_independence_nondiagonal_tensor():
    lat = np.array([[6.0, 0.0, 0.0], [1.2, 5.5, 0.0], [0.4, 0.8, 7.1]])
    rot = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3) * 3)[0]
    eps = rot.T @ np.diag([10.0, 12.0, 14.5]) @ rot
    cell = CrystalCell(lat, dielectric=eps)
    eta0 = EwaldContext.for_cell(cell).eta
    energies = [lattice_energy(EwaldContext.for_cell(cell, eta=f * eta0), 1.0)
                for f in (0.5, 1.0, 2.0)]
    assert max(energies) - min(energies) < 1e-7


def test_correction_on_skewed_supercell(si_motif):
    """Realistic geometry: 3x3x3 fcc-based supercell, screened charge, model
    potentials; the correction must be eta-independent and positive."""
    from defect_forge import supercell

    sc = supercell(si_motif, 3, 3, 3).with_dielectric(11.7)
    totals = []
    for eta_scale in (1.0, 2.0):
        eta0 = EwaldContext.for_cell(sc).eta
        ctx = EwaldContext.for_cell(sc, eta=eta_scale * eta0)
        pots = _model_site_potentials(ctx, -1, (0.0, 0.0, 0.0))
        res = finite_size_correction(ctx, -1, pots, (0.0, 0.0, 0.0))
        assert res.n_sampled >= 4
        assert res.point_charge_energy > 0
        assert abs(res.delta_phi) < 1e-8
        totals.append(res.total)
    assert abs(totals[0] - totals[1]) < 1e-7


def test_bad_cutoffs_rejected():
    cell = CrystalCell(np.eye(3) * 5.0)
    with pytest.raises(ValidationError):
        EwaldContext(cell, eta=-1.0)


@pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf, 1e-300])
def test_for_cell_refuses_a_bad_eta_before_using_it(eta):
    with pytest.raises(ValidationError, match="eta must be finite and > 0"):
        EwaldContext.for_cell(CrystalCell(np.eye(3) * 5.0), eta=eta)


def test_cutoffs_are_derived_not_settable():
    with pytest.raises(TypeError):
        EwaldContext(CrystalCell(np.eye(3) * 5.0), 0.25, 30.0, 10.0)


def _host64(dielectric):
    """The demo host: 4^3 'Si' sites on a 10.86 A cubic cell."""
    sites = tuple(Site("Si", (i / 4, j / 4, k / 4)) for i in range(4) for j in range(4) for k in range(4))
    return CrystalCell(np.eye(3) * 10.86, sites, dielectric=dielectric)


@pytest.mark.parametrize("cell, eta", [
    (CrystalCell(np.eye(3) * 5.0), 1e-3),  # a 6220 A real-space cutoff
    (_host64(1e5), None),
    (_host64(np.diag([11.7, 11.7, 1e4])), None),
])
def test_sums_too_large_for_the_cell_are_refused_before_they_are_built(cell, eta):
    with pytest.raises(ValidationError, match=r"real-space and .* reciprocal-space integer combinations, "
                                              r"cap 10000000"):
        EwaldContext(cell, eta)


@pytest.mark.parametrize("eps", [300.0, 1000.0])  # 531441 and 2924207 real-space combinations
def test_large_dielectric_on_a_64_site_host_stays_under_the_cap(eps):
    assert EwaldContext(_host64(eps)).real_cutoff > 0


# --- erfc and the real-space image table ----------------------------------------

def test_erfc_matches_math_erfc():
    rng = np.random.default_rng(11)
    for lo, hi, rel in ((0.0, 8.0, 1e-14), (8.0, 26.0, 1e-13)):
        x = np.concatenate([np.linspace(lo, hi, 4001), rng.uniform(lo, hi, 20000)])
        want = np.array([math.erfc(v) for v in x])
        assert np.max(np.abs(ewald._erfc(x) - want) / want) <= rel, (lo, hi)


def test_erfc_is_exactly_zero_where_it_underflows():
    """From sqrt(log of the largest float) = 26.64 up, with no overflowing x^2 on the way."""
    x = np.concatenate([[26.65, 26.9], np.geomspace(27.0, 1e300, 2000), [np.finfo(float).max]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ewald._erfc(x), np.zeros_like(x))


def test_erfc_is_within_4_ulp_of_scipy():
    erfc = pytest.importorskip("scipy.special").erfc
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0.0, 30.0, 200000), np.geomspace(1e-300, 1e300, 20000),
                        [0.0, 1.0, 8.0, 26.6, 27.0]])
    ulps = np.abs(ewald._erfc(x).view(np.int64) - erfc(x).view(np.int64))  # non-negative floats
    assert ulps.max() <= 4


def _lattice_vectors(rows, radius):
    """Every combination n @ rows of Cartesian norm <= radius, by brute force over a box of n."""
    extent = np.ceil(radius * np.linalg.norm(np.linalg.inv(rows), axis=0)).astype(int) + 1
    n = np.stack(np.meshgrid(*[np.arange(-k, k + 1) for k in extent], indexing="ij"), -1).reshape(-1, 3)
    vecs = n @ rows
    return vecs[np.einsum("ij,ij->i", vecs, vecs) <= radius * radius]


_SKEWED = CrystalCell(np.array([[6.0, 0.0, 0.0], [4.1, 3.5, 0.0], [2.9, 1.7, 4.4]]),
                      (Site("X", (0.1, 0.2, 0.3)), Site("X", (0.6, 0.5, 0.4))),
                      dielectric=np.array([[9.0, 1.5, 0.4], [1.5, 12.0, -0.8], [0.4, -0.8, 14.5]]))


def _scipy_full_diameter_terms(ctx, points):
    """potential_terms and self_potential_per_q summed with scipy's erfc over every image within
    real_cutoff plus one whole cell diameter of the origin, as the sums were once evaluated."""
    erfc = pytest.importorskip("scipy.special").erfc
    cell, eta, volume = ctx.cell, ctx.eta, ctx.cell.volume
    corners = np.array(list(itertools.product((0, 1), repeat=3))) @ cell.lattice
    diameter = max(np.linalg.norm(corners - c, axis=1).max() for c in corners)
    images = _lattice_vectors(cell.lattice, ctx.real_cutoff + diameter)
    gvecs = _lattice_vectors(reciprocal(cell), ctx.recip_cutoff)
    gvecs = gvecs[np.einsum("ij,ij->i", gvecs, gvecs) > 0]
    geg = np.einsum("ni,ij,nj->n", gvecs, cell.dielectric, gvecs)
    weights = np.exp(-geg / (4.0 * eta * eta)) / geg
    eps_inv, sqrt_det = np.linalg.inv(cell.dielectric), np.sqrt(np.linalg.det(cell.dielectric))

    def term(p):
        d = p - images
        u = np.sqrt(np.einsum("ni,ij,nj->n", d, eps_inv, d))
        u = u[u > 1e-10]
        return (np.sum(erfc(eta * u) / u) / sqrt_det + 4.0 * np.pi / volume * np.sum(weights * np.cos(gvecs @ p))
                - np.pi / (volume * eta * eta))

    frac = points @ np.linalg.inv(cell.lattice)
    terms = np.array([term(p) for p in (frac - np.round(frac)) @ cell.lattice])
    return terms, term(np.zeros(3)) - 2.0 * eta / (np.sqrt(np.pi) * sqrt_det)


@pytest.mark.parametrize("cell", [_host64(11.7), _SKEWED], ids=["demo-host", "skewed"])
def test_sums_agree_with_scipy_erfc_over_a_full_diameter_margin(cell):
    """The numpy erfc and the half-diameter image table move every term by at most 1e-12 per unit C*q."""
    ctx = EwaldContext(cell)
    rng = np.random.default_rng(13)
    points = np.concatenate([cell.site_positions()[1:] - cell.site_positions()[0],
                             rng.uniform(-1.0, 2.0, (20, 3)) @ cell.lattice,
                             np.array(list(itertools.product((-0.5, 0.5), repeat=3))) @ cell.lattice])
    want_terms, want_self = _scipy_full_diameter_terms(ctx, points)
    assert np.max(np.abs(ctx.potential_terms(points) - want_terms)) <= 1e-12
    assert abs(ctx.self_potential_per_q - want_self) <= 1e-12


@pytest.mark.parametrize("cell", [_host64(11.7), _SKEWED], ids=["demo-host", "skewed"])
def test_image_table_holds_every_image_within_the_cutoff_of_a_home_cell_corner(cell):
    """A corner f = (+-1/2, +-1/2, +-1/2) of the home cell lies farthest from the origin; a wider
    brute-force shell finds no lattice vector within real_cutoff of it that the table lacks."""
    ctx = EwaldContext(cell)
    inv = np.linalg.inv(cell.lattice)
    table = {tuple(n) for n in np.rint(ctx._real_vectors @ inv).astype(int).tolist()}
    for f in itertools.product((-0.5, 0.5), repeat=3):
        p = ctx._home_cell(np.array(f) @ cell.lattice)[0]
        wide = _lattice_vectors(cell.lattice, ctx.real_cutoff + 2.0 * np.linalg.norm(p) + 1.0)
        near = wide[np.linalg.norm(p - wide, axis=1) <= ctx.real_cutoff]
        assert {tuple(n) for n in np.rint(near @ inv).astype(int).tolist()} <= table, f


# --- finite-size correction ---------------------------------------------------


def _sampled_cell(n=4, a=10.0):
    """n^3 'Si' sites on a cubic grid so plenty of sites sit outside the WS sphere."""
    sites = tuple(
        Site("Si", (i / n, j / n, k / n))
        for i in range(n) for j in range(n) for k in range(n)
    )
    return CrystalCell(np.eye(3) * a, sites, dielectric=11.7)


def _model_site_potentials(ctx, q, defect_frac):
    """Feed the module's own periodic potential back in as fake DFT data."""
    from defect_forge.lattice import minimum_image

    cell = ctx.cell
    pots = []
    for idx, site in enumerate(cell.sites):
        disp = minimum_image(cell, site.frac - np.asarray(defect_frac))
        if np.linalg.norm(disp) < 1e-6:
            continue
        pots.append((idx, COULOMB_EV_ANG * q * float(ctx.potential_terms(disp[None, :])[0])))
    return pots


def test_correction_zero_charge_is_all_zero():
    ctx = EwaldContext.for_cell(_sampled_cell())
    with pytest.warns(UserWarning, match="^q=0 with nonzero site potentials: correction is identically zero$"):
        res = finite_size_correction(ctx, 0, [(1, 0.05)], (0.0, 0.0, 0.0))
    assert res == CorrectionResult(0.0, 0.0, 0.0, 0, 0.0)


def test_correction_self_consistency():
    """Synthetic site potentials generated from the model itself: alignment
    vanishes and the correction reduces to the point-charge term."""
    ctx = EwaldContext.for_cell(_sampled_cell())
    q = -1
    pots = _model_site_potentials(ctx, q, (0.0, 0.0, 0.0))
    res = finite_size_correction(ctx, q, pots, (0.0, 0.0, 0.0))
    assert abs(res.delta_phi) < 1e-8
    assert res.total == pytest.approx(-lattice_energy(ctx, q), abs=1e-8)
    assert res.n_sampled >= 4
    assert res.point_charge_energy > 0  # moves a negative Madelung energy toward dilute


def test_correction_constant_offset():
    ctx = EwaldContext.for_cell(_sampled_cell())
    q = 2
    c = 0.137
    pots = [(i, v + c) for i, v in _model_site_potentials(ctx, q, (0.0, 0.0, 0.0))]
    res = finite_size_correction(ctx, q, pots, (0.0, 0.0, 0.0))
    assert res.delta_phi == pytest.approx(c, abs=1e-10)
    assert res.alignment_energy == pytest.approx(-q * c, abs=1e-9)
    assert res.total == pytest.approx(res.point_charge_energy - q * c, abs=1e-9)


def test_correction_parity_in_charge():
    """Point-charge term is even in q; alignment term is odd for q-scaled data."""
    ctx = EwaldContext.for_cell(_sampled_cell())
    c = 0.2
    results = {}
    for q in (-2, 2):
        pots = [(i, v + c) for i, v in _model_site_potentials(ctx, q, (0.0, 0.0, 0.0))]
        results[q] = finite_size_correction(ctx, q, pots, (0.0, 0.0, 0.0))
    assert results[2].point_charge_energy == pytest.approx(results[-2].point_charge_energy, rel=1e-12)
    assert results[2].alignment_energy == pytest.approx(-results[-2].alignment_energy, rel=1e-9)


def test_correction_requires_far_sites():
    cell = _sampled_cell()
    ctx = EwaldContext.for_cell(cell)
    near_only = [(0, 0.1), (1, 0.1), (2, 0.1)]
    with pytest.raises(ValidationError):
        finite_size_correction(ctx, -1, near_only, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("row, index, match", [
    (5, 5.9, "site index 5.9 is not an integer"),
    (9, 3, "site index 3 is repeated"),
])
def test_correction_refuses_the_site_indices_a_pot_file_may_not_hold(si_motif, row, index, match):
    """Each refusal names its row, as the .pot parser names its line, so `diagram` can map one to the other."""
    from defect_forge import supercell

    ctx = EwaldContext.for_cell(supercell(si_motif, 2, 2, 2))
    pots = [(i, 0.01) for i in range(16)]
    pots[row] = (index, 5.0)
    with pytest.raises(ValidationError, match=match) as err:
        finite_size_correction(ctx, -1, pots, (0.0, 0.0, 0.0))
    assert err.value.row == row


def test_correction_rejects_fractional_charge():
    ctx = EwaldContext.for_cell(_sampled_cell())
    with pytest.raises(ValidationError):
        finite_size_correction(ctx, 0.5, [(0, 0.0)], (0.0, 0.0, 0.0))


@pytest.mark.parametrize("host, on_sites", [("cubic", True), ("cubic", False),
                                            ("si_motif", True), ("si_motif", False)])
def test_shared_context_matches_a_fresh_context_per_call(host, on_sites, si_motif):
    """Terms reused across calls on one context give the same bits as a fresh context each time.

    Defects on host sites share their reduced far-site points (memo hits);
    random interstitial positions share none (misses).  Each case list runs
    in two shuffled orders.
    """
    from defect_forge import supercell

    cell = supercell(si_motif, 3, 3, 3).with_dielectric(11.7) if host == "si_motif" else _sampled_cell()
    rng = np.random.default_rng(7)
    if on_sites:
        positions = [cell.sites[k].frac for k in rng.choice(len(cell.sites), 4, replace=False)]
    else:
        positions = list(rng.random((4, 3)))
    pots = [(i, float(v)) for i, v in enumerate(rng.normal(0.0, 0.01, len(cell.sites)))]
    cases = [(q, pos) for pos in positions for q in (-2, -1, 1)]
    want = {(q, tuple(pos)): finite_size_correction(EwaldContext.for_cell(cell), q, pots, pos)
            for q, pos in cases}
    for _ in range(2):
        shared = EwaldContext.for_cell(cell)
        for k in rng.permutation(len(cases)):
            q, pos = cases[k]
            assert finite_size_correction(shared, q, pots, pos) == want[(q, tuple(pos))]
        n_sampled = sum(want[(-1, tuple(pos))].n_sampled for pos in positions)
        memo_size = len(shared.__dict__["_term_memo"])
        assert memo_size < n_sampled if on_sites else memo_size == n_sampled
