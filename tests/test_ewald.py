"""Anisotropic Ewald summation against independent image-sum oracles."""

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
        EwaldContext(cell, eta=0.25, real_cutoff=3.0, recip_cutoff=1.0)
    with pytest.raises(ValidationError):
        EwaldContext(cell, eta=-1.0, real_cutoff=30.0, recip_cutoff=10.0)


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
    with pytest.warns(UserWarning):
        res = finite_size_correction(ctx, 0, [(1, 0.05)], (0.0, 0.0, 0.0))
    assert res == CorrectionResult.zero()


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
