"""Formation energies, transition levels, stability envelopes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import (
    DefectRun,
    FormationDiagram,
    HostReference,
    ValidationError,
    build_diagram,
    formation_energy,
    transition_level,
)


def host(gap=1.17, vbm=0.0, mu=None):
    return HostReference(e_bulk=0.0, e_vbm=vbm, e_gap=gap,
                         chemical_potentials=tuple((mu or {"C": 0.0}).items()))


def run_with_intercept(c, q, label="D", mu_species="C"):
    """E_f(q; 0) == c when e_bulk = 0, mu = 0, e_vbm = 0."""
    return DefectRun(label=label, charge=q, total_energy=c,
                     composition_delta=((mu_species, 1),))


def test_identity_case_zero_everything():
    h = HostReference(e_bulk=-100.0, e_vbm=0.0, e_gap=1.17)
    run = DefectRun(label="none", charge=0, total_energy=-100.0)
    for fermi in (0.0, 0.3, 1.17):
        assert formation_energy(run, h, fermi) == 0.0


def test_direct_arithmetic():
    # E_tot - E_bulk - sum(n mu) = 1.2, q = -1, corr = +0.1  ->  1.3 - E_F
    h = HostReference(e_bulk=0.0, e_vbm=0.0, e_gap=1.17,
                      chemical_potentials=(("C", -1.0),))
    run = DefectRun(label="D", charge=-1, total_energy=0.2, composition_delta=(("C", 1),))
    for fermi in (0.0, 0.25, 1.0):
        assert formation_energy(run, h, fermi, 0.1) == pytest.approx(1.3 - fermi, abs=1e-12)


def test_slope_equals_charge_finite_differences(rng):
    h = host()
    grid = np.linspace(0.0, h.e_gap, 11)
    for q in range(-3, 4):
        run = run_with_intercept(float(rng.uniform(-2, 3)), q)
        vals = np.array([formation_energy(run, h, f) for f in grid])
        slopes = np.diff(vals) / np.diff(grid)
        np.testing.assert_allclose(slopes, q, atol=1e-9)


def test_missing_chemical_potential():
    h = host(mu={"C": 0.0})
    run = DefectRun(label="D", charge=0, total_energy=1.0, composition_delta=(("H", 1),))
    with pytest.raises(ValidationError, match="H"):
        formation_energy(run, h, 0.0)


def test_fermi_window():
    h = host()
    run = run_with_intercept(1.0, 0)
    with pytest.raises(ValidationError):
        formation_energy(run, h, -0.6)
    with pytest.raises(ValidationError):
        formation_energy(run, h, h.e_gap + 0.6)
    with pytest.warns(UserWarning):
        formation_energy(run, h, -0.2)


def test_transition_level_analytically_forced():
    """Lines with intercepts 1.0 (q=0) and 1.5 (q=-1) cross at 0.5 eV."""
    h = host()
    eps = transition_level(run_with_intercept(1.0, 0), run_with_intercept(1.5, -1), h)
    assert eps == pytest.approx(0.5, abs=1e-12)


def test_transition_level_swap_symmetric(rng):
    h = host()
    r1 = run_with_intercept(float(rng.uniform(0, 2)), 1)
    r2 = run_with_intercept(float(rng.uniform(0, 2)), -2)
    assert transition_level(r1, r2, h) == pytest.approx(transition_level(r2, r1, h), rel=1e-14)


def test_transition_level_equal_charges_rejected():
    h = host()
    with pytest.raises(ValidationError):
        transition_level(run_with_intercept(1.0, -1), run_with_intercept(2.0, -1), h)


def test_transition_level_grid_scan_oracle(rng):
    """Crossings located by a 1e-6-resolution scan match the closed form."""
    h = host()
    found = 0
    while found < 5:
        q1, q2 = rng.choice(range(-3, 4), size=2, replace=False)
        r1 = run_with_intercept(float(rng.uniform(0.5, 2.0)), int(q1))
        r2 = run_with_intercept(float(rng.uniform(0.5, 2.0)), int(q2))
        closed = transition_level(r1, r2, h)
        if not (0.01 < closed < h.e_gap - 0.01):
            continue
        found += 1
        grid = np.arange(closed - 1e-3, closed + 1e-3, 1e-6)
        gaps = [abs(formation_energy(r1, h, f) - formation_energy(r2, h, f)) for f in grid]
        scanned = grid[int(np.argmin(gaps))]
        assert scanned == pytest.approx(closed, abs=2e-6)


def fig_topology_runs():
    """Intercepts placing q=0 stable mid-gap and -1, -2, -3 stable toward the CBM."""
    intercepts = {0: 1.0, -1: 1.45, -2: 2.2, -3: 3.2, 1: 2.5}
    return [run_with_intercept(c, q, label="Ci") for q, c in intercepts.items()]


def test_diagram_single_line():
    diag = build_diagram([run_with_intercept(1.0, -1)], host())
    assert len(diag.intervals) == 1
    assert diag.intervals[0].charge == -1
    assert diag.intervals[0].lo == 0.0 and diag.intervals[0].hi == diag.gap


def test_energy_of_a_charge_with_no_line_is_refused():
    diag = build_diagram([run_with_intercept(1.0, -1)], host())
    assert diag.energy_of(-1, 0.25) == pytest.approx(0.75)
    with pytest.raises(ValidationError, match=r"^no line for charge state \+1$"):
        diag.energy_of(1, 0.25)


@pytest.mark.parametrize("fermi", [float("nan"), float("inf")])
def test_stable_charge_rejects_non_finite_fermi(fermi):
    diag = build_diagram([run_with_intercept(1.0, -1), run_with_intercept(0.5, 0)], host())
    with pytest.raises(ValidationError, match="finite"):
        diag.stable_charge(fermi)


def test_stable_charge_of_an_array_is_the_stable_charge_of_each_level():
    diag = build_diagram([run_with_intercept(1.0, -1), run_with_intercept(0.5, 0), run_with_intercept(0.2, 1)], host())
    fermi = np.linspace(0.0, diag.gap, 101)
    stable = diag.stable_charge(fermi)
    assert stable.dtype.kind == "i"
    assert stable.tolist() == [diag.stable_charge(f) for f in fermi]
    assert type(diag.stable_charge(0.5)) is int
    with pytest.raises(ValidationError, match="finite"):
        diag.stable_charge(np.array([0.1, np.nan]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stable_charge_when_a_line_overflows(sign):
    """Both lines at +max (or -max) float; at E_F = -1e293 the q=-1 line overflows to +inf
    (or the q=+1 line to -inf), so q=+1 is the lowest line either way."""
    top = sign * np.finfo(float).max
    diag = FormationDiagram(gap=1.0, lines=((-1, top), (1, top)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diag.stable_charge(-1e293) == 1


def test_mid_gap_tie_goes_to_the_lower_abs_charge():
    """q=0 and q=+1 cross exactly at mid-gap: stable_at_intrinsic follows the tie rule of stable_charge."""
    diag = build_diagram([run_with_intercept(1.0, 0), run_with_intercept(0.5, 1)], host(gap=1.0))
    assert [(iv.lo, iv.hi, iv.charge) for iv in diag.intervals] == [(0.0, 0.5, 1), (0.5, 1.0, 0)]
    assert diag.stable_at_intrinsic == diag.stable_charge(0.5) == 0


def test_diagrams_of_equal_lines_are_equal_and_hash_alike():
    lines = ((-1, 1.5), (0, 1.0), (1, 0.4))
    assert FormationDiagram(1.0, lines) == FormationDiagram(1.0, lines)
    assert hash(FormationDiagram(1.0, lines)) == hash(FormationDiagram(1.0, lines))
    assert FormationDiagram(1.0, lines) != FormationDiagram(1.0, lines[:2])


def test_diagram_copies_a_list_of_lines_as_int_float_pairs():
    """A caller's list is copied in: the diagram hashes, and appending to the list later changes nothing."""
    lines = [(np.int64(0), 1.0), (1, np.float64(0.4))]
    diag = FormationDiagram(1.0, lines)
    assert [(iv.lo, iv.hi, iv.charge) for iv in diag.intervals] == [(0.0, 0.6, 1), (0.6, 1.0, 0)]
    lines.append((-1, -5.0))
    assert hash(diag) == hash(FormationDiagram(1.0, ((0, 1.0), (1, 0.4))))
    assert [(type(q), type(c)) for q, c in diag.lines] == [(int, float), (int, float)]
    assert diag.stable_charge(0.5) == 1


def test_diagram_topology_fixture():
    diag = build_diagram(fig_topology_runs(), host())
    seq = [iv.charge for iv in diag.intervals]
    assert seq == [0, -1, -2, -3]
    # neutral (green) region covers mid-gap from the VBM side; intrinsic level is -1
    assert diag.intervals[0].lo == 0.0
    assert diag.intervals[0].hi == pytest.approx(0.45, abs=1e-9)
    assert diag.stable_at_intrinsic == -1
    levels = dict(diag.transition_levels)
    assert levels[(0, -1)] == pytest.approx(0.45, abs=1e-9)
    assert levels[(-1, -2)] == pytest.approx(0.75, abs=1e-9)
    assert levels[(-2, -3)] == pytest.approx(1.0, abs=1e-9)


def test_envelope_is_brute_force_minimum(rng):
    h = host()
    runs = [run_with_intercept(float(rng.uniform(0, 3)), q) for q in range(-3, 4)]
    diag = build_diagram(runs, h)
    fermi = rng.uniform(0.0, h.e_gap, size=10_000)
    lines = np.array([[c + q * f for f in fermi] for q, c in diag.lines])
    np.testing.assert_array_equal(diag.envelope_at(fermi), lines.min(axis=0))


def test_envelope_breakpoints_match_transition_levels(rng):
    h = host()
    runs = [run_with_intercept(float(rng.uniform(0.5, 2.5)), q) for q in (-2, -1, 0, 1)]
    diag = build_diagram(runs, h)
    by_charge = {r.charge: r for r in runs}
    for (qa, qb), fermi in diag.transition_levels:
        closed = transition_level(by_charge[qa], by_charge[qb], h)
        assert fermi == pytest.approx(closed, abs=1e-9)


def test_envelope_charge_non_increasing(rng):
    for _ in range(10):
        runs = [run_with_intercept(float(rng.uniform(0, 3)), q) for q in range(-3, 4)]
        diag = build_diagram(runs, host())
        seq = [iv.charge for iv in diag.intervals]
        assert seq == sorted(seq, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=7, max_size=7),
       st.floats(0.0, 1.17))
def test_envelope_minimal_and_intervals_partition(intercepts, fermi):
    runs = [run_with_intercept(c, q) for q, c in zip(range(-3, 4), intercepts)]
    diag = build_diagram(runs, host())
    values = [c + q * fermi for q, c in diag.lines]
    assert float(diag.envelope_at(fermi)) == min(values)
    assert diag.intervals[0].lo == 0.0 and diag.intervals[-1].hi == diag.gap
    for a, b in zip(diag.intervals[:-1], diag.intervals[1:]):
        assert a.hi == b.lo


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0),
       st.integers(-3, 3), st.integers(-3, 3))
def test_transition_level_symmetry_property(c1, c2, q1, q2):
    if q1 == q2:
        return
    h = host()
    r1, r2 = run_with_intercept(c1, q1), run_with_intercept(c2, q2)
    assert transition_level(r1, r2, h) == pytest.approx(transition_level(r2, r1, h), rel=1e-12)


def test_gauge_invariance_of_energy_zero():
    shift = 123.456
    h1 = host()
    h2 = HostReference(e_bulk=h1.e_bulk + shift, e_vbm=h1.e_vbm, e_gap=h1.e_gap,
                       chemical_potentials=h1.chemical_potentials)
    r1 = run_with_intercept(1.3, -2)
    r2 = DefectRun(label="D", charge=-2, total_energy=r1.total_energy + shift,
                   composition_delta=r1.composition_delta)
    assert formation_energy(r1, h1, 0.4) == pytest.approx(formation_energy(r2, h2, 0.4), abs=1e-9)


def test_correction_shifts_intercept_linearly():
    h = host()
    run = run_with_intercept(1.0, -1)
    delta = 0.37
    base = build_diagram([run], h).lines[0][1]
    shifted = build_diagram([run], h, corrections={-1: delta}).lines[0][1]
    assert shifted - base == pytest.approx(delta, abs=1e-12)


def test_duplicate_charge_keeps_lowest_energy():
    h = host()
    lo = run_with_intercept(1.0, 0)
    hi = run_with_intercept(1.66, 0)
    with pytest.warns(UserWarning, match="duplicate"):
        diag = build_diagram([hi, lo], h)
    assert diag.lines == ((0, 1.0),)


def test_empty_run_list_rejected():
    with pytest.raises(ValidationError):
        build_diagram([], host())


def test_charge_range_enforced():
    with pytest.raises(ValidationError):
        DefectRun(label="D", charge=4, total_energy=0.0)
    with pytest.raises(ValidationError):
        DefectRun(label="D", charge=-4, total_energy=0.0)

