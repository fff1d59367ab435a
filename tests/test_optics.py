"""ZPL arithmetic, wavelength conversion, reference-table consistency checks."""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import (
    OpticsRecord,
    ValidationError,
    energy_mev_to_wavelength,
    table_consistency_check,
    wavelength_to_energy_mev,
    zpl,
)
from defect_forge.io_formats import parse_optics_records


def test_zpl_neutral_center_fixture():
    # total energies crafted to differ by the neutral-center line
    assert zpl(-5431.431, -5432.000) == pytest.approx(569.0, abs=1e-9)


def test_zpl_equal_energies_rejected():
    with pytest.raises(ValidationError):
        zpl(-10.0, -10.0)
    with pytest.raises(ValidationError):
        zpl(-11.0, -10.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e4, 1e4), st.floats(1e-6, 10.0))
def test_zpl_subtraction_oracle(ground, gap_ev):
    excited = ground + gap_ev
    if excited <= ground:  # gap below float resolution at this magnitude
        return
    assert zpl(excited, ground) == 1000.0 * (excited - ground)


def rec(zpl_mev, shift=None, defect="Ci", charge=0, spin="none", tdm=None):
    return OpticsRecord(defect=defect, charge=charge, spin=spin,
                        zpl_mev=zpl_mev, tdm_debye2=tdm, shift_mev=shift)


# --- wavelength <-> energy --------------------------------------------------------


def test_known_zpl_wavelength():
    assert wavelength_to_energy_mev(1448.0) == pytest.approx(856.0, abs=1.0)


def test_peak_list_shifts():
    reference = wavelength_to_energy_mev(1448.0)
    expected = {1415.4: 20.0, 1441.7: 4.0, 1444.3: 2.0, 1450.8: -2.0, 1453.6: -3.0}
    for wl, shift in expected.items():
        assert wavelength_to_energy_mev(wl) - reference == pytest.approx(shift, abs=1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(100.0, 1e5))
def test_wavelength_round_trip(wl):
    assert energy_mev_to_wavelength(wavelength_to_energy_mev(wl)) == pytest.approx(wl, rel=1e-9)


def test_nonpositive_wavelength_rejected():
    with pytest.raises(ValidationError):
        wavelength_to_energy_mev(0.0)
    with pytest.raises(ValidationError):
        energy_mev_to_wavelength(-5.0)


# --- table consistency -------------------------------------------------------------


def bundled_records():
    text = resources.files("defect_forge.data").joinpath("ci_reference_table.csv").read_text()
    return parse_optics_records(text, source="ci_reference_table.csv")


def test_bundled_table_shape():
    records = bundled_records()
    assert len(records) == 13
    assert sum(1 for r in records if r.zpl_mev is None) == 1
    assert sum(1 for r in records if r.shift_mev is None) == 1


def test_consistency_check_flags_exactly_one_row():
    checks = table_consistency_check(bundled_records(), 569.0)
    flagged = [c for c in checks if c.flagged]
    assert len(flagged) == 1
    bad = flagged[0]
    assert bad.record.defect == "Ci+H-3"
    assert bad.record.spin == "down"
    assert bad.record.zpl_mev == 1174.0
    assert bad.discrepancy_mev == pytest.approx(27.0, abs=1e-9)


def test_consistency_check_reconstructs_corrupted_row():
    checks = table_consistency_check(bundled_records(), 569.0)
    rebuilt = [c for c in checks if c.reconstructed]
    assert len(rebuilt) == 1
    assert rebuilt[0].record.defect == "Ci+H-1"
    assert rebuilt[0].zpl_mev == pytest.approx(1032.0, abs=1e-9)
    assert not rebuilt[0].flagged


def test_consistency_check_consistent_row_examples():
    checks = {(c.record.defect, c.record.charge, c.record.spin): c
              for c in table_consistency_check(bundled_records(), 569.0)}
    # 569 + 278 = 847: consistent
    assert not checks[("Ci+H-2", 0, "down")].flagged
    assert checks[("Ci+H-2", 0, "down")].recomputed_shift_mev == pytest.approx(278.0)


def test_record_validation():
    with pytest.raises(ValidationError):
        rec(-5.0)
    with pytest.raises(ValidationError):
        OpticsRecord(defect="X", charge=0, spin="sideways", zpl_mev=500.0,
                     tdm_debye2=0.1, shift_mev=0.0)
    with pytest.raises(ValidationError):
        OpticsRecord(defect="X", charge=0, spin="none", zpl_mev=500.0,
                     tdm_debye2=-0.1, shift_mev=0.0)
