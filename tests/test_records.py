"""The record rule, for each of the eight records that hold arrays: a record copies
every array it is given, stores it read-only and compares it by value."""

import dataclasses

import numpy as np
import pytest

from defect_forge import CrystalCell, DecayTrace, DefectRun, Site, Spectrum
from defect_forge.dose import REGIME_WRITE, DoseCurve, Segment
from defect_forge.manifest import DefectEntry
from defect_forge.optics import GridFunction
from defect_forge.spectro import RasterMap

BOX = CrystalCell(np.eye(3) * 4.0)


def _site(frac):
    return Site("Si", frac)


def _cell(lattice, dielectric):
    return CrystalCell(lattice, (Site("Si", (0.0, 0.0, 0.0)), Site("C", (0.5, 0.5, 0.5))), dielectric)


def _grid(values):
    return GridFunction((2, 2, 2), values, BOX)


def _raster(xs, ys, values):
    return RasterMap(xs, ys, values)


def _entry(site_potentials):
    run = DefectRun("Ci", -1, 0.45, (("C", 1),), (0.0, 0.0, 0.0))
    return DefectEntry(run, site_potential_path="ci_m1.pot", site_potentials=site_potentials)


def _dose(fluences, intensities):
    return DoseCurve("G", fluences, intensities, (Segment(10.0, 30.0, "rising", REGIME_WRITE),))


# name -> (constructor taking the arrays, caller-owned arrays, the array that may hold a NaN; None
# where the record's file holds finite numbers only, so its constructor refuses a NaN)
RECORDS = {
    "Site": (_site, lambda: {"frac": np.array([0.25, 0.5, 0.75])}, None),
    "CrystalCell": (_cell, lambda: {"lattice": np.eye(3) * 5.0,
                                    "dielectric": np.diag([11.7, 11.7, 12.0])}, None),
    "GridFunction": (_grid, lambda: {"values": np.arange(1, 9) * (1.0 - 0.5j)}, None),
    "Spectrum": (Spectrum, lambda: {"wavelength_nm": np.linspace(1440.0, 1460.0, 16),
                                    "counts": np.arange(16.0)}, None),
    "DecayTrace": (DecayTrace, lambda: {"time_ns": np.linspace(0.0, 30.0, 12),
                                        "counts": np.linspace(100.0, 1.0, 12)}, None),
    "RasterMap": (_raster, lambda: {"xs": np.array([0.0, 1.0]), "ys": np.array([0.0, 1.0]),
                                    "values": np.array([[1.0, 2.0], [np.nan, 4.0]])}, "values"),
    "DoseCurve": (_dose, lambda: {"fluences": np.array([10.0, 16.0, 30.0]),
                                  "intensities": np.array([100.0, 900.0, 1000.0])}, "intensities"),
    "DefectEntry": (_entry, lambda: {"site_potentials": np.array([[0.0, 0.01], [5.0, -0.02]])}, "site_potentials"),
}


def _stored_arrays(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)}


@pytest.fixture(params=list(RECORDS))
def case(request):
    return RECORDS[request.param]


def test_caller_arrays_stay_writable(case):
    build, arrays, _ = case
    given = arrays()
    build(**given)
    assert all(a.flags.writeable for a in given.values())


def test_writing_to_caller_arrays_leaves_the_record_unchanged(case):
    build, arrays, _ = case
    given = arrays()
    record = build(**given)
    for a in given.values():
        a.flat[0] = np.nan
    assert record == build(**arrays())


def test_every_stored_array_is_read_only(case):
    build, arrays, _ = case
    stored = _stored_arrays(build(**arrays()))
    assert set(arrays()) <= set(stored)
    for name, a in stored.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_equal_by_value(case):
    build, arrays, nan_name = case
    record = build(**arrays())
    assert record == build(**arrays())
    for name in arrays():
        changed = arrays()
        changed[name].flat[-1] += 0.5  # keeps every constructor check satisfied
        assert record != build(**changed), name
    if nan_name is not None:
        with_nan = arrays()
        with_nan[nan_name].flat[0] = np.nan
        assert build(**with_nan) == build(**with_nan)


def test_eq_with_another_type_is_not_implemented(case):
    build, arrays, _ = case
    assert build(**arrays()).__eq__(object()) is NotImplemented
