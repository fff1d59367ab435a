"""The shared text layer: every CSV writer against its per-value reference, and the
comment rule (blank and '#' lines are ignored) in every parser."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import CrystalCell, DecayTrace, ParseError, Site, Spectrum
from defect_forge import io_formats as io
from defect_forge.manifest import parse_defect_run, parse_manifest, parse_site_potentials
from defect_forge.optics import OpticsRecord
from defect_forge.spectro import RESOLUTION_NM_GPMM
from defect_forge.thermo import FormationDiagram

from oracles import decay_csv_reference, diagram_csv_reference, spectrum_csv_reference, xy_csv_reference
from test_io import write_demo_manifest

# signed zeros, subnormals and the ends of the float range, then anything finite
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def _columns(min_size, max_size, y=FLOATS):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(st.lists(FLOATS, min_size=n, max_size=n), st.lists(y, min_size=n, max_size=n)))


# --- writers against the per-value references ----------------------------------------


INTS = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_write_xy_matches_reference(n, data):
    size = {"min_size": n, "max_size": n}
    # floats, integers as a caller may pass them, or a mix of both
    x = data.draw(st.one_of(st.lists(FLOATS, **size), st.lists(INTS, **size),
                            st.lists(st.one_of(FLOATS, INTS), **size)))
    y = data.draw(st.lists(st.one_of(FLOATS, st.sampled_from([math.nan, -math.inf])), **size))
    assert io.write_xy(x, y, "power_mW,intensity") == xy_csv_reference("power_mW,intensity", x, y)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(columns=_columns(1, 12))
def test_write_decay_matches_reference(columns):
    t, counts = columns
    t = sorted(set(t))
    counts = counts[:len(t)]
    trace = DecayTrace(time_ns=np.array(t, dtype=float), counts=np.array(counts, dtype=float))
    assert io.write_decay(trace) == decay_csv_reference(t, counts)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(columns=_columns(16, 40, y=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
                                            st.floats(min_value=0, allow_infinity=False))),
       meta=st.lists(st.one_of(st.none(), FLOATS), min_size=4, max_size=4),
       grating=st.one_of(st.none(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
           lambda g: math.isfinite(RESOLUTION_NM_GPMM / g))),
       location=st.one_of(st.none(), st.sampled_from(["spot-3", "a b"])))
def test_write_spectrum_matches_reference(columns, meta, grating, location):
    wl, counts = columns
    wl = sorted(set(wl))
    if len(wl) < 16:
        wl = [1400.0 + k for k in range(16)]
    counts = (counts * 2)[:len(wl)]
    meta = [*meta[:2], grating, *meta[2:]]  # a groove density is > 0, with a finite resolution floor
    spec = Spectrum(wavelength_nm=np.array(wl), counts=np.array(counts), temperature_k=meta[0],
                    power_mw=meta[1], grating_gpmm=meta[2], x_um=meta[3], y_um=meta[4], location=location)
    keys = ("temperature_K", "power_mW", "grating_gpmm", "x_um", "y_um")
    assert io.write_spectrum(spec) == spectrum_csv_reference(wl, counts, tuple(zip(keys, meta)), location)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(charges=st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
       intercepts=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                     st.floats(-1e3, 1e3)), min_size=4, max_size=4),
       fermi=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS[:5]), st.floats(-10, 10)),
                      min_size=0, max_size=8))
def test_write_diagram_csv_matches_reference(charges, intercepts, fermi):
    lines = tuple(sorted(zip(charges, intercepts)))
    fermi = np.array(fermi, dtype=float)
    diag = FormationDiagram(gap=1.0, lines=lines)
    qs = [q for q, _ in lines]
    expected = diagram_csv_reference(qs, fermi, [diag.energy_of(q, fermi) for q in qs],
                                     diag.envelope_at(fermi), [diag.stable_charge(f) for f in fermi])
    assert io.write_diagram_csv(diag, fermi) == expected


# --- the comment rule in every parser --------------------------------------------------

BOX = CrystalCell(np.eye(3) * 4.0)


_WL = np.linspace(1440.0, 1460.0, 16)
_SPECTRUM = io.write_spectrum(Spectrum(wavelength_nm=_WL, counts=np.arange(16.0), temperature_k=6.0,
                                       power_mw=0.5, location="spot-3"))
_CELL = io.write_structure(CrystalCell(np.eye(3) * 5.0, (
    Site("Si", (0, 0, 0)), Site("C", (0.5, 0.5, 0.5)), Site("Si", (0.25, 0.25, 0.25)))), "a cell")
_GRID = "GRID 2 1 2 complex\n1 2\n3 0\n-0 -0.5\n4 0\n"  # one value per line
_OPTICS = io.write_optics_records([OpticsRecord("Ci", -1, "down", 571.0, 1.69e-06, 2.0),
                                   OpticsRecord("Ci", 0, "none", 569.0, 3.37e-06, None)])

# name -> (parser, valid text, texts that fail at a known line)
CASES = {
    "structure": (lambda t: io.parse_structure(t, "s.cell"), _CELL, [
        _CELL.replace("0 5 0", "0 5"),
        "\n".join(_CELL.splitlines()[:-1]) + "\n",
        _CELL + "0 0 0\n",
    ]),
    "grid": (lambda t: io.parse_grid(t, BOX, "g.grid"), _GRID, [
        _GRID.replace("-0 -0.5", "-0 half"),
        "\n".join(_GRID.splitlines()[:-1]) + "\n",
    ]),
    "spectrum": (lambda t: io.parse_spectrum(t, "s.csv"), _SPECTRUM, [
        _SPECTRUM.replace("\n1444,4\n", "\n1444,-4\n"),
        _SPECTRUM.replace("power_mW=0.5", "power_mW=inf"),
        _SPECTRUM.replace("power_mW=0.5", "power_mW=0.5\n# grating_gpmm=0"),  # a resolution floor needs > 0
        _SPECTRUM.replace("power_mW=0.5", "power_mW=0.5\n# grating_gpmm=-150"),
        "\n".join(_SPECTRUM.splitlines()[:-1]) + "\n",
    ]),
    "decay": (lambda t: io.parse_decay(t, "d.csv"), "time_ns,counts\n0,5\n1,4\n2,3\n", [
        "time_ns,counts\n0,5\n2,4\n1,3\n",
        "time_ns,counts\n0,5\n1,nan\n2,3\n",
    ]),
    "xy": (lambda t: io.parse_xy(t, "power_mW,intensity", "p.csv"),
           io.write_xy([0.5, 1.0, 2.0], [3.0, 4.0, 5.0], "power_mW,intensity"), [
        "power_mW,intensity\n0.5,3\n1,4,5\n2,5\n",
        "power_mW,intensity\n0.5,3\n1,four\n",
        "power_mW,intensity\n",
    ]),
    "raster": (lambda t: io.parse_raster_points(t, "r.csv"),
               "x_um,y_um,counts\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", [
        "x_um,y_um,counts\n0,0,1\n1,0\n",
        "x,y,counts\n0,0,1\n",
    ]),
    "optics": (lambda t: io.parse_optics_records(t, "o.csv"), _OPTICS, [
        _OPTICS.replace("Ci,0,", "Ci,zero,"),
        _OPTICS.replace("label,", "name,"),
        _OPTICS.splitlines()[0] + "\n",
    ]),
    "run": (lambda t: parse_defect_run(t, "Ci", -1, "c.run"),
            "e_total = 0.45\ndelta.C = 1\nposition = 0 0 0\ncharge = -1\n", [
        "e_total = 0.45\ndelta.C = one\n",
        "e_total = 0.45\nposition = 0 0\ndelta.C = 1\n",
        "e_total = 0.45\n",
    ]),
    "pot": (lambda t: parse_site_potentials(t, "c.pot"), "0 0.01\n5 -0.02\n7 0\n", [
        "0 0.01\nfive -0.02\n",
        "0 0.01\n5 -0.02\n0 0.5\n",  # a repeated site index
        "0 0.01\n-1 0.5\n",
        f"0 0.01\n{2**53} 0.5\n",  # beyond the indices a float array holds exactly
    ]),
}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """CASES plus the demo manifest, which names files in its own directory."""
    path = write_demo_manifest(tmp_path_factory.mktemp("demo"))
    text = path.read_text()
    return {**CASES, "manifest": (lambda t: parse_manifest(t, path.parent, "run.manifest"), text, [
        text.replace("e_vbm = 0.0", "e_vbm = zero"),
        text.replace("[defect Ci 0]", "[defect Ci 0 extra]"),
        text.replace("[host]", "[hosts]"),
        text.replace("[host]", "[host extra]"),
    ])}


FILLER = ["", "   ", "\t", "#", "# note", "   # indented, with commas,,", "#GRID 1 1 1 real"]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _insert(text: str, inserts):
    """Text with filler lines inserted after its first line, and where each original line went."""
    lines = text.splitlines()
    after = {}
    for at, filler in inserts:
        after.setdefault(1 + at % len(lines), []).append(filler)
    out, moved = [], {}
    for no, ln in enumerate(lines, start=1):
        out.append(ln)
        moved[no] = len(out)
        out += after.get(no, [])
    return "\n".join(out) + "\n", moved


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, exc


@pytest.mark.parametrize("name", [*CASES, "manifest"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(inserts=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(FILLER)), min_size=1, max_size=6))
def test_blank_and_comment_lines_change_nothing(cases, name, inserts):
    parse, valid, broken = cases[name]
    for text in [valid, *broken]:
        before, err = _outcome(parse, text)
        assert (err is None) == (text is valid), err
        after_text, moved = _insert(text, inserts)
        after, err_after = _outcome(parse, after_text)
        if err is None:
            assert err_after is None, err_after
            assert _same(after, before)
        else:
            assert err_after is not None
            old_loc = f"{err.source}:{err.line}: "
            assert str(err).startswith(old_loc)
            assert str(err_after) == f"{err.source}:{moved[err.line]}: " + str(err)[len(old_loc):]
