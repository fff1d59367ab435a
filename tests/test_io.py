"""Format round trips, parse errors with file/line context, manifest resolution."""

import copy
import math
import os
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defect_forge import CrystalCell, DecayTrace, ParseError, Site, Spectrum, ValidationError, supercell
from defect_forge import io_formats as io
from defect_forge.manifest import (
    load_manifest,
    parse_defect_run,
    parse_site_potentials,
)
from defect_forge.optics import GridFunction, OpticsRecord
from defect_forge.spectro import raster_map
from defect_forge.thermo import FormationDiagram, HostReference, build_diagram

from oracles import diagram_csv_reference, read_diagram_csv


# --- structure files -----------------------------------------------------------


def test_structure_minimal_cubic_round_trip():
    text = "\n".join([
        "one-atom cubic cell",
        "4.0 0 0", "0 4.0 0", "0 0 4.0",
        "X", "1",
        "0.0 0.0 0.0",
    ]) + "\n"
    cell = io.parse_structure(text)
    assert cell.volume == pytest.approx(64.0)
    assert io.parse_structure(io.write_structure(cell)) == cell


def test_structure_54_site_supercell_round_trip(si_motif):
    sc = supercell(si_motif, 3, 3, 3)
    text = io.write_structure(sc, comment="3x3x3 supercell")
    back = io.parse_structure(text)
    assert len(back.sites) == 54
    assert back == CrystalCell(sc.lattice, sc.sites)  # dielectric not in the file format
    assert text == io.write_structure(back, comment="3x3x3 supercell")


def test_structure_interleaved_species_round_trip_in_site_order():
    """Each run of equal species is one label, so the sites read back in the order the cell holds them."""
    cell = CrystalCell(np.eye(3) * 5.0, (
        Site("Si", (0, 0, 0)), Site("C", (0.5, 0.5, 0.5)), Site("Si", (0.25, 0.25, 0.25)),
        Site("Si", (0.75, 0.75, 0.75)),
    ))
    text = io.write_structure(cell)
    assert text.splitlines()[4:6] == ["Si C Si", "1 1 2"]
    assert io.parse_structure(text) == cell


@pytest.mark.parametrize("comment", ["", "   ", "\n"])
def test_structure_blank_comment_round_trip(comment):
    cell = CrystalCell(np.eye(3) * 4.0, (Site("X", (0.5, 0.0, 0.25)),))
    text = io.write_structure(cell, comment)
    assert text.splitlines()[0] == "#"
    assert io.parse_structure(text) == cell
    assert io.parse_structure(io.write_structure(CrystalCell(np.eye(3) * 4.0), comment)) == CrystalCell(np.eye(3) * 4.0)


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_structure_comment_line_break_round_trip(sep):
    """Every line break str.splitlines knows is written as a space, so the comment stays one line."""
    cell = CrystalCell(np.eye(3) * 4.0, (Site("X", (0.5, 0.0, 0.25)),))
    text = io.write_structure(cell, f"a{sep}b")
    assert text.splitlines()[0] == "a b"
    assert io.parse_structure(text) == cell


def test_structure_truncated_file_errors():
    with pytest.raises(ParseError, match="truncated structure"):
        io.parse_structure("comment\n1 0 0\n0 1 0\n", source="broken.cell")
    text = "c\n1 0 0\n0 1 0\n0 0 1\nX\n2\n0 0 0\n"
    with pytest.raises(ParseError, match="truncated coordinates") as err:
        io.parse_structure(text, source="short.cell")
    assert "short.cell" in str(err.value)


def test_structure_bad_arity_reports_line():
    text = "c\n1 0 0\n0 1\n0 0 1\nX\n1\n0 0 0\n"
    with pytest.raises(ParseError, match="3:") as err:
        io.parse_structure(text, source="bad.cell")
    assert "expected 3 values" in str(err.value)


def test_structure_nonnumeric_field():
    text = "c\n1 0 0\n0 1 zero\n0 0 1\nX\n1\n0 0 0\n"
    with pytest.raises(ParseError, match="non-numeric"):
        io.parse_structure(text)


def test_structure_count_species_mismatch():
    text = "c\n1 0 0\n0 1 0\n0 0 1\nSi C\n1\n0 0 0\n"
    with pytest.raises(ParseError, match="counts line"):
        io.parse_structure(text)


# --- grid files ------------------------------------------------------------------


def test_grid_complex_round_trip(rng):
    cell = CrystalCell(np.eye(3) * 6.0)
    values = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
    grid = GridFunction((4, 3, 2), values, cell)
    back = io.parse_grid(io.write_grid(grid), cell)
    assert back == grid


def test_grid_real_round_trip(rng):
    cell = CrystalCell(np.eye(3) * 6.0)
    grid = GridFunction((2, 2, 2), rng.normal(size=8), cell)
    text = io.write_grid(grid)
    assert text.splitlines()[0] == "GRID 2 2 2 real"
    assert io.parse_grid(text, cell) == grid


def test_grid_header_and_count_errors():
    cell = CrystalCell(np.eye(3))
    with pytest.raises(ParseError, match="header"):
        io.parse_grid("GRID 2 2\n1 2\n", cell)
    with pytest.raises(ParseError, match="count mismatch"):
        io.parse_grid("GRID 2 1 1 real\n1.0\n", cell)
    with pytest.raises(ParseError, match="kind"):
        io.parse_grid("GRID 1 1 1 imaginary\n1.0\n", cell)


@pytest.mark.parametrize("text, line, match", [
    ("GRID 3 1 1 real\n1.0 2.0\n3.0 abc\n", 3, "non-numeric value in grid: 'abc'"),
    ("# comment\n\nGRID 2 1 1 real\n1\n2\n3\n", 6, "count mismatch: header promises 2 numbers"),
    ("GRID 2 1 1 complex\n1 0\n2 0 9\n", 3, "found 5"),
    ("GRID 2 1 1 complex\n1 0\n2\n\n", 3, "found 3"),
    ("GRID 2 1 1 real\n1 nan(1)\n", 2, r"non-numeric value in grid: 'nan\(1\)'"),
    ("GRID 2 1 1 real\n\n1 inf\n", 3, "non-finite value in grid: 'inf'"),
    ("GRID 1 1 2 real\n1.0\nnan\n", 3, "non-finite value in grid: 'nan'"),
    ("\nGRID 1 1 1 real\n   \n", 2, "found 0"),
    ("GRID 1 1 1 real\n1 # trailing\n", 2, "non-numeric value in grid: '#'"),
    ("GRID 1 1 1 real\n0x1p3\n", 2, "non-numeric value in grid: '0x1p3'"),
])
def test_grid_parse_errors_name_their_line(text, line, match):
    with pytest.raises(ParseError, match=match) as err:
        io.parse_grid(text, CrystalCell(np.eye(3)), source="g.grid")
    assert err.value.line == line
    assert str(err.value).startswith(f"g.grid:{line}: ")


@pytest.mark.parametrize("text, kind, expected", [
    ("GRID 2 2 1 real\n1 2 3\n4\n", "real", [1, 2, 3, 4]),
    ("GRID 2 1 1 real\n\n  1.5\n\n-2e-3\n\n", "real", [1.5, -2e-3]),
    ("# lead\nGRID 2 1 1 complex\n1 2\n# inside the block\n  # indented\n3 4\n", "complex", [1 + 2j, 3 + 4j]),
    ("GRID 2 1 1 complex\r\n1 -0.0\r\n3 4\r\n", "complex", [1, 3 + 4j]),
    ("GRID 3 1 1 real\n1_0 +.5 5.\n", "real", [10, 0.5, 5]),
    ("GRID 2 1 1 real\n4.9e-324 1", "real", [5e-324, 1]),
])
def test_grid_parse_layouts(text, kind, expected):
    grid = io.parse_grid(text, CrystalCell(np.eye(3)))
    np.testing.assert_array_equal(grid.values.reshape(-1), np.array(expected, dtype=complex))
    assert io.write_grid(grid).split()[4] == kind


def _write_grid_per_value(grid, per_line):
    """Reference writer: one _fmt call per value."""
    vals = grid.values.reshape(-1)
    is_real = bool(np.all(vals.imag == 0))
    out = [f"GRID {grid.dims[0]} {grid.dims[1]} {grid.dims[2]} {'real' if is_real else 'complex'}"]
    flat = [io._fmt(v) for v in vals.real] if is_real else [
        io._fmt(x) for v in vals for x in (v.real, v.imag)]
    step = per_line * (1 if is_real else 2)
    out += [" ".join(flat[i:i + step]) for i in range(0, len(flat), step)]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("per_line", [1, 3, 4])
@pytest.mark.parametrize("dims", [(1, 1, 1), (5, 1, 1), (2, 3, 2), (7, 1, 2)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_write_grid_matches_per_value_format(rng, monkeypatch, per_line, dims, complex_values):
    # the written files use 3 values per line; 1 and 4 exercise the wrapping
    monkeypatch.setattr(io, "GRID_VALUES_PER_LINE", per_line)
    n = dims[0] * dims[1] * dims[2]
    # magnitudes up to 1e150 keep the L2 norm finite, as GridFunction requires
    specials = [-0.0, 5e-324, -2.5e-310, 1e150, -1e150, 0.1, 1.0 / 3.0]
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-300, 150, n)
    vals[:min(n, len(specials))] = specials[:n]
    if n == 1:
        vals[0] = 1.0 / 3.0
    if complex_values:
        vals = vals + 1j * np.roll(vals, 1)
    grid = GridFunction(dims, vals, CrystalCell(np.eye(3)))
    text = io.write_grid(grid)
    assert text == _write_grid_per_value(grid, per_line)
    assert io.parse_grid(text, grid.cell) == grid


# signed zeros, subnormals and the largest magnitudes, where the sign of a zero
# or a rounding step would show
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308, 1.0, -1.0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGE_FLOATS),
                                            st.floats(allow_nan=False, allow_infinity=False))] * 2),
                      max_size=40))
def test_complex_grid_values_match_the_numpy_expression_bit_for_bit(pairs):
    arr = np.array(pairs, dtype=float).reshape(-1)
    expected = arr[0::2] + 1j * arr[1::2]
    assert io._complex_values(arr, "complex").tobytes() == expected.tobytes()


def test_complex_grid_values_match_on_a_long_array(rng):
    """Long enough for every vector loop and its remainder, with edge values spread through it."""
    arr = rng.normal(size=2 * 10_001) * 10.0 ** rng.integers(-320, 300, 2 * 10_001)
    arr[rng.integers(0, len(arr), 2000)] = rng.choice(EDGE_FLOATS, 2000)
    expected = arr[0::2] + 1j * arr[1::2]
    assert io._complex_values(arr, "complex").tobytes() == expected.tobytes()


@pytest.mark.parametrize("error", [
    ParseError("grid value count mismatch", "psi_f.grid", 7), ParseError("empty grid file"),
    ValidationError("grid dims must be positive", row=3), ValidationError(),
], ids=repr)
@pytest.mark.parametrize("duplicate", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_errors_survive_pickle_and_copy(error, duplicate):
    """An error keeps its text and location through pickle and copy, as an exception passed
    between processes or copied by a caller must."""
    back = duplicate(error)
    assert type(back) is type(error)
    assert (str(back), back.row) == (str(error), error.row)
    if isinstance(error, ParseError):
        assert (back.source, back.line) == (error.source, error.line)


@pytest.mark.parametrize("grid_text", ["GRID 2 1 1 real\n1.0 x\n", "GRID 2 1 1 real\n1.0\n"], ids=["bad", "short"])
def test_grid_worker_reply_is_a_grid_or_nothing(tmp_path, grid_text):
    """The worker's reader raises its error where it runs and sends nothing, so the pipe is
    empty; the parent then reads the file itself."""
    path = tmp_path / "psi_f.grid"
    path.write_text(grid_text)
    read_fd, write_fd = os.pipe()
    try:
        with pytest.raises(ParseError, match=f"^{path}:2: "):
            io._send_grid(write_fd, path, CrystalCell(np.eye(3)))
        assert os.read(read_fd, 1) == b""
        assert io._receive_grid(read_fd) is None
    finally:
        os.close(read_fd)


@pytest.mark.parametrize("data, line, message", [
    ("GRID 2 1 1 real\n1.0 é\n".encode(), 2, "non-numeric value in grid: 'é'"),
    (b"GRID 1 1 1 real\n1 # trailing\n", 2, "non-numeric value in grid: '#'"),
    (b"GRID 2 1 1 real\n1.0\n# note\n2.0 x\n", 4, "non-numeric value in grid: 'x'"),
    (b"GRID 1 1 1 real\n1.0\xff\n", 2, "not UTF-8 text: byte 0xff"),
    ("# é\nGRID 1 1 1 real\n1 x\n".encode(), 3, "non-numeric value in grid: 'x'"),
    ("GRID 3 1 1 real\n1.0\u2028x\n2\n".encode(), 3, "non-numeric value in grid: 'x'"),
    (b"\x0cGRID 1 1 1 real\n1.0 2\n", 3,
     "grid value count mismatch: header promises 1 numbers (1 real values), found 2"),
    (b"#" * 5000 + b"\nGRID 1 1 1 real\n1 x\n", 3, "non-numeric value in grid: 'x'"),
    (b"", 1, "empty grid file"),
])
def test_load_grid_errors_name_the_same_line_on_every_path(tmp_path, data, line, message):
    """Non-ASCII bytes, '#' in the block, odd line breaks and a long head all keep the
    text reader's message and line."""
    path = tmp_path / "g.grid"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        io.load_grid(path, CrystalCell(np.eye(3)))
    assert str(err.value) == f"{path}:{line}: {message}"



def test_load_grid_refuses_a_zero_dim(tmp_path):
    path = tmp_path / "g.grid"
    path.write_text("GRID 0 4 4 real\n")
    with pytest.raises(ParseError) as err:
        io.load_grid(path, CrystalCell(np.eye(3)))
    assert str(err.value) == f"{path}:1: grid dims must be positive, got (0, 4, 4)"

@pytest.mark.parametrize("head, note, bound", [
    (b"", b"", 1.6), ("# ψ_i\n".encode(), b"", 1.6), (b"#" * 5000 + b"\n", b"", 1.6),
    (b"", b"# note\n", 3.2),
], ids=["no comment", "non-ASCII comment", "5000-byte comment", "comment among the values"])
def test_load_grid_holds_one_copy_of_the_file(tmp_path, rng, head, note, bound):
    """Reading a 32^3 complex grid peaks at about the file plus its numbers; the file is
    never held both as bytes and as text, and the numbers go before the values are copied.
    A comment among the values sends the file to parse_grid, which holds its text and lines
    but no list of Python floats."""
    cell = CrystalCell(np.eye(3) * 10.0)
    shape = (32, 32, 32)
    grid = GridFunction(shape, rng.normal(size=shape) + 1j * rng.normal(size=shape), cell)
    header, first, rest = io.write_grid(grid).encode().split(b"\n", 2)
    path = tmp_path / "g.grid"
    path.write_bytes(head + header + b"\n" + first + b"\n" + note + rest)
    tracemalloc.start()
    try:
        back = io.load_grid(path, cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == grid
    assert peak < bound * path.stat().st_size



def test_load_grid_reads_a_pipe_once(tmp_path):
    """A grid given as a pipe, as a shell's <(...) passes it, reads as the same file does:
    its head is not read twice."""
    data = "# ψ_i\nGRID 2 1 1 complex\n1 -0 0.5 2\n".encode()
    path = tmp_path / "g.grid"
    path.write_bytes(data)
    cell = CrystalCell(np.eye(3))
    read_fd, write_fd = os.pipe()
    try:
        with os.fdopen(write_fd, "wb") as w:
            w.write(data)  # fits in the pipe's buffer, so the write does not wait for a reader
        assert io.load_grid(f"/dev/fd/{read_fd}", cell) == io.load_grid(path, cell)
    finally:
        os.close(read_fd)




def test_load_grid_reads_a_file_whose_size_reads_zero(tmp_path, monkeypatch):
    """A /proc file, or one truncated while it is read, has a size below the position after the
    header; the rest is read to its end."""
    path = tmp_path / "g.grid"
    path.write_text("# ψ_i\nGRID 2 1 1 real\n1 2\n", encoding="utf-8")
    cell = CrystalCell(np.eye(3))
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(fstat(fd)[:6] + (0,) + fstat(fd)[7:10]))
    assert io.load_grid(path, cell) == GridFunction((2, 1, 1), [1.0, 2.0], cell)

# --- text fields of the records --------------------------------------------------------

# any text, with the characters the writers and parsers treat specially drawn often
TEXT = st.text(st.one_of(st.sampled_from(list(",#= \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028")), st.characters()),
               max_size=6)


def _refused_or_round_trips(build, write, parse):
    """build() raises ValidationError, or its record comes back equal from parse(write(record))."""
    try:
        record = build()
    except ValidationError:
        return
    assert parse(write(record)) == record


@settings(max_examples=300, derandomize=True, deadline=None)
@given(defect=TEXT)
def test_optics_defect_label_is_refused_or_round_trips(defect):
    _refused_or_round_trips(lambda: [OpticsRecord(defect, -1, "down", 571.0, 1.5e-6, 2.0)],
                            io.write_optics_records, io.parse_optics_records)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(location=TEXT)
def test_spectrum_location_is_refused_or_round_trips(location):
    wl = np.linspace(1440.0, 1460.0, 16)
    _refused_or_round_trips(lambda: Spectrum(wavelength_nm=wl, counts=np.ones(16), location=location),
                            io.write_spectrum, io.parse_spectrum)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(first=TEXT, second=TEXT)
def test_site_species_is_refused_or_round_trips(first, second):
    _refused_or_round_trips(lambda: CrystalCell(np.eye(3), (Site(first, (0, 0, 0)), Site(second, (0.5, 0, 0)))),
                            io.write_structure, io.parse_structure)


# --- number fields of the records ------------------------------------------------------

# any float, the non-finite ones and signed zeros drawn often
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]), st.floats())
# ... or no value
NUMBERS = st.one_of(st.none(), FLOATS)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(charge=st.integers(-9, 9), zpl=NUMBERS, tdm=NUMBERS, shift=NUMBERS)
def test_optics_numbers_are_refused_or_round_trip(charge, zpl, tdm, shift):
    _refused_or_round_trips(lambda: [OpticsRecord("Ci", charge, "down", zpl, tdm, shift)],
                            io.write_optics_records, io.parse_optics_records)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(temperature=NUMBERS, power=NUMBERS, x=NUMBERS, y=NUMBERS,
       grating=st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
                         st.floats(min_value=0.0, exclude_min=True)))
def test_spectrum_metadata_numbers_are_refused_or_round_trip(temperature, power, x, y, grating):
    wl = np.linspace(1440.0, 1460.0, 16)
    _refused_or_round_trips(lambda: Spectrum(wl, np.ones(16), temperature_k=temperature, power_mw=power,
                                             grating_gpmm=grating, x_um=x, y_um=y),
                            io.write_spectrum, io.parse_spectrum)


@pytest.mark.parametrize("grating", [0.0, -5.0])
def test_spectrum_non_positive_grating_is_refused_or_round_trips(grating):
    wl = np.linspace(1440.0, 1460.0, 16)
    _refused_or_round_trips(lambda: Spectrum(wl, np.ones(16), grating_gpmm=grating),
                            io.write_spectrum, io.parse_spectrum)


@pytest.mark.parametrize("grating", ["1e-320", "1e-308", "5e-324"])
def test_spectrum_grating_with_no_finite_resolution_floor_is_refused_at_its_line(grating):
    text = f"# temperature_K=6\n# grating_gpmm={grating}\nwavelength_nm,counts\n" + "".join(
        f"{1440 + i},{i}\n" for i in range(16))
    with pytest.raises(ParseError) as err:
        io.parse_spectrum(text, "s.csv")
    assert str(err.value) == f"s.csv:2: grating groove density {float(grating)} gives no finite resolution floor"


# --- every record with a writer and a parser --------------------------------------------

BOX = CrystalCell(np.eye(3) * 4.0)


@st.composite
def _series(draw, cls, min_size, **fields):
    """A thunk building cls(axis, counts, **fields): a strictly increasing axis and counts >= 0, as a
    valid file holds them, with up to two samples of either column replaced by any float."""
    n = draw(st.integers(min_size, min_size + 4))
    columns = (sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n, unique=True))),
               draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n)))
    if n:
        for column, row, value in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n - 1), FLOATS),
                                                max_size=2)):
            columns[column][row] = value
    return partial(cls, *map(np.array, columns), **{k: draw(v) for k, v in fields.items()})


@st.composite
def _cell(draw):
    """A thunk building a CrystalCell: a lattice near a box, sites of any species in any order."""
    lattice = np.diag(draw(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=3)))
    for row, col, value in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), FLOATS), max_size=3)):
        lattice[row, col] = value
    fracs = draw(st.lists(st.tuples(st.sampled_from(["Si", "C", "H"]), st.tuples(FLOATS, FLOATS, FLOATS)),
                          max_size=6))
    return lambda: CrystalCell(lattice, tuple(Site(sp, frac) for sp, frac in fracs))


@st.composite
def _grid(draw):
    """A thunk building a GridFunction on BOX: real or complex values, up to two parts replaced by any float."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    n = dims[0] * dims[1] * dims[2]
    parts = st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n)
    values = np.array(draw(parts), dtype=complex)
    values.imag = draw(st.one_of(st.just([0.0] * n), parts))
    for row, part, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(["real", "imag"]),
                                                    FLOATS), max_size=2)):
        getattr(values, part)[row] = value
    return partial(GridFunction, dims, values, BOX)


@st.composite
def _optics_row(draw):
    """A thunk building a one-row optics table."""
    fields = draw(st.tuples(st.sampled_from(["Ci", "G"]), st.integers(), st.sampled_from(["up", "down", "none"]),
                            NUMBERS, NUMBERS, NUMBERS))
    return lambda: [OpticsRecord(*fields)]


# record -> (thunks that build it, its writer, its parser)
ROUND_TRIPS = {
    "CrystalCell": (_cell(), io.write_structure, io.parse_structure),
    "GridFunction": (_grid(), io.write_grid, lambda text: io.parse_grid(text, BOX)),
    "Spectrum": (_series(Spectrum, 16, temperature_k=NUMBERS, power_mw=NUMBERS, grating_gpmm=NUMBERS,
                         x_um=NUMBERS, y_um=NUMBERS), io.write_spectrum, io.parse_spectrum),
    "DecayTrace": (_series(DecayTrace, 0), io.write_decay, io.parse_decay),
    "OpticsRecord": (_optics_row(), io.write_optics_records, io.parse_optics_records),
}


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_record_is_refused_or_round_trips(name, data):
    """Each record that has a file refuses what that file cannot hold: its constructor refuses
    the draw, or the record reads back equal."""
    builds, write, parse = ROUND_TRIPS[name]
    _refused_or_round_trips(data.draw(builds), write, parse)


@pytest.mark.parametrize("build, message", [
    (lambda: OpticsRecord("X", 0, "none", math.inf, None, None), "non-finite value in zpl_mev: 'inf'"),
    (lambda: OpticsRecord("X", 0, "none", 569.0, math.inf, None), "non-finite value in tdm_debye2: 'inf'"),
    (lambda: OpticsRecord("X", 0, "none", 569.0, None, math.nan), "non-finite value in shift_mev: 'nan'"),
    (lambda: Spectrum(np.arange(16.0) + 1, np.ones(16), temperature_k=math.nan),
     "non-finite value in temperature_k: 'nan'"),
    (lambda: Spectrum(np.arange(16.0) + 1, np.ones(16), y_um=-math.inf), "non-finite value in y_um: '-inf'"),
], ids=["zpl-inf", "tdm-inf", "shift-nan", "temperature-nan", "y-minus-inf"])
def test_number_fields_their_files_cannot_hold_are_refused(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: OpticsRecord("a,b", 0, "none", 569.0, None, None), "defect label must hold no ','"),
    (lambda: OpticsRecord("x\ny", 0, "none", 569.0, None, None), "defect label must hold no ','"),
    (lambda: OpticsRecord(" padded ", 0, "none", 569.0, None, None), "defect label must hold no ','"),
    (lambda: Spectrum(np.arange(16.0) + 1, np.ones(16), location="a\nb"), "location must hold no line break"),
    (lambda: Spectrum(np.arange(16.0) + 1, np.ones(16), location=" pad "), "location must hold no line break"),
    (lambda: Site("Si C", (0, 0, 0)), "species must be non-empty"),
    (lambda: Site("", (0, 0, 0)), "species must be non-empty"),
    (lambda: Site("#C", (0, 0, 0)), "species must be non-empty"),
], ids=["defect-comma", "defect-line-break", "defect-padded", "location-line-break", "location-padded",
        "species-space", "species-empty", "species-hash"])
def test_text_fields_their_files_cannot_hold_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_structure_species_token_starting_with_hash_is_refused_at_its_line():
    text = "c\n1 0 0\n0 1 0\n0 0 1\nSi #C\n1 1\n0 0 0\n0.5 0.5 0.5\n"
    with pytest.raises(ParseError, match="^s.cell:5: species must be non-empty"):
        io.parse_structure(text, "s.cell")

# --- measurement CSVs ---------------------------------------------------------------


def test_spectrum_round_trip_with_metadata():
    wl = np.linspace(1440.0, 1460.0, 64)
    spec = Spectrum(wavelength_nm=wl, counts=np.abs(np.sin(wl)) * 100,
                    temperature_k=6.0, power_mw=0.5, grating_gpmm=1200.0,
                    x_um=1.5, y_um=-2.25, location="spot-3")
    assert io.parse_spectrum(io.write_spectrum(spec)) == spec


def test_spectrum_round_trip_bare():
    wl = np.linspace(1440.0, 1460.0, 32)
    spec = Spectrum(wavelength_nm=wl, counts=np.ones(32))
    assert io.parse_spectrum(io.write_spectrum(spec)) == spec


def test_spectrum_unknown_metadata_warns():
    wl = "\n".join(f"{1400 + i},{i}" for i in range(20))
    text = "# shutter=open\nwavelength_nm,counts\n" + wl + "\n"
    with pytest.warns(UserWarning, match="shutter"):
        io.parse_spectrum(text)


def test_spectrum_header_required():
    with pytest.raises(ParseError, match="header"):
        io.parse_spectrum("wavelength,counts\n1,2\n")


def test_decay_round_trip():
    trace = DecayTrace(time_ns=np.linspace(0, 50, 40), counts=np.linspace(100, 1, 40))
    assert io.parse_decay(io.write_decay(trace)) == trace


def _series_text(header, rows, comment_every):
    """CSV text with a comment and a blank line before the header, and a comment every few rows."""
    lines = ["# a comment", "", header]
    for k, (a, b) in enumerate(rows):
        if k and k % comment_every == 0:
            lines.append("# mid-file comment")
        lines.append(f"{a},{b}")
    return "\n".join(lines) + "\n"


def _steps(n, start=1400):
    return [(start + i, 1) for i in range(n)]


@pytest.mark.parametrize("rows, bad, match", [
    (_steps(11) + [(1409.5, 1)] + _steps(8, 1412), "1409.5,1", "wavelength axis must be strictly"),
    (_steps(10) + [(1409, 2)] + _steps(9, 1411), "1409,2", "wavelength axis must be strictly"),
    ([(1400 + i, -2 if i in (5, 9) else 1) for i in range(20)], "1405,-2", "counts must be >= 0"),
    (_steps(5), "1404,1", "spectrum needs >= 16 samples, got 5"),
    # too few samples is found before an axis that falls, at the last row
    ([(1404 - i, 1) for i in range(5)], "1400,1", "spectrum needs >= 16 samples, got 5"),
])
@pytest.mark.parametrize("comment_every", [4, 100])
def test_spectrum_constructor_error_names_its_row(rows, bad, match, comment_every):
    text = _series_text("wavelength_nm,counts", rows, comment_every)
    with pytest.raises(ParseError, match=match) as err:
        io.parse_spectrum(text, "s.csv")
    assert str(err.value).startswith(f"s.csv:{text.splitlines().index(bad) + 1}: ")


@pytest.mark.parametrize("rows, bad", [
    ([(1, 5), (3, 4), (2, 3)], "2,3"),
    ([(0, 9), (1, 8), (2, 7), (2, 6), (1, 5)], "2,6"),
    ([(0.5, 1), (0.25, 1)], "0.25,1"),
])
@pytest.mark.parametrize("comment_every", [2, 100])
def test_decay_constructor_error_names_its_row(rows, bad, comment_every):
    text = _series_text("time_ns,counts", rows, comment_every)
    with pytest.raises(ParseError, match="time axis must be strictly increasing") as err:
        io.parse_decay(text, "d.csv")
    assert str(err.value).startswith(f"d.csv:{text.splitlines().index(bad) + 1}: ")


def test_xy_round_trip():
    x = np.array([0.05, 0.1, 0.4, 1.3])
    y = np.array([10.0, 19.0, 55.0, 80.0])
    text = io.write_xy(x, y, "power_mW,intensity")
    bx, by = io.parse_xy(text, "power_mW,intensity")
    assert np.array_equal(bx, x) and np.array_equal(by, y)
    with pytest.raises(ParseError):
        io.parse_xy(text, "fluence_mJcm2,intensity")


def test_raster_csv_and_pgm():
    points = [(0.0, 0.0, 5.0), (1.0, 0.0, 7.5), (0.0, 1.0, 0.0)]
    rmap = raster_map(points)
    csv_text = io.write_raster_csv(rmap)
    assert "nan" in csv_text  # the missing (1,1) point
    pgm = io.write_raster_pgm(rmap)
    lines = pgm.splitlines()
    assert lines[0] == "P2" and lines[1] == "2 2"
    assert lines[2] == "65535"


# --- optics tables -------------------------------------------------------------------


def test_optics_records_round_trip():
    text = (
        "label,charge,spin,zpl_meV,tdm_debye2,shift_meV\n"
        "Ci,-1,down,571,1.69e-06,2\n"
        "Ci,0,none,569,3.37e-06,\n"
        "Broken,0,up,,0.1,463\n"
    )
    records = io.parse_optics_records(text)
    assert records[1].shift_mev is None
    assert records[2].zpl_mev is None
    assert io.parse_optics_records(io.write_optics_records(records)) == records


def test_optics_header_error_quotes_the_line():
    with pytest.raises(ParseError) as err:
        io.parse_optics_records("# table\nname,charge\nCi,0\n", source="t.csv")
    assert str(err.value) == ("t.csv:2: expected header 'label,charge,spin,zpl_meV,tdm_debye2,shift_meV', "
                              "got 'name,charge'")


@pytest.mark.parametrize("parse, text, message", [
    (io.parse_structure, "c\n1 0 0\n0 1 0\n0 0 1\nX Y\n1 2.0\n0 0 0\n",
     "f:6: species count must be an integer, got '2.0'"),
    (lambda text, source: io.parse_grid(text, CrystalCell(np.eye(3)), source),
     "GRID 2 x 1 real\n1 2\n", "f:1: grid dim must be an integer, got 'x'"),
    (io.parse_optics_records, "label,charge,spin,zpl_meV,tdm_debye2,shift_meV\nCi,x,down,571,1,2\n",
     "f:2: charge must be an integer, got 'x'"),
])
def test_integer_token_error_names_the_token(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, source="f")
    assert str(err.value) == message


def test_parse_error_raised_inside_a_constructor_block_keeps_one_prefix():
    text = "label,charge,spin,zpl_meV,tdm_debye2,shift_meV\nCi,-1,down,nan,1,2\n"
    with pytest.raises(ParseError) as err:
        io.parse_optics_records(text, source="t.csv")
    assert str(err.value) == "t.csv:2: non-finite value in zpl_meV: 'nan'"
    with pytest.raises(ParseError) as err:
        io.parse_optics_records(text.replace("nan", "-3"), source="t.csv")
    assert str(err.value) == "t.csv:2: ZPL must be > 0 meV, got -3.0"


@pytest.mark.parametrize("data, line, byte", [
    (b"\xff", 1, "ff"),
    (b"wavelength_nm,counts\n1,\xe9\n", 2, "e9"),
    (b"a\r\nb\rc\nd \xff\n", 4, "ff"),
    (b"\xc3\xa9\n\n\xe9t\xc3\xa9\n", 3, "e9"),
])
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line, byte):
    path = tmp_path / "x.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        io.load_spectrum(path)
    assert str(err.value) == f"{path}:{line}: not UTF-8 text: byte 0x{byte}"


# --- diagram CSV -----------------------------------------------------------------------


def test_diagram_csv_round_trip():
    host = HostReference(e_bulk=0.0, e_vbm=0.0, e_gap=1.17,
                         chemical_potentials=(("C", 0.0),))
    from defect_forge import DefectRun
    runs = [DefectRun(label="Ci", charge=q, total_energy=c, composition_delta=(("C", 1),))
            for q, c in ((0, 1.0), (-1, 1.45), (-2, 2.2))]
    diag = build_diagram(runs, host)
    grid = np.linspace(0.0, diag.gap, 101)
    text = io.write_diagram_csv(diag, grid)
    charges, fermi, energies, envelope, stable = read_diagram_csv(text)
    assert charges == [-2, -1, 0]
    assert np.array_equal(fermi, grid)
    np.testing.assert_array_equal(envelope, diag.envelope_at(grid))
    assert set(stable) == {0, -1, -2}
    # envelope column is the pointwise minimum of the line columns
    np.testing.assert_array_equal(envelope, energies.min(axis=1))


def write_diagram_per_row(diag, fermi):
    """The diagram CSV by the per-value reference writer, stable_charge per row."""
    charges = [q for q, _ in diag.lines]
    return diagram_csv_reference(charges, fermi, [diag.energy_of(q, fermi) for q in charges],
                                 diag.envelope_at(fermi), [diag.stable_charge(f) for f in fermi])


@pytest.mark.parametrize("lines", [
    # q=0 and q=-1 cross exactly on the grid point 0.5
    ((-1, 1.5), (0, 1.0), (1, 0.4)),
    # q=+1 lies 1e-13 below q=0 at 0.2: a tie within 1e-12, which goes to q=0
    ((0, 0.2 + 1e-13), (1, 0.0)),
    # three lines through one point, and a tie between q=+1 and q=-1 by |q|, then q
    ((-1, 1.0), (0, 0.5), (1, 0.0)),
    ((-2, 2.0), (2, -2.0), (-3, 3.0)),
])
def test_write_diagram_csv_stable_column(lines):
    fermi = np.linspace(0.0, 1.0, 101)
    assert 0.5 in fermi and 0.2 in fermi
    diag = FormationDiagram(gap=1.0, lines=lines)
    text = io.write_diagram_csv(diag, fermi)
    assert text == write_diagram_per_row(diag, fermi)
    stable = read_diagram_csv(text)[4]
    assert stable.tolist() == [diag.stable_charge(f) for f in fermi]


# --- defect run / site-potential records -------------------------------------------------


def test_defect_run_record_parses():
    text = "e_total = -310.5\ndelta.C = 1\ndelta.H = 1\nposition = 0.5 0.5 0.5\n"
    run = parse_defect_run(text, "CiH", -1, source="run.txt")
    assert run.total_energy == -310.5
    assert run.delta == {"C": 1, "H": 1}
    assert run.position == (0.5, 0.5, 0.5)


def test_defect_run_requires_fields():
    with pytest.raises(ParseError, match="e_total"):
        parse_defect_run("delta.C = 1\n", "X", 0)
    with pytest.raises(ParseError, match="delta"):
        parse_defect_run("e_total = 1.0\n", "X", 0)
    with pytest.raises(ParseError, match="contradicts"):
        parse_defect_run("e_total = 1\ndelta.C = 1\ncharge = 2\n", "X", 0)


def test_site_potentials_parse():
    rows = parse_site_potentials("0 0.01\n5 -0.02\n")
    np.testing.assert_array_equal(rows, [[0, 0.01], [5, -0.02]])
    assert rows.dtype == float and not rows.flags.writeable
    with pytest.raises(ParseError):
        parse_site_potentials("0\n")


# --- manifests --------------------------------------------------------------------------------


def write_demo_manifest(tmp_path, *, drop_gap=False, dangling=False):
    """Demo manifest, beside the PL, dose and raster files of the demo."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cell = CrystalCell(np.eye(3) * 10.0,
                       tuple(Site("Si", (i / 4, j / 4, k / 4))
                             for i in range(4) for j in range(4) for k in range(4)))
    io.save_structure(cell, tmp_path / "host.cell")

    (tmp_path / "ci_m1.run").write_text("e_total = 0.45\ndelta.C = 1\nposition = 0 0 0\n")
    (tmp_path / "ci_0.run").write_text("e_total = 1.0\ndelta.C = 1\n")
    pots = "\n".join(f"{i} 0.001" for i in range(64))
    (tmp_path / "ci_m1.pot").write_text(pots + "\n")

    wl = np.linspace(1440, 1460, 32)
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=np.ones(32), temperature_k=6.0),
                     tmp_path / "pl.csv")
    (tmp_path / "dose.csv").write_text(io.write_xy([10.0, 16.0, 30.0], [100.0, 900.0, 50.0],
                                                   "fluence_mJcm2,intensity"))
    (tmp_path / "raster.csv").write_text(
        "x_um,y_um,counts\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")

    lines = [
        "project = demo",
        "",
        "[host]",
        "cell = host.cell",
        "e_bulk = 0.0",
        "e_vbm = 0.0",
        "" if drop_gap else "e_gap = 1.17",
        "dielectric = 11.7",
        "mu.C = 0.0",
        "",
        "[defect Ci -1]",
        "energy = ci_m1.run",
        "site_potentials = ci_m1.pot",
        "",
        "[defect Ci 0]",
        "energy = missing.run" if dangling else "energy = ci_0.run",
    ]
    path = tmp_path / "run.manifest"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_manifest_full_parse(tmp_path):
    manifest = load_manifest(write_demo_manifest(tmp_path))
    assert manifest.project == "demo"
    assert len(manifest.defects) == 2
    np.testing.assert_allclose(manifest.cell.dielectric, 11.7 * np.eye(3))
    entry = next(e for e in manifest.defects if e.run.charge == -1)
    assert entry.site_potentials.shape == (64, 2)
    assert entry.run.position == (0.0, 0.0, 0.0)
    assert sorted(e.run.charge for e in manifest.defects if e.run.label == "Ci") == [-1, 0]



def test_manifest_dielectric_of_three_numbers_is_the_diagonal_tensor(tmp_path):
    path = write_demo_manifest(tmp_path)
    path.write_text(path.read_text().replace("dielectric = 11.7", "dielectric = 10.9 11.7 12.6"))
    np.testing.assert_array_equal(load_manifest(path).cell.dielectric, np.diag([10.9, 11.7, 12.6]))

@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, old, new, what", [
    ("ci_m1.run", "e_total = 0.45", "e_total = {}", "e_total"),
    ("ci_m1.run", "position = 0 0 0", "position = 0 {} 0", "position"),
    ("ci_m1.pot", "\n5 0.001", "\n5 {}", "site potential"),
    ("run.manifest", "mu.C = 0.0", "mu.C = {}", "chemical potential mu.C"),
    ("run.manifest", "e_bulk = 0.0", "e_bulk = {}", "host.e_bulk"),
    ("run.manifest", "e_gap = 1.17", "e_gap = {}", "host.e_gap"),
    ("run.manifest", "dielectric = 11.7", "dielectric = {}", "dielectric"),
    ("host.cell", "\n0 10 0\n", "\n0 {} 0\n", "lattice row 2"),
])
def test_manifest_non_finite_number_names_its_line(tmp_path, name, old, new, what, bad):
    """Each record the manifest parses names the line."""
    manifest = write_demo_manifest(tmp_path)
    path = tmp_path / name
    text = path.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new.format(bad))
    path.write_text(text)
    line = text[:text.index(new.format(bad).strip())].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_manifest(manifest)
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert f"non-finite value in {what}: '{bad}'" in str(err.value)


def test_optics_and_spectrum_fields_reject_non_finite():
    header = "label,charge,spin,zpl_meV,tdm_debye2,shift_meV\n"
    for row, what in (("Ci,-1,down,nan,1.69e-06,2", "zpl_meV"), ("Ci,-1,down,571,inf,2", "tdm_debye2"),
                      ("Ci,-1,down,571,1.69e-06,-inf", "shift_meV")):
        with pytest.raises(ParseError, match=f"t.csv:2: non-finite value in {what}"):
            io.parse_optics_records(header + row + "\n", source="t.csv")
    text = "# run 4\n# temperature_K=nan\nwavelength_nm,counts\n" + "".join(f"{i},1\n" for i in range(16))
    with pytest.raises(ParseError, match="s.csv:2: non-finite value in metadata 'temperature_K'"):
        io.parse_spectrum(text, source="s.csv")


def test_manifest_missing_gap(tmp_path):
    path = write_demo_manifest(tmp_path, drop_gap=True)
    with pytest.raises(ParseError, match="host.e_gap required"):
        load_manifest(path)


def test_manifest_dangling_path(tmp_path):
    path = write_demo_manifest(tmp_path, dangling=True)
    with pytest.raises(ParseError, match="missing.run"):
        load_manifest(path)


@pytest.mark.parametrize("name", ["ci_\0.run", "cᵢ_0.run"])
def test_manifest_path_the_os_cannot_represent_is_a_missing_file(tmp_path, name):
    """A NUL byte, or (under an ASCII file-system encoding) a non-ASCII name, names no file."""
    path = write_demo_manifest(tmp_path)
    text = path.read_text().replace("energy = ci_0.run", f"energy = {name}")
    path.write_text(text, encoding="utf-8")
    line = text[:text.index(name)].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_manifest(path)
    assert str(err.value).startswith(f"{path}:{line}: referenced file does not exist: ")


def test_manifest_unreadable_file(tmp_path):
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path / "absent.manifest")
    assert str(err.value).startswith(f"{tmp_path / 'absent.manifest'}: cannot read file: ")


def test_manifest_unknown_keys_warn(tmp_path):
    path = write_demo_manifest(tmp_path)
    text = path.read_text().replace("[host]", "[host]\ncolor = blue")
    path.write_text(text)
    with pytest.warns(UserWarning, match="color"):
        load_manifest(path)


def test_manifest_warns_at_each_retired_entry_and_reads_none_of_its_files(tmp_path):
    """eigenvalues and wavefunction.* keys and [spectrum <kind>] sections name files the manifest does
    not read: each warns once at its line, in file order, though its file is missing; [xrd] is refused."""
    path = write_demo_manifest(tmp_path)
    retired = "eigenvalues = absent.eig\nwavefunction.i = absent_i.grid\nwavefunction.f = absent_f.grid\n"
    text = path.read_text().replace("site_potentials = ci_m1.pot\n", "site_potentials = ci_m1.pot\n" + retired)
    text += "[spectrum pl]\nfile = absent.csv\nseries = anneal-2\n[spectrum xrd]\nfile = absent.xy\n"
    path.write_text(text)
    lines = text.splitlines()

    def at(line):
        return f"{path}:{lines.index(line) + 1}: "

    with pytest.warns(UserWarning) as record:
        manifest = load_manifest(path)
    assert [str(w.message) for w in record] == [
        at("eigenvalues = absent.eig") + "ignoring unknown defect key 'eigenvalues'",
        at("wavefunction.i = absent_i.grid") + "ignoring unknown defect key 'wavefunction.i'",
        at("wavefunction.f = absent_f.grid") + "ignoring unknown defect key 'wavefunction.f'",
        at("[spectrum pl]") + "ignoring [spectrum pl] section",
        at("[spectrum xrd]") + "ignoring [spectrum xrd] section",
    ]
    assert [e.run.charge for e in manifest.defects] == [-1, 0]
    path.write_text(text + "[xrd]\nfile = absent.xy\n")
    with pytest.warns(UserWarning), pytest.raises(ParseError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}:{len(lines) + 1}: unknown section '[xrd]'"


@pytest.mark.parametrize("name, after, entry, what", [
    ("run.manifest", "project = demo", "color = blue", "top-level "),
    ("run.manifest", "[host]", "color = blue", "host "),
    ("run.manifest", "[defect Ci 0]", "color = blue", "defect "),
    ("ci_0.run", "e_total = 1.0", "color = blue", ""),
    ("pl.csv", "# temperature_K=6", "# color=blue", "metadata "),
])
def test_unknown_key_warns_at_its_line(tmp_path, name, after, entry, what):
    manifest = write_demo_manifest(tmp_path)
    path = tmp_path / name
    text = path.read_text()
    assert text.count(after + "\n") == 1
    text = text.replace(after + "\n", f"{after}\n{entry}\n")
    path.write_text(text)
    line = text[:text.index(entry)].count("\n") + 1
    with pytest.warns(UserWarning) as record:
        io.load_spectrum(path) if name == "pl.csv" else load_manifest(manifest)
    source = path.resolve() if name.endswith(".run") else path
    assert [str(w.message) for w in record] == [f"{source}:{line}: ignoring unknown {what}key 'color'"]


@pytest.mark.parametrize("old, new, message", [
    ("mu.C = 0.0", "mu.C = x\nmu.C = 0.0", "non-numeric value in chemical potential mu.C: 'x'"),
    ("energy = ci_0.run", "energy = missing.run\nenergy = ci_0.run", "referenced file does not exist: "),
    ("cell = host.cell", "cell = missing.cell\ncell = host.cell", "referenced file does not exist: "),
])
def test_manifest_checks_every_occurrence_of_a_repeated_key(tmp_path, old, new, message):
    path = write_demo_manifest(tmp_path)
    text = path.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    path.write_text(text)
    line = text[:text.index(new)].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_manifest(path)
    assert str(err.value).startswith(f"{path}:{line}: {message}")


def test_manifest_repeated_key_keeps_its_last_value(tmp_path):
    path = write_demo_manifest(tmp_path)
    text = path.read_text().replace("mu.C = 0.0", "mu.C = 7.5\nmu.C = 0.0")
    path.write_text(text.replace("energy = ci_0.run", "energy = ci_m1.run\nenergy = ci_0.run"))
    manifest = load_manifest(path)
    assert manifest.host.mu == {"C": 0.0}
    assert next(e for e in manifest.defects if e.run.charge == 0).run.total_energy == 1.0


def test_manifest_mu_key_needs_a_species(tmp_path):
    path = write_demo_manifest(tmp_path)
    text = path.read_text().replace("mu.C = 0.0", "mu.C = 0.0\nmu. = 2.0")
    path.write_text(text)
    line = text[:text.index("mu. = 2.0")].count("\n") + 1
    with pytest.raises(ParseError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}:{line}: mu key needs a species, e.g. 'mu.C'"


def test_manifest_duplicate_entries_rejected(tmp_path):
    path = write_demo_manifest(tmp_path)
    text = path.read_text() + "\n[defect Ci -1]\nenergy = ci_m1.run\n"
    path.write_text(text)
    with pytest.raises(ParseError, match="duplicate defect"):
        load_manifest(path)


CSV_PARSERS = {
    "wavelength_nm,counts": io.parse_spectrum,
    "time_ns,counts": io.parse_decay,
    "power_mW,intensity": lambda text, source: io.parse_xy(text, "power_mW,intensity", source),
    "x_um,y_um,counts": io.parse_raster_points,
}


def test_decay_file_without_rows_is_refused_by_its_parser():
    """The parser refuses an empty trace before DecayTrace would, so its message names the file line."""
    with pytest.raises(ParseError) as err:
        io.parse_decay("time_ns,counts\n", source="f.csv")
    assert str(err.value) == "f.csv:1: decay trace has no data rows"


@pytest.mark.parametrize("header", list(CSV_PARSERS))
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_non_finite_field_rejected(header, bad):
    ncols = header.count(",") + 1
    good = ",".join(["1"] * ncols)
    text = "\n".join([header, good, ",".join(["2"] * (ncols - 1) + [bad]), good]) + "\n"
    with pytest.raises(ParseError, match=r"f\.csv:3: non-finite value in row"):
        CSV_PARSERS[header](text, source="f.csv")
