"""Text formats: structure cells, grid functions, measurement CSVs, exports.

Every format is plain text with '#' comments and is specified bit-exactly in
docs/formats.md.  Writers format floats with %.17g so that every file
round-trips to the identical in-memory value, and contain no timestamps, so
byte-identical inputs produce byte-identical outputs.  Parse errors always
carry the source path and line number.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain, groupby
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .errors import ParseError, ValidationError
from .lattice import CrystalCell, Site
from .optics import GridFunction, OpticsRecord, TableCheck
from .spectro import DecayTrace, RasterMap, Spectrum, grating_resolution_nm

__all__ = [
    "parse_structure", "load_structure", "write_structure", "save_structure",
    "parse_grid", "load_grid", "write_grid", "save_grid",
    "parse_spectrum", "load_spectrum", "write_spectrum", "save_spectrum",
    "parse_decay", "load_decay", "write_decay", "save_decay",
    "parse_xy", "load_xy", "write_xy",
    "parse_raster_points", "load_raster_points",
    "write_raster_csv", "write_raster_pgm",
    "parse_optics_records", "load_optics_records", "write_optics_records",
    "write_table_check",
    "write_diagram_csv",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def charge_str(q: int) -> str:
    return f"{q:+d}" if q else "0"


def _content(text: str):
    """(line number, stripped line) of every line that is neither blank nor a '#' comment."""
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            yield no, ln


def _keys(entries, source: str, what: str, known, prefix: str = ""):
    """The (line, key, value) entries whose key is in `known` or has `prefix`, in file order;
    any other key is warned about at its line and skipped."""
    for no, key, value in entries:
        if key in known or (prefix and key.startswith(prefix)):
            yield no, key, value
        else:
            warnings.warn(f"{source}:{no}: ignoring unknown {what}key '{key}'")


def _table(text: str, source: str, header: str):
    """The (line number, line) data rows of a CSV whose first content line must be `header`."""
    rows = _content(text)
    for no, ln in rows:
        if ln != header:
            raise ParseError(f"expected header '{header}', got '{ln}'", source, no)
        return rows
    raise ParseError(f"missing header line '{header}'", source, 1)


def _csv(head_lines: list[str], columns) -> str:
    """The head lines, then one row of %.17g fields per index of the equal-length columns."""
    row_fmt = ",".join(["%.17g"] * len(columns))
    out = head_lines + [row_fmt % tuple(row) for row in np.column_stack(columns).tolist()]
    return "\n".join(out) + "\n"


def _number(token: str, what: str, source: str, lineno: int) -> float:
    """float(token), or a ParseError at source:lineno when the token is not a finite number."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric value in {what}: '{token}'", source, lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value in {what}: '{token}'", source, lineno)
    return value


def _integer(token: str, what: str, source: str, lineno: int) -> int:
    """int(token), or a ParseError at source:lineno when the token is not an integer."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got '{token}'", source, lineno) from None


@contextmanager
def _at(source: str, line):
    """The one place where a ValidationError in the block becomes a ParseError at source:line;
    line is a line number or a function of the error's `row` that returns one.  A ParseError passes."""
    try:
        yield
    except ParseError:
        raise
    except ValidationError as exc:
        raise ParseError(str(exc), source, line(exc.row) if callable(line) else line) from None


def _floats(token_line: str, n: int, source: str, lineno: int, what: str) -> list[float]:
    parts = token_line.split()
    if len(parts) != n:
        raise ParseError(f"expected {n} values for {what}, got {len(parts)}", source, lineno)
    return [_number(p, what, source, lineno) for p in parts]


# --- structure files --------------------------------------------------------

def parse_structure(text: str, source: str = "<string>") -> CrystalCell:
    """Structure file: comment, 3 lattice rows (A), species, counts, frac coords.

    A file with only the comment and lattice rows is a site-less cell
    (a bare box, e.g. the companion of a grid file).
    """
    # the first non-blank line is free text; the comment rule holds after it
    comment_no = next((no for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()), None)
    content = [] if comment_no is None else [(comment_no, "")] + [
        (no, ln) for no, ln in _content(text) if no > comment_no]
    if len(content) < 4 or len(content) == 5:
        raise ParseError(
            "truncated structure file: need comment, 3 lattice rows, then "
            "optionally species, counts and coordinates",
            source, content[-1][0] if content else 1,
        )
    lattice = np.array([
        _floats(content[i][1], 3, source, content[i][0], f"lattice row {i}")
        for i in (1, 2, 3)
    ])
    if len(content) == 4:
        with _at(source, content[1][0]):
            return CrystalCell(lattice)
    species = content[4][1].split()
    counts_no, counts_ln = content[5]
    parts = counts_ln.split()
    if len(parts) != len(species):
        raise ParseError(
            f"counts line has {len(parts)} entries for {len(species)} species",
            source, counts_no,
        )
    counts = [_integer(p, "species count", source, counts_no) for p in parts]
    if any(c < 1 for c in counts):
        raise ParseError("species counts must be >= 1", source, counts_no)

    total = sum(counts)
    coord_lines = content[6:]
    if len(coord_lines) < total:
        missing_at = coord_lines[-1][0] if coord_lines else counts_no
        raise ParseError(
            f"truncated coordinates: expected {total} lines, found {len(coord_lines)}",
            source, missing_at,
        )
    if len(coord_lines) > total:
        raise ParseError(
            f"unexpected extra content after {total} coordinate lines",
            source, coord_lines[total][0],
        )
    site_species = (sp for sp, cnt in zip(species, counts) for _ in range(cnt))
    with _at(source, content[4][0]):  # a species the Site rule refuses, such as a later '#C'
        sites = [Site(sp, _floats(ln, 3, source, no, "fractional coordinate"))
                 for sp, (no, ln) in zip(site_species, coord_lines)]
    with _at(source, content[1][0]):
        return CrystalCell(lattice, tuple(sites))


def write_structure(cell: CrystalCell, comment: str = "structure") -> str:
    comment = " ".join((comment + "\n").splitlines())  # a space for each line break parsers see
    out = [comment if comment.strip() else "#"]  # a blank first line would not be read as the comment
    for row in cell.lattice:
        out.append(" ".join(_fmt(x) for x in row))
    if not cell.sites:
        return "\n".join(out) + "\n"
    runs = [(sp, len(list(sites))) for sp, sites in groupby(cell.sites, key=lambda s: s.species)]
    out.append(" ".join(sp for sp, _ in runs))  # one label per run of equal species, so site order holds
    out.append(" ".join(str(n) for _, n in runs))
    out += [" ".join(_fmt(x) for x in s.frac) for s in cell.sites]
    return "\n".join(out) + "\n"


# --- grid function files ----------------------------------------------------

def parse_grid(text: str, cell: CrystalCell, source: str = "<string>") -> GridFunction:
    """Grid file: header 'GRID n1 n2 n3 complex|real', then values (fastest index n3).

    The token-by-token reader; every error names its line.  load_grid converts
    most files piece by piece with numpy instead and gives every other file to it.
    """
    lines = _content(text)
    header_no, header = next(lines, (1, None))
    if header is None:
        raise ParseError("empty grid file", source, 1)
    dims, kind, need = _grid_header(header, source, header_no)
    last_no = header_no  # the last content line read, where a count mismatch is reported

    def numbers():
        nonlocal last_no
        for last_no, ln in lines:
            for t in ln.split():
                yield _number(t, "grid", source, last_no)

    arr = np.fromiter(numbers(), dtype=float)  # with no list of Python floats
    if len(arr) != need:
        raise ParseError(
            f"grid value count mismatch: header promises {need} numbers "
            f"({dims[0] * dims[1] * dims[2]} {kind} values), found {len(arr)}",
            source, last_no,
        )
    values = arr.astype(complex) if kind == "real" else _complex_values(arr.view(complex))
    with _at(source, header_no):
        return GridFunction(dims, values, cell)


def _stream_grid(head: bytes, chunks, room: int, cell: CrystalCell, source: str):
    """The grid of a file whose lines up to the header are `head` and whose value block, `room` bytes or
    more, comes in `chunks`, parsed by numpy piece by piece; None leaves the file to parse_grid."""
    try:  # parse_grid then reports a bad head, after any undecodable byte below it
        (no, header), = _content(_decode(head, source))
        dims, kind, need = _grid_header(header, source, no)
        if not 0 < need <= (room + 1) // 2:  # n numbers take 2n - 1 bytes at least
            return None
        values = np.zeros(dims, dtype=complex)
        flat = values.reshape(-1).view(float)
        dest, pos, tail = flat if kind == "complex" else flat[0::2], 0, b""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # older numpy's "could not be read to its end"
            for chunk in chain(chunks, [b""]):
                piece = tail + chunk
                # every piece but the last ends at whitespace, so that no number is cut in two
                tail = piece.rsplit(None, 1)[-1] if chunk and not piece[-1:].isspace() else b""
                piece = piece[:len(piece) - len(tail)]
                if len(tail) > _LONGEST_NUMBER:
                    return None
                if piece and not piece.isspace():  # numpy reads whitespace alone as [-1.0]
                    numbers = np.fromstring(piece, sep=" ")  # a ValueError at '#' or a non-ASCII byte
                    dest[pos:pos + len(numbers)] = numbers  # a ValueError past the header's count
                    pos += len(numbers)
    except (ValueError, DeprecationWarning):
        return None
    if pos != need or not np.isfinite(flat).all():  # numpy takes 'nan(1)', which float() rejects
        return None
    with _at(source, no):
        return GridFunction(dims, values if kind == "real" else _complex_values(values), cell)


def _grid_header(header: str, source: str, no: int) -> tuple[tuple[int, int, int], str, int]:
    parts = header.split()
    if len(parts) != 5 or parts[0] != "GRID":
        raise ParseError("grid header must be 'GRID n1 n2 n3 complex|real'", source, no)
    dims = tuple(_integer(p, "grid dim", source, no) for p in parts[1:4])
    kind = parts[4]
    if kind not in ("complex", "real"):
        raise ParseError(f"grid kind must be 'complex' or 'real', got '{kind}'", source, no)
    return dims, kind, dims[0] * dims[1] * dims[2] * (2 if kind == "complex" else 1)


def _complex_values(values: np.ndarray) -> np.ndarray:
    """values, read as interleaved (re, im) floats, given the bits of re + 1j * im in place."""
    # numpy forms 1j * im as (0*im - 0) + (im + 0)j and adds re + 0j to it; taking +0.0 changes no
    # bit and adding it changes only -0.0, so re + 1j * im is (re + 0*im) + (im + 0.0)j, signs of
    # zero included, where the floats as read keep -0.0 that the expression turns into +0.0
    values.real += values.imag * 0.0
    values.imag += 0.0
    return values


GRID_VALUES_PER_LINE = 3  # real values, or complex re/im pairs, on each line of a written grid


def write_grid(grid: GridFunction) -> str:
    vals = grid.values.reshape(-1)
    is_real = bool(np.all(vals.imag == 0))
    kind = "real" if is_real else "complex"
    out = [f"GRID {grid.dims[0]} {grid.dims[1]} {grid.dims[2]} {kind}"]
    flat = (vals.real if is_real else np.column_stack([vals.real, vals.imag]).reshape(-1)).tolist()
    step = GRID_VALUES_PER_LINE * (1 if is_real else 2)
    full = len(flat) - len(flat) % step
    line_fmt = " ".join(["%.17g"] * step)
    out += [line_fmt % tuple(flat[i:i + step]) for i in range(0, full, step)]
    if full < len(flat):
        out.append(" ".join(["%.17g"] * (len(flat) - full)) % tuple(flat[full:]))
    return "\n".join(out) + "\n"


# --- measurement CSVs ---------------------------------------------------------

def _parse_csv_body(text: str, source: str, header: str, what: str) -> np.ndarray:
    """Header + numeric rows of a measurement CSV as an (n, ncols) array.

    Every field must be finite: a nan or inf is rejected with its line number.
    A file with no data rows is rejected as "<what> has no data rows".
    """
    values: list[float] = []
    ncols = header.count(",") + 1
    for no, ln in _table(text, source, header):
        parts = ln.split(",")
        if len(parts) != ncols:
            raise ParseError(f"expected {ncols} comma-separated values", source, no)
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", source, no) from None
    arr = np.array(values, dtype=float).reshape(-1, ncols)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        row = ",".join(_fmt(v) for v in arr[bad])
        raise ParseError(f"non-finite value in row '{row}'", source, _data_line(text, bad))
    if not len(arr):
        raise ParseError(f"{what} has no data rows", source, 1)
    return arr


def _data_line(text: str, row: int) -> int:
    """Line number of data row `row` (0-based; -1 is the last) of a measurement CSV."""
    return [no for no, _ in _content(text)][1:][row]  # the header is the first content line


# '# key=value' spectrum metadata -> the Spectrum field it fills, in writing order
_SPECTRUM_META = {"temperature_K": "temperature_k", "power_mW": "power_mw", "grating_gpmm": "grating_gpmm",
                  "x_um": "x_um", "y_um": "y_um", "location": "location"}


def parse_spectrum(text: str, source: str = "<string>") -> Spectrum:
    """The Spectrum of a spectrum CSV; a sample the record refuses is blamed on its row's line."""
    arr = _parse_csv_body(text, source, "wavelength_nm,counts", "spectrum")
    entries = []  # (line number, key, value) of each '# key=value' comment
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln.startswith("#") and "=" in ln:
            key, _, value = ln[1:].partition("=")
            entries.append((no, key.strip(), value.strip()))
    meta = dict.fromkeys(_SPECTRUM_META.values())
    for no, key, value in _keys(entries, source, "metadata ", _SPECTRUM_META):
        if key != "location":
            value = _number(value, f"metadata '{key}'", source, no)
        meta[_SPECTRUM_META[key]] = value
        if key == "grating_gpmm":  # the groove-density rule of fit_peaks, refused at this line
            with _at(source, no):
                grating_resolution_nm(value)
    with _at(source, lambda row: _data_line(text, row)):
        return Spectrum(arr[:, 0], arr[:, 1], **meta)


def write_spectrum(spec: Spectrum) -> str:
    values = ((key, getattr(spec, field)) for key, field in _SPECTRUM_META.items())
    out = [f"# {key}={value if key == 'location' else _fmt(value)}"
           for key, value in values if value is not None]
    return _csv(out + ["wavelength_nm,counts"], [spec.wavelength_nm, spec.counts])


def parse_decay(text: str, source: str = "<string>") -> DecayTrace:
    """The DecayTrace of a decay CSV; a sample the record refuses is blamed on its row's line."""
    arr = _parse_csv_body(text, source, "time_ns,counts", "decay trace")
    with _at(source, lambda row: _data_line(text, row)):
        return DecayTrace(arr[:, 0], arr[:, 1])


def write_decay(trace: DecayTrace) -> str:
    return _csv(["time_ns,counts"], [trace.time_ns, trace.counts])


def parse_xy(text: str, header: str, source: str = "<string>") -> tuple[np.ndarray, np.ndarray]:
    """Two-column CSV (dose 'fluence_mJcm2,intensity', saturation 'power_mW,intensity')."""
    arr = _parse_csv_body(text, source, header, "file")
    return arr[:, 0], arr[:, 1]


def write_xy(x, y, header: str) -> str:
    return _csv([header], [x, y])


def parse_raster_points(text: str, source: str = "<string>") -> np.ndarray:
    """Raster scan CSV: the (n, 3) array of x_um, y_um, counts rows, in file order."""
    return _parse_csv_body(text, source, "x_um,y_um,counts", "raster file")


def write_raster_csv(rmap: RasterMap) -> str:
    """Dense grid export: first row/column are axes, NaN marks missing points."""
    cells = np.where(np.isfinite(rmap.values), rmap.values, np.nan)
    header = "y_um\\x_um," + ",".join(["%.17g"] * len(rmap.xs)) % tuple(rmap.xs.tolist())
    return _csv([header], [rmap.ys, *cells.T])


def write_raster_pgm(rmap: RasterMap) -> str:
    """ASCII PGM quick-look with maxval 65535; missing points render as 0."""
    vals = rmap.values.copy()
    finite = vals[np.isfinite(vals)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    if math.isinf(span):  # extremes more than the largest float apart: halve every term
        vals, lo, span = vals / 2, lo / 2, hi / 2 - lo / 2
    scaled = np.zeros_like(vals, dtype=int)
    mask = np.isfinite(vals)
    scaled[mask] = np.rint((vals[mask] - lo) / span * 65535).astype(int)
    ny, nx = vals.shape
    out = ["P2", f"{nx} {ny}", "65535", *(" ".join(map(str, row)) for row in scaled.tolist())]
    return "\n".join(out) + "\n"


# --- optics record tables -----------------------------------------------------

_OPTICS_HEADER = "label,charge,spin,zpl_meV,tdm_debye2,shift_meV"


def parse_optics_records(text: str, source: str = "<string>") -> list[OpticsRecord]:
    records = []
    for no, ln in _table(text, source, _OPTICS_HEADER):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 6:
            raise ParseError("expected 6 comma-separated fields", source, no)
        with _at(source, no):
            records.append(OpticsRecord(
                defect=parts[0],
                charge=_integer(parts[1], "charge", source, no),
                spin=parts[2],
                zpl_mev=_number(parts[3], "zpl_meV", source, no) if parts[3] else None,
                tdm_debye2=_number(parts[4], "tdm_debye2", source, no) if parts[4] else None,
                shift_mev=_number(parts[5], "shift_meV", source, no) if parts[5] else None,
            ))
    if not records:
        raise ParseError("table has no records", source, 1)
    return records


def write_optics_records(records) -> str:
    out = [_OPTICS_HEADER]
    for r in records:
        out.append(",".join([
            r.defect, str(r.charge), r.spin,
            _fmt(r.zpl_mev) if r.zpl_mev is not None else "",
            _fmt(r.tdm_debye2) if r.tdm_debye2 is not None else "",
            _fmt(r.shift_mev) if r.shift_mev is not None else "",
        ]))
    return "\n".join(out) + "\n"


def write_table_check(checks: list[TableCheck]) -> str:
    """Consistency-check export mirroring the record table plus verdict columns."""
    out = ["defect,zpl_meV,spin,tdm_debye2,shift_meV,consistency_flag,"
           "recomputed_shift_meV,discrepancy_meV,zpl_source"]
    for c in checks:
        r = c.record
        out.append(",".join([
            f"{r.defect} ({charge_str(r.charge)})",
            _fmt(c.zpl_mev),
            r.spin,
            _fmt(r.tdm_debye2) if r.tdm_debye2 is not None else "",
            _fmt(r.shift_mev) if r.shift_mev is not None else "",
            "INCONSISTENT" if c.flagged else "ok",
            _fmt(c.recomputed_shift_mev),
            _fmt(c.discrepancy_mev),
            "reconstructed" if c.reconstructed else "stated",
        ]))
    return "\n".join(out) + "\n"


# --- formation diagram export ---------------------------------------------------

def write_diagram_csv(diag, fermi) -> str:
    """A thermo.FormationDiagram as CSV: one row per Fermi level (eV above the VBM) in `fermi`."""
    charges = [q for q, _ in diag.lines]
    header = "fermi_eV," + ",".join(f"q={q:+d}" for q in charges) + ",envelope_eV,stable_q"
    # %.17g prints an integer-valued stable_q as its digits, as %d would
    return _csv([header], [fermi, *(diag.energy_of(q, fermi) for q in charges),
                           diag.envelope_at(fermi), diag.stable_charge(fermi)])


# --- path helpers -----------------------------------------------------------------

def _load(path, parser, *args):
    """parser(text, *args, source=path): the one reader of input files, UTF-8 whatever the locale."""
    source = str(Path(path))
    with _reading(source):
        data = Path(path).read_bytes()
    text = _decode(data, source)
    del data  # a large file's bytes need not outlive its text
    return parser(text, *args, source=source)


@contextmanager
def _reading(source: str):
    """An OSError in the block becomes the ParseError 'cannot read file' for source."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", source) from None


def _decode(data: bytes, source: str) -> str:
    """data as UTF-8 text, or a ParseError at the line of its first undecodable byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}", source, lineno) from None


def load_structure(path) -> CrystalCell:
    return _load(path, parse_structure)


def save_structure(cell: CrystalCell, path, comment: str = "structure") -> None:
    Path(path).write_text(write_structure(cell, comment), encoding="utf-8")


def load_grid(path, cell: CrystalCell) -> GridFunction:
    """The grid file at path, a pipe, which is read once, as well as a regular file.

    The value block is parsed piece by piece into the grid's values, with neither the file's
    text nor a second array of its numbers held.  A file _stream_grid leaves goes to parse_grid,
    which reports the offending line: a regular file read again from its start, a pipe from the
    pieces it keeps.  _load_grid_pair may run this on tdm's --psi-f in a forked worker."""
    source = str(Path(path))
    with _reading(source), open(path, "rb") as f:
        lines = []
        for line in f:
            lines.append(line)
            if line.strip() and not line.lstrip().startswith(b"#"):
                break
        head = b"".join(lines)
        stat = os.fstat(f.fileno())
        chunks = iter(partial(f.read, _PIECE_BYTES), b"")
        if not S_ISREG(stat.st_mode):  # a pipe is read to its end once, with no tell() or seek()
            chunks = list(chunks)
        # a /proc file, or one truncated meanwhile, has a size below the position: parse_grid reads it
        room = stat.st_size - f.tell() if S_ISREG(stat.st_mode) else sum(map(len, chunks))
        if (grid := _stream_grid(head, chunks, room, cell, source)) is not None:
            return grid
        if S_ISREG(stat.st_mode):
            f.seek(0)
        data = f.read() if S_ISREG(stat.st_mode) else head + b"".join(chunks)
        del head, chunks  # one copy of the file's bytes while it is decoded, and none while it is parsed
    text = _decode(data, source)
    del data
    return parse_grid(text, cell, source)


_PIECE_BYTES = _LONGEST_NUMBER = 1 << 16  # load_grid's read size, well below tdm's pinned mmap threshold

# Below this size a grid parses in less time than a forked worker costs to start and to send its values
# back.  Fresh-process `tdm` on a pair of complex grids, 2 vCPUs, Python 3.11, numpy 2.4, medians of 12
# alternating pairs: 24^3 grids (0.65 MB each) broke even (0.315 s serial, 0.313 s forked), and 32^3
# grids (1.5 MB) gained 7% (0.346 to 0.323 s, lower in 12 of 12).
_FORK_MIN_BYTES = 1 << 20


def _load_grid_pair(path_i, path_f, cell: CrystalCell) -> list[GridFunction]:
    """[load_grid(path_i, cell), load_grid(path_f, cell)], with path_f read by a forked worker
    process while this one reads path_i: the text parse holds the interpreter lock, so a second
    thread would gain nothing.

    The worker is forked only where that is safe and can gain: os.fork exists, this process runs
    one OS thread, and both paths are regular files of at least _FORK_MIN_BYTES.  Otherwise the
    two grids are read one after the other.  The worker sends back the grid's dims and values as
    raw bytes, or nothing, and the GridFunction is built here, under the record's own rules, so
    that this process holds three grids' worth of arrays at most: path_i's grid, and path_f's
    values with their copy.
    Whenever no complete grid arrives (no process could be forked, or the worker failed, warned
    or died), path_f is read here, so that it fails or warns as the serial read does.  A path_i
    error wins over a path_f error, and no worker outlives the call.
    """
    if not _fork_pays(path_i, path_f):
        return [load_grid(path_i, cell), load_grid(path_f, cell)]
    read_fd, write_fd = os.pipe()
    # a Ctrl-C waits until each process is inside the try that ends it
    interrupts = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except OSError:  # no process to spare: path_f is read here
        pid = None
    if pid == 0:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, interrupts)
            os.close(read_fd)
            _send_grid(write_fd, path_f, cell)
        finally:
            os._exit(0)
    values = None
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, interrupts)
        os.close(write_fd)
        psi_i = load_grid(path_i, cell)
        if pid:
            values = _receive_grid(read_fd)
    finally:
        os.close(read_fd)
        if pid:
            if values is None:  # a worker may still be reading a grid that will not be used
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if values is None:
        return [psi_i, load_grid(path_f, cell)]
    return [psi_i, GridFunction(values.shape, values, cell)]


def _fork_pays(*paths) -> bool:
    """Whether _load_grid_pair may fork: os.fork exists, /proc/self/task lists one thread (a fork
    copies only the calling thread, and Python 3.12 warns at it), and every path is a regular
    file of at least _FORK_MIN_BYTES, so that a pipe is read once, by this process."""
    if not hasattr(os, "fork"):
        return False
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return False
        stats = [os.stat(path) for path in paths]
    except OSError:
        return False
    return all(S_ISREG(st.st_mode) and st.st_size >= _FORK_MIN_BYTES for st in stats)


def _send_grid(fd: int, path, cell: CrystalCell) -> None:
    """The worker's reply on fd: the pickled grid dims, then the grid's complex values as raw
    bytes.  Nothing is sent when load_grid warns or raises; its error propagates."""
    with os.fdopen(fd, "wb") as pipe, warnings.catch_warnings(record=True) as caught:
        grid = load_grid(path, cell)
        if not caught:
            pickle.dump(grid.dims, pipe)
            pipe.write(grid.values)


def _receive_grid(fd: int) -> np.ndarray | None:
    """The grid values the worker sent on fd, or None when its reply is missing or cut short."""
    with open(fd, "rb", closefd=False) as pipe:
        try:
            dims = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None
        values = np.empty(dims, dtype=complex)
        return values if pipe.readinto(values) == values.nbytes else None


def save_grid(grid: GridFunction, path) -> None:
    Path(path).write_text(write_grid(grid), encoding="utf-8")


def load_spectrum(path) -> Spectrum:
    return _load(path, parse_spectrum)


def save_spectrum(spec: Spectrum, path) -> None:
    Path(path).write_text(write_spectrum(spec), encoding="utf-8")


def load_decay(path) -> DecayTrace:
    return _load(path, parse_decay)


def save_decay(trace: DecayTrace, path) -> None:
    Path(path).write_text(write_decay(trace), encoding="utf-8")


def load_xy(path, header: str):
    return _load(path, parse_xy, header)


def load_raster_points(path):
    return _load(path, parse_raster_points)


def load_optics_records(path) -> list[OpticsRecord]:
    return _load(path, parse_optics_records)
