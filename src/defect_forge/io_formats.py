"""Text formats: structure cells, grid functions, measurement CSVs, exports.

Every format is plain text with '#' comments and is specified bit-exactly in
docs/formats.md.  Writers format floats with %.17g so that every file
round-trips to the identical in-memory value, and contain no timestamps, so
byte-identical inputs produce byte-identical outputs.  Parse errors always
carry the source path and line number.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .lattice import CrystalCell, Site
from .optics import GridFunction, OpticsRecord, TableCheck
from .spectro import DecayTrace, RasterMap, Spectrum, grating_resolution_nm
from .thermo import FormationDiagram, _lowest_line

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
    "write_diagram_csv", "parse_diagram_csv", "load_diagram_csv",
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
def _at(source: str, lineno: int):
    """A ValidationError in the block becomes a ParseError at source:lineno; a ParseError passes."""
    try:
        yield
    except ParseError:
        raise
    except ValidationError as exc:
        raise ParseError(str(exc), source, lineno) from None


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
    if not species:
        raise ParseError("species line is empty", source, content[4][0])
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
    sites = []
    k = 0
    for sp, cnt in zip(species, counts):
        for _ in range(cnt):
            no, ln = coord_lines[k]
            sites.append(Site(sp, _floats(ln, 3, source, no, "fractional coordinate")))
            k += 1
    with _at(source, content[1][0]):
        return CrystalCell(lattice, tuple(sites))


def write_structure(cell: CrystalCell, comment: str = "structure") -> str:
    comment = " ".join((comment + "\n").splitlines())  # a space for each line break parsers see
    out = [comment if comment.strip() else "#"]  # a blank first line would not be read as the comment
    for row in cell.lattice:
        out.append(" ".join(_fmt(x) for x in row))
    if not cell.sites:
        return "\n".join(out) + "\n"
    species: list[str] = []
    for s in cell.sites:
        if s.species not in species:
            species.append(s.species)
    counts = {sp: sum(1 for s in cell.sites if s.species == sp) for sp in species}
    out.append(" ".join(species))
    out.append(" ".join(str(counts[sp]) for sp in species))
    for sp in species:
        for s in cell.sites:
            if s.species == sp:
                out.append(" ".join(_fmt(x) for x in s.frac))
    return "\n".join(out) + "\n"


# --- grid function files ----------------------------------------------------

def parse_grid(text: str | bytes, cell: CrystalCell, source: str = "<string>", *,
               head: str = "") -> GridFunction:
    """Grid file: header 'GRID n1 n2 n3 complex|real', then values (fastest index n3).

    The file is head + text.  load_grid passes the lines through the header as
    head and the rest of an ASCII file as bytes, which numpy converts with no
    decoded copy; other bytes are decoded as UTF-8, and an undecodable byte is
    reported as for any input file.

    The value block is converted in one numpy call.  A file that call cannot
    take whole (comments in the block, a wrong count, a token float() reads
    differently, a non-finite value) goes through the per-line reader, which
    reports the offending line.
    """
    if isinstance(text, bytes) and not (head and text.isascii()):
        text, head = _decode(head.encode("utf-8") + text, source), ""
    split = _grid_split(head or text)
    if split is not None and not (head and split[2]):
        header, header_no, rest = split
        values = _block_values(text if head else rest)
        del split, rest  # drop the copy of the text before the grid arrays are built
        if values is not None:
            dims, kind = _grid_header(header, source, header_no)
            if len(values) == _grid_value_count(dims, kind):
                del text  # the bytes from load_grid, whose only reference this call holds
                values = _complex_values(values, kind)  # and the floats, before GridFunction copies the values
                return _grid_function(dims, values, cell, source, header_no)
    return _parse_grid_lines(head + (text.decode("ascii") if isinstance(text, bytes) else text), cell, source)


def _grid_split(text: str):
    """(header line, its line number, the text after it), or None where splitlines would number lines differently."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line = text[pos:end]
        if len(line.splitlines()) > 1:
            return None
        if line.strip() and not line.lstrip().startswith("#"):
            return line, len(text[:pos].splitlines()) + 1, text[end:]
        pos = end
    return None


def _block_values(block: str | bytes):
    """Every number of a value block from one numpy call, or None to leave the block to the per-line reader."""
    # numpy reads a whitespace-only block as [-1.0], and takes tokens such as
    # 'nan(1)' that float() rejects; '#' lines are comments to the per-line reader
    if (b"#" if isinstance(block, bytes) else "#") in block or not block or block.isspace():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # "could not be read to its end"
        try:
            values = np.fromstring(block, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if np.isfinite(values).all() else None


def _grid_header(header: str, source: str, no: int) -> tuple[tuple[int, int, int], str]:
    parts = header.split()
    if len(parts) != 5 or parts[0] != "GRID":
        raise ParseError("grid header must be 'GRID n1 n2 n3 complex|real'", source, no)
    dims = tuple(_integer(p, "grid dim", source, no) for p in parts[1:4])
    kind = parts[4]
    if kind not in ("complex", "real"):
        raise ParseError(f"grid kind must be 'complex' or 'real', got '{kind}'", source, no)
    return dims, kind


def _grid_value_count(dims, kind: str) -> int:
    n = dims[0] * dims[1] * dims[2]
    return 2 * n if kind == "complex" else n


def _complex_values(arr: np.ndarray, kind: str) -> np.ndarray:
    """The grid values of a block's numbers: for a complex grid, arr[0::2] + 1j * arr[1::2] bit for bit,
    signed zeros included, built in one array."""
    if kind == "real":
        return arr.astype(complex)
    re, im = arr[0::2], arr[1::2]
    values = np.empty(len(re), dtype=complex)
    # numpy forms 1j * im as (0*im - 0) + (im + 0)j and adds re + 0j to it; taking +0.0 from a
    # number changes no bit, and adding it changes only -0.0, so the real part is re + 0*im and
    # the imaginary part im + 0.0, signs of zero included (a view of arr as complex keeps -0.0
    # where the expression gives +0.0)
    np.multiply(im, 0.0, out=values.real)
    values.real += re
    np.add(im, 0.0, out=values.imag)
    return values


def _grid_function(dims, values, cell, source, header_no) -> GridFunction:
    with _at(source, header_no):
        return GridFunction(dims, values, cell)


def _parse_grid_lines(text: str, cell: CrystalCell, source: str) -> GridFunction:
    """Token-by-token grid reader; every error names its line."""
    lines = list(_content(text))
    if not lines:
        raise ParseError("empty grid file", source, 1)
    no, header = lines[0]
    dims, kind = _grid_header(header, source, no)
    tokens = [_number(t, "grid", source, no) for no, ln in lines[1:] for t in ln.split()]
    need = _grid_value_count(dims, kind)
    if len(tokens) != need:
        raise ParseError(
            f"grid value count mismatch: header promises {need} numbers "
            f"({dims[0] * dims[1] * dims[2]} {kind} values), found {len(tokens)}",
            source, lines[-1][0],
        )
    values = _complex_values(np.array(tokens), kind)
    return _grid_function(dims, values, cell, source, lines[0][0])


def write_grid(grid: GridFunction, per_line: int = 3) -> str:
    vals = grid.values.reshape(-1)
    is_real = bool(np.all(vals.imag == 0))
    kind = "real" if is_real else "complex"
    out = [f"GRID {grid.dims[0]} {grid.dims[1]} {grid.dims[2]} {kind}"]
    flat = (vals.real if is_real else np.column_stack([vals.real, vals.imag]).reshape(-1)).tolist()
    step = per_line * (1 if is_real else 2)
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


def _series(cls, arr: np.ndarray, text: str, source: str, **fields):
    """cls(first column, counts column, **fields); a constructor error is raised as a
    ParseError at the line of the row it names."""
    try:
        return cls(arr[:, 0], arr[:, 1], **fields)
    except ValidationError as exc:
        raise ParseError(str(exc), source, _data_line(text, exc.row)) from None


_SPECTRUM_META_FLOAT = ("temperature_K", "power_mW", "grating_gpmm", "x_um", "y_um")


def parse_spectrum(text: str, source: str = "<string>") -> Spectrum:
    arr = _parse_csv_body(text, source, "wavelength_nm,counts", "spectrum")
    entries = []  # (line number, key, value) of each '# key=value' comment
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln.startswith("#") and "=" in ln:
            key, _, value = ln[1:].partition("=")
            entries.append((no, key.strip(), value.strip()))
    meta = dict.fromkeys((*_SPECTRUM_META_FLOAT, "location"))
    for no, key, value in _keys(entries, source, "metadata ", meta):
        meta[key] = value if key == "location" else _number(value, f"metadata '{key}'", source, no)
        if key == "grating_gpmm":  # the groove-density rule of fit_peaks, refused at this line
            with _at(source, no):
                grating_resolution_nm(meta[key])
    return _series(
        Spectrum, arr, text, source,
        temperature_k=meta["temperature_K"], power_mw=meta["power_mW"],
        grating_gpmm=meta["grating_gpmm"], x_um=meta["x_um"], y_um=meta["y_um"],
        location=meta["location"],
    )


def write_spectrum(spec: Spectrum) -> str:
    pairs = (
        ("temperature_K", spec.temperature_k), ("power_mW", spec.power_mw),
        ("grating_gpmm", spec.grating_gpmm), ("x_um", spec.x_um), ("y_um", spec.y_um),
    )
    out = [f"# {key}={_fmt(value)}" for key, value in pairs if value is not None]
    if spec.location is not None:
        out.append(f"# location={spec.location}")
    return _csv(out + ["wavelength_nm,counts"], [spec.wavelength_nm, spec.counts])


def parse_decay(text: str, source: str = "<string>") -> DecayTrace:
    arr = _parse_csv_body(text, source, "time_ns,counts", "decay trace")
    return _series(DecayTrace, arr, text, source)


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
    scaled = np.zeros_like(vals, dtype=int)
    mask = np.isfinite(vals)
    scaled[mask] = np.rint((vals[mask] - lo) / span * 65535).astype(int)
    ny, nx = vals.shape
    out = ["P2", f"{nx} {ny}", "65535"]
    for iy in range(ny):
        out.append(" ".join(str(v) for v in scaled[iy]))
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
            _fmt(c.recomputed_shift_mev) if c.recomputed_shift_mev is not None else "",
            _fmt(c.discrepancy_mev),
            "reconstructed" if c.reconstructed else "stated",
        ]))
    return "\n".join(out) + "\n"


# --- formation diagram export ---------------------------------------------------

def write_diagram_csv(diag: FormationDiagram) -> str:
    charges = [q for q, _ in diag.lines]
    header = "fermi_eV," + ",".join(f"q={q:+d}" for q in charges) + ",envelope_eV,stable_q"
    # %.17g prints an integer-valued stable_q as its digits, as %d would
    return _csv([header], [diag.fermi, *(diag.energy_of(q, diag.fermi) for q in charges),
                           diag.envelope_at(diag.fermi), _lowest_line(diag.lines, diag.fermi)])


def parse_diagram_csv(text: str, source: str = "<string>"):
    """Read a diagram CSV back as (charges, fermi, per-charge energies, envelope, stable)."""
    lines = list(_content(text))
    if not lines:
        raise ParseError("empty diagram file", source, 1)
    no, header = lines[0]
    cols = header.split(",")
    if len(cols) < 4 or cols[0] != "fermi_eV" or cols[-2] != "envelope_eV" or cols[-1] != "stable_q":
        raise ParseError("malformed diagram header", source, no)
    charges = [_integer(c.removeprefix("q="), "charge column", source, no) for c in cols[1:-2]]
    fermi, energies, env, stable = [], [], [], []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ParseError(f"expected {len(cols)} fields", source, no)
        row = [_number(p, c, source, no) for p, c in zip(parts[:-1], cols[:-1])]
        fermi.append(row[0])
        energies.append(row[1:-1])
        env.append(row[-1])
        stable.append(_integer(parts[-1], "stable_q", source, no))
    return charges, np.array(fermi), np.array(energies), np.array(env), np.array(stable)


# --- path helpers -----------------------------------------------------------------

def _load(path, parser, *args):
    """parser(text, *args, source=path): the one reader of input files, UTF-8 whatever the locale."""
    source = str(Path(path))
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", source) from None
    text = _decode(data, source)
    del data  # a grid file's bytes need not outlive its text
    return parser(text, *args, source=source)


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
    """The grid file at path.  Its lines through the header are read first; when they
    are ASCII, the rest of the file follows as one bytes object for parse_grid."""
    try:
        # unbuffered: after readline, a buffered read would copy the rest of the file once more
        with open(path, "rb", buffering=0) as f:
            head = _read_head(f)
            if head is not None and head.isascii():
                # the bytes are a call argument with no name here, so that parse_grid
                # holds their only reference and frees them once they are converted
                # (CPython 3.11 and later move call arguments into the callee)
                return parse_grid(f.readall(), cell, str(Path(path)), head=head.decode("ascii"))
    except OSError:
        pass  # raised by open or a read, never by parse_grid; _load reports it
    return _load(path, parse_grid, cell)


def _read_head(f) -> bytes | None:
    """The lines of a binary file through the first that is neither blank nor a '#'
    comment, or None when that line does not end within the first 4096 bytes."""
    limit = 4096
    head = b""
    while len(head) < limit:
        line = f.readline(limit - len(head))
        if not line.endswith(b"\n"):
            return None
        head += line
        if line.strip() and not line.lstrip().startswith(b"#"):
            return head
    return None


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


def load_diagram_csv(path):
    return _load(path, parse_diagram_csv)
