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
from pathlib import Path

import numpy as np

from .errors import ParseError
from .lattice import CrystalCell, Site
from .optics import GridFunction, OpticsRecord, TableCheck
from .spectro import DecayTrace, RasterMap, Spectrum
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


def _lines(text: str):
    return list(enumerate(text.splitlines(), start=1))


def _number(token: str, what: str, source: str, lineno: int) -> float:
    """float(token), or a ParseError at source:lineno when the token is not a finite number."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric value in {what}: '{token}'", source, lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value in {what}: '{token}'", source, lineno)
    return value


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
    lines = _lines(text)
    content = [(no, ln) for no, ln in lines if ln.strip()]
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
        try:
            return CrystalCell(lattice)
        except Exception as exc:
            raise ParseError(str(exc), source, content[1][0]) from None
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
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise ParseError("counts must be integers", source, counts_no) from None
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
    try:
        return CrystalCell(lattice, tuple(sites))
    except Exception as exc:
        raise ParseError(str(exc), source, content[1][0]) from None


def write_structure(cell: CrystalCell, comment: str = "structure") -> str:
    out = [comment.replace("\n", " ")]
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

def parse_grid(text: str, cell: CrystalCell, source: str = "<string>") -> GridFunction:
    """Grid file: header 'GRID n1 n2 n3 complex|real', then values (fastest index n3).

    The value block is converted in one numpy call.  A file that call cannot
    take whole (comments in the block, a wrong count, a token float() reads
    differently, a non-finite value) goes through the per-line reader, which
    reports the offending line.
    """
    split = _grid_split(text)
    if split is not None:
        header, header_no, block = split
        values = _block_values(block)
        del split, block  # drop the copy of the text before the grid arrays are built
        if values is not None:
            dims, kind = _grid_header(header, source, header_no)
            if len(values) == _grid_value_count(dims, kind):
                return _grid_function(values, dims, kind, cell, source, header_no)
    return _parse_grid_lines(text, cell, source)


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


def _block_values(block: str):
    """Every number of a value block from one numpy call, or None to leave the block to the per-line reader."""
    # numpy reads a whitespace-only block as [-1.0], and takes tokens such as
    # 'nan(1)' that float() rejects; '#' lines are comments to the per-line reader
    if "#" in block or not block or block.isspace():
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
    try:
        dims = (int(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError:
        raise ParseError("grid dims must be integers", source, no) from None
    kind = parts[4]
    if kind not in ("complex", "real"):
        raise ParseError(f"grid kind must be 'complex' or 'real', got '{kind}'", source, no)
    return dims, kind


def _grid_value_count(dims, kind: str) -> int:
    n = dims[0] * dims[1] * dims[2]
    return 2 * n if kind == "complex" else n


def _grid_function(arr, dims, kind, cell, source, header_no) -> GridFunction:
    values = arr[0::2] + 1j * arr[1::2] if kind == "complex" else arr.astype(complex)
    try:
        return GridFunction(dims, values, cell)
    except Exception as exc:
        raise ParseError(str(exc), source, header_no) from None


def _parse_grid_lines(text: str, cell: CrystalCell, source: str) -> GridFunction:
    """Token-by-token grid reader; every error names its line."""
    lines = [(no, ln) for no, ln in _lines(text) if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty grid file", source, 1)
    no, header = lines[0]
    dims, kind = _grid_header(header, source, no)
    tokens: list[float] = []
    for no, ln in lines[1:]:
        try:
            tokens.extend(float(t) for t in ln.split())
        except ValueError as exc:
            raise ParseError(f"non-numeric grid value: {exc}", source, no) from None
    need = _grid_value_count(dims, kind)
    if len(tokens) != need:
        raise ParseError(
            f"grid value count mismatch: header promises {need} numbers "
            f"({dims[0] * dims[1] * dims[2]} {kind} values), found {len(tokens)}",
            source, lines[-1][0],
        )
    return _grid_function(np.array(tokens), dims, kind, cell, source, lines[0][0])


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

def _parse_csv_body(text: str, source: str, header: str, what: str):
    """Shared '# key=value' + header + numeric-rows reader; rows come back as an (n, ncols) array.

    Every field must be finite: a nan or inf is rejected with its line number.
    A file with no data rows is rejected as "<what> has no data rows".
    """
    meta: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    values: list[float] = []
    header_seen = False
    ncols = header.count(",") + 1
    for no, ln in _lines(text):
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = (no, value.strip())
            continue
        if not header_seen:
            if stripped != header:
                raise ParseError(f"expected header '{header}', got '{stripped}'", source, no)
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != ncols:
            raise ParseError(f"expected {ncols} comma-separated values", source, no)
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", source, no) from None
    if not header_seen:
        raise ParseError(f"missing header line '{header}'", source, 1)
    arr = np.array(values, dtype=float).reshape(-1, ncols)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        row = ",".join(_fmt(v) for v in arr[bad])
        raise ParseError(f"non-finite value in row '{row}'", source, _data_line(text, bad))
    if not len(arr):
        raise ParseError(f"{what} has no data rows", source, 1)
    return meta, arr


def _data_line(text: str, row: int) -> int:
    """Line number of data row `row` (0-based; -1 is the last) of a measurement CSV."""
    # data rows are the non-blank, non-comment lines after the header
    return [no for no, ln in _lines(text) if ln.strip() and not ln.strip().startswith("#")][1:][row]


def _series(cls, arr: np.ndarray, text: str, source: str, **fields):
    """cls(first column, counts column, **fields); a constructor error is raised as a
    ParseError at the data row it concerns."""
    try:
        return cls(arr[:, 0], arr[:, 1], **fields)
    except Exception as exc:
        msg = str(exc)
    if "strictly increasing" in msg:  # the first row not above its predecessor
        row = int(np.argmin(np.diff(arr[:, 0]) > 0)) + 1
    elif "must be >= 0" in msg:  # the first negative count
        row = int(np.argmax(arr[:, 1] < 0))
    else:  # too few samples: the file ends early
        row = -1
    raise ParseError(msg, source, _data_line(text, row))


_SPECTRUM_META_FLOAT = ("temperature_K", "power_mW", "grating_gpmm", "x_um", "y_um")


def parse_spectrum(text: str, source: str = "<string>") -> Spectrum:
    meta, arr = _parse_csv_body(text, source, "wavelength_nm,counts", "spectrum")
    known = dict.fromkeys(_SPECTRUM_META_FLOAT)
    for key, (no, value) in meta.items():
        if key in known:
            known[key] = _number(value, f"metadata '{key}'", source, no)
        elif key != "location":
            warnings.warn(f"{source}: ignoring unknown metadata key '{key}'")
    return _series(
        Spectrum, arr, text, source,
        temperature_k=known["temperature_K"], power_mw=known["power_mW"],
        grating_gpmm=known["grating_gpmm"], x_um=known["x_um"], y_um=known["y_um"],
        location=meta["location"][1] if "location" in meta else None,
    )


def write_spectrum(spec: Spectrum) -> str:
    out = []
    pairs = (
        ("temperature_K", spec.temperature_k), ("power_mW", spec.power_mw),
        ("grating_gpmm", spec.grating_gpmm), ("x_um", spec.x_um), ("y_um", spec.y_um),
    )
    for key, value in pairs:
        if value is not None:
            out.append(f"# {key}={_fmt(value)}")
    if spec.location is not None:
        out.append(f"# location={spec.location}")
    out.append("wavelength_nm,counts")
    for wl, ct in zip(spec.wavelength_nm, spec.counts):
        out.append(f"{_fmt(wl)},{_fmt(ct)}")
    return "\n".join(out) + "\n"


def parse_decay(text: str, source: str = "<string>") -> DecayTrace:
    _, arr = _parse_csv_body(text, source, "time_ns,counts", "decay trace")
    return _series(DecayTrace, arr, text, source)


def write_decay(trace: DecayTrace) -> str:
    out = ["time_ns,counts"]
    for t, c in zip(trace.time_ns, trace.counts):
        out.append(f"{_fmt(t)},{_fmt(c)}")
    return "\n".join(out) + "\n"


def parse_xy(text: str, header: str, source: str = "<string>") -> tuple[np.ndarray, np.ndarray]:
    """Two-column CSV (dose 'fluence_mJcm2,intensity', saturation 'power_mW,intensity')."""
    _, arr = _parse_csv_body(text, source, header, "file")
    return arr[:, 0], arr[:, 1]


def write_xy(x, y, header: str) -> str:
    out = [header]
    for a, b in zip(x, y):
        out.append(f"{_fmt(a)},{_fmt(b)}")
    return "\n".join(out) + "\n"


def parse_raster_points(text: str, source: str = "<string>") -> np.ndarray:
    """Raster scan CSV: the (n, 3) array of x_um, y_um, counts rows, in file order."""
    _, arr = _parse_csv_body(text, source, "x_um,y_um,counts", "raster file")
    return arr


def write_raster_csv(rmap: RasterMap) -> str:
    """Dense grid export: first row/column are axes, NaN marks missing points."""
    fields = ["%.17g"] * len(rmap.xs)
    cells = np.where(np.isfinite(rmap.values), rmap.values, np.nan)
    row_fmt = ",".join(["%.17g"] + fields)
    out = ["y_um\\x_um," + ",".join(fields) % tuple(rmap.xs.tolist())]
    out += [row_fmt % tuple(row) for row in np.column_stack([rmap.ys, cells]).tolist()]
    return "\n".join(out) + "\n"


def write_raster_pgm(rmap: RasterMap, maxval: int = 65535) -> str:
    """ASCII PGM quick-look; missing points render as 0."""
    vals = rmap.values.copy()
    finite = vals[np.isfinite(vals)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros_like(vals, dtype=int)
    mask = np.isfinite(vals)
    scaled[mask] = np.rint((vals[mask] - lo) / span * maxval).astype(int)
    ny, nx = vals.shape
    out = ["P2", f"{nx} {ny}", str(maxval)]
    for iy in range(ny):
        out.append(" ".join(str(v) for v in scaled[iy]))
    return "\n".join(out) + "\n"


# --- optics record tables -----------------------------------------------------

_OPTICS_HEADER = "label,charge,spin,zpl_meV,tdm_debye2,shift_meV"


def parse_optics_records(text: str, source: str = "<string>") -> list[OpticsRecord]:
    records = []
    header_seen = False
    for no, ln in _lines(text):
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != _OPTICS_HEADER:
                raise ParseError(f"expected header '{_OPTICS_HEADER}'", source, no)
            header_seen = True
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 6:
            raise ParseError("expected 6 comma-separated fields", source, no)
        try:
            records.append(OpticsRecord(
                defect=parts[0],
                charge=int(parts[1]),
                spin=parts[2],
                zpl_mev=_number(parts[3], "zpl_meV", source, no) if parts[3] else None,
                tdm_debye2=_number(parts[4], "tdm_debye2", source, no) if parts[4] else None,
                shift_mev=_number(parts[5], "shift_meV", source, no) if parts[5] else None,
            ))
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), source, no) from None
    if not header_seen:
        raise ParseError(f"missing header line '{_OPTICS_HEADER}'", source, 1)
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
    table = np.column_stack(
        [diag.fermi] + [diag.energy_of(q, diag.fermi) for q in charges] + [diag.envelope_at(diag.fermi)]
    ).tolist()
    stable = _lowest_line(diag.lines, diag.fermi).tolist()
    row_fmt = ",".join(["%.17g"] * (len(charges) + 2)) + ",%d"
    out = [header] + [row_fmt % (*row, q) for row, q in zip(table, stable)]
    return "\n".join(out) + "\n"


def parse_diagram_csv(text: str, source: str = "<string>"):
    """Read a diagram CSV back as (charges, fermi, per-charge energies, envelope, stable)."""
    lines = [(no, ln.strip()) for no, ln in _lines(text) if ln.strip()]
    if not lines:
        raise ParseError("empty diagram file", source, 1)
    no, header = lines[0]
    cols = header.split(",")
    if len(cols) < 4 or cols[0] != "fermi_eV" or cols[-2] != "envelope_eV" or cols[-1] != "stable_q":
        raise ParseError("malformed diagram header", source, no)
    try:
        charges = [int(c.removeprefix("q=")) for c in cols[1:-2]]
    except ValueError:
        raise ParseError("malformed charge column in header", source, no) from None
    fermi, energies, env, stable = [], [], [], []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ParseError(f"expected {len(cols)} fields", source, no)
        try:
            fermi.append(float(parts[0]))
            energies.append([float(p) for p in parts[1:-2]])
            env.append(float(parts[-2]))
            stable.append(int(parts[-1]))
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", source, no) from None
    return charges, np.array(fermi), np.array(energies), np.array(env), np.array(stable)


# --- path helpers -----------------------------------------------------------------

def _load(path, parser, *args):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", str(path)) from None
    return parser(text, *args, source=str(path)) if args else parser(text, source=str(path))


def load_structure(path) -> CrystalCell:
    return _load(path, parse_structure)


def save_structure(cell: CrystalCell, path, comment: str = "structure") -> None:
    Path(path).write_text(write_structure(cell, comment))


def load_grid(path, cell: CrystalCell) -> GridFunction:
    return _load(path, parse_grid, cell)


def save_grid(grid: GridFunction, path) -> None:
    Path(path).write_text(write_grid(grid))


def load_spectrum(path) -> Spectrum:
    return _load(path, parse_spectrum)


def save_spectrum(spec: Spectrum, path) -> None:
    Path(path).write_text(write_spectrum(spec))


def load_decay(path) -> DecayTrace:
    return _load(path, parse_decay)


def save_decay(trace: DecayTrace, path) -> None:
    Path(path).write_text(write_decay(trace))


def load_xy(path, header: str):
    return _load(path, parse_xy, header)


def load_raster_points(path):
    return _load(path, parse_raster_points)


def load_optics_records(path) -> list[OpticsRecord]:
    return _load(path, parse_optics_records)


def load_diagram_csv(path):
    return _load(path, parse_diagram_csv)
