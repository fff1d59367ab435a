"""Run manifests: one plain-text file wiring a formation-energy analysis together.

A manifest names the host block (bulk energy, VBM, gap, chemical potentials,
dielectric tensor, cell file) and each defect's .run record and optional .pot
site potentials: all that `diagram` reads.  parse_manifest checks that each
file exists and parses it.  Any other defect key warns at its line, and a
[spectrum <kind>] section at its header; the manifest reads no file they name.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._record import fields_equal, readonly
from .errors import ParseError
from .io_formats import _at, _content, _integer, _keys, _load, _number, load_structure
from .lattice import CrystalCell
from .thermo import DefectRun, HostReference

__all__ = ["RunManifest", "DefectEntry", "parse_manifest", "load_manifest",
           "parse_defect_run", "parse_site_potentials"]


@dataclass(frozen=True, eq=False)
class DefectEntry:
    """A [defect] block: its .run record, its .pot file's path and rows (copied in, read-only)."""

    run: DefectRun
    site_potential_path: str | None = None
    site_potentials: np.ndarray | None = None

    __eq__ = fields_equal

    def __post_init__(self):
        if self.site_potentials is not None:
            object.__setattr__(self, "site_potentials", readonly(self.site_potentials))

    def site_potential_line(self, row: int) -> int:
        """Line number in the .pot file of row `row` (0-based; -1 is the last) of site_potentials."""
        return _load(self.site_potential_path, lambda text, source: [no for no, _ in _content(text)])[row]


@dataclass(frozen=True)
class RunManifest:
    project: str
    cell: CrystalCell
    host: HostReference
    defects: tuple[DefectEntry, ...]


# --- key=value record files ---------------------------------------------------

def _entry(no: int, ln: str, source: str, expected: str) -> tuple[int, str, str]:
    """(line, key, value) of a 'key = value' line; any other line is a ParseError."""
    if "=" not in ln:
        raise ParseError(f"expected {expected}, got '{ln}'", source, no)
    key, _, value = (p.strip() for p in ln.partition("="))
    return no, key, value


def _species(key: str, prefix: str, source: str, no: int) -> str:
    """The species a 'delta.<species>' or 'mu.<species>' key names; a ParseError when it names none."""
    if key == prefix:
        raise ParseError(f"{prefix[:-1]} key needs a species, e.g. '{prefix}C'", source, no)
    return key[len(prefix):]


def parse_defect_run(text: str, label: str, charge: int, source: str = "<string>") -> DefectRun:
    """Defect run record: e_total, delta.<species> entries, optional position."""
    e_total = position = None
    delta: dict[str, int] = {}
    entries = (_entry(no, ln, source, "'key = value'") for no, ln in _content(text))
    for no, key, value in _keys(entries, source, "", ("e_total", "position", "label", "charge"), "delta."):
        if key == "e_total":
            e_total = _number(value, "e_total", source, no)
        elif key == "position":
            parts = value.split()
            if len(parts) != 3:
                raise ParseError("position needs 3 fractional coordinates", source, no)
            position = tuple(_number(p, "position", source, no) for p in parts)
        elif key == "label":
            if value != label:
                raise ParseError(f"label '{value}' contradicts manifest entry '{label}'", source, no)
        elif key == "charge":
            if _integer(value, "charge", source, no) != charge:
                raise ParseError(f"charge {value} contradicts manifest entry {charge:+d}", source, no)
        else:
            delta[_species(key, "delta.", source, no)] = _integer(value, "composition delta", source, no)
    if e_total is None:
        raise ParseError("run record is missing 'e_total'", source, 1)
    if not delta:
        raise ParseError("run record declares no composition change (no delta.* keys)", source, 1)
    with _at(source, 1):
        return DefectRun(label=label, charge=charge, total_energy=e_total,
                         composition_delta=tuple(delta.items()), position=position)


def parse_site_potentials(text: str, source: str = "<string>") -> np.ndarray:
    """Site-potential rows 'site_index delta_v_volts' (defect minus bulk), one per site: a read-only (n, 2) array."""
    rows: dict[int, float] = {}
    for no, ln in _content(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("expected 'site_index delta_v'", source, no)
        i = _integer(parts[0], "site index", source, no)
        if not 0 <= i < 2**53:  # the indices a float array holds exactly
            raise ParseError(f"site index {i} must lie in [0, 2**53)", source, no)
        if i in rows:
            raise ParseError(f"duplicate site index {i}", source, no)
        rows[i] = _number(parts[1], "site potential", source, no)
    if not rows:
        raise ParseError("site-potential file has no rows", source, 1)
    return readonly(list(rows.items()))


# --- manifest proper ------------------------------------------------------------

_HOST_REQUIRED = ("cell", "e_bulk", "e_vbm", "e_gap")


def _sections(text: str, source: str):
    """Split into (header, [(lineno, key, value), ...]) with '' for the preamble."""
    sections: list[tuple[str, int, list]] = [("", 0, [])]
    for no, ln in _content(text):
        if ln.startswith("[") and ln.endswith("]"):
            sections.append((ln[1:-1].strip(), no, []))
            continue
        sections[-1][2].append(_entry(no, ln, source, "'key = value' or a [section] header"))
    return sections


def _resolve(base: Path, rel: str, source: str, lineno: int) -> Path:
    path = base / rel  # an absolute rel stands alone
    try:
        path = path if Path(rel).is_absolute() else path.resolve()
        if path.is_file():
            return path
    except ValueError:  # a NUL byte, or a name the file-system encoding cannot represent
        pass
    raise ParseError(f"referenced file does not exist: {path}", source, lineno)


def _label(label: str, source: str, lineno: int) -> str:
    """label, or a ParseError unless it is one file-name component: `diagram` names files by it."""
    # control characters: C0, DEL and C1 (Unicode category Cc)
    bad = label in (".", "..") or any(c in "/\\" or ord(c) < 0x20 or 0x7f <= ord(c) <= 0x9f for c in label)
    try:
        os.fsencode(label)
    except UnicodeEncodeError:
        bad = True
    if bad:
        raise ParseError(f"defect label {label!r} must be one file-name component the file-system encoding "
                         "holds, with no '/', '\\', control character, '.' or '..'", source, lineno)
    return label


def parse_manifest(text: str, base_dir, source: str = "<string>") -> RunManifest:
    """The manifest, read section by section in file order: the first fault in the file is reported."""
    base = Path(base_dir)
    (_, _, preamble), *sections = _sections(text, source)
    top = {key: value for _, key, value in _keys(preamble, source, "top-level ", ("project",))}
    cell = host = None
    defects: dict[tuple[str, int], DefectEntry] = {}
    for header, no, entries in sections:
        kind, *args = header.split() or [""]
        if kind == "host":
            if args:
                raise ParseError("host section must be '[host]'", source, no)
            if host is not None:
                raise ParseError("duplicate [host] section", source, no)
            cell, host = _host(entries, base, source, no)
        elif kind == "defect":
            entry = _defect(args, entries, defects, base, source, no)
            defects[entry.run.label, entry.run.charge] = entry
        elif kind == "spectrum":  # measurement files no command reads through the manifest
            warnings.warn(f"{source}:{no}: ignoring [{header}] section")
        else:
            raise ParseError(f"unknown section '[{header}]'", source, no)
    if host is None:
        raise ParseError("manifest is missing the [host] section", source, 1)
    return RunManifest(project=top.get("project", "unnamed"), cell=cell, host=host,
                       defects=tuple(defects.values()))


def _host(entries, base: Path, source: str, header_no: int) -> tuple[CrystalCell, HostReference]:
    """The [host] block: every entry is read at its line, and a repeated key keeps its last value."""
    values: dict[str, object] = {}  # key -> the value read from its last line
    mu: dict[str, float] = {}
    for no, key, value in _keys(entries, source, "host ", (*_HOST_REQUIRED, "dielectric"), "mu."):
        if key.startswith("mu."):
            mu[_species(key, "mu.", source, no)] = _number(value, f"chemical potential {key}", source, no)
        elif key == "cell":
            values[key] = load_structure(_resolve(base, value, source, no))
        elif key == "dielectric":  # a scalar, the diagonal or the full tensor, as CrystalCell takes them
            nums = [_number(p, "dielectric", source, no) for p in value.split()]
            if len(nums) not in (1, 3, 9):
                raise ParseError("dielectric must be 1, 3 or 9 numbers", source, no)
            values[key] = (no, np.reshape(nums, {1: (), 3: (3,), 9: (3, 3)}[len(nums)]))
        else:
            values[key] = _number(value, f"host.{key}", source, no)
    for req in _HOST_REQUIRED:
        if req not in values:
            raise ParseError(f"host.{req} required", source, header_no)
    cell = values["cell"]
    if "dielectric" in values:
        no, eps = values["dielectric"]
        with _at(source, no):
            cell = cell.with_dielectric(eps)
    with _at(source, header_no):
        return cell, HostReference(e_bulk=values["e_bulk"], e_vbm=values["e_vbm"], e_gap=values["e_gap"],
                                   chemical_potentials=tuple(mu.items()))


def _defect(args, entries, defects, base: Path, source: str, no: int) -> DefectEntry:
    """A [defect <label> <charge>] block, unless `defects` holds that pair; its .run and .pot files are parsed here."""
    if len(args) != 2:
        raise ParseError("defect section must be '[defect <label> <charge>]'", source, no)
    label = _label(args[0], source, no)
    charge = _integer(args[1], "defect charge", source, no)
    if (label, charge) in defects:
        raise ParseError(f"duplicate defect entry '{label}' with charge {charge:+d}", source, no)
    paths = {key: str(_resolve(base, value, source, kno))
             for kno, key, value in _keys(entries, source, "defect ", ("energy", "site_potentials"))}
    if "energy" not in paths:
        raise ParseError(f"defect '{label}' ({charge:+d}) is missing the 'energy' file", source, no)
    run = _load(paths["energy"], parse_defect_run, label, charge)
    if "site_potentials" in paths and charge != 0 and run.position is None:
        raise ParseError(f"defect '{label}' ({charge:+d}) names site_potentials but its run record "
                         "has no 'position', which the finite-size correction needs", source, no)
    pots = _load(paths["site_potentials"], parse_site_potentials) if "site_potentials" in paths else None
    return DefectEntry(run=run, site_potential_path=paths.get("site_potentials"), site_potentials=pots)


def load_manifest(path) -> RunManifest:
    return _load(path, parse_manifest, Path(path).parent)
