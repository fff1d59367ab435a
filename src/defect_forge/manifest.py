"""Run manifests: one plain-text file wiring a whole analysis together.

A manifest names the host reference block (bulk energy, VBM, gap, chemical
potentials, dielectric tensor, cell file) plus any number of defect entries
and measurement files.  parse_manifest checks that every referenced file
exists and parses the cell and each defect's record files (.run, .eig,
.pot), which is all `diagram` reads.  Spectrum and wavefunction entries are
returned as resolved paths; the command that reads one parses it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .io_formats import _at, _content, _integer, _keys, _load, _number, load_structure
from .lattice import CrystalCell
from .thermo import DefectRun, HostReference

__all__ = ["RunManifest", "DefectEntry", "SpectrumEntry", "parse_manifest", "load_manifest",
           "parse_defect_run", "parse_eigenvalues", "parse_site_potentials"]

SPECTRUM_KINDS = ("pl", "trpl", "dose", "raster")


@dataclass(frozen=True)
class DefectEntry:
    label: str
    charge: int
    run: DefectRun
    wavefunction_paths: tuple[str, str] | None = None  # (initial, final)


@dataclass(frozen=True)
class SpectrumEntry:
    kind: str
    path: str
    metadata: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RunManifest:
    project: str
    cell: CrystalCell
    host: HostReference
    defects: tuple[DefectEntry, ...]
    spectra: tuple[SpectrumEntry, ...]

    def runs_by_label(self) -> dict[str, list[DefectRun]]:
        grouped: dict[str, list[DefectRun]] = {}
        for entry in self.defects:
            grouped.setdefault(entry.label, []).append(entry.run)
        return grouped


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
    e_total = None
    delta: dict[str, int] = {}
    position = None
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


def parse_eigenvalues(text: str, source: str = "<string>"):
    """Eigenvalue table rows: 'spin index energy_eV occupation'."""
    channels: dict[str, dict[int, tuple[int, float, float]]] = {}  # spin -> index -> (line, energy, occ)
    for no, ln in _content(text):
        parts = ln.split()
        if len(parts) != 4:
            raise ParseError("expected 'spin index energy occupation'", source, no)
        spin = parts[0]
        if spin not in ("up", "down", "none"):
            raise ParseError(f"spin must be up|down|none, got '{spin}'", source, no)
        idx = _integer(parts[1], "level index", source, no)
        energy = _number(parts[2], "eigenvalue energy", source, no)
        occ = _number(parts[3], "occupation", source, no)
        chan = channels.setdefault(spin, {})
        if idx in chan:
            raise ParseError(f"duplicate level index {idx} in spin channel '{spin}'", source, no)
        chan[idx] = (no, energy, occ)
    out = {}
    for spin, chan in channels.items():
        indices = sorted(chan)
        gap = next((i for k, i in enumerate(indices) if i != k), None)
        if gap is not None:
            raise ParseError(
                f"spin channel '{spin}' indices must be contiguous from 0, got {indices}",
                source, chan[gap][0],
            )
        out[spin] = tuple(chan[i][1:] for i in indices)
    return out


def parse_site_potentials(text: str, source: str = "<string>"):
    """Site-potential rows: 'site_index delta_v_volts' (defect minus bulk)."""
    rows = []
    for no, ln in _content(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("expected 'site_index delta_v'", source, no)
        rows.append((_integer(parts[0], "site index", source, no),
                     _number(parts[1], "site potential", source, no)))
    if not rows:
        raise ParseError("site-potential file has no rows", source, 1)
    return tuple(rows)


# --- manifest proper ------------------------------------------------------------

_HOST_REQUIRED = ("cell", "e_bulk", "e_vbm", "e_gap")
_DEFECT_FILES = ("energy", "eigenvalues", "site_potentials", "wavefunction.i", "wavefunction.f")


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
    spectra: list[SpectrumEntry] = []
    for header, no, entries in sections:
        kind, *args = header.split() or [""]
        if kind == "host":
            if host is not None:
                raise ParseError("duplicate [host] section", source, no)
            cell, host = _host(entries, base, source, no)
        elif kind == "defect":
            entry = _defect(args, entries, defects, base, source, no)
            defects[entry.label, entry.charge] = entry
        elif kind == "spectrum":
            spectra.append(_spectrum(args, entries, base, source, no))
        else:
            raise ParseError(f"unknown section '[{header}]'", source, no)
    if host is None:
        raise ParseError("manifest is missing the [host] section", source, 1)
    return RunManifest(project=top.get("project", "unnamed"), cell=cell, host=host,
                       defects=tuple(defects.values()), spectra=tuple(spectra))


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
    """A [defect <label> <charge>] block, unless `defects` holds that pair; its record files are parsed here."""
    if len(args) != 2:
        raise ParseError("defect section must be '[defect <label> <charge>]'", source, no)
    label = _label(args[0], source, no)
    charge = _integer(args[1], "defect charge", source, no)
    if (label, charge) in defects:
        raise ParseError(f"duplicate defect entry '{label}' with charge {charge:+d}", source, no)
    paths = {key: _resolve(base, value, source, kno)
             for kno, key, value in _keys(entries, source, "defect ", _DEFECT_FILES)}
    if "energy" not in paths:
        raise ParseError(f"defect '{label}' ({charge:+d}) is missing the 'energy' file", source, no)
    if ("wavefunction.i" in paths) != ("wavefunction.f" in paths):
        raise ParseError(
            f"defect '{label}' ({charge:+d}) must name both wavefunction files or neither",
            source, no,
        )
    run = _load(paths["energy"], parse_defect_run, label, charge)
    eig = _load(paths["eigenvalues"], parse_eigenvalues) if "eigenvalues" in paths else None
    pots = _load(paths["site_potentials"], parse_site_potentials) if "site_potentials" in paths else None
    run = replace(run, eigenvalues=tuple(eig.items()) if eig else None, site_potentials=pots)
    psi = None
    if "wavefunction.i" in paths:
        psi = (str(paths["wavefunction.i"]), str(paths["wavefunction.f"]))
    return DefectEntry(label=label, charge=charge, run=run, wavefunction_paths=psi)


def _spectrum(args, entries, base: Path, source: str, no: int) -> SpectrumEntry:
    """A [spectrum <kind>] block: the 'file' path plus free-form metadata, passed through."""
    if len(args) != 1 or args[0] not in SPECTRUM_KINDS:
        raise ParseError(
            f"spectrum section must be '[spectrum <kind>]' with kind in {SPECTRUM_KINDS}",
            source, no,
        )
    paths = [_resolve(base, value, source, kno) for kno, key, value in entries if key == "file"]
    if not paths:
        raise ParseError(f"[spectrum {args[0]}] is missing the 'file' key", source, no)
    return SpectrumEntry(kind=args[0], path=str(paths[-1]),
                         metadata=tuple((key, value) for _, key, value in entries if key != "file"))


def load_manifest(path) -> RunManifest:
    return _load(path, parse_manifest, Path(path).parent)
