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
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .io_formats import _at, _content, _integer, _load, _number, load_structure
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

def parse_defect_run(text: str, label: str, charge: int, source: str = "<string>") -> DefectRun:
    """Defect run record: e_total, delta.<species> entries, optional position."""
    e_total = None
    delta: dict[str, int] = {}
    position = None
    for no, ln in _content(text):
        if "=" not in ln:
            raise ParseError(f"expected 'key = value', got '{ln}'", source, no)
        key, _, value = (p.strip() for p in ln.partition("="))
        if key == "e_total":
            e_total = _number(value, "e_total", source, no)
        elif key.startswith("delta."):
            species = key[len("delta."):]
            if not species:
                raise ParseError("delta key needs a species, e.g. 'delta.C'", source, no)
            delta[species] = _integer(value, "composition delta", source, no)
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
            warnings.warn(f"{source}:{no}: ignoring unknown key '{key}'")
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


def _sections(text: str, source: str):
    """Split into (header, [(lineno, key, value), ...]) with '' for the preamble."""
    sections: list[tuple[str, int, list]] = [("", 0, [])]
    for no, ln in _content(text):
        if ln.startswith("[") and ln.endswith("]"):
            sections.append((ln[1:-1].strip(), no, []))
            continue
        if "=" not in ln:
            raise ParseError(f"expected 'key = value' or a [section] header, got '{ln}'", source, no)
        key, _, value = (p.strip() for p in ln.partition("="))
        sections[-1][2].append((no, key, value))
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
    base = Path(base_dir)
    sections = _sections(text, source)

    project = "unnamed"
    for no, key, value in sections[0][2]:
        if key == "project":
            project = value
        else:
            warnings.warn(f"{source}:{no}: ignoring unknown top-level key '{key}'")

    host_kv = None
    defect_blocks = []
    spectrum_blocks = []
    for header, no, kv in sections[1:]:
        parts = header.split()
        if parts and parts[0] == "host":
            if host_kv is not None:
                raise ParseError("duplicate [host] section", source, no)
            host_kv = (no, kv)
        elif parts and parts[0] == "defect":
            if len(parts) != 3:
                raise ParseError("defect section must be '[defect <label> <charge>]'", source, no)
            defect_blocks.append((no, _label(parts[1], source, no),
                                  _integer(parts[2], "defect charge", source, no), kv))
        elif parts and parts[0] == "spectrum":
            if len(parts) != 2 or parts[1] not in SPECTRUM_KINDS:
                raise ParseError(
                    f"spectrum section must be '[spectrum <kind>]' with kind in {SPECTRUM_KINDS}",
                    source, no,
                )
            spectrum_blocks.append((no, parts[1], kv))
        else:
            raise ParseError(f"unknown section '[{header}]'", source, no)

    if host_kv is None:
        raise ParseError("manifest is missing the [host] section", source, 1)
    host_no, host_entries = host_kv
    host_map: dict[str, tuple[int, str]] = {}
    mu: dict[str, float] = {}
    for no, key, value in host_entries:
        if key.startswith("mu."):
            species = key[len("mu."):]
            mu[species] = _number(value, f"chemical potential {key}", source, no)
        elif key in (*_HOST_REQUIRED, "dielectric"):
            host_map[key] = (no, value)
        else:
            warnings.warn(f"{source}:{no}: ignoring unknown host key '{key}'")
    for req in _HOST_REQUIRED:
        if req not in host_map:
            raise ParseError(f"host.{req} required", source, host_no)

    cell_path = _resolve(base, host_map["cell"][1], source, host_map["cell"][0])
    cell = load_structure(cell_path)
    if "dielectric" in host_map:
        no, value = host_map["dielectric"]
        parts = value.split()
        nums = [_number(p, "dielectric", source, no) for p in parts]
        if len(nums) == 1:
            eps = nums[0]
        elif len(nums) == 3:
            eps = np.diag(nums)
        elif len(nums) == 9:
            eps = np.array(nums).reshape(3, 3)
        else:
            raise ParseError("dielectric must be 1, 3 or 9 numbers", source, no)
        with _at(source, no):
            cell = cell.with_dielectric(eps)

    def host_float(key):
        no, value = host_map[key]
        return _number(value, f"host.{key}", source, no)

    with _at(source, host_no):
        host = HostReference(e_bulk=host_float("e_bulk"), e_vbm=host_float("e_vbm"),
                             e_gap=host_float("e_gap"), chemical_potentials=tuple(mu.items()))

    seen: set[tuple[str, int]] = set()
    defects = []
    for no, label, charge, kv in defect_blocks:
        if (label, charge) in seen:
            raise ParseError(f"duplicate defect entry '{label}' with charge {charge:+d}", source, no)
        seen.add((label, charge))
        paths: dict[str, Path] = {}
        for kno, key, value in kv:
            if key in ("energy", "eigenvalues", "site_potentials", "wavefunction.i", "wavefunction.f"):
                paths[key] = _resolve(base, value, source, kno)
            else:
                warnings.warn(f"{source}:{kno}: ignoring unknown defect key '{key}'")
        if "energy" not in paths:
            raise ParseError(f"defect '{label}' ({charge:+d}) is missing the 'energy' file", source, no)
        if ("wavefunction.i" in paths) != ("wavefunction.f" in paths):
            raise ParseError(
                f"defect '{label}' ({charge:+d}) must name both wavefunction files or neither",
                source, no,
            )
        run = _load(paths["energy"], parse_defect_run, label, charge)
        eig_path = paths.get("eigenvalues")
        pot_path = paths.get("site_potentials")
        eig = _load(eig_path, parse_eigenvalues) if eig_path else None
        pots = _load(pot_path, parse_site_potentials) if pot_path else None
        run = replace(run, eigenvalues=tuple(eig.items()) if eig else None, site_potentials=pots)
        psi = None
        if "wavefunction.i" in paths:
            psi = (str(paths["wavefunction.i"]), str(paths["wavefunction.f"]))
        defects.append(DefectEntry(label=label, charge=charge, run=run, wavefunction_paths=psi))

    spectra = []
    for no, kind, kv in spectrum_blocks:
        path = None
        meta = []
        for kno, key, value in kv:
            if key == "file":
                path = _resolve(base, value, source, kno)
            else:
                meta.append((key, value))  # free-form entry metadata, passed through
        if path is None:
            raise ParseError(f"[spectrum {kind}] is missing the 'file' key", source, no)
        spectra.append(SpectrumEntry(kind=kind, path=str(path), metadata=tuple(meta)))

    return RunManifest(project=project, cell=cell, host=host, defects=tuple(defects),
                       spectra=tuple(spectra))


def load_manifest(path) -> RunManifest:
    return _load(path, parse_manifest, Path(path).parent)
