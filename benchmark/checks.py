"""Output checks: compare each command's artifacts with the generator's ground truth.

Every check returns a list of problems; an empty list means the artifacts are
correct.  The checks read the files the CLI wrote and share no code with the
package, so a defect in a writer or a parser shows here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TAU_REL_TOL = 0.02
TDM_REL_TOL = 0.02
OFFSET_TOL_V = 1e-3
ENVELOPE_REL_TOL = 1e-12


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[str(path.relative_to(root))] = h.hexdigest()
    return digests


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _csv_rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().splitlines() if ln.strip()]


def _diagram(out: Path, truth: dict) -> list[str]:
    problems = []
    for label in truth["labels"]:
        rows = _csv_rows(out / "diagrams" / f"{label}.csv")
        header, body = rows[0], rows[1:]
        charges = [int(h.removeprefix("q=")) for h in header[1:-2]]
        for row in body:
            energies = [float(x) for x in row[1:-2]]
            envelope, stable = float(row[-2]), int(row[-1])
            low = min(energies)
            if abs(envelope - low) > ENVELOPE_REL_TOL * max(1.0, abs(low)):
                problems.append(f"{label}: envelope {envelope!r} != min of charge columns {low!r} "
                                f"at E_F={row[0]}")
                break
            if stable not in charges or energies[charges.index(stable)] != envelope:
                problems.append(f"{label}: stable_q {stable} is not on the envelope at E_F={row[0]}")
                break
        levels = json.loads((out / "diagrams" / f"{label}_levels.json").read_text())
        corr = levels["corrections_eV"]
        # total(q) = -q^2 K - q dphi, so 4 total(-1) - total(-2) = 2 dphi
        offset = 0.5 * (4.0 * corr["-1"] - corr["-2"])
        if abs(offset - truth["offset_V"][label]) > OFFSET_TOL_V:
            problems.append(f"{label}: alignment offset {offset:.6f} V, generated "
                            f"{truth['offset_V'][label]:.6f} V")
    return problems


def _optics(out: Path, truth: dict) -> list[str]:
    rows = _csv_rows(out / "optics" / f"{truth['stem']}_check.csv")
    col = {name: i for i, name in enumerate(rows[0])}
    flagged = sorted(r[0] for r in rows[1:] if r[col["consistency_flag"]] == "INCONSISTENT")
    problems = []
    if flagged != sorted(truth["flagged"]):
        problems.append(f"flagged rows {flagged}, expected {truth['flagged']}")
    for r in rows[1:]:
        if r[0] in truth["reconstructed"]:
            if r[col["zpl_source"]] != "reconstructed" or \
                    abs(float(r[col["zpl_meV"]]) - truth["reconstructed"][r[0]]) > 1e-9:
                problems.append(f"{r[0]}: ZPL not reconstructed from reference + shift")
    return problems


def _check_table1(out: Path, truth: dict) -> list[str]:
    rows = _csv_rows(out / "optics" / "table1_check.csv")
    return [] if len(rows) > 1 else ["table1_check.csv has no rows"]


def _tdm(out: Path, truth: dict) -> list[str]:
    got = json.loads((out / "optics" / "tdm.json").read_text())["squared_total_debye2"]
    want = truth["squared_total_debye2"]
    if abs(got - want) > TDM_REL_TOL * want:
        return [f"squared TDM {got:.6g} D^2, analytic {want:.6g} D^2"]
    return []


def _lifetime(out: Path, truth: dict) -> list[str]:
    got = json.loads((out / "fits" / f"{truth['stem']}_lifetime.json").read_text())["tau_ns"]
    want = truth["tau_ns"]
    return [] if abs(got - want) <= TAU_REL_TOL * want else [f"tau {got:.5g} ns, generated {want:.5g} ns"]


def _saturation(out: Path, truth: dict) -> list[str]:
    fit = json.loads((out / "fits" / f"{truth['stem']}_saturation.json").read_text())
    want = truth["p_sat_mW"]
    if not fit["identifiable"] or abs(fit["p_sat_mW"] - want) > 0.1 * want:
        return [f"P_sat {fit['p_sat_mW']:.4g} mW (identifiable={fit['identifiable']}), "
                f"generated {want:g} mW"]
    return []


def _dose(out: Path, truth: dict) -> list[str]:
    lines = (out / "fits" / f"{truth['stem']}_classified.jsonl").read_text().splitlines()
    got = [json.loads(ln)["regime"] for ln in lines]
    return [] if got == truth["regimes"] else [f"regimes {got}, expected {truth['regimes']}"]


def _raster(out: Path, truth: dict) -> list[str]:
    rows = _csv_rows(out / "fits" / f"{truth['stem']}_raster.csv")
    xs = rows[0][1:]
    body = rows[1:]
    if [len(body), len(xs)] != truth["shape"]:
        return [f"raster shape {[len(body), len(xs)]}, expected {truth['shape']}"]
    missing, values = [], truth["values"]
    for row in body:
        y = row[0]
        for x, cell in zip(xs, row[1:]):
            if cell == "nan":
                missing.append((float(x), float(y)))
            elif float(cell) != values.get(f"{float(x)!r},{float(y)!r}", math.nan):
                return [f"raster value at ({x}, {y}) is {cell}, not the scanned value"]
    want = [tuple(p) for p in truth["missing_um"]]
    if sorted(missing) != want:
        return [f"missing points {sorted(missing)[:5]}..., expected {want[:5]}..."]
    logged = [ln for ln in (out / "logs" / "raster.log").read_text().splitlines()
              if ln.startswith("missing scan point")]
    if len(logged) != len(want):
        return [f"log lists {len(logged)} missing points, expected {len(want)}"]
    return []


CHECKS = {
    "diagram": _diagram, "optics": _optics, "check-table1": _check_table1, "tdm": _tdm,
    "lifetime": _lifetime, "saturation": _saturation, "dose": _dose,
    "raster": _raster,
}


def check(command: str, out: Path, truth: dict) -> list[str]:
    """Problems with one command's artifacts; unreadable or malformed artifacts count too."""
    try:
        return CHECKS[command](out, truth.get(command, {}))
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
