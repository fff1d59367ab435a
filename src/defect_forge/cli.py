"""Command-line interface.

Every command reads plain-text inputs, writes deterministic CSV/JSON
artifacts under --out (layout: diagrams/, optics/, fits/, logs/) and exits
with 0 on success, 2 on a validation or parse error, and 3 when a fit does
not converge.  Identical inputs produce byte-identical outputs; log files
carry no timestamps either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

# Each command's BLAS work is small (least squares with a few parameters per
# peak, Ewald products on (N, 3) arrays), but an OpenBLAS thread pool spins on a
# second core for about 0.1 s per process.  So run one BLAS thread, unless the
# user set a count or numpy is loaded already (an in-process caller).
if "numpy" not in sys.modules and not any(
        os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import io_formats as io
from .dose import calibrate, classify
from .errors import FitNonConvergence, ValidationError
from .ewald import EwaldContext, finite_size_correction
from .fitting import LINE_SHAPES
from .manifest import load_manifest
from .optics import table_consistency_check, transition_dipole
from .spectro import fit_lifetime, fit_peaks, fit_saturation, raster_map
from .thermo import build_diagram

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
MAX_FERMI_GRID = 10**6  # Fermi levels per diagram CSV; a larger grid is refused before anything is read


class _Out:
    """Output directory with the fixed layout and an optional verbose log."""

    def __init__(self, root, command: str, verbose: bool):
        self.root = Path(root)
        self.verbose = verbose
        self._log: list[str] = []
        self.command = command
        for sub in ("diagrams", "optics", "fits", "logs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def log(self, message: str):
        self._log.append(message)
        if self.verbose:
            print(message, file=sys.stderr)

    def write(self, relpath: str, text: str):
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self.log(f"wrote {relpath}")

    def finish(self):
        if self._log:
            (self.root / "logs" / f"{self.command}.log").write_text(
                "\n".join(self._log) + "\n", encoding="utf-8")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# --- commands -------------------------------------------------------------------

def _cmd_diagram(args, out: _Out) -> None:
    if args.fermi_grid < 2:
        raise ValidationError("n_fermi must be >= 2")
    if args.fermi_grid > MAX_FERMI_GRID:
        raise ValidationError(f"n_fermi must be <= {MAX_FERMI_GRID}, got {args.fermi_grid}")
    manifest = load_manifest(args.manifest)
    out.log(f"project '{manifest.project}': {len(manifest.defects)} defect entries")
    ctx = None
    by_label = {}
    for entry in manifest.defects:
        by_label.setdefault(entry.run.label, []).append(entry)
    for label, entries in sorted(by_label.items()):
        corrections = {}
        runs = [entry.run for entry in entries]
        for entry, run in zip(entries, runs):
            if entry.site_potentials is not None and run.charge != 0:
                if ctx is None:
                    ctx = EwaldContext(manifest.cell)
                with io._at(entry.site_potential_path, entry.site_potential_line):  # a .pot the correction refuses
                    corr = finite_size_correction(ctx, run.charge, entry.site_potentials, run.position)
                corrections[run.charge] = corr.total
                out.log(
                    f"{label} q={run.charge:+d}: E_pc={corr.point_charge_energy:.6f} eV, "
                    f"alignment={corr.alignment_energy:.6f} eV over {corr.n_sampled} sites"
                )
        diag = build_diagram(runs, manifest.host, corrections)
        out.write(f"diagrams/{label}.csv", io.write_diagram_csv(diag, np.linspace(0.0, diag.gap, args.fermi_grid)))
        summary = {
            "label": label,
            "gap_eV": diag.gap,
            "lines": [{"charge": q, "intercept_eV": c} for q, c in diag.lines],
            "stable_intervals": [
                {"from_eV": iv.lo, "to_eV": iv.hi, "charge": iv.charge} for iv in diag.intervals
            ],
            "transition_levels": [
                {"from_charge": a, "to_charge": b, "fermi_eV": f}
                for (a, b), f in diag.transition_levels
            ],
            "intrinsic_fermi_eV": diag.intrinsic_fermi,
            "stable_at_intrinsic": diag.stable_at_intrinsic,
            "corrections_eV": {str(q): c for q, c in corrections.items()},
        }
        out.write(f"diagrams/{label}_levels.json", _json(summary))
        print(f"{label}: stable charge at intrinsic Fermi level = {diag.stable_at_intrinsic:+d}")


def _check_records(records, reference, out: _Out, stem: str) -> None:
    checks = table_consistency_check(records, reference)
    out.write(f"optics/{stem}.csv", io.write_table_check(checks))
    flagged = [c for c in checks if c.flagged]
    rebuilt = [c for c in checks if c.reconstructed]
    for c in rebuilt:
        print(f"reconstructed: {c.record.defect} ({io.charge_str(c.record.charge)}) "
              f"ZPL = {c.zpl_mev:g} meV from reference + shift")
    for c in flagged:
        print(f"INCONSISTENT: {c.record.defect} ({io.charge_str(c.record.charge)}) "
              f"stated shift {c.record.shift_mev:g} meV vs recomputed "
              f"{c.recomputed_shift_mev:g} meV (discrepancy {c.discrepancy_mev:g} meV)")
    print(f"{len(checks)} rows checked, {len(flagged)} inconsistent, {len(rebuilt)} reconstructed")


def _cmd_optics(args, out: _Out) -> None:
    records = io.load_optics_records(args.table)
    _check_records(records, args.reference, out, Path(args.table).stem + "_check")


def _reference_from_records(records) -> float:
    anchors = [r for r in records if r.shift_mev is None and r.zpl_mev is not None]
    if len(anchors) != 1:
        raise ValidationError(
            f"expected exactly one reference row (empty shift), found {len(anchors)}"
        )
    return anchors[0].zpl_mev


def _cmd_check_table1(args, out: _Out) -> None:
    text = (resources.files("defect_forge.data") / "ci_reference_table.csv").read_text(encoding="utf-8")
    records = io.parse_optics_records(text, source="ci_reference_table.csv")
    reference = _reference_from_records(records)
    out.log(f"bundled table: {len(records)} rows, reference ZPL {reference:g} meV")
    _check_records(records, reference, out, "table1_check")


def _cmd_tdm(args, out: _Out) -> None:
    cell = io.load_structure(args.cell)
    psi_i, psi_f = io._load_grid_pair(args.psi_i, args.psi_f, cell)
    result = transition_dipole(psi_i, psi_f)
    payload = {
        "components_debye": {
            axis: {"re": comp.real, "im": comp.imag}
            for axis, comp in zip("xyz", result.components_debye)
        },
        "squared_components_debye2": dict(zip("xyz", map(float, result.squared_components))),
        "squared_total_debye2": result.squared_total,
        "overlap": {"re": result.overlap.real, "im": result.overlap.imag},
        "centroid_frac": list(map(float, result.centroid_frac)),
    }
    out.write("optics/tdm.json", _json(payload))
    print(f"squared TDM = {result.squared_total:.6g} Debye^2 "
          f"(|overlap| = {abs(result.overlap):.3g})")


def _cmd_fitpl(args, out: _Out) -> None:
    spec = io.load_spectrum(args.data)
    peaks = fit_peaks(spec, model=args.model, max_peaks=args.max_peaks)
    stem = Path(args.data).stem
    rows = ["center_nm,fwhm_nm,amplitude,baseline,model,residual_rms,resolution_limited,converged"]
    for p in peaks:
        limited = "" if p.resolution_limited is None else str(p.resolution_limited).lower()
        rows.append(f"{p.center_nm:.6f},{p.fwhm_nm:.6g},{p.amplitude:.6g},{p.baseline:.6g},"
                    f"{p.model},{p.residual_rms:.6g},{limited},true")
    out.write(f"fits/{stem}_peaks.csv", "\n".join(rows) + "\n")
    out.log(f"peak fit: {len(peaks)} peak(s), residual rms {peaks[0].residual_rms:.6g}, "
            "converged=True")
    for p in peaks:
        note = " (resolution-limited)" if p.resolution_limited else ""
        print(f"peak at {p.center_nm:.4f} nm, FWHM {p.fwhm_nm:.4g} nm, "
              f"amplitude {p.amplitude:.4g}{note}")


def _cmd_lifetime(args, out: _Out) -> None:
    trace = io.load_decay(args.data)
    fit = fit_lifetime(trace)
    stem = Path(args.data).stem
    payload = {
        "tau_ns": fit.tau_ns,
        "tau_stderr_ns": fit.tau_stderr_ns,
        "amplitude": fit.amplitude,
        "background": fit.background,
        "residual_rms": fit.residual_rms,
    }
    out.write(f"fits/{stem}_lifetime.json", _json(payload))
    out.log(f"decay fit: residual rms {fit.residual_rms:.6g}, converged=True")
    print(f"tau = {fit.tau_ns:.4g} ns (+- {fit.tau_stderr_ns:.2g})")


def _cmd_saturation(args, out: _Out) -> None:
    powers, intensities = io.load_xy(args.data, "power_mW,intensity")
    fit = fit_saturation(powers, intensities)
    stem = Path(args.data).stem
    payload = {
        "i_sat": fit.i_sat,
        "i_sat_stderr": fit.i_sat_stderr,
        "p_sat_mW": fit.p_sat_mw,
        "p_sat_stderr_mW": fit.p_sat_stderr_mw,
        "residual_rms": fit.residual_rms,
        "identifiable": fit.identifiable,
    }
    out.write(f"fits/{stem}_saturation.json", _json(payload))
    out.log(f"saturation fit: residual rms {fit.residual_rms:.6g}, "
            f"identifiable={fit.identifiable}")
    if fit.identifiable:
        print(f"P_sat = {fit.p_sat_mw:.4g} mW, I_sat = {fit.i_sat:.6g}")
    else:
        print("saturation knee unidentifiable: P_sat outside the measured power range")


def _cmd_dose(args, out: _Out) -> None:
    fluences, intensities = io.load_xy(args.data, "fluence_mJcm2,intensity")
    curve = calibrate(zip(fluences, intensities), label=args.label)
    stem = Path(args.data).stem
    summary = {
        "label": curve.label,
        "boundaries_mJcm2": list(curve.boundaries),
        "segments": [
            {"from": s.lo, "to": s.hi, "direction": s.direction, "regime": s.regime}
            for s in curve.segments
        ],
    }
    out.write(f"fits/{stem}_dose.json", _json(summary))
    lines = []
    for f in args.classify or []:
        regime, segment = classify(curve, f, args.damage_threshold)
        lines.append(json.dumps(
            {"fluence_mJcm2": f, "regime": regime, "segment": segment}, sort_keys=True))
        print(f"{f:g} mJ/cm^2 -> {regime}")
    if lines:
        out.write(f"fits/{stem}_classified.jsonl", "\n".join(lines) + "\n")


def _cmd_raster(args, out: _Out) -> None:
    points = io.load_raster_points(args.data)
    rmap = raster_map(points)
    stem = Path(args.data).stem
    out.write(f"fits/{stem}_raster.csv", io.write_raster_csv(rmap))
    out.write(f"fits/{stem}_raster.pgm", io.write_raster_pgm(rmap))
    if rmap.missing:
        for x, y in rmap.missing:
            out.log(f"missing scan point at ({x:g}, {y:g}) um")
        print(f"{len(rmap.missing)} missing scan point(s) filled with NaN")
    print(f"raster grid {rmap.values.shape[1]} x {rmap.values.shape[0]}")


# --- argument wiring --------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defect-forge",
        description="Post-processing for point-defect quantum-emitter studies",
    )
    parser.add_argument("--verbose", action="store_true", help="echo diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="formation-energy diagrams from a run manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fermi-grid", type=int, default=2001, dest="fermi_grid")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("optics", help="consistency-check a ZPL/TDM record table")
    p.add_argument("--table", required=True)
    p.add_argument("--reference", type=float, required=True, help="reference ZPL in meV")
    p.set_defaults(func=_cmd_optics)

    p = sub.add_parser("check-table1", help="check the bundled reference table")
    p.set_defaults(func=_cmd_check_table1)

    p = sub.add_parser("tdm", help="transition dipole moment from two grid wavefunctions")
    p.add_argument("--psi-i", required=True, dest="psi_i")
    p.add_argument("--psi-f", required=True, dest="psi_f")
    p.add_argument("--cell", required=True)
    p.set_defaults(func=_cmd_tdm)

    p = sub.add_parser("fitpl", help="fit PL spectrum peaks")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=LINE_SHAPES, default="lorentzian")
    p.add_argument("--max-peaks", type=int, default=5, dest="max_peaks")
    p.set_defaults(func=_cmd_fitpl)

    p = sub.add_parser("lifetime", help="fit a first-order TR-PL decay")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_lifetime)

    p = sub.add_parser("saturation", help="fit a PL saturation curve")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_saturation)

    def float_list(text: str) -> list[float]:  # argparse names it in a usage error
        return [float(x) for x in text.split(",")]

    p = sub.add_parser("dose", help="calibrate a fluence dose curve and classify fluences")
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="")
    p.add_argument("--classify", type=float_list, default=None,
                   help="comma-separated fluences to classify (mJ/cm^2)")
    p.add_argument("--damage-threshold", type=float, default=100.0, dest="damage_threshold")
    p.set_defaults(func=_cmd_dose)

    p = sub.add_parser("raster", help="assemble scan points into a 2-D map")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_raster)
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = _Out(args.out, args.command.replace("-", "_"), args.verbose)
    except OSError as exc:
        # no output tree exists, so the error cannot go to out.log
        print(f"error: cannot create the output tree under --out {args.out}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_VALIDATION
    code, message = EXIT_OK, None
    try:
        args.func(args, out)
    except ValidationError as exc:
        code, message = EXIT_VALIDATION, f"error: {exc}"
    except FitNonConvergence as exc:
        code, message = EXIT_NONCONVERGED, f"fit did not converge: {exc}"
    if message:
        print(message, file=sys.stderr)
        out.log(message)
    out.finish()
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
