"""Seeded inputs, command lines and ground truth for the benchmark workloads.

Each generator writes one workload's input files into a directory, using the
package's public writers wherever one exists, and returns a ``Workload``: the
CLI commands to run (without ``--out``) and the ground truth the output
checks compare against.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from defect_forge import CrystalCell, DecayTrace, EwaldContext, GridFunction, Site, Spectrum
from defect_forge import io_formats as io
from defect_forge.lattice import minimum_image
from defect_forge.optics import OpticsRecord
from defect_forge.units import COULOMB_EV_ANG

from checks import tree_digest

# CODATA: one elementary charge times one angstrom, in debye.  Kept apart from
# the package's own constant so the TDM check does not share its numbers.
DEBYE_PER_E_ANG = 1.602176634e-29 / (1e-21 / 299792458.0)
# <1s| z |2p_z> of hydrogen in units of the Bohr radius: 128 sqrt(2) / 243
HYDROGENIC_1S_2PZ = 128.0 * np.sqrt(2.0) / 243.0
# Gaussian counting noise on the PL spectra, as in scripts/generate_demo_inputs.py
PL_NOISE = 2.0


@dataclass
class Workload:
    name: str
    commands: list[tuple[str, list[str]]]
    truth: dict = field(default_factory=dict)


# --- shared pieces ---------------------------------------------------------------

def _cubic_host(n: int, spacing: float, dielectric) -> CrystalCell:
    sites = tuple(Site("Si", (i / n, j / n, k / n))
                  for i in range(n) for j in range(n) for k in range(n))
    return CrystalCell(np.eye(3) * (n * spacing), sites, dielectric=dielectric)


def _site_potentials(cell: CrystalCell, ctx: EwaldContext, charge: int, defect_site: int,
                     phi_from_origin: np.ndarray, n: int, offset: float, noise: float, rng):
    """Model potentials (V) at every other site of a simple-cubic host, plus offset and noise.

    ``phi_from_origin[j]`` is the Ewald potential per unit charge at site j
    for a charge on site 0.  Sites sit on an n x n x n grid, so a charge on
    site s sees site j exactly as a charge on site 0 sees the site at the
    index difference (j - s) mod n along each axis.
    """
    idx = np.arange(n ** 3)
    coords = np.stack([idx // (n * n), (idx // n) % n, idx % n], axis=1)
    shifted = (coords - coords[defect_site]) % n
    rel = shifted[:, 0] * n * n + shifted[:, 1] * n + shifted[:, 2]
    keep = idx != defect_site
    v = COULOMB_EV_ANG * charge * phi_from_origin[rel[keep]]
    v = v + offset + rng.normal(0.0, noise, keep.sum())
    return [(int(i), float(x)) for i, x in zip(idx[keep], v)]


def _phi_from_origin(cell: CrystalCell, ctx: EwaldContext) -> np.ndarray:
    disp = minimum_image(cell, cell.site_positions() - cell.site_positions()[0])
    phi = np.zeros(len(cell.sites))
    phi[1:] = ctx.potential_terms(disp[1:])
    return phi


def _write_defect(target: Path, stem: str, e_total: float, position, pots=None, eig=None):
    lines = [f"e_total = {e_total!r}", "delta.C = 1",
             "position = " + " ".join(repr(float(x)) for x in position)]
    (target / f"{stem}.run").write_text("\n".join(lines) + "\n")
    if pots is not None:
        (target / f"{stem}.pot").write_text("\n".join(f"{i} {v:.10f}" for i, v in pots) + "\n")
    if eig is not None:
        (target / f"{stem}.eig").write_text(eig)


def _manifest(project: str, dielectric: str, entries, spectra=()) -> str:
    lines = [f"project = {project}", "", "[host]", "cell = host.cell", "e_bulk = 0.0",
             "e_vbm = 0.0", "e_gap = 1.17", f"dielectric = {dielectric}", "mu.C = 0.0", ""]
    for label, charge, keys in entries:
        lines.append(f"[defect {label} {charge}]")
        lines += [f"{k} = {v}" for k, v in keys]
        lines.append("")
    for kind, name in spectra:
        lines += [f"[spectrum {kind}]", f"file = {name}"]
    return "\n".join(lines) + "\n"


def _lorentzian_spectrum(wl, baseline, lines, noise, rng):
    counts = np.full_like(wl, baseline)
    for amp, center, fwhm in lines:
        hw = 0.5 * fwhm
        counts += amp * hw * hw / ((wl - center) ** 2 + hw * hw)
    counts += rng.normal(0.0, noise, len(wl)).clip(-10, None)
    return np.clip(counts, 0.0, None)


def _decay(t, amp, tau, background, rng):
    return rng.poisson(amp * np.exp(-t / tau) + background).astype(float)


def _raster(target: Path, name: str, nx: int, ny: int, pitch: float, missing, rng):
    """Row-major scan file; returns the value of every written point by (ix, iy)."""
    rows, values = [], {}
    for iy in range(ny):
        for ix in range(nx):
            if (ix, iy) in missing:
                continue
            v = 50.0 * (iy + 1) + 20.0 * np.sin(0.3 * ix) + rng.normal(0.0, 3.0)
            text = f"{v:.3f}"
            values[(ix, iy)] = float(text)
            rows.append(f"{ix * pitch!r},{iy * pitch!r},{text}")
    (target / name).write_text("x_um,y_um,counts\n" + "\n".join(rows) + "\n")
    return values


def _hydrogenic_pair(target: Path, n: int, side: float, rng) -> float:
    """1s / 2p_z pair with Bohr radius side/30, each with a seeded global phase.

    Returns the analytic |<1s| z |2p_z>|^2 in debye^2.
    """
    box = CrystalCell(np.eye(3) * side)
    io.save_structure(box, target / "box.cell", comment="bare box for grid states")
    a = side / 30.0
    idx = np.arange(n) / n
    fx, fy, fz = np.meshgrid(idx, idx, idx, indexing="ij")
    x, y, z = (fx - 0.5) * side, (fy - 0.5) * side, (fz - 0.5) * side
    r = np.sqrt(x * x + y * y + z * z)
    phase_i, phase_f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
    io.save_grid(GridFunction((n, n, n), phase_i * np.exp(-r / a), box), target / "psi_i.grid")
    io.save_grid(GridFunction((n, n, n), phase_f * z * np.exp(-r / (2.0 * a)), box),
                 target / "psi_f.grid")
    return float((HYDROGENIC_1S_2PZ * a * DEBYE_PER_E_ANG) ** 2)


# --- workloads ---------------------------------------------------------------------

def demo(target: Path, seed: int) -> Workload:
    """Seeded twin of scripts/generate_demo_inputs.py, plus a ZPL/TDM record table.

    The PL spectrum is read by the manifest's [spectrum pl] section only:
    `fitpl` is not run on it, because fit_peaks fails on about one seed in
    five at the demo's noise (see README.md, "Known defect").
    """
    rng = np.random.default_rng([seed, 1])
    cell = _cubic_host(4, 2.715, 11.7)
    io.save_structure(cell, target / "host.cell", comment="silicon host model cell")
    ctx = EwaldContext.for_cell(cell)
    phi = _phi_from_origin(cell, ctx)
    defect_site = 2 * 16 + 2 * 4 + 2          # fractional (0.5, 0.5, 0.5)
    offset = float(rng.uniform(-0.05, -0.01))
    entries = []
    for q, e_tot in {0: 1.0, -1: 1.45, -2: 2.2}.items():
        pots = eig = None
        keys = [("energy", f"ci_q{q}.run")]
        if q == 0:
            eig = "down 0 0.100 1.0\ndown 1 0.917 0.0\nup 0 0.120 1.0\nup 1 0.940 0.0\n"
            keys.append(("eigenvalues", f"ci_q{q}.eig"))
        else:
            pots = _site_potentials(cell, ctx, q, defect_site, phi, 4, offset, 2e-4, rng)
            keys.append(("site_potentials", f"ci_q{q}.pot"))
        _write_defect(target, f"ci_q{q}", e_tot, (0.5, 0.5, 0.5), pots, eig)
        entries.append(("Ci", q, keys))

    wl = np.arange(1410.0, 1460.0, 0.01)
    centers = [c + rng.uniform(-0.3, 0.3) for c in (1415.4, 1441.7, 1444.3, 1450.8, 1453.6)]
    lines = list(zip((420.0, 900.0, 600.0, 1200.0, 800.0), centers, [0.30] * 5))
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=_lorentzian_spectrum(wl, 15.0, lines, PL_NOISE, rng),
                              temperature_k=6.0, power_mw=0.5, grating_gpmm=150.0),
                     target / "pl.csv")

    tau = float(3.0 * rng.uniform(0.9, 1.1))
    t = np.linspace(0.0, 30.0, 600)
    io.save_decay(DecayTrace(time_ns=t, counts=_decay(t, 1200.0, tau, 12.0, rng)), target / "trpl.csv")

    p_sat = 0.7
    p = np.geomspace(0.05, 3.0, 18)
    sat = 5200.0 * p / (p + p_sat) * rng.normal(1.0, 0.015, len(p))
    (target / "saturation.csv").write_text(io.write_xy(p, sat, "power_mW,intensity"))

    flu = [10.0, 16.0, 22.0, 30.0, 38.0, 44.5]
    inten = [150.0, 1000.0, 500.0, 60.0, 420.0, 900.0]
    (target / "dose.csv").write_text(io.write_xy(flu, inten, "fluence_mJcm2,intensity"))

    hole = (int(rng.integers(10)), int(rng.integers(8)))
    raster_values = _raster(target, "raster.csv", 10, 8, 2.0, {hole}, rng)

    box = CrystalCell(np.eye(3) * 12.0)
    io.save_structure(box, target / "box.cell", comment="bare box for grid states")
    n = 24
    idx = np.arange(n) / n
    fx, fy, fz = np.meshgrid(idx, idx, idx, indexing="ij")
    d2 = (fx - 0.5) ** 2 + (fy - 0.5) ** 2 + (fz - 0.5) ** 2
    io.save_grid(GridFunction((n, n, n), np.exp(-d2 * 40.0), box), target / "psi_i.grid")
    io.save_grid(GridFunction((n, n, n), (fz - 0.5) * np.exp(-d2 * 40.0), box), target / "psi_f.grid")
    # s = exp(-alpha r^2), p = z exp(-alpha r^2) with alpha = 40 / 12^2 per A^2:
    # <s| z |p> = 1 / (2 sqrt(alpha)) for the normalized pair
    alpha = 40.0 / 144.0
    tdm_truth = float((DEBYE_PER_E_ANG / (2.0 * np.sqrt(alpha))) ** 2)

    reference = float(round(rng.uniform(560.0, 580.0), 3))
    shifts = [round(float(s), 3) for s in rng.uniform(-25.0, 25.0, 5)]
    bad = int(rng.integers(1, 5))
    records = [OpticsRecord("X0", 0, "down", reference, 12.5, None)]
    for k, s in enumerate(shifts):
        zpl = reference + s + (3.0 if k == bad else 0.0)
        records.append(OpticsRecord(f"X{k + 1}", -1, "up", None if k == 0 else zpl,
                                    float(round(rng.uniform(1.0, 20.0), 3)), s))
    (target / "records.csv").write_text(io.write_optics_records(records))

    (target / "run.manifest").write_text(_manifest(
        "demo", "11.7", entries,
        (("pl", "pl.csv"), ("trpl", "trpl.csv"), ("dose", "dose.csv"), ("raster", "raster.csv"))))

    commands = [
        ("diagram", ["diagram", "--manifest", "run.manifest"]),
        ("optics", ["optics", "--table", "records.csv", "--reference", repr(reference)]),
        ("check-table1", ["check-table1"]),
        ("tdm", ["tdm", "--psi-i", "psi_i.grid", "--psi-f", "psi_f.grid", "--cell", "box.cell"]),
        ("lifetime", ["lifetime", "--data", "trpl.csv"]),
        ("saturation", ["saturation", "--data", "saturation.csv"]),
        ("dose", ["dose", "--data", "dose.csv", "--label", "G", "--classify", "16,30,44.5,300",
                  "--damage-threshold", "100"]),
        ("raster", ["raster", "--data", "raster.csv"]),
    ]
    truth = {
        "diagram": {"labels": ["Ci"], "offset_V": {"Ci": offset}},
        "optics": {"stem": "records", "flagged": [f"X{bad + 1} (-1)"],
                   "reconstructed": {"X1 (-1)": reference + shifts[0]}},
        "tdm": {"squared_total_debye2": tdm_truth},
        "lifetime": {"stem": "trpl", "tau_ns": tau},
        "saturation": {"stem": "saturation", "p_sat_mW": p_sat},
        "dose": {"stem": "dose", "regimes": ["write", "erase", "rewrite", "near-damage(W-forming)"]},
        "raster": _raster_truth("raster", 10, 8, 2.0, {hole}, raster_values),
    }
    return Workload("demo", commands, truth)


def supercell(target: Path, seed: int) -> Workload:
    """512-atom host, 24 defects in three charge states, 96^3 grid pair."""
    rng = np.random.default_rng([seed, 2])
    n = 8
    eps = (10.9, 11.7, 12.6)
    cell = _cubic_host(n, 2.715, np.diag(eps))
    io.save_structure(cell, target / "host.cell", comment="512-site cubic host")
    ctx = EwaldContext.for_cell(cell)
    phi = _phi_from_origin(cell, ctx)
    sites = rng.choice(n ** 3, size=24, replace=False)
    entries, offsets = [], {}
    for k, site in enumerate(sites):
        label = f"D{k:02d}"
        offset = float(rng.uniform(-0.08, 0.08))
        offsets[label] = offset
        e0 = 1.0 + rng.uniform(-0.2, 0.2)
        energies = {0: e0, -1: e0 + rng.uniform(0.2, 0.9), -2: e0 + rng.uniform(0.9, 2.2)}
        for q, e_tot in energies.items():
            stem = f"{label}_q{-q}"
            pots = None
            keys = [("energy", f"{stem}.run")]
            if q != 0:
                pots = _site_potentials(cell, ctx, q, int(site), phi, n, offset, 2e-4, rng)
                keys.append(("site_potentials", f"{stem}.pot"))
            _write_defect(target, stem, float(e_tot), cell.sites[int(site)].frac, pots)
            entries.append((label, q, keys))
    (target / "run.manifest").write_text(
        _manifest("supercell", " ".join(map(repr, eps)), entries))
    tdm_truth = _hydrogenic_pair(target, 96, 20.0, rng)
    commands = [
        ("diagram", ["diagram", "--manifest", "run.manifest"]),
        ("tdm", ["tdm", "--psi-i", "psi_i.grid", "--psi-f", "psi_f.grid", "--cell", "box.cell"]),
    ]
    truth = {
        "diagram": {"labels": sorted(offsets), "offset_V": offsets},
        "tdm": {"squared_total_debye2": tdm_truth},
    }
    return Workload("supercell", commands, truth)


def spectra(target: Path, seed: int) -> Workload:
    """200 x 200 raster with gaps and a 4096-bin TCSPC decay.

    There is no PL survey spectrum here: at the demo's noise, fit_peaks fails
    on most seeds of a 10-line survey (see README.md, "Known defect").
    """
    rng = np.random.default_rng([seed, 3])
    n_missing = int(rng.integers(24, 49))
    flat = rng.choice(200 * 200, size=n_missing, replace=False)
    missing = {(int(i % 200), int(i // 200)) for i in flat}
    raster_values = _raster(target, "scan.csv", 200, 200, 0.5, missing, rng)

    tau = float(rng.uniform(2.0, 5.0))
    t = np.arange(4096) * 0.0125
    io.save_decay(DecayTrace(time_ns=t, counts=_decay(t, 8000.0, tau, 5.0, rng)), target / "tcspc.csv")

    commands = [
        ("raster", ["raster", "--data", "scan.csv"]),
        ("lifetime", ["lifetime", "--data", "tcspc.csv"]),
    ]
    truth = {
        "raster": _raster_truth("scan", 200, 200, 0.5, missing, raster_values),
        "lifetime": {"stem": "tcspc", "tau_ns": tau},
    }
    return Workload("spectra", commands, truth)


def _raster_truth(stem, nx, ny, pitch, missing, values):
    return {
        "stem": stem,
        "shape": [ny, nx],
        "missing_um": sorted((ix * pitch, iy * pitch) for ix, iy in missing),
        "values": {f"{ix * pitch!r},{iy * pitch!r}": v for (ix, iy), v in values.items()},
    }


GENERATORS = {"demo": demo, "supercell": supercell, "spectra": spectra}


def _environment() -> dict:
    from importlib import metadata
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def serve(name: str, seed: int, work: Path, trace: bool) -> None:
    """Generate the inputs into work/inputs, then time more set-ups on request.

    The first line printed is the set-up record as JSON.  With `trace` the
    package's public functions are wrapped first, so the time spent in
    io_formats.write_grid is measured, and the process ends there.  Otherwise
    it generates the inputs again into a scratch directory for every line it
    reads on standard input, checks that they hash the same as the first copy
    and prints the seconds the generation took.
    """
    recorder = None
    if trace:
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    workload = GENERATORS[name](inputs, seed)
    seconds = time.perf_counter() - t0
    digests = tree_digest(inputs)
    spans = recorder.spans if recorder else []
    print(json.dumps({
        "workload": asdict(workload), "inputs": str(inputs), "seconds": seconds,
        "sha256": digests, "environment": _environment(),
        "write_grid_s": sum(t1 - t0 for _, _, n, _, t0, t1, _ in spans if n == "io_formats.write_grid"),
    }), flush=True)
    if trace:
        return
    again = work / "inputs-again"
    for _ in sys.stdin:
        again.mkdir()
        t0 = time.perf_counter()
        GENERATORS[name](again, seed)
        seconds = time.perf_counter() - t0
        if tree_digest(again) != digests:
            sys.exit("set-up is not deterministic: inputs differ between repeats")
        shutil.rmtree(again)
        print(seconds, flush=True)


if __name__ == "__main__":
    # python benchmark/workloads.py NAME SEED WORK_DIR TRACE
    import defect_forge
    src = Path(__file__).resolve().parent.parent / "src" / "defect_forge"
    if Path(defect_forge.__file__).resolve().parent != src:
        sys.exit(f"imported defect_forge from {defect_forge.__file__}, not {src}")
    name, seed, work, trace = sys.argv[1:5]
    serve(name, int(seed), Path(work), trace == "1")
