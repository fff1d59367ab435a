"""CLI surface: commands, exit codes, artifact layout, byte-determinism."""

import json
import os
import pkgutil
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import defect_forge
from defect_forge import CrystalCell, DecayTrace, Spectrum
from defect_forge import io_formats as io
from defect_forge.cli import main
from defect_forge.fitting import decay_model, peak_model, saturation_model
from defect_forge.optics import GridFunction

from oracles import read_diagram_csv
from test_io import write_demo_manifest
from test_spectro import _demo_pl_spectrum, noise_only_spectrum


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_command_inputs(root: Path) -> dict[str, list]:
    """Small valid inputs of the eight commands that read files; command -> its arguments but --out.

    The first path among each command's arguments is its main input.
    """
    manifest = write_demo_manifest(root)
    cell = CrystalCell(np.eye(3) * 8.0)
    io.save_structure(cell, root / "tdm.cell")
    f = (np.arange(4) + 0.5) / 4
    fx, fy, fz = np.meshgrid(f, f, f, indexing="ij")
    envelope = np.exp(-8.0 * ((fx - 0.5) ** 2 + (fy - 0.5) ** 2 + (fz - 0.5) ** 2))
    io.save_grid(GridFunction((4, 4, 4), envelope, cell), root / "psi_i.grid")
    io.save_grid(GridFunction((4, 4, 4), (fz - 0.5) * envelope, cell), root / "psi_f.grid")
    wl = np.linspace(1449.0, 1453.0, 81)
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=peak_model(wl, [5.0, 1000.0, 1450.8, 0.3])),
                     root / "peak.csv")
    t = np.linspace(0, 30, 40)
    io.save_decay(DecayTrace(time_ns=t, counts=decay_model(t, [1000.0, 3.0, 10.0])),
                  root / "decay.csv")
    p = np.geomspace(0.05, 3.0, 8)
    (root / "sat.csv").write_text(io.write_xy(p, saturation_model(p, [5000.0, 0.7]),
                                              "power_mW,intensity"))
    (root / "table.csv").write_text("label,charge,spin,zpl_meV,tdm_debye2,shift_meV\n"
                                    "A,0,none,569,0.1,\nB,-1,down,600,0.2,31\n,0,up,,0.3,90\n")
    return {
        "diagram": ["--manifest", manifest],
        "optics": ["--table", root / "table.csv", "--reference", "569"],
        "tdm": ["--psi-i", root / "psi_i.grid", "--psi-f", root / "psi_f.grid",
                "--cell", root / "tdm.cell"],
        "fitpl": ["--data", root / "peak.csv", "--max-peaks", "1"],
        "lifetime": ["--data", root / "decay.csv"],
        "saturation": ["--data", root / "sat.csv"],
        "dose": ["--data", root / "dose.csv", "--classify", "16,30"],
        "raster": ["--data", root / "raster.csv"],
    }


def test_command_inputs_are_valid(tmp_path):
    for command, args in write_command_inputs(tmp_path / "inputs").items():
        assert run_cli(command, *args, "--out", tmp_path / command) == 0, command


@pytest.mark.parametrize("command, name", [
    ("diagram", None), ("diagram", "ci_m1.run"), ("diagram", "host.cell"), ("optics", None),
    ("tdm", None), ("tdm", "tdm.cell"), ("fitpl", None), ("lifetime", None), ("saturation", None),
    ("dose", None), ("raster", None),
])
def test_byte_that_is_not_utf8_exit_2(tmp_path, capsys, command, name):
    args = write_command_inputs(tmp_path / "inputs")[command]
    path = tmp_path / "inputs" / name if name else next(a for a in args if isinstance(a, Path))
    lines = path.read_bytes().split(b"\n")
    lines[1] += b" \xff"
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    assert run_cli(command, *args, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:2: not UTF-8 text: byte 0xff" in err
    assert "Traceback" not in err
    assert not list((out / "fits").iterdir()) + list((out / "optics").iterdir())


def test_diagram_command(tmp_path, capsys):
    manifest = write_demo_manifest(tmp_path / "inputs")
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out, "--fermi-grid", "101") == 0
    csv_path = out / "diagrams" / "Ci.csv"
    assert csv_path.is_file()
    charges, fermi, energies, envelope, stable = read_diagram_csv(csv_path.read_text())
    assert charges == [-1, 0]
    assert len(fermi) == 101
    np.testing.assert_array_equal(envelope, energies.min(axis=1))
    levels = json.loads((out / "diagrams" / "Ci_levels.json").read_text())
    assert levels["gap_eV"] == 1.17
    assert "stable charge at intrinsic" in capsys.readouterr().out


def test_diagram_bad_charge_exit_2(tmp_path, capsys):
    manifest = write_demo_manifest(tmp_path / "inputs")
    with open(tmp_path / "inputs" / "ci_0.run", "a") as fh:
        fh.write("charge = abc\n")
    assert run_cli("diagram", "--manifest", manifest, "--out", tmp_path / "out") == 2
    assert "ci_0.run:3: charge must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_diagram_non_finite_energy_exit_2(tmp_path, capsys, bad):
    manifest = write_demo_manifest(tmp_path / "inputs")
    run = tmp_path / "inputs" / "ci_m1.run"
    run.write_text(run.read_text().replace("e_total = 0.45", f"e_total = {bad}"))
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"ci_m1.run:1: non-finite value in e_total: '{bad}'" in err
    assert "Traceback" not in err
    for path in out.rglob("*.json"):
        assert not any(word in path.read_text() for word in ("NaN", "nan", "Infinity"))


def test_diagram_overflowing_formation_energy_exit_2(tmp_path, capsys):
    """Finite energies whose difference overflows: refused before any file of the label is written."""
    manifest = write_demo_manifest(tmp_path / "inputs")
    manifest.write_text(manifest.read_text().replace("e_bulk = 0.0", "e_bulk = -1.7e308"))
    run = tmp_path / "inputs" / "ci_0.run"
    run.write_text(run.read_text().replace("e_total = 1.0", "e_total = 1.7e308"))
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error: formation energy of 'Ci' in charge state +0 is inf" in err
    assert "Traceback" not in err
    assert not list((out / "diagrams").iterdir())


@pytest.mark.parametrize("label", ["../../escaped", "a/b", "a\\b", ".", "..", "C\x00i", "C\x7fi", "C\x9bi"])
def test_diagram_refuses_a_label_that_is_not_one_file_name(tmp_path, capsys, label):
    manifest = write_demo_manifest(tmp_path / "inputs")
    text = manifest.read_text()
    manifest.write_text(text.replace("[defect Ci -1]", f"[defect {label} -1]"), encoding="utf-8")
    line = text[:text.index("[defect Ci -1]")].count("\n") + 1
    out = tmp_path / "a" / "b" / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}:{line}: defect label {label!r} must be one file-name component" in err
    assert "Traceback" not in err
    written = [p for p in tmp_path.rglob("*") if p.is_file() and not p.is_relative_to(tmp_path / "inputs")]
    assert written == [out / "logs" / "diagram.log"]


def test_diagram_refuses_a_label_the_c_locale_cannot_encode(tmp_path):
    manifest = write_demo_manifest(tmp_path / "inputs")
    text = manifest.read_text()
    manifest.write_text(text.replace("[defect Ci 0]", "[defect Cé 0]"), encoding="utf-8")
    line = text[:text.index("[defect Ci 0]")].count("\n") + 1
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    result = subprocess.run([sys.executable, "-m", "defect_forge.cli", "diagram", "--manifest",
                             str(manifest), "--out", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, errors="replace", timeout=120)
    assert result.returncode == 2, result.stderr
    assert f"error: {manifest}:{line}: defect label 'C\\xe9' must be one file-name component" in result.stderr
    assert "Traceback" not in result.stderr
    assert not list((tmp_path / "out" / "diagrams").iterdir())


def test_diagram_leaves_spectrum_and_grid_files_unparsed(tmp_path):
    """diagram reads the .run and .pot records only; a manifest line naming a broken PL file, grid
    pair or .eig table warns and cannot fail it."""
    clean = write_demo_manifest(tmp_path / "clean")
    broken = write_demo_manifest(tmp_path / "broken")
    (tmp_path / "broken" / "psi.grid").write_text("GRID 2 2 2 complex\n1 2 3\n")
    (tmp_path / "broken" / "pl.csv").write_text("wavelength_nm,counts\n1450,abc\n")
    (tmp_path / "broken" / "ci_m1.eig").write_text("down 0 abc 1.0\n")
    retired = "eigenvalues = ci_m1.eig\nwavefunction.i = psi.grid\nwavefunction.f = psi.grid\n"
    text = broken.read_text().replace("site_potentials = ci_m1.pot\n", "site_potentials = ci_m1.pot\n" + retired)
    broken.write_text(text + "[spectrum pl]\nfile = pl.csv\n")
    assert run_cli("diagram", "--manifest", clean, "--out", tmp_path / "o1") == 0
    with pytest.warns(UserWarning, match="ignoring"):
        assert run_cli("diagram", "--manifest", broken, "--out", tmp_path / "o2") == 0
    assert _tree_bytes(tmp_path / "o1" / "diagrams") == _tree_bytes(tmp_path / "o2" / "diagrams")


def write_two_label_manifest(inputs: Path) -> Path:
    """The demo manifest plus Ci -2 at the origin and Cs -1 on the host site (0.25, 0, 0)."""
    manifest = write_demo_manifest(inputs)
    (inputs / "ci_m2.run").write_text("e_total = 0.2\ndelta.C = 1\nposition = 0 0 0\n")
    (inputs / "ci_m2.pot").write_text("\n".join(f"{i} 0.002" for i in range(64)) + "\n")
    (inputs / "cs_m1.run").write_text("e_total = 0.6\ndelta.C = 1\nposition = 0.25 0 0\n")
    with open(manifest, "a") as fh:
        fh.write("[defect Ci -2]\nenergy = ci_m2.run\nsite_potentials = ci_m2.pot\n"
                 "[defect Cs -1]\nenergy = cs_m1.run\nsite_potentials = ci_m1.pot\n")
    return manifest


def test_diagram_evaluates_site_potentials_once_per_position(tmp_path, monkeypatch):
    """Each distinct far-site point is evaluated once per diagram, across charges and labels.

    Ci sits at the origin in charges -1/-2 and Cs on the host site (0.25, 0, 0)
    in charge -1: their sampled displacements are the same points, so the whole
    diagram needs one evaluation per far site of Ci, plus the self potential.
    """
    from defect_forge.ewald import EwaldContext

    manifest = write_two_label_manifest(tmp_path / "inputs")
    evaluated = []
    original = EwaldContext._point_term

    def counting(self, p):
        evaluated.append(p.tobytes())
        return original(self, p)

    monkeypatch.setattr(EwaldContext, "_point_term", counting)
    assert run_cli("diagram", "--manifest", manifest, "--out", tmp_path / "out") == 0
    log = (tmp_path / "out" / "logs" / "diagram.log").read_text()
    sampled = [int(ln.rsplit(" over ", 1)[1].split()[0]) for ln in log.splitlines() if " over " in ln]
    assert len(sampled) == 3 and len(set(sampled)) == 1 and sampled[0] >= 4
    assert "Ci q=-1:" in log and "Ci q=-2:" in log and "Cs q=-1:" in log
    assert len(evaluated) == len(set(evaluated)) == sampled[0] + 1
    assert np.zeros(3).tobytes() in evaluated  # the self potential at the charge site


def _host_last(manifest: Path) -> Path:
    """A copy of the manifest with its sections reversed, so that [host] comes last."""
    preamble, *sections = re.split(r"\n(?=\[)", manifest.read_text().rstrip("\n"))
    assert sections[0].startswith("[host]\n")
    reversed_manifest = manifest.with_name("reversed.manifest")
    reversed_manifest.write_text("\n".join([preamble, *sections[::-1]]) + "\n")
    return reversed_manifest


def test_diagram_section_order_does_not_change_the_diagrams(tmp_path):
    """The sections in file order, and reversed with [host] last, give the same diagrams/ tree."""
    manifest = write_two_label_manifest(tmp_path / "inputs")
    for path, out in ((manifest, tmp_path / "o1"), (_host_last(manifest), tmp_path / "o2")):
        assert run_cli("diagram", "--manifest", path, "--out", out) == 0
    assert _tree_bytes(tmp_path / "o1" / "diagrams") == _tree_bytes(tmp_path / "o2" / "diagrams")
    assert sorted(_tree_bytes(tmp_path / "o1" / "diagrams")) == [
        "Ci.csv", "Ci_levels.json", "Cs.csv", "Cs_levels.json"]


@pytest.mark.parametrize("name, edit, at, message", [
    ("ci_m1.pot", lambda text: text + "0 0.5\n", "ci_m1.pot:65", "duplicate site index 0"),
    ("ci_m1.run", lambda text: text.replace("position = 0 0 0\n", ""), "run.manifest:11",
     "defect 'Ci' (-1) names site_potentials but its run record has no 'position'"),
], ids=["repeated-site-index", "no-position"])
def test_diagram_refuses_input_its_correction_would_get_wrong(tmp_path, capsys, name, edit, at, message):
    """A site counted twice, or a correction with no position to be computed at, exits 2."""
    manifest = write_demo_manifest(tmp_path / "inputs")
    path = tmp_path / "inputs" / name
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out) == 2
    assert f"error: {tmp_path / 'inputs' / at}: {message}" in capsys.readouterr().err
    assert not list((out / "diagrams").iterdir())


@pytest.mark.parametrize("host_last", [False, True], ids=["host-first", "host-last"])
@pytest.mark.parametrize("edit, at, message", [
    (lambda text: text + "600 0.01\n", "ci_m1.pot:65", "site index 600 out of range for cell with 64 sites"),
    # sites 34, 40 and 42 lie farther than the 5 A sampling radius from the defect at site 0; 0 and 1 do not
    (lambda text: "".join(ln + "\n" for ln in text.splitlines() if ln.split()[0] in ("0", "1", "34", "40", "42")),
     "ci_m1.pot:5", "only 3 sampled sites lie outside the sampling radius 5.000 A"),
], ids=["site-index-out-of-range", "too-few-far-sites"])
def test_diagram_names_the_pot_file_its_correction_refuses(tmp_path, capsys, edit, at, message, host_last):
    """A .pot the finite-size correction cannot use is named, with the line of the row at fault."""
    manifest = write_demo_manifest(tmp_path / "inputs")
    path = tmp_path / "inputs" / "ci_m1.pot"
    path.write_text(edit(path.read_text()))
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", _host_last(manifest) if host_last else manifest, "--out", out) == 2
    assert f"error: {tmp_path / 'inputs' / at}: {message}" in capsys.readouterr().err
    assert not list((out / "diagrams").iterdir())


@pytest.mark.parametrize("grid, message", [
    ("1000001", "n_fermi must be <= 1000000, got 1000001"),
    ("1", "n_fermi must be >= 2"),
])
def test_diagram_fermi_grid_out_of_bounds_exit_2(tmp_path, capsys, monkeypatch, grid, message):
    """The grid is refused before the manifest is read or the grid allocated."""
    manifest = write_demo_manifest(tmp_path / "inputs")

    def not_reached(*args, **kwargs):
        raise AssertionError("the manifest was read or the Fermi grid allocated")

    monkeypatch.setattr(np, "linspace", not_reached)
    monkeypatch.setattr("defect_forge.cli.load_manifest", not_reached)
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out, "--fermi-grid", grid) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list((out / "diagrams").iterdir())


def test_diagram_accepts_the_largest_fermi_grid(tmp_path, monkeypatch):
    grids = []
    monkeypatch.setattr(io, "write_diagram_csv", lambda diag, fermi: grids.append(len(fermi)) or "")
    manifest = write_demo_manifest(tmp_path / "inputs")
    assert run_cli("diagram", "--manifest", manifest, "--out", tmp_path / "out", "--fermi-grid", "1000000") == 0
    assert grids == [10**6]


def test_diagram_green_region_topology(tmp_path):
    """A neutral-stable window must appear in the export when intercepts demand it."""
    base = tmp_path / "inputs"
    base.mkdir()
    io.save_structure(CrystalCell(np.eye(3) * 10.0), base / "host.cell")
    for q, c in ((0, 1.0), (-1, 1.45), (-2, 2.2), (-3, 3.2)):
        (base / f"q{q}.run").write_text(f"e_total = {c}\ndelta.C = 1\n")
    lines = ["project = topology", "[host]", "cell = host.cell", "e_bulk = 0.0",
             "e_vbm = 0.0", "e_gap = 1.17", "mu.C = 0.0"]
    for q in (0, -1, -2, -3):
        lines += [f"[defect Ci {q}]", f"energy = q{q}.run"]
    (base / "m.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", base / "m.txt", "--out", out) == 0
    _, fermi, _, _, stable = read_diagram_csv((out / "diagrams" / "Ci.csv").read_text())
    assert set(stable[fermi < 0.44]) == {0}          # the neutral (green) window
    assert stable[-1] == -3
    levels = json.loads((out / "diagrams" / "Ci_levels.json").read_text())
    assert levels["stable_at_intrinsic"] == -1


def test_diagram_mid_gap_tie_goes_to_the_lower_abs_charge(tmp_path, capsys):
    """q=0 and q=+1 cross exactly at mid-gap: the levels JSON, stdout and the CSV row agree on 0."""
    base = tmp_path / "inputs"
    base.mkdir()
    io.save_structure(CrystalCell(np.eye(3) * 10.0), base / "host.cell")
    for q, c in ((0, 1.0), (1, 0.5)):
        (base / f"q{q}.run").write_text(f"e_total = {c}\ndelta.C = 1\n")
    lines = ["[host]", "cell = host.cell", "e_bulk = 0.0", "e_vbm = 0.0", "e_gap = 1.0", "mu.C = 0.0"]
    for q in (0, 1):
        lines += [f"[defect Ci {q}]", f"energy = q{q}.run"]
    (base / "m.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", base / "m.txt", "--out", out, "--fermi-grid", "3") == 0
    assert "Ci: stable charge at intrinsic Fermi level = +0" in capsys.readouterr().out
    levels = json.loads((out / "diagrams" / "Ci_levels.json").read_text())
    assert levels["stable_at_intrinsic"] == 0
    _, fermi, _, _, stable = read_diagram_csv((out / "diagrams" / "Ci.csv").read_text())
    assert fermi.tolist() == [0.0, 0.5, 1.0]
    assert stable.tolist() == [1, 0, 0]


def test_check_table1_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("check-table1", "--out", out) == 0
    captured = capsys.readouterr().out
    assert "13 rows checked, 1 inconsistent, 1 reconstructed" in captured
    assert "1032" in captured
    text = (out / "optics" / "table1_check.csv").read_text()
    assert text.count("INCONSISTENT") == 1
    assert "reconstructed" in text


def test_out_names_existing_file_exit_2(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("keep\n")
    assert run_cli("check-table1", "--out", existing) == 2
    assert "--out" in capsys.readouterr().err
    assert existing.read_text() == "keep\n"


def test_optics_command(tmp_path):
    table = tmp_path / "records.csv"
    table.write_text(
        "label,charge,spin,zpl_meV,tdm_debye2,shift_meV\n"
        "A,0,none,569,0.1,\n"
        "B,0,none,600,0.2,31\n"
        "C,0,none,700,0.3,90\n"
    )
    out = tmp_path / "out"
    assert run_cli("optics", "--table", table, "--reference", "569", "--out", out) == 0
    text = (out / "optics" / "records_check.csv").read_text()
    assert text.count("INCONSISTENT") == 1  # C: 700-569=131 != 90


@pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
def test_optics_non_finite_reference_exit_2(tmp_path, capsys, reference):
    table = write_command_inputs(tmp_path / "inputs")["optics"][1]
    out = tmp_path / "out"
    assert run_cli("optics", "--table", table, f"--reference={reference}", "--out", out) == 2
    assert f"reference ZPL must be finite and > 0 meV, got {reference}" in capsys.readouterr().err
    assert not (out / "optics" / "table_check.csv").exists()


def test_tdm_command(tmp_path):
    base = tmp_path
    cell = CrystalCell(np.eye(3) * 8.0)
    io.save_structure(cell, base / "cell.txt")
    n = 16
    idx = np.arange(n) / n
    fx, fy, fz = np.meshgrid(idx, idx, idx, indexing="ij")
    d2 = (fx - 0.5) ** 2 + (fy - 0.5) ** 2 + (fz - 0.5) ** 2
    s = np.exp(-d2 * 64.0)
    pz = (fz - 0.5) * np.exp(-d2 * 64.0)
    io.save_grid(GridFunction((n, n, n), s, cell), base / "psi_i.grid")
    io.save_grid(GridFunction((n, n, n), pz, cell), base / "psi_f.grid")
    out = base / "out"
    code = run_cli("tdm", "--psi-i", base / "psi_i.grid", "--psi-f", base / "psi_f.grid",
                   "--cell", base / "cell.txt", "--out", out)
    assert code == 0
    payload = json.loads((out / "optics" / "tdm.json").read_text())
    assert payload["squared_total_debye2"] > 0
    assert abs(payload["overlap"]["re"]) < 1e-6


def test_tdm_overflowing_grid_exit_2(tmp_path, capsys):
    args = write_command_inputs(tmp_path / "inputs")["tdm"]
    grid = tmp_path / "inputs" / "psi_i.grid"
    header, first, rest = grid.read_text().split("\n", 2)
    grid.write_text("\n".join([header, "1e308 " + first.split(" ", 1)[1], rest]))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal must be the only message
        assert run_cli("tdm", *args, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: {grid}:1: grid function L2 norm overflows" in err
    assert "Traceback" not in err
    assert not (out / "optics" / "tdm.json").exists()



def test_tdm_grid_with_a_zero_dim_exit_2(tmp_path, capsys):
    args = write_command_inputs(tmp_path / "inputs")["tdm"]
    grid = tmp_path / "inputs" / "psi_i.grid"
    grid.write_text("GRID 0 4 4 real\n")
    assert run_cli("tdm", *args, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid}:1: grid dims must be positive, got (0, 4, 4)")
    assert "Traceback" not in err

def test_tdm_cell_whose_volume_overflows_exit_2(tmp_path, capsys):
    args = write_command_inputs(tmp_path / "inputs")["tdm"]
    cell = tmp_path / "inputs" / "big.cell"
    cell.write_text("big box\n1e120 0 0\n0 1e120 0\n0 0 1e120\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("tdm", *args[:-1], cell, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"error: {cell}:2: lattice determinant must be finite and > 0 (got inf)" in err
    assert "Traceback" not in err


def test_fitpl_command(tmp_path):
    wl = np.arange(1449.0, 1453.0, 0.004)
    counts = peak_model(wl, [5.0, 1000.0, 1450.8, 0.03], "lorentzian")
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=counts, grating_gpmm=1200.0),
                     tmp_path / "pl.csv")
    out = tmp_path / "out"
    assert run_cli("fitpl", "--data", tmp_path / "pl.csv", "--out", out) == 0
    text = (out / "fits" / "pl_peaks.csv").read_text()
    assert "true" in text  # resolution-limited flag column
    assert "1450.8" in text


def test_fitpl_grating_with_no_finite_resolution_floor_exit_2(tmp_path, capsys):
    """A subnormal groove density would give an infinite resolution floor, and every width at it."""
    wl = np.arange(1449.0, 1453.0, 0.05)
    counts = peak_model(wl, [5.0, 1000.0, 1450.8, 0.3], "lorentzian")
    path = tmp_path / "pl.csv"
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=counts, grating_gpmm=1200.0), path)
    path.write_text(path.read_text().replace("grating_gpmm=1200", "grating_gpmm=1e-320"))
    out = tmp_path / "out"
    assert run_cli("fitpl", "--data", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:1: grating groove density 1e-320 gives no finite resolution floor" in err
    assert not out.exists() or not any(out.rglob("*.csv"))


def test_fitpl_empty_csv_exit_2(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    assert run_cli("fitpl", "--data", tmp_path / "empty.csv", "--out", tmp_path / "out") == 2


def test_fitpl_flat_spectrum_exit_2(tmp_path):
    wl = np.linspace(1400, 1460, 100)
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=np.full(100, 7.0)), tmp_path / "flat.csv")
    assert run_cli("fitpl", "--data", tmp_path / "flat.csv", "--out", tmp_path / "out") == 2


def test_fitpl_fit_that_does_not_converge_exit_3(tmp_path, capsys):
    """A fit that does not converge prints and writes no peak."""
    io.save_spectrum(noise_only_spectrum(), tmp_path / "flat.csv")
    out = tmp_path / "out"
    assert run_cli("fitpl", "--data", tmp_path / "flat.csv", "--max-peaks", "2", "--out", out) == 3
    captured = capsys.readouterr()
    assert "fit did not converge: peak fit did not converge" in captured.err
    assert "peak at" not in captured.out
    assert not list((out / "fits").iterdir())


def test_lifetime_command(tmp_path):
    t = np.linspace(0, 30, 200)
    trace = DecayTrace(time_ns=t, counts=decay_model(t, [1000.0, 3.0, 10.0]))
    io.save_decay(trace, tmp_path / "decay.csv")
    out = tmp_path / "out"
    assert run_cli("lifetime", "--data", tmp_path / "decay.csv", "--out", out) == 0
    payload = json.loads((out / "fits" / "decay_lifetime.json").read_text())
    assert payload["tau_ns"] == pytest.approx(3.0, rel=1e-6)


def test_lifetime_rising_signal_exit_2(tmp_path):
    t = np.linspace(0, 30, 40)
    (tmp_path / "rise.csv").write_text(io.write_decay(
        DecayTrace(time_ns=t, counts=np.linspace(1, 100, 40))))
    assert run_cli("lifetime", "--data", tmp_path / "rise.csv", "--out", tmp_path / "out") == 2


def test_lifetime_overflowing_decay_exit_3(tmp_path, capsys):
    """A Jacobian that overflows ends the solve as not converged, without a traceback."""
    counts = np.full(40, 1e300)
    counts[0] = 1e308
    (tmp_path / "big.csv").write_text(io.write_decay(
        DecayTrace(time_ns=np.arange(40) * 0.1, counts=counts)))
    with np.errstate(all="ignore"):
        assert run_cli("lifetime", "--data", tmp_path / "big.csv", "--out", tmp_path / "out") == 3
    assert "fit did not converge" in capsys.readouterr().err


def test_lifetime_whose_cost_overflows_at_the_start_exit_3(tmp_path, capsys):
    """Finite counts whose squared residuals overflow: the fit is refused as not converged and
    writes no artifact."""
    t = np.linspace(0.0, 30.0, 600)
    with np.errstate(all="ignore"):
        counts = 1e307 * np.exp(-t / 3.0) + 1e300
    (tmp_path / "big.csv").write_text(io.write_decay(DecayTrace(time_ns=t, counts=counts)))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert run_cli("lifetime", "--data", tmp_path / "big.csv", "--out", out) == 3
    err = capsys.readouterr().err
    assert "lifetime fit did not converge in 0 iterations (residual rms inf)" in err
    assert "Traceback" not in err
    assert not list((out / "fits").iterdir())


def test_lifetime_window_far_after_t0_exit_2(tmp_path, capsys):
    """The start amplitude, extrapolated back 750 lifetimes to t = 0, is refused as not finite,
    with no overflow warning; the same decay from t = 700 ns fits."""
    for start, code in ((700.0, 0), (1500.0, 2)):
        t = start + 0.1 * np.arange(200)
        (tmp_path / "decay.csv").write_text(io.write_decay(
            DecayTrace(time_ns=t, counts=1000.0 * np.exp(-(t - start) / 2.0) + 10.0)))
        assert run_cli("lifetime", "--data", tmp_path / "decay.csv", "--out", tmp_path / str(start)) == code
    assert capsys.readouterr().err == ("error: amplitude extrapolated to t = 0 is not a finite number: "
                                       "the decay is fitted from t = 1500 ns with a starting lifetime of 2 ns\n")
    assert json.loads((tmp_path / "700.0" / "fits" / "decay_lifetime.json").read_text())["tau_ns"] == \
        pytest.approx(2.0, rel=1e-6)
    assert not list((tmp_path / "1500.0" / "fits").iterdir())


def test_lifetime_window_far_before_t0_exit_2(tmp_path, capsys):
    """The start amplitude, extrapolated forward 750 lifetimes to t = 0, is refused as an underflow."""
    t = -1500.0 + 0.1 * np.arange(200)
    (tmp_path / "decay.csv").write_text(io.write_decay(
        DecayTrace(time_ns=t, counts=1000.0 * np.exp(-(t + 1500.0) / 2.0) + 10.0)))
    out = tmp_path / "out"
    assert run_cli("lifetime", "--data", tmp_path / "decay.csv", "--out", out) == 2
    assert capsys.readouterr().err == ("error: amplitude extrapolated to t = 0 underflows to 0: "
                                       "the decay is fitted from t = -1500 ns with a starting lifetime of 2 ns\n")
    assert not list((out / "fits").iterdir())


@pytest.mark.parametrize("scale, background, code, message", [
    # the decay check's means overflow on these finite counts
    (1e307, 1e300, 3, "lifetime fit did not converge in 0 iterations (residual rms inf)"),
    # the fit converges, but J^T J overflows, so tau has no standard error to report
    (1e155, 1e150, 2, "lifetime fit: J^T J overflows at the fitted parameters"),
])
def test_lifetime_near_the_largest_float_raises_no_warning(tmp_path, capsys, scale, background, code, message):
    """No RuntimeWarning escapes, so the exit code is the same under -W error, and no artifact is written."""
    t = np.linspace(0.0, 30.0, 600)
    counts = scale * np.exp(-t / 3.0) + background
    (tmp_path / "big.csv").write_text(io.write_decay(DecayTrace(time_ns=t, counts=counts)))
    out = tmp_path / "out"
    assert run_cli("lifetime", "--data", tmp_path / "big.csv", "--out", out) == code
    assert message in capsys.readouterr().err
    assert not list((out / "fits").iterdir())


def test_fitpl_whose_cost_overflows_at_the_start_exit_3(tmp_path, capsys):
    wl = np.linspace(1440.0, 1460.0, 2001)
    spec = Spectrum(wavelength_nm=wl, counts=1e306 * np.exp(-(((wl - 1450.0) / 0.1) ** 2)) + 1.0)
    io.save_spectrum(spec, tmp_path / "big.csv")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert run_cli("fitpl", "--data", tmp_path / "big.csv", "--max-peaks", "1", "--out", out) == 3
    assert "peak fit did not converge in 0 iterations (residual rms inf)" in capsys.readouterr().err
    assert not list((out / "fits").iterdir())


def test_saturation_command(tmp_path):
    p = np.geomspace(0.05, 3.0, 16)
    (tmp_path / "sat.csv").write_text(io.write_xy(p, saturation_model(p, [5000.0, 0.7]),
                                                  "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "sat.csv", "--out", out) == 0
    payload = json.loads((out / "fits" / "sat_saturation.json").read_text())
    assert payload["p_sat_mW"] == pytest.approx(0.7, rel=1e-6)
    assert payload["identifiable"] is True


def test_saturation_fit_that_does_not_converge_exit_3(tmp_path, capsys):
    rows = [(0.273, 46.4), (0.913, 1019.1), (2.164, 2923.9), (2.826, 4782.2), (3.661, 5709.2),
            (4.897, 1965.6)]
    (tmp_path / "sat.csv").write_text(io.write_xy(*zip(*rows), "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "sat.csv", "--out", out) == 3
    captured = capsys.readouterr()
    assert "fit did not converge: saturation fit did not converge" in captured.err
    assert "P_sat" not in captured.out
    assert not list((out / "fits").iterdir())


def test_saturation_flat_curve_unidentifiable(tmp_path, capsys):
    p = np.linspace(0.05, 3.0, 16)
    (tmp_path / "flat.csv").write_text(io.write_xy(p, np.full(16, 500.0), "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "flat.csv", "--out", out) == 0
    assert json.loads((out / "fits" / "flat_saturation.json").read_text())["identifiable"] is False
    assert "P_sat outside the measured power range" in capsys.readouterr().out


def test_saturation_all_zero_intensities_exit_2(tmp_path, capsys):
    (tmp_path / "zero.csv").write_text(io.write_xy([1.0, 2.0, 3.0, 4.0], [0.0] * 4, "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "zero.csv", "--out", out) == 2
    err = capsys.readouterr().err
    assert "every intensity is 0" in err
    assert "Traceback" not in err
    assert not list((out / "fits").iterdir())


def test_saturation_start_intensity_that_overflows_exit_2(tmp_path, capsys):
    (tmp_path / "big.csv").write_text("power_mW,intensity\n1,1e308\n2,1.2e308\n3,1.3e308\n4,1.4e308\n")
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "big.csv", "--out", out) == 2
    assert capsys.readouterr().err == ("error: starting saturation intensity 2 * max(I) is not a finite number: "
                                       "the largest intensity is 1.4e+308\n")
    assert not list((out / "fits").iterdir())


def test_dose_command(tmp_path, capsys):
    (tmp_path / "dose.csv").write_text(io.write_xy(
        [10.0, 16.0, 22.0, 30.0, 38.0, 44.5],
        [150.0, 1000.0, 500.0, 60.0, 420.0, 900.0],
        "fluence_mJcm2,intensity"))
    out = tmp_path / "out"
    code = run_cli("dose", "--data", tmp_path / "dose.csv", "--label", "G",
                   "--classify", "16,30,44.5,300", "--damage-threshold", "100", "--out", out)
    assert code == 0
    rows = [json.loads(ln) for ln in
            (out / "fits" / "dose_classified.jsonl").read_text().splitlines()]
    assert [r["regime"] for r in rows] == ["write", "erase", "rewrite", "near-damage(W-forming)"]
    assert rows[0]["segment"] == 0 and rows[-1]["segment"] is None


@pytest.mark.parametrize("fluence", ["nan", "inf"])
def test_dose_non_finite_classify_exit_2(tmp_path, capsys, fluence):
    (tmp_path / "dose.csv").write_text(io.write_xy(
        [10.0, 16.0, 30.0], [100.0, 900.0, 50.0], "fluence_mJcm2,intensity"))
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--classify", f"16,{fluence}",
                   "--out", out) == 2
    assert "fluence must be finite" in capsys.readouterr().err
    assert not (out / "fits" / "dose_classified.jsonl").exists()


def test_dose_bad_classify_list_names_the_expected_type(tmp_path, capsys):
    """argparse names the converter in its message, so the converter is not a lambda."""
    with pytest.raises(SystemExit) as exc:
        run_cli("dose", "--data", tmp_path / "dose.csv", "--classify", "1,,2", "--out", tmp_path / "out")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --classify: invalid float_list value: '1,,2'" in err and "<lambda>" not in err


def test_dose_nan_damage_threshold_exit_2(tmp_path, capsys):
    (tmp_path / "dose.csv").write_text(io.write_xy(
        [10.0, 16.0, 30.0], [100.0, 900.0, 50.0], "fluence_mJcm2,intensity"))
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--classify", "16,500",
                   "--damage-threshold", "nan", "--out", out) == 2
    assert "damage threshold nan must exceed" in capsys.readouterr().err
    assert not (out / "fits" / "dose_classified.jsonl").exists()


@pytest.mark.parametrize("threshold", ["inf", "1e400"])
def test_dose_infinite_damage_threshold_exit_2(tmp_path, capsys, threshold):
    """An infinite threshold would classify every fluence below it, however high, as short of damage."""
    (tmp_path / "dose.csv").write_text(io.write_xy(
        [10.0, 16.0, 22.0, 30.0, 38.0, 44.5],
        [150.0, 1000.0, 500.0, 60.0, 420.0, 900.0],
        "fluence_mJcm2,intensity"))
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--classify", "16,30,44.5,300",
                   "--damage-threshold", threshold, "--out", out) == 2
    assert "error: damage threshold must be finite, got inf" in capsys.readouterr().err
    assert not (out / "fits" / "dose_classified.jsonl").exists()


def test_raster_non_finite_count_exit_2(tmp_path, capsys):
    (tmp_path / "scan.csv").write_text("x_um,y_um,counts\n0,0,1\n1,0,inf\n0,1,3\n1,1,4\n")
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 2
    assert "scan.csv:3: non-finite value in row '1,0,inf'" in capsys.readouterr().err
    assert not (out / "fits" / "scan_raster.csv").exists()


def test_lifetime_time_axis_whose_step_overflows_exit_2(tmp_path, capsys):
    """The axis check compares neighbours, so a step wider than the largest float is refused, not warned of."""
    rows = ["1.7976931348623157e308,5", "-1e308,4"] + [f"{i},{100 - i}" for i in range(20)]
    (tmp_path / "decay.csv").write_text("time_ns,counts\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli("lifetime", "--data", tmp_path / "decay.csv", "--out", out) == 2
    assert f"error: {tmp_path / 'decay.csv'}:3: time axis must be strictly increasing" in capsys.readouterr().err
    assert not list((out / "fits").iterdir())


def test_dose_fluences_whose_gap_overflows_calibrate(tmp_path):
    (tmp_path / "dose.csv").write_text("fluence_mJcm2,intensity\n-1e308,1\n1e308,5\n1.5e308,2\n")
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--damage-threshold", "1.7e308", "--out", out) == 0
    summary = json.loads((out / "fits" / "dose_dose.json").read_text())
    assert summary["boundaries_mJcm2"] == [1e308]
    assert [seg["regime"] for seg in summary["segments"]] == ["write", "erase"]


def test_dose_fluences_near_the_smallest_float_calibrate(tmp_path):
    """Fluences whose gaps are far below 1e-12 are distinct, so none is a duplicate."""
    (tmp_path / "dose.csv").write_text("fluence_mJcm2,intensity\n1e-300,1\n2e-300,2\n3e-300,1\n")
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--damage-threshold", "1", "--out", out) == 0
    summary = json.loads((out / "fits" / "dose_dose.json").read_text())
    assert summary["boundaries_mJcm2"] == [2e-300]
    assert [seg["regime"] for seg in summary["segments"]] == ["write", "erase"]


@pytest.mark.parametrize("points, axis", [
    ([(-1e308, 0), (1e308, 0), (-1e308, 1), (1e308, 1)], "x"),
    ([(x, y) for x in (0, 1, 2) for y in (0, 1e308, -1e308)], "y"),
])
def test_raster_coordinate_extent_that_overflows_exit_2(tmp_path, capsys, points, axis):
    """Grid lines more than the largest float apart are refused, not merged."""
    rows = "".join(f"{x},{y},{k}\n" for k, (x, y) in enumerate(points))
    (tmp_path / "scan.csv").write_text("x_um,y_um,counts\n" + rows)
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 2
    assert f"error: raster {axis} coordinates from -1e+308 to 1e+308 span more than" in capsys.readouterr().err
    assert not list((out / "fits").iterdir())


def test_raster_pgm_of_counts_that_span_more_than_the_largest_float(tmp_path):
    (tmp_path / "scan.csv").write_text("x_um,y_um,counts\n0,0,-1e308\n1,0,1e308\n0,1,5\n1,1,7\n")
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 0
    assert (out / "fits" / "scan_raster.pgm").read_text() == "P2\n2 2\n65535\n0 65535\n32768 32768\n"


def test_raster_command(tmp_path):
    (tmp_path / "scan.csv").write_text(
        "x_um,y_um,counts\n0,0,1\n1,0,2\n2,0,3\n0,1,4\n1,1,5\n2,1,6\n")
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 0
    assert (out / "fits" / "scan_raster.csv").is_file()
    assert (out / "fits" / "scan_raster.pgm").read_text().startswith("P2\n3 2\n")


def _rising_tail(_text: str) -> str:
    """A decay with its peak in the first channel whose tail then climbs back up."""
    return io.write_decay(DecayTrace(time_ns=np.linspace(0.0, 30.0, 40),
                                     counts=np.r_[1000.0, np.linspace(1.0, 999.0, 39)]))


@pytest.mark.parametrize("command, name, edit, at, message", [
    ("diagram", "ci_0.run", lambda text: text + "label = Other\n", "ci_0.run:3",
     "label 'Other' contradicts manifest entry 'Ci'"),
    ("diagram", "run.manifest", lambda text: text + "[host]\n", "run.manifest:17", "duplicate [host] section"),
    ("diagram", "run.manifest", lambda text: text.replace("dielectric = 11.7", "dielectric = 11.7 11.7"),
     "run.manifest:8", "dielectric must be 1, 3 or 9 numbers"),
    ("diagram", "host.cell", lambda text: text.replace("\n64\n", "\n0\n"), "host.cell:6",
     "species counts must be >= 1"),
    ("diagram", "run.manifest", lambda text: text.replace("e_gap = 1.17", "e_gap = 0"), "run.manifest:3",
     "band gap must be > 0, got 0.0"),
    ("dose", "dose.csv", lambda text: text.replace("900", "-900"), None, "intensities must be >= 0"),
    ("optics", "table.csv", lambda text: text + "C,0,none,,0.4,\n", None,
     "record 'C' has neither a ZPL nor a shift; cannot reconstruct"),
    ("lifetime", "decay.csv", _rising_tail, None, "signal does not decay after its peak"),
], ids=["run-label", "second-host", "two-dielectric-values", "zero-species-count", "zero-gap",
        "negative-dose-intensity", "optics-row-without-zpl-or-shift", "decay-tail-rises"])
def test_refusals_exit_2_without_a_traceback(tmp_path, capsys, command, name, edit, at, message):
    """Each refusal exits 2 with one error line; a parser's names the file and line at fault."""
    inputs = tmp_path / "inputs"
    args = write_command_inputs(inputs)[command]
    path = inputs / name
    path.write_text(edit(path.read_text()))
    assert run_cli(command, *args, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inputs / at}: {message}" if at else f"error: {message}")
    assert "Traceback" not in err


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_runs_byte_identical(tmp_path):
    manifest = write_demo_manifest(tmp_path / "inputs")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run_cli("--verbose", "diagram", "--manifest", manifest, "--out", out) == 0
    a, b = _tree_bytes(out1), _tree_bytes(out2)
    assert a.keys() == b.keys()
    assert a == b


def test_diagram_tree_is_independent_of_the_locale(tmp_path):
    """Inputs holding UTF-8 give the same tree under the C locale (ASCII, no UTF-8 mode) as by default."""
    manifest = write_demo_manifest(tmp_path / "inputs")
    for path in (manifest, tmp_path / "inputs" / "ci_m1.run"):
        path.write_text("# Cᵢ centre\n" + path.read_text(), encoding="utf-8")
    manifest.write_text(manifest.read_text(encoding="utf-8").replace("project = demo", "project = Cᵢ démo"),
                        encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    c_env = dict(env, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    for name, run_env in (("default", env), ("c", c_env)):
        result = subprocess.run([sys.executable, "-m", "defect_forge.cli", "diagram", "--manifest",
                                 str(manifest), "--out", str(tmp_path / name)],
                                env=run_env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
    default, c_locale = _tree_bytes(tmp_path / "default"), _tree_bytes(tmp_path / "c")
    assert "project 'Cᵢ démo'".encode() in default["logs/diagram.log"]
    assert default == c_locale


def test_verbose_writes_log(tmp_path):
    manifest = write_demo_manifest(tmp_path / "inputs")
    out = tmp_path / "out"
    assert run_cli("--verbose", "diagram", "--manifest", manifest, "--out", out) == 0
    log = (out / "logs" / "diagram.log").read_text()
    assert "wrote diagrams/Ci.csv" in log


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_run(probe: str, *flags: str, **env) -> subprocess.CompletedProcess:
    """`probe` run to a zero exit in a fresh interpreter with the given flags, src/ on the path,
    and no BLAS thread variable set but those in env; its output captured as text."""
    src = Path(__file__).resolve().parents[1] / "src"
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *flags, "-c", probe], env=child_env, capture_output=True,
                          text=True, check=True, timeout=120)


def _fresh_python(probe: str, **env) -> str:
    """The last line that `probe` prints in a fresh interpreter (see _fresh_run)."""
    return _fresh_run(probe, **env).stdout.splitlines()[-1]


def _modules_after_cli_import(prefix: str, *argv) -> str:
    """Modules starting with prefix that a fresh `import defect_forge.cli` loads, and then
    `main(argv)`, which must exit 0, when a command line is given."""
    argv = [str(a) for a in argv]
    return _fresh_python("import defect_forge.cli, sys\n"
                         f"assert not {argv!r} or defect_forge.cli.main({argv!r}) == 0\n"
                         f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")


def test_package_import_loads_no_module_and_no_numpy():
    """Names load their module on first use, so cli can pick numpy's BLAS threads before numpy loads."""
    probe = ("import defect_forge, sys\n"
             "print(sorted(m for m in sys.modules if m.startswith(('defect_forge.', 'numpy'))))")
    assert _fresh_python(probe) == "[]"


def test_star_import_and_dir_serve_every_public_name():
    """dir() and a misspelt name load no module; `import *` then binds every name of __all__."""
    probe = ("import defect_forge, sys\n"
             "unlisted = sorted(set(defect_forge.__all__) - set(dir(defect_forge)))\n"
             "try:\n"
             "    defect_forge.CrystalCel\n"
             "except AttributeError as exc:\n"
             "    typo = exc\n"
             "loaded = sorted(m for m in sys.modules if m.startswith('defect_forge.'))\n"
             "from defect_forge import *\n"
             "unbound = [n for n in defect_forge.__all__ if n not in globals()]\n"
             "print(unlisted, loaded, unbound, typo)")
    assert _fresh_python(probe) == "[] [] [] module 'defect_forge' has no attribute 'CrystalCel'"


def test_cli_import_loads_every_module():
    """The traced benchmark wraps every layer, and conftest relies on this import for all of them."""
    every = sorted(f"defect_forge.{m.name}" for m in pkgutil.iter_modules(defect_forge.__path__))
    assert _modules_after_cli_import("defect_forge.") == str(every)


@pytest.mark.parametrize("env, preload, changed", [
    ({}, "", [("OPENBLAS_NUM_THREADS", "1")]),
    ({"OPENBLAS_NUM_THREADS": ""}, "", [("OPENBLAS_NUM_THREADS", "1")]),
    ({"OPENBLAS_NUM_THREADS": "2"}, "", []),
    ({"GOTO_NUM_THREADS": "2"}, "", []),
    ({"OMP_NUM_THREADS": "2"}, "", []),
    ({}, "import numpy\n", []),
])
def test_cli_import_runs_one_blas_thread_unless_a_count_is_set(env, preload, changed):
    """A CLI process gets one BLAS thread; a user's count, or numpy already loaded, wins."""
    probe = ("import os\n"
             f"{preload}"
             "before = dict(os.environ)\n"
             "import defect_forge.cli\n"
             "print(sorted((k, v) for k, v in os.environ.items() if before.get(k) != v))")
    assert _fresh_python(probe, **env) == str(changed)


def test_cli_import_loads_no_scipy():
    """scipy is imported only inside the functions that call it, never at start-up."""
    assert _modules_after_cli_import("scipy") == "[]"


def test_fitpl_loads_no_scipy(tmp_path):
    """The peak finder is numpy, as is the Ewald sum's erfc: no command imports scipy."""
    io.save_spectrum(_demo_pl_spectrum(7)[0], tmp_path / "pl.csv")
    argv = ["fitpl", "--data", tmp_path / "pl.csv", "--max-peaks", "5", "--out", tmp_path / "out"]
    assert _modules_after_cli_import("scipy", *argv) == "[]"
    assert len((tmp_path / "out" / "fits" / "pl_peaks.csv").read_text().splitlines()) == 6


def test_diagram_loads_no_scipy(tmp_path):
    """The Ewald sum's erfc is numpy, so diagram on a 64-site host runs without scipy."""
    argv = ["diagram", "--manifest", write_demo_manifest(tmp_path), "--out", tmp_path / "out"]
    assert _modules_after_cli_import("scipy", *argv) == "[]"
    assert (tmp_path / "out" / "diagrams" / "Ci.csv").is_file()


def test_cli_import_loads_no_thread_pool():
    """Manifests are parsed serially, so start-up pulls in no concurrent.futures (nor its logging)."""
    assert _modules_after_cli_import("concurrent") == "[]"


# --- tdm's worker process ------------------------------------------------------------

def _write_tdm_pair(root: Path, n: int) -> Path:
    """An orthogonal n^3 complex grid pair in a 10 A cube under root, each file large enough that
    tdm reads --psi-f in a worker."""
    cell = CrystalCell(np.eye(3) * 10.0)
    io.save_structure(cell, root / "box.cell")
    f = (np.arange(n) + 0.5) / n
    fx, fy, fz = np.meshgrid(f, f, f, indexing="ij")
    envelope = np.exp(-8.0 * ((fx - 0.5) ** 2 + (fy - 0.5) ** 2 + (fz - 0.5) ** 2))
    for name, values in (("psi_i", (1 + 0.5j) * envelope), ("psi_f", (0.3 - 1j) * (fz - 0.5) * envelope)):
        path = root / f"{name}.grid"
        io.save_grid(GridFunction(values.shape, values, cell), path)
        assert path.stat().st_size >= io._FORK_MIN_BYTES
    return root


@pytest.fixture(scope="module")
def large_tdm_inputs(tmp_path_factory):
    return _write_tdm_pair(tmp_path_factory.mktemp("large_tdm"), 32)


# main's exit code (or the interrupt it raised), the number of forks, and whether main left
# a child process or a blocked SIGINT behind
TDM_PROBE = """\
import os, signal
import defect_forge.cli as cli
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
{preamble}
try:
    code = cli.main({argv!r})
except KeyboardInterrupt:
    code = "KeyboardInterrupt"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, len(forks), left, signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ()))
"""


def _fresh_tdm(root: Path, out: Path, psi_i=None, psi_f=None, preamble: str = "", **env):
    """(last stdout line of TDM_PROBE, the lines before it, stderr) of `tdm` on root's inputs in a
    fresh interpreter.  DeprecationWarning is an error, as os.fork raises it in a process with
    more than one thread on Python 3.12 and later."""
    argv = ["tdm", "--psi-i", psi_i or root / "psi_i.grid", "--psi-f", psi_f or root / "psi_f.grid",
            "--cell", root / "box.cell", "--out", out]
    probe = TDM_PROBE.format(preamble=preamble, argv=[str(a) for a in argv])
    result = _fresh_run(probe, "-W", "error::DeprecationWarning", **env)
    *lines, last = result.stdout.splitlines()
    return last, lines, result.stderr


def _tdm_json(out: Path) -> bytes:
    return (out / "optics" / "tdm.json").read_bytes()


def test_tdm_worker_and_serial_reads_write_the_same_json(large_tdm_inputs, tmp_path):
    """Two OpenBLAS threads make two OS threads, which sends tdm down the serial route."""
    forked = _fresh_tdm(large_tdm_inputs, tmp_path / "forked")
    serial = _fresh_tdm(large_tdm_inputs, tmp_path / "serial", OPENBLAS_NUM_THREADS="2")
    assert (forked[0], serial[0]) == ("0 1 False False", "0 0 False False")
    assert forked[1:] == serial[1:]
    assert serial[2] == ""
    assert _tdm_json(tmp_path / "forked") == _tdm_json(tmp_path / "serial")


# the peak of traced allocations in main, as the last line before TDM_PROBE's own
PEAK_PREAMBLE = """\
import tracemalloc
main = cli.main
def traced_main(argv):
    tracemalloc.start()
    try:
        return main(argv)
    finally:
        print(tracemalloc.get_traced_memory()[1])
cli.main = traced_main
"""


def test_tdm_frees_its_input_grids_before_the_dipole_builds_its_arrays(tmp_path):
    """The worker route holds three grids' bytes at most: --psi-i's grid, --psi-f's values and
    their copy; then each input with the normalized states; then the dipole's arrays.  Holding
    the file's text while parsing, or an input grid while the dipole builds its arrays, takes
    it to four grids or more."""
    root = _write_tdm_pair(tmp_path, 48)
    last, lines, _ = _fresh_tdm(root, tmp_path / "out", preamble=PEAK_PREAMBLE)
    assert last == "0 1 False False"
    assert int(lines[-1]) < 3.3 * 48 ** 3 * 16  # complex128 values of one grid


# the growth of the process's peak resident set in main, in KiB, as the last line before TDM_PROBE's
# own; VmHWM is this process image's peak, where ru_maxrss keeps a larger one from before the exec
RSS_PREAMBLE = """\
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
main = cli.main
def measured_main(argv):
    base = peak_kib()
    try:
        return main(argv)
    finally:
        print(peak_kib() - base)
cli.main = measured_main
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="Linux's VmHWM and glibc's mmap threshold")
def test_tdm_peak_resident_set_stays_under_four_grids(tmp_path):
    """What tracemalloc counts is what the process holds: freed grid-sized arrays go back to the
    system, as tdm pins glibc's mmap threshold.  Unpinned, the threshold rises to the size of the
    first grid freed, later grid-sized arrays land on a heap that is never trimmed, and a 64^3
    pair peaks above five grids."""
    root = _write_tdm_pair(tmp_path, 64)
    last, lines, _ = _fresh_tdm(root, tmp_path / "out", preamble=RSS_PREAMBLE)
    assert last == "0 1 False False"
    assert int(lines[-1]) * 1024 < 3.5 * 64 ** 3 * 16


def test_tdm_reads_small_grids_and_pipes_without_a_worker(large_tdm_inputs, tmp_path):
    root = large_tdm_inputs
    small = write_command_inputs(tmp_path / "small")["tdm"]
    assert _fresh_tdm(root, tmp_path / "small_out", small[1], small[3])[0] == "0 0 False False"
    fifo = tmp_path / "psi_f.fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["cp", root / "psi_f.grid", fifo])
    try:
        piped = _fresh_tdm(root, tmp_path / "piped", psi_f=fifo)
    finally:
        writer.kill()
        writer.wait(timeout=60)
    assert piped == _fresh_tdm(root, tmp_path / "serial", OPENBLAS_NUM_THREADS="2")
    assert piped[0] == "0 0 False False"
    assert _tdm_json(tmp_path / "piped") == _tdm_json(tmp_path / "serial")


def _spoil(grid: Path, target: Path, token: str) -> Path:
    """A copy of grid at target whose second line starts with a token that is not a number."""
    header, rest = grid.read_text().split("\n", 1)
    target.write_text(f"{header}\n{token} {rest}")
    return target


@pytest.mark.parametrize("bad_i", [False, True], ids=["bad psi_f", "both bad"])
def test_tdm_bad_grid_exits_2_with_the_serial_message(large_tdm_inputs, tmp_path, bad_i):
    """A worker that fails sends nothing, so --psi-f is read again here and fails as the serial
    read does; a --psi-i error wins."""
    root = large_tdm_inputs
    psi_f = _spoil(root / "psi_f.grid", tmp_path / "psi_f.grid", "x")
    psi_i = _spoil(root / "psi_i.grid", tmp_path / "psi_i.grid", "y") if bad_i else None
    forked = _fresh_tdm(root, tmp_path / "forked", psi_i, psi_f)
    serial = _fresh_tdm(root, tmp_path / "serial", psi_i, psi_f, OPENBLAS_NUM_THREADS="2")
    assert (forked[0], serial[0]) == ("2 1 False False", "2 0 False False")
    expected = f"error: {psi_i}:2: non-numeric value in grid: 'y'" if bad_i else \
        f"error: {psi_f}:2: non-numeric value in grid: 'x'"
    assert forked[1:] == serial[1:] == ([], expected + "\n")
    assert not (tmp_path / "forked" / "optics" / "tdm.json").exists()


# load_grid with a fault that the worker, or every process, meets
FAULTY_LOAD_GRID = """\
import time, warnings
import defect_forge.io_formats as io
parent, load_grid = os.getpid(), io.load_grid
def faulty_load_grid(path, cell):
    in_worker = os.getpid() != parent
    {fault}
    return load_grid(path, cell)
io.load_grid = faulty_load_grid
"""


@pytest.mark.parametrize("preamble", [
    FAULTY_LOAD_GRID.format(fault="if in_worker: os._exit(1)"),
    FAULTY_LOAD_GRID.format(fault="if in_worker: raise RuntimeError('worker fault')"),
    FAULTY_LOAD_GRID.format(fault="warnings.warn('grid warning')"),
    "def fork():\n    raise BlockingIOError(11, 'Resource temporarily unavailable')",
], ids=["worker dies", "worker raises", "every read warns", "fork fails"])
def test_tdm_reads_psi_f_itself_when_no_worker_sends_a_grid(large_tdm_inputs, tmp_path, preamble):
    """A worker that dies, fails or warns sends no grid, and so does one that cannot be forked:
    the parent reads --psi-f itself, so the output and warnings are the serial route's, and a
    worker writes nothing to stderr."""
    forked = _fresh_tdm(large_tdm_inputs, tmp_path / "forked", preamble=preamble)
    serial = _fresh_tdm(large_tdm_inputs, tmp_path / "serial", preamble=preamble, OPENBLAS_NUM_THREADS="2")
    assert (forked[0], serial[0]) == ("0 1 False False", "0 0 False False")
    assert forked[1:] == serial[1:]
    assert _tdm_json(tmp_path / "forked") == _tdm_json(tmp_path / "serial")


def test_tdm_interrupted_leaves_no_worker(large_tdm_inputs, tmp_path):
    """A KeyboardInterrupt in the parent ends a worker that would read for ten minutes."""
    fault = "time.sleep(600) if in_worker else None\n    raise KeyboardInterrupt"
    assert _fresh_tdm(large_tdm_inputs, tmp_path / "out", preamble=FAULTY_LOAD_GRID.format(fault=fault)) == (
        "KeyboardInterrupt 1 False False", [], "")
