"""CLI surface: commands, exit codes, artifact layout, byte-determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from defect_forge import CrystalCell, DecayTrace, Spectrum
from defect_forge import io_formats as io
from defect_forge.cli import main
from defect_forge.fitting import decay_model, peak_model, saturation_model
from defect_forge.optics import GridFunction

from test_io import write_demo_manifest


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
    charges, fermi, energies, envelope, stable = io.load_diagram_csv(csv_path)
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
    """diagram reads the defect records only; a broken PL file or grid pair cannot fail it."""
    clean = write_demo_manifest(tmp_path / "clean")
    broken = write_demo_manifest(tmp_path / "broken", grid_text="GRID 2 2 2 complex\n1 2 3\n")
    (tmp_path / "broken" / "pl.csv").write_text("wavelength_nm,counts\n1450,abc\n")
    for manifest, out in ((clean, tmp_path / "o1"), (broken, tmp_path / "o2")):
        assert run_cli("diagram", "--manifest", manifest, "--out", out) == 0
    assert _tree_bytes(tmp_path / "o1" / "diagrams") == _tree_bytes(tmp_path / "o2" / "diagrams")


def test_diagram_evaluates_site_potentials_once_per_position(tmp_path, monkeypatch):
    """Each distinct far-site point is evaluated once per diagram, across charges and labels.

    Ci sits at the origin in charges -1/-2 and Cs on the host site (0.25, 0, 0)
    in charge -1: their sampled displacements are the same points, so the whole
    diagram needs one evaluation per far site of Ci, plus the self potential.
    """
    from defect_forge.ewald import EwaldContext

    inputs = tmp_path / "inputs"
    manifest = write_demo_manifest(inputs)
    (inputs / "ci_m2.run").write_text("e_total = 0.2\ndelta.C = 1\nposition = 0 0 0\n")
    (inputs / "ci_m2.pot").write_text("\n".join(f"{i} 0.002" for i in range(64)) + "\n")
    (inputs / "cs_m1.run").write_text("e_total = 0.6\ndelta.C = 1\nposition = 0.25 0 0\n")
    with open(manifest, "a") as fh:
        fh.write("[defect Ci -2]\nenergy = ci_m2.run\nsite_potentials = ci_m2.pot\n"
                 "[defect Cs -1]\nenergy = cs_m1.run\nsite_potentials = ci_m1.pot\n")
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


def test_diagram_fermi_grid_above_the_bound_exit_2(tmp_path, capsys, monkeypatch):
    manifest = write_demo_manifest(tmp_path / "inputs")

    def no_grid(*args, **kwargs):
        raise AssertionError("the Fermi grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "out"
    assert run_cli("diagram", "--manifest", manifest, "--out", out, "--fermi-grid", "1000001") == 2
    assert "error: n_fermi must be <= 1000000, got 1000001" in capsys.readouterr().err
    assert not list((out / "diagrams").iterdir())


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
    _, fermi, _, _, stable = io.load_diagram_csv(out / "diagrams" / "Ci.csv")
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
    _, fermi, _, _, stable = io.load_diagram_csv(out / "diagrams" / "Ci.csv")
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


def test_fitpl_empty_csv_exit_2(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    assert run_cli("fitpl", "--data", tmp_path / "empty.csv", "--out", tmp_path / "out") == 2


def test_fitpl_flat_spectrum_exit_2(tmp_path):
    wl = np.linspace(1400, 1460, 100)
    io.save_spectrum(Spectrum(wavelength_nm=wl, counts=np.full(100, 7.0)), tmp_path / "flat.csv")
    assert run_cli("fitpl", "--data", tmp_path / "flat.csv", "--out", tmp_path / "out") == 2


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


def test_saturation_command(tmp_path):
    p = np.geomspace(0.05, 3.0, 16)
    (tmp_path / "sat.csv").write_text(io.write_xy(p, saturation_model(p, [5000.0, 0.7]),
                                                  "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "sat.csv", "--out", out) == 0
    payload = json.loads((out / "fits" / "sat_saturation.json").read_text())
    assert payload["p_sat_mW"] == pytest.approx(0.7, rel=1e-6)
    assert payload["identifiable"] is True


def test_saturation_flat_curve_unidentifiable(tmp_path, capsys):
    p = np.linspace(0.05, 3.0, 16)
    (tmp_path / "flat.csv").write_text(io.write_xy(p, np.full(16, 500.0), "power_mW,intensity"))
    out = tmp_path / "out"
    assert run_cli("saturation", "--data", tmp_path / "flat.csv", "--out", out) == 0
    assert json.loads((out / "fits" / "flat_saturation.json").read_text())["identifiable"] is False
    assert "P_sat outside the measured power range" in capsys.readouterr().out


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


def test_dose_nan_damage_threshold_exit_2(tmp_path, capsys):
    (tmp_path / "dose.csv").write_text(io.write_xy(
        [10.0, 16.0, 30.0], [100.0, 900.0, 50.0], "fluence_mJcm2,intensity"))
    out = tmp_path / "out"
    assert run_cli("dose", "--data", tmp_path / "dose.csv", "--classify", "16,500",
                   "--damage-threshold", "nan", "--out", out) == 2
    assert "damage threshold nan must exceed" in capsys.readouterr().err
    assert not (out / "fits" / "dose_classified.jsonl").exists()


def test_raster_non_finite_count_exit_2(tmp_path, capsys):
    (tmp_path / "scan.csv").write_text("x_um,y_um,counts\n0,0,1\n1,0,inf\n0,1,3\n1,1,4\n")
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 2
    assert "scan.csv:3: non-finite value in row '1,0,inf'" in capsys.readouterr().err
    assert not (out / "fits" / "scan_raster.csv").exists()


def test_raster_command(tmp_path):
    (tmp_path / "scan.csv").write_text(
        "x_um,y_um,counts\n0,0,1\n1,0,2\n2,0,3\n0,1,4\n1,1,5\n2,1,6\n")
    out = tmp_path / "out"
    assert run_cli("raster", "--data", tmp_path / "scan.csv", "--out", out) == 0
    assert (out / "fits" / "scan_raster.csv").is_file()
    assert (out / "fits" / "scan_raster.pgm").read_text().startswith("P2\n3 2\n")


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


def _modules_after_cli_import(prefix: str) -> str:
    """Modules starting with prefix that a fresh `import defect_forge.cli` loads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import defect_forge.cli, sys; "
             f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy is imported only inside the functions that call it, never at start-up."""
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_thread_pool():
    """Manifests are parsed serially, so start-up pulls in no concurrent.futures (nor its logging)."""
    assert _modules_after_cli_import("concurrent") == "[]"
