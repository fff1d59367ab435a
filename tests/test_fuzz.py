"""Mutated demo inputs of every command: loaders return or raise ParseError, the CLI keeps its contract."""

import contextlib
import io as text_io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defect_forge import CrystalCell, ParseError
from defect_forge import io_formats as io
from defect_forge.cli import main
from defect_forge.manifest import load_manifest, parse_eigenvalues

from test_cli import write_command_inputs

# not-a-number, overflow, the largest finite exponent, signed zero, empty, and
# non-ASCII tokens: an accent, an Arabic-Indic digit (float() reads it), a
# Unicode minus and a no-break space (str.split() splits on it)
TOKENS = [t.encode() for t in ["nan", "inf", "-inf", "1e999", "1e308", "-0", "", "é", "٣", "−1", "1 2"]]
# bytes: not UTF-8 at all, a Latin-1 accent, NUL and a lone carriage return
BYTES = [b"\xff", b"\xe9", b"\x00", b"\r"]

# a mutated key is an unknown key, which the parsers report with a warning; a
# mutated grid pair need not be orthogonal
pytestmark = [pytest.mark.filterwarnings("ignore:.*ignoring unknown:UserWarning"),
              pytest.mark.filterwarnings("ignore:states are not orthogonal:UserWarning")]


# one to three edits: replace a token, insert bytes, drop a line, or truncate the file
MUTATIONS = st.lists(st.tuples(st.sampled_from(["token", "token", "insert", "drop", "truncate"]),
                               st.integers(0, 10**6), st.sampled_from(TOKENS + BYTES)),
                     min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    for kind, k, new in edits:
        if kind == "token":
            spans = [m.span() for m in re.finditer(rb"\S+", data)]
            if spans:
                a, b = spans[k % len(spans)]
                data = data[:a] + new + data[b:]
        elif kind == "insert":
            k %= len(data) + 1
            data = data[:k] + new + data[k:]
        elif kind == "drop":
            lines = data.splitlines(keepends=True)
            if lines:
                del lines[k % len(lines)]
            data = b"".join(lines)
        else:
            data = data[:k % (len(data) + 1)]
    return data


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    return root, write_command_inputs(root)


def _through_manifest(path: Path):
    return load_manifest(path.parent / "run.manifest")


# every input file of the demo, with the loader that reads it; the .run and
# .pot records are read by the manifest, which leaves the .eig table unparsed
LOADERS = {
    "run.manifest": load_manifest,
    "host.cell": io.load_structure,
    "ci_m1.run": _through_manifest,
    "ci_m1.eig": lambda path: io._load(path, parse_eigenvalues),
    "ci_m1.pot": _through_manifest,
    "tdm.cell": io.load_structure,
    "psi_i.grid": lambda path: io.load_grid(path, io.load_structure(path.parent / "tdm.cell")),
    "peak.csv": io.load_spectrum,
    "decay.csv": io.load_decay,
    "sat.csv": lambda path: io.load_xy(path, "power_mW,intensity"),
    "dose.csv": lambda path: io.load_xy(path, "fluence_mJcm2,intensity"),
    "raster.csv": io.load_raster_points,
    "table.csv": io.load_optics_records,
}

DIAGRAM_FILES = ["run.manifest", "host.cell", "ci_m1.run", "ci_m1.eig", "ci_m1.pot"]
COMMAND_FILES = [("tdm", "tdm.cell"), ("tdm", "psi_i.grid"), ("lifetime", "decay.csv"),
                 ("saturation", "sat.csv"), ("dose", "dose.csv"), ("raster", "raster.csv"),
                 ("optics", "table.csv")]


def _copy_with(root: Path, name: str, edits, tmp: Path) -> Path:
    """A copy of the demo inputs in tmp/inputs, with `name` mutated."""
    inputs = tmp / "inputs"
    shutil.copytree(root, inputs)
    path = inputs / name
    path.write_bytes(mutate(path.read_bytes(), edits))
    return inputs


@pytest.mark.parametrize("name", list(LOADERS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=MUTATIONS)
def test_parsers_return_or_raise_parse_error(demo, name, edits):
    root, _ = demo
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _copy_with(root, name, edits, Path(tmp))
        try:
            LOADERS[name](inputs / name)
        except ParseError:
            pass


def _outcome(load, path):
    try:
        grid = load(path)
    except ParseError as exc:
        return str(exc)
    return grid.dims, grid.values.tobytes()


_GRID_FILE = (b"# signed zeros, a subnormal, a large value\nGRID 2 2 2 complex\n1 -0 -0.5 2\n"
              b"-0 4 5e-324 -1.5e150\n0.25 -0 3 -7e-3\n-0 -0 1e-300 6\n")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(edits=MUTATIONS)
def test_load_grid_reads_every_file_as_the_text_reader_does(edits):
    """load_grid reads the value block of an ASCII file as bytes; every mutated file still
    gives the grid, bit for bit, or the error that the text reader gives."""
    cell = CrystalCell(np.eye(3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.grid"
        path.write_bytes(mutate(_GRID_FILE, edits))
        assert _outcome(lambda p: io.load_grid(p, cell), path) == \
            _outcome(lambda p: io._load(p, io.parse_grid, cell), path)


def _check_command(demo, command, name, edits, options=(), label=None):
    """The command on a copy of the demo inputs, with `name` mutated, `options` appended and,
    given a label, the defect label replaced, exits 0, 2 or 3 (argparse's exit counts), with no
    traceback, writes only under --out and puts no non-finite number in its JSON."""
    root, commands = demo
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = _copy_with(root, name, edits, tmp)
        if label is not None:
            manifest = inputs / "run.manifest"
            text = manifest.read_text(encoding="utf-8")
            manifest.write_text(text.replace("[defect Ci ", f"[defect {label} "), encoding="utf-8")
        args = [inputs / a.name if isinstance(a, Path) else a for a in commands[command]]
        # --out sits four levels below tmp, so a path that climbs out of it still lands in
        # tmp; argparse keeps the last value of an option given twice
        out = tmp / "1" / "2" / "3" / "out"
        before = set(tmp.rglob("*"))
        err = text_io.StringIO()
        with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([command, *map(str, args), *options, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        written = [p for p in set(tmp.rglob("*")) - before if p.is_file()]
        assert all(out in p.parents for p in written), written
        for json_path in out.rglob("*.json*"):
            text = json_path.read_text(encoding="utf-8")
            assert not any(word in text for word in ("NaN", "nan", "Infinity")), json_path.name


FUZZ_SETTINGS = settings(max_examples=12, derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", DIAGRAM_FILES)
@FUZZ_SETTINGS
@given(edits=MUTATIONS)
def test_diagram_on_mutated_inputs_keeps_the_cli_contract(demo, name, edits):
    _check_command(demo, "diagram", name, edits)


@pytest.mark.parametrize("command, name", COMMAND_FILES)
@FUZZ_SETTINGS
@given(edits=MUTATIONS)
def test_commands_on_mutated_inputs_keep_the_cli_contract(demo, command, name, edits):
    _check_command(demo, command, name, edits)


@settings(FUZZ_SETTINGS, max_examples=4)  # the peak fit is the slowest command
@given(edits=MUTATIONS)
def test_fitpl_on_mutated_inputs_keeps_the_cli_contract(demo, edits):
    _check_command(demo, "fitpl", "peak.csv", edits)


# --- arguments and defect labels -----------------------------------------------------

# the text of a numeric option: plain values in the range the demo inputs
# accept, any float, any modest integer, and overflow, not-a-number, signed
# zero, empty, hexadecimal and junk
PLAIN = st.floats(0.0, 1e3).map(repr)
NUMBER_TEXT = st.one_of(PLAIN, PLAIN, st.floats().map(repr), st.integers(-10**9, 10**9).map(str),
                        st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "", "0x10", "x", "1,2"]))
# small grids, and grids above the 10^6 bound, which are refused before allocation
FERMI_GRIDS = st.one_of(st.integers(-3, 64), st.integers(10**6 + 1, 10**18)).map(str)
# a plain label, or one made of path parts, NUL, controls (ESC, NEL), a line
# separator and non-ASCII
LABELS = st.one_of(st.sampled_from(["Ci", "Cé", "X-1"]),
                   st.lists(st.sampled_from(["..", ".", "/", "\\", "\x00", "\x1b", "\x85", "\u2028",
                                             "é", "Ω", "Ci", "-"]),
                            min_size=1, max_size=6).map("".join))


def _option(name: str, value: str, joined: bool) -> list[str]:
    """`--name=value` reaches the option's converter even for '-inf'; `--name value` may not."""
    return [f"{name}={value}"] if joined else [name, value]


@FUZZ_SETTINGS
@given(grid=FERMI_GRIDS, label=LABELS, joined=st.booleans())
def test_diagram_fermi_grid_and_labels_keep_the_cli_contract(demo, grid, label, joined):
    _check_command(demo, "diagram", "run.manifest", [], _option("--fermi-grid", grid, joined), label)


@FUZZ_SETTINGS
@given(reference=NUMBER_TEXT, joined=st.booleans())
def test_optics_reference_keeps_the_cli_contract(demo, reference, joined):
    _check_command(demo, "optics", "table.csv", [], _option("--reference", reference, joined))


@settings(FUZZ_SETTINGS, max_examples=6)  # the peak fit is the slowest command
@given(max_peaks=st.one_of(st.integers(-2, 8), st.integers(9, 10**9)).map(str) | NUMBER_TEXT,
       joined=st.booleans())
def test_fitpl_max_peaks_keeps_the_cli_contract(demo, max_peaks, joined):
    _check_command(demo, "fitpl", "peak.csv", [], _option("--max-peaks", max_peaks, joined))


@FUZZ_SETTINGS
@given(classify=st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(",".join),
       threshold=NUMBER_TEXT, label=LABELS, joined=st.booleans())
def test_dose_options_keep_the_cli_contract(demo, classify, threshold, label, joined):
    options = (_option("--classify", classify, joined) + _option("--damage-threshold", threshold, joined)
               + _option("--label", label, joined))
    _check_command(demo, "dose", "dose.csv", [], options)
