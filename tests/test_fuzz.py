"""Mutated demo inputs of every command: loaders return or raise ParseError, the CLI keeps its contract."""

import contextlib
import io as text_io
import re
import shutil
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defect_forge import CrystalCell, ParseError
from defect_forge import io_formats as io
from defect_forge.cli import main
from defect_forge.manifest import load_manifest

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
# .pot records are read by the manifest
LOADERS = {
    "run.manifest": load_manifest,
    "host.cell": io.load_structure,
    "ci_m1.run": _through_manifest,
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

DIAGRAM_FILES = ["run.manifest", "host.cell", "ci_m1.run", "ci_m1.pot"]
COMMAND_FILES = [("tdm", "tdm.cell"), ("tdm", "psi_i.grid"), ("lifetime", "decay.csv"),
                 ("saturation", "sat.csv"), ("dose", "dose.csv"), ("raster", "raster.csv"),
                 ("optics", "table.csv")]


def _copy_with(root: Path, name: str, edit, tmp: Path) -> Path:
    """A copy of the demo inputs in tmp/inputs, with `name` rewritten by edit (bytes -> bytes) if given."""
    inputs = tmp / "inputs"
    shutil.copytree(root, inputs)
    if edit is not None:
        path = inputs / name
        path.write_bytes(edit(path.read_bytes()))
    return inputs


@pytest.mark.parametrize("name", list(LOADERS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=MUTATIONS)
def test_parsers_return_or_raise_parse_error(demo, name, edits):
    root, _ = demo
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _copy_with(root, name, partial(mutate, edits=edits), Path(tmp))
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


# how a writer other than write_grid may spell a float
_SPELLINGS = [repr, "%.17g".__mod__, "%.30e".__mod__, "%.40E".__mod__, "%+.17g".__mod__, "%.3f".__mod__,
              lambda x: "+" + repr(x)]
# numbers spelled as no %-format writes them: bare points, exponent forms, subnormals and values
# that round to zero
_SPELLED = ["5.", ".5", "-.5", "+.5e-3", "5.e2", "1E5", "1e+05", "00.1e-0", "4.9e-324", "-2.5e-310",
            "2.4703282292062328e-324", "1e-400", "-1e-400"]
# tokens each reader may take apart differently: overflow, non-finite words and what float() refuses
_ODD = ["1e309", "-1e309", "1.7976931348623159e308", "inf", "-Infinity", "nan", "0x1p3", "1_0", "1e5.5",
        "1-2", "+-1", "."]
_VALUE_TOKENS = st.one_of(st.builds(lambda spell, x: spell(x), st.sampled_from(_SPELLINGS),
                                    st.floats(-1e150, 1e150)),
                          st.sampled_from(_SPELLED))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["real", "complex"]), tokens=st.lists(_VALUE_TOKENS, min_size=1, max_size=12),
       odd=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.sampled_from(_ODD))),
       seps=st.lists(st.sampled_from([" ", "   ", "\t", "\n", "\r\n", " \x0c"]), min_size=12, max_size=12),
       extra=st.sampled_from([0, 0, 0, 0, -1, 1]))
def test_load_grid_reads_every_spelling_of_a_number_as_the_text_reader_does(kind, tokens, odd, seps, extra):
    """The one numpy call of load_grid and the token-by-token parse_grid give the same grid, bit
    for bit, or the same error, however the numbers are spelled; at most one token is odd, and
    extra != 0 breaks the count."""
    if odd is not None:
        tokens[odd[0] % len(tokens)] = odd[1]
    if kind == "complex":
        tokens = tokens[:len(tokens) // 2 * 2] or tokens * 2
    n = max(1, (len(tokens) if kind == "real" else len(tokens) // 2) + extra)
    block = "".join(t + sep for t, sep in zip(tokens, seps))
    cell = CrystalCell(np.eye(3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.grid"
        path.write_bytes(f"GRID {n} 1 1 {kind}\n{block}".encode())
        assert _outcome(lambda p: io.load_grid(p, cell), path) == \
            _outcome(lambda p: io._load(p, io.parse_grid, cell), path)


def _check_command(demo, command, name, edit, options=(), label=None):
    """The command on a copy of the demo inputs, with `name` edited, `options` appended and,
    given a label, the defect label replaced, exits 0, 2 or 3 (argparse's exit counts), with no
    traceback, writes only under --out and puts no non-finite number in its JSON."""
    root, commands = demo
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = _copy_with(root, name, edit, tmp)
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
    _check_command(demo, "diagram", name, partial(mutate, edits=edits))


@pytest.mark.parametrize("command, name", COMMAND_FILES)
@FUZZ_SETTINGS
@given(edits=MUTATIONS)
def test_commands_on_mutated_inputs_keep_the_cli_contract(demo, command, name, edits):
    _check_command(demo, command, name, partial(mutate, edits=edits))


@settings(FUZZ_SETTINGS, max_examples=4)  # the peak fit is the slowest command
@given(edits=MUTATIONS)
def test_fitpl_on_mutated_inputs_keeps_the_cli_contract(demo, edits):
    _check_command(demo, "fitpl", "peak.csv", partial(mutate, edits=edits))


# --- whole columns scaled toward the ends of the float range ----------------------------

SCALE_FACTORS = [1e300, -1e300, 1e-300, 1e-320, 1e150, 1e154, 1e200]


def _times_column(k: int, factor: float):
    """An edit that multiplies field k of every data row (a line starting with a digit) of a CSV by factor."""
    def edit(data: bytes) -> bytes:
        rows = [",".join(repr(float(v) * factor) if i == k else v for i, v in enumerate(ln.split(",")))
                if ln[:1].isdigit() else ln for ln in data.decode().splitlines()]
        return ("\n".join(rows) + "\n").encode()
    return edit


def _times_dielectric(factor: float):
    return lambda data: data.replace(b"dielectric = 11.7\n", f"dielectric = {11.7 * factor!r}\n".encode())


@pytest.mark.parametrize("factor", SCALE_FACTORS)
@pytest.mark.parametrize("command, name, column", [
    ("lifetime", "decay.csv", 0), ("lifetime", "decay.csv", 1), ("saturation", "sat.csv", 0),
    ("saturation", "sat.csv", 1), ("fitpl", "peak.csv", 0), ("fitpl", "peak.csv", 1),
    ("diagram", "run.manifest", None),
])
def test_a_column_scaled_toward_the_ends_of_the_float_range_keeps_the_cli_contract(demo, command, name,
                                                                                     column, factor):
    """Every numeric column of the fitted inputs, and the manifest's dielectric, times a factor near
    the largest or the smallest float: with RuntimeWarning an error, the command fits or refuses."""
    edit = _times_dielectric(factor) if column is None else _times_column(column, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check_command(demo, command, name, edit)


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
    _check_command(demo, "diagram", "run.manifest", None, _option("--fermi-grid", grid, joined), label)


@FUZZ_SETTINGS
@given(reference=NUMBER_TEXT, joined=st.booleans())
def test_optics_reference_keeps_the_cli_contract(demo, reference, joined):
    _check_command(demo, "optics", "table.csv", None, _option("--reference", reference, joined))


@settings(FUZZ_SETTINGS, max_examples=6)  # the peak fit is the slowest command
@given(max_peaks=st.one_of(st.integers(-2, 8), st.integers(9, 10**9)).map(str) | NUMBER_TEXT,
       joined=st.booleans())
def test_fitpl_max_peaks_keeps_the_cli_contract(demo, max_peaks, joined):
    _check_command(demo, "fitpl", "peak.csv", None, _option("--max-peaks", max_peaks, joined))


@FUZZ_SETTINGS
@given(classify=st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(",".join),
       threshold=NUMBER_TEXT, label=LABELS, joined=st.booleans())
def test_dose_options_keep_the_cli_contract(demo, classify, threshold, label, joined):
    options = (_option("--classify", classify, joined) + _option("--damage-threshold", threshold, joined)
               + _option("--label", label, joined))
    _check_command(demo, "dose", "dose.csv", None, options)
