"""Mutated demo inputs of every command: loaders return or raise ParseError, the CLI keeps its contract."""

import contextlib
import io as text_io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defect_forge import ParseError
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


# every input file of the demo, with the loader that reads it; the defect
# records are read by the manifest
LOADERS = {
    "run.manifest": load_manifest,
    "host.cell": io.load_structure,
    "ci_m1.run": _through_manifest,
    "ci_m1.eig": _through_manifest,
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


def _check_command(demo, command, name, edits):
    """The command on the demo inputs with `name` mutated exits 0, 2 or 3, with no traceback
    and no non-finite number in its JSON."""
    root, commands = demo
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _copy_with(root, name, edits, Path(tmp))
        args = [inputs / a.name if isinstance(a, Path) else a for a in commands[command]]
        err = text_io.StringIO()
        with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *map(str, args), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        for json_path in (Path(tmp) / "out").rglob("*.json*"):
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
