"""Mutated demo inputs of `diagram`: parsers return or raise ParseError, the CLI keeps its contract."""

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
from defect_forge.manifest import parse_defect_run, parse_eigenvalues, parse_manifest, parse_site_potentials

from test_io import write_demo_manifest

# not-a-number, overflow, signed zero, empty, and non-ASCII tokens: an accent, an
# Arabic-Indic digit (float() reads it), a Unicode minus and a no-break space
# (str.split() splits on it)
TOKENS = ["nan", "inf", "-inf", "1e999", "-0", "", "é", "٣", "−1", "1 2"]

# a mutated key is an unknown key, which the parsers report with a warning
pytestmark = pytest.mark.filterwarnings("ignore:.*ignoring unknown:UserWarning")


# one to three edits: replace a token, drop a line, or truncate the text
MUTATIONS = st.lists(st.tuples(st.sampled_from(["token", "token", "drop", "truncate"]),
                               st.integers(0, 10**6), st.sampled_from(TOKENS)),
                     min_size=1, max_size=3)


def mutate(text: str, edits) -> str:
    for kind, k, new in edits:
        if kind == "token":
            spans = [m.span() for m in re.finditer(r"\S+", text)]
            if spans:
                a, b = spans[k % len(spans)]
                text = text[:a] + new + text[b:]
        elif kind == "drop":
            lines = text.splitlines(keepends=True)
            if lines:
                del lines[k % len(lines)]
            text = "".join(lines)
        else:
            text = text[:k % (len(text) + 1)]
    return text


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return write_demo_manifest(tmp_path_factory.mktemp("demo")).parent


PARSERS = {
    "host.cell": lambda text, base: io.parse_structure(text, "host.cell"),
    "ci_m1.run": lambda text, base: parse_defect_run(text, "Ci", -1, "ci_m1.run"),
    "ci_m1.eig": lambda text, base: parse_eigenvalues(text, "ci_m1.eig"),
    "ci_m1.pot": lambda text, base: parse_site_potentials(text, "ci_m1.pot"),
    "run.manifest": lambda text, base: parse_manifest(text, base, "run.manifest"),
}


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=MUTATIONS)
def test_parsers_return_or_raise_parse_error(demo, name, edits):
    text = mutate((demo / name).read_text(), edits)
    try:
        PARSERS[name](text, demo)
    except ParseError:
        pass


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=MUTATIONS)
def test_diagram_on_mutated_inputs_keeps_the_cli_contract(demo, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        shutil.copytree(demo, inputs)
        path = inputs / name
        path.write_text(mutate(path.read_text(), edits))
        err = text_io.StringIO()
        with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["diagram", "--manifest", str(inputs / "run.manifest"),
                         "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        for json_path in (Path(tmp) / "out").rglob("*.json"):
            text = json_path.read_text()
            assert not any(word in text for word in ("NaN", "nan", "Infinity")), json_path.name
