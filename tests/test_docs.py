"""The record examples of docs/formats.md parse as written, with no warning."""

import re
import warnings
from pathlib import Path

import numpy as np

from defect_forge import CrystalCell, Site
from defect_forge import io_formats as io
from defect_forge.manifest import load_manifest, parse_defect_run

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def _example(heading: str) -> str:
    """The first code block under the `## <heading>` section of docs/formats.md."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```\n(.*?)^```", FORMATS.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, heading
    return match.group(1)


RUN = _example("Defect run record (`*.run`)")
MANIFEST = _example("Run manifest")


def test_run_record_example_parses():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = parse_defect_run(RUN, "Ci", -1, "doc.run")
    assert (run.total_energy, run.delta, run.position) == (-310.123456, {"C": 1, "H": 1}, (0.5, 0.5, 0.5))


def test_manifest_example_loads_with_stub_files(tmp_path):
    """Each file the manifest names is written as a stub: the run record of the .run example."""
    stubs = {
        "cell": lambda path: io.save_structure(CrystalCell(np.eye(3) * 5.43, (Site("Si", (0, 0, 0)),)), path),
        "energy": lambda path: path.write_text(RUN),
        "site_potentials": lambda path: path.write_text("0 0.01\n"),
    }
    for key, value in re.findall(r"^(\S+) = (.*)$", MANIFEST, re.MULTILINE):
        if key in stubs:
            (tmp_path / value).parent.mkdir(parents=True, exist_ok=True)
            stubs[key](tmp_path / value)
    (tmp_path / "run.manifest").write_text(MANIFEST)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = load_manifest(tmp_path / "run.manifest")
    assert (manifest.project, manifest.host.mu) == ("my-project", {"Si": -5.42, "C": -9.22})
    [entry] = manifest.defects
    assert (entry.run.label, entry.run.charge, entry.site_potentials.tolist()) == ("Ci", -1, [[0.0, 0.01]])
    np.testing.assert_array_equal(manifest.cell.dielectric, 11.7 * np.eye(3))
