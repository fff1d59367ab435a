"""scripts/generate_demo_inputs.py writes the benchmark's demo inputs and every artifact passes its check."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_demo_inputs",
                                                  ROOT / "scripts" / "generate_demo_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_script_outputs_pass_the_benchmark_checks(tmp_path, capsys):
    script = _load_script()  # puts benchmark/ on sys.path
    from checks import check
    from workloads import demo

    target = tmp_path / "demo"
    assert script.main(target) == 0
    assert "Traceback" not in capsys.readouterr().err
    truth_dir = tmp_path / "truth"
    truth_dir.mkdir()
    workload = demo(truth_dir, script.SEED)  # the same seed gives the same inputs and truth
    for name, _ in workload.commands:
        assert check(name, target / "out", workload.truth) == [], name
