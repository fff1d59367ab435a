#!/usr/bin/env python3
"""Write the demo project and run every command of the demo workload on it once.

Usage: python scripts/generate_demo_inputs.py [target_dir]

The inputs are those of the benchmark's `demo` workload at a fixed seed
(benchmark/workloads.py): a host cell with one defect in three charge states,
a grid state pair, PL, TR-PL, saturation, dose and raster data, a ZPL/TDM
record table and a run manifest.  The artifacts land in target_dir/out.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
from workloads import demo  # noqa: E402

from defect_forge.cli import main as cli  # noqa: E402

SEED = 7


def main(target: Path) -> int:
    target.mkdir(parents=True, exist_ok=True)
    workload = demo(target, SEED)
    codes = []
    cwd = os.getcwd()
    os.chdir(target)  # the workload's commands name their inputs relative to it
    try:
        for _, argv in workload.commands:
            print(f"\n$ defect-forge {' '.join(argv)} --out out")
            codes.append(cli([*argv, "--out", "out"]))
    finally:
        os.chdir(cwd)
    print(f"\nartifacts under {target / 'out'}/")
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1] if len(sys.argv) > 1 else "demo")))
