#!/usr/bin/env python3
"""defect-forge benchmark: seeded workloads, each CLI command timed as its own process.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload demo|supercell|spectra --seed N --seconds S --trace 0|1

The benchmark generates the workload's inputs from the seed (set-up), then
runs the real CLI on them in a closed loop with one client: one fresh
interpreter per command, one command in flight, the next started when the
previous one has exited.  It runs the workload's command list once in full,
then keeps repeating it, starting a command only if its last duration says it
will end within ``--seconds``.  Between commands, within the same
``--seconds``, it has the set-up repeated, so that ``setup_s``, the median
set-up time, samples the same stretch of the run.  Every artifact is checked
against the generator's ground truth and against the first pass's bytes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each command
in process under the span recorder of ``tracer.py`` instead and reports the
per-layer metrics.  The last line of standard output is one JSON object; the
lines before it are a readable report, and the full record (environment,
input hashes, samples and quartiles) goes to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

RESIDUAL_SHARE = 0.05      # spans must cover all but this share of a traced command
SETUP_SHARE = 0.2          # set-up repeats run between commands while below this share of their time
START_REPEATS = 3
IMPORT_REPEATS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "DEFECT_FORGE_THREADS")
CLI_ENTRY = "from defect_forge.cli import entry; entry()"

WORKLOADS = ("demo", "supercell", "spectra")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics printed in the JSON line of a traced run: the ones that read
# above zero on every workload.  A layer that does no work on some workload
# (Ewald on spectra, fitting on supercell, ...) is in the report and the record.
PER_LAYER = {
    "python.start_s": "s", "import.total_s": "s", "import.numpy_s": "s",
    "import.scipy_s": "s", "import.defect_forge_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "io_formats.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.residual_s": "s",
}

# inclusive time of these functions, summed over the commands of a pass
FUNCTION_TIMES = {
    "manifest.load_s": ("manifest.load_manifest",),
    "io_formats.parse_grid_s": ("io_formats.parse_grid",),
    "io_formats.write_diagram_csv_s": ("io_formats.write_diagram_csv",),
    "io_formats.parse_csv_s": ("io_formats.parse_spectrum", "io_formats.parse_decay",
                               "io_formats.parse_xy", "io_formats.parse_raster_points",
                               "io_formats.parse_optics_records"),
    "io_formats.write_raster_s": ("io_formats.write_raster_csv", "io_formats.write_raster_pgm"),
    "lattice.minimum_image_s": ("lattice.minimum_image",),
    "ewald.potential_terms_s": ("ewald.EwaldContext.potential_terms",),
    "ewald.finite_size_correction_s": ("ewald.finite_size_correction",),
    "thermo.build_diagram_s": ("thermo.build_diagram",),
    "optics.transition_dipole_s": ("optics.transition_dipole",),
    "fitting.gauss_newton_s": ("fitting.gauss_newton",),
    "spectro.fit_peaks_s": ("spectro.fit_peaks",),
    "spectro.raster_map_s": ("spectro.raster_map",),
    "dose.calibrate_s": ("dose.calibrate",),
}
CALL_COUNTS = {
    "thermo.stable_charge_calls": "thermo.FormationDiagram.stable_charge",
    "lattice.minimum_image_calls": "lattice.minimum_image",
    "ewald.corrections": "ewald.finite_size_correction",
    "dose.classify_calls": "dose.classify",
}
COUNTERS = ("manifest.entries", "io_formats.grid_bytes_read", "ewald.points_evaluated",
            "optics.transition_dipole_peak_mb", "fitting.iterations", "fitting.residual_evals",
            "fitting.jacobian_evals", "spectro.raster_points")


def _unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    return "s" if name.endswith("_s") else "count"


# --- environment -----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(setup_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        **setup_env,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# --- child processes ----------------------------------------------------------------

def run_process(cmd: list[str], cwd: Path, env: dict, log_stem: Path) -> dict:
    """Run one child to completion; wall time, CPU and max RSS from its own rusage."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(f"{log_stem}.err").read_text(errors="replace")
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def process_problems(res: dict) -> list[str]:
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}")
    if "Traceback" in res["stderr"]:
        problems.append("traceback on stderr: " + res["stderr"].strip().splitlines()[-1])
    return problems


# --- statistics -------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# --- set-up ---------------------------------------------------------------------------------

class SetUp:
    """The set-up child of ``workloads.py``, which generates the inputs and times repeats.

    It runs in a child process so that this process stays small: a child's
    max RSS includes its parent's peak at the time it starts, so the runner
    itself must never hold the large inputs.  Between repeats it waits on its
    standard input and uses no CPU.
    """

    def __init__(self, name: str, seed: int, work: Path, trace: bool):
        self.log = open(work / "logs" / "setup.err", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(work), str(int(trace))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.record = json.loads(self._reply())
        self.record["workload"] = SimpleNamespace(**self.record["workload"])
        self.times = [self.record["seconds"]]

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
        return line

    def repeat(self) -> None:
        """Generate the inputs once more and record how long it took."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self._reply()))

    def close(self) -> None:
        """End the child; exit with its error output if it failed."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            self.log.seek(0)
            sys.exit(f"benchmark: set-up failed with exit code {self.proc.returncode}:\n{self.log.read()}")
        self.log.close()


# --- untraced run: end-to-end metrics ------------------------------------------------------

def timed_run(workload, inputs: Path, work: Path, seconds: float, setup: SetUp):
    """The closed loop over the workload's commands, with set-up repeats spread through it."""
    from checks import check, tree_digest
    env = child_env()
    samples = defaultdict(list)
    first_digest: dict[str, dict] = {}
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    passes, done, command_s = 0, False, 0.0
    while not done:
        for name, argv in workload.commands:
            # after the first pass, start a command only if it should end by the deadline
            if passes > 0 and time.perf_counter() + samples[name][-1]["wall_s"] > deadline:
                done = True
                break
            # set-up repeats are spread over the loop, so setup_s sees the
            # same stretch of machine time as the commands
            while sum(setup.times[1:]) < SETUP_SHARE * command_s:
                setup.repeat()
            out = work / "out" / f"{passes}-{name}"
            res = run_process([sys.executable, "-c", CLI_ENTRY, *argv, "--out", str(out)],
                              inputs, env, work / "logs" / f"{passes}-{name}")
            attempted += 1
            bad = process_problems(res) or check(name, out, workload.truth)
            digest = tree_digest(out)
            if not bad and first_digest.setdefault(name, digest) != digest:
                bad = ["artifacts differ from the first pass"]
            if bad:
                failed += 1
                problems += [f"pass {passes} {name}: {p}" for p in bad]
            samples[name].append(res)
            command_s += res["wall_s"]
            shutil.rmtree(out, ignore_errors=True)
        passes += 1

    per_command = {}
    for name, runs in samples.items():
        per_command[name] = {key: summary([r[key] for r in runs])
                             for key in ("wall_s", "cpu_s", "rss_mb")}
    metrics = {
        "wall_s": sum(c["wall_s"]["median"] for c in per_command.values()),
        "cpu_s": sum(c["cpu_s"]["median"] for c in per_command.values()),
        "peak_rss_mb": max(c["rss_mb"]["median"] for c in per_command.values()),
    }
    detail = {"passes_started": passes, "per_command": per_command,
              "error_rate": failed / attempted, "artifact_sha256": first_digest}
    return metrics, detail, attempted, failed, problems


# --- traced run: per-layer metrics -------------------------------------------------------------

def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_breakdown(spans, start: float, end: float) -> dict:
    """Self time and calls per layer; self time, inclusive time and calls per name; residual.

    Self time is a span's duration minus the part of it its children cover,
    and the residual is the part of [start, end] that no root span covers.
    `problems` lists the ways the spans fail to account for the wall time: a
    span outside its parent, overlapping spans on the main thread, or a
    residual above RESIDUAL_SHARE of the wall time.  Without those, the self
    times plus the residual add up to the wall time, plus the time in which
    spans of the manifest's worker threads run side by side.
    """
    bounds = {0: (start, end)}
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, worker in spans:
        bounds[sid] = (t0, t1)
        children[parent].append((t0, t1, worker))
    problems = []
    for parent, kids in children.items():
        lo, hi = bounds.get(parent, (math.inf, -math.inf))
        if any(t0 < lo or t1 > hi for t0, t1, _ in kids):
            problems.append(f"a span lies outside its parent span {parent}")
        on_main = [(t0, t1) for t0, t1, worker in kids if not worker]
        if sum(t1 - t0 for t0, t1 in on_main) - _union_length(on_main, lo, hi) > 1e-9:
            problems.append(f"main-thread spans overlap inside parent span {parent}")
    layer_self, layer_calls, name_self, inclusive, calls = (Counter() for _ in range(5))
    for sid, _, name, layer, t0, t1, _ in spans:
        own = (t1 - t0) - _union_length([k[:2] for k in children.get(sid, ())], t0, t1)
        layer_self[layer] += own
        layer_calls[layer] += 1
        name_self[name] += own
        inclusive[name] += t1 - t0
        calls[name] += 1
    wall = end - start
    residual = wall - _union_length([k[:2] for k in children.get(0, ())], start, end)
    if residual > RESIDUAL_SHARE * wall:
        problems.append(f"spans leave {residual:.4f} s of {wall:.4f} s unattributed")
    return {"layer_self": layer_self, "layer_calls": layer_calls, "name_self": name_self,
            "inclusive": inclusive, "calls": calls, "wall": wall, "residual": residual,
            "problems": problems}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing defect_forge.cli, split by top-level package."""
    totals = Counter()
    block = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        name = name[1:]
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        block.append((name, int(self_us)))
        if depth == 0:
            if name.split(".")[0] == "defect_forge":
                totals["import.total_s"] += int(cumulative_us) / 1e6
                for mod, us in block:
                    package = mod.split(".")[0]
                    if package in ("numpy", "scipy", "defect_forge"):
                        totals[f"import.{package}_s"] += us / 1e6
            block = []
    return totals


def traced_pass(workload, inputs: Path, work: Path, pass_no: int, problems: list[str]):
    """One traced pass: start-up and import probes, then each command plain and traced."""
    from checks import check, tree_bytes, tree_digest
    env = child_env()
    logs = work / "logs"
    metrics: Counter = Counter()
    starts = [run_process([sys.executable, "-c", "pass"], inputs, env, logs / "start")["wall_s"]
              for _ in range(START_REPEATS)]
    metrics["python.start_s"] = statistics.median(starts)
    imports = []
    for _ in range(IMPORT_REPEATS):
        res = run_process([sys.executable, "-X", "importtime", "-c", "import defect_forge.cli"],
                          inputs, env, logs / "importtime")
        imports.append(parse_importtime(res["stderr"]))
    for key in ("import.total_s", "import.numpy_s", "import.scipy_s", "import.defect_forge_s"):
        metrics[key] = statistics.median(t[key] for t in imports)

    attempted = failed = 0
    main_plain = main_traced = 0.0
    for name, argv in workload.commands:
        outs, results = {}, {}
        for mode in ("plain", "traced"):
            out = work / "out" / f"{pass_no}-{name}-{mode}"
            result_path = work / f"{pass_no}-{name}-{mode}.json"
            res = run_process([sys.executable, str(HERE / "tracer.py"), str(result_path), mode,
                               *argv, "--out", str(out)], inputs, env, logs / f"{name}-{mode}")
            attempted += 1
            bad = process_problems(res)
            if not bad:
                results[mode] = json.loads(result_path.read_text())
                result_path.unlink()
                if results[mode]["code"] != 0:
                    bad = [f"cli.main returned {results[mode]['code']}"]
            bad = bad or check(name, out, workload.truth)
            outs[mode] = out
            if bad:
                failed += 1
                problems += [f"trace pass {pass_no} {name} ({mode}): {p}" for p in bad]
        if len(results) == 2 and tree_digest(outs["plain"]) != tree_digest(outs["traced"]):
            failed += 1
            problems.append(f"trace pass {pass_no} {name}: traced artifacts differ from untraced")
        if "traced" in results:
            traced = results["traced"]
            b = span_breakdown(traced["spans"], traced["start"], traced["end"])
            if b["problems"]:
                failed += 1
                problems += [f"trace pass {pass_no} {name}: {p}" for p in b["problems"]]
            for layer, value in b["layer_self"].items():
                metrics[f"{layer}.self_s"] += value
                metrics[f"{layer}.calls"] += b["layer_calls"][layer]
            for metric, names in FUNCTION_TIMES.items():
                metrics[metric] += sum(b["inclusive"][n] for n in names)
            for metric, n in CALL_COUNTS.items():
                metrics[metric] += b["calls"][n]
            for key in COUNTERS:
                if key.endswith("_mb"):
                    metrics[key] = max(metrics[key], traced["counters"].get(key, 0.0))
                else:
                    metrics[key] += traced["counters"].get(key, 0.0)
            metrics["fitting.gauss_newton_self_s"] += b["name_self"]["fitting.gauss_newton"]
            metrics["trace.wall_s"] += b["wall"]
            metrics["trace.residual_s"] += b["residual"]
            metrics["cli.bytes_written"] += tree_bytes(outs["traced"])
            if "plain" in results:
                main_plain += results["plain"]["main_s"]
                main_traced += traced["main_s"]
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
    # 0 only when every plain run failed, which the failure count already reports
    metrics["trace.overhead_ratio"] = main_traced / main_plain if main_plain > 0 else 0.0
    return metrics, attempted, failed


def traced_run(workload, inputs: Path, work: Path, seconds: float, write_grid_s: float):
    passes, problems = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    # after the first pass, start a pass only if it should end by the deadline
    while not passes or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        metrics, a, f = traced_pass(workload, inputs, work, len(passes), problems)
        last = time.perf_counter() - t0
        metrics["io_formats.write_grid_s"] = write_grid_s
        passes.append(metrics)
        attempted += a
        failed += f
    names = sorted(set().union(*passes) | set(PER_LAYER))
    detail = {name: summary([p.get(name, 0.0) for p in passes]) for name in names}
    metrics = {name: detail[name]["median"] for name in names}
    return metrics, {"passes_completed": len(passes), "per_layer": detail,
                     "error_rate": failed / attempted}, attempted, failed, problems


# --- entry point ---------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    setup = SetUp(args.workload, args.seed, work, bool(args.trace))
    try:
        workload, inputs = setup.record["workload"], Path(setup.record["inputs"])
        if args.trace:
            metrics, detail, attempted, failed, problems = traced_run(
                workload, inputs, work, args.seconds, setup.record["write_grid_s"])
            reported = PER_LAYER
        else:
            metrics, detail, attempted, failed, problems = timed_run(
                workload, inputs, work, args.seconds, setup)
            metrics["setup_s"] = statistics.median(setup.times)
            reported = END_TO_END
    finally:
        setup.close()

    env = environment(setup.record["environment"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, one command in flight",
        "environment": env,
        "commands": [["defect-forge", *argv, "--out", "OUT"] for _, argv in workload.commands],
        "setup_s": summary(setup.times), "input_sha256": setup.record["sha256"],
        "metrics": metrics, "detail": detail, "attempted": attempted, "failed": failed,
        "problems": problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    report(record, reported)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }))
    return 0


def report(record: dict, reported: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  {record['loop']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}  "
          f"{env['cpus_usable']}/{env['cpu_count']} cpus  {env['cpu_model']}")
    print("thread env: " + ", ".join(f"{k}={v}" for k, v in env["thread_env"].items()))
    for argv in record["commands"]:
        print("  $ " + " ".join(argv))
    s = record["setup_s"]
    mark = "*" if "setup_s" in reported else " "
    print(f"{mark}{'setup_s':33s} {s['median']:12.6g} s      q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    detail = record["detail"]
    if record["trace"]:
        for name, d in detail["per_layer"].items():
            mark = "*" if name in reported else " "
            print(f"{mark}{name:33s} {d['median']:12.6g} {_unit(name):6s} "
                  f"q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  n {d['n']}")
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            print(f"*{name:33s} {record['metrics'][name]:12.6g} {reported[name]}")
        for cmd, d in detail["per_command"].items():
            w = d["wall_s"]
            print(f" {'cmd.' + cmd + '_s':33s} {w['median']:12.6g} s      "
                  f"q1 {w['q1']:.6g}  q3 {w['q3']:.6g}  n {w['n']}  "
                  f"cpu {d['cpu_s']['median']:.4g} s  rss {d['rss_mb']['median']:.4g} MB")
    print(f" {'error_rate':33s} {detail['error_rate']:12.6g} share of {record['attempted']} commands")
    for p in record["problems"]:
        print("FAILED: " + p)


if __name__ == "__main__":
    if not (SRC / "defect_forge" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC}/defect_forge; "
                 "run from the root of a defect-forge checkout")
    raise SystemExit(main())
