"""Span recorder for the traced run, and the child process that runs one CLI command.

The recorder wraps every public function and method of the package's layer
modules, and rebinds each wrapper on every name a caller looks it up by:
``cli`` imports ``finite_size_correction`` directly, ``spectro`` imports
``gauss_newton``, and so on, so a wrapper on the defining module alone would
miss those calls.  Nothing inside the package changes.  Spans stay in memory
and are written out when the command ends.

Child usage (from the checkout root, with ``src`` on PYTHONPATH):

    python benchmark/tracer.py RESULT.json traced|plain CLI-ARGS...

It imports ``defect_forge.cli``, runs ``cli.main(CLI-ARGS)`` in process and
writes the in-process timings, exit code, spans and counters to RESULT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc

LAYERS = ("cli", "manifest", "io_formats", "lattice", "ewald", "thermo", "optics",
          "spectro", "fitting", "dose")


class Recorder:
    """Spans as (id, parent_id, name, layer, start, end, worker); counters by metric name.

    ``worker`` is true for a span recorded on a thread other than the main one.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """A root span timed by the caller, such as the package import."""
        self.spans.append((next(self._ids), 0, name, layer, start, end, False))

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            worker = stack is not main_stack
            # a worker thread's first span belongs to whatever the main thread is in
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            if before is not None:
                args = before(args)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, t0, t1, worker))
                if after is not None:
                    after(args, result)

        return traced

    def install(self, package: str = "defect_forge") -> None:
        """Wrap the public functions and methods of every layer module, on every name."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[obj] = self._wrapped(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, layer)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrapped(obj, name, layer))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrapped(obj.__func__, name, layer)))

    def _wrapped(self, fn, name: str, layer: str):
        hooks = {
            "ewald.EwaldContext.potential_terms":
                {"after": lambda a, r: self.add("ewald.points_evaluated", len(r) if r is not None else 0)},
            "io_formats.parse_grid":
                {"after": lambda a, r: self.add("io_formats.grid_bytes_read", len(a[0]) if a else 0)},
            "manifest.load_manifest":
                {"after": lambda a, r: self.add("manifest.entries", len(r.defects) if r else 0)},
            "spectro.raster_map":
                {"after": lambda a, r: self.add("spectro.raster_points", len(a[0]) if a else 0)},
            "fitting.gauss_newton":
                {"before": self._count_evaluations,
                 "after": lambda a, r: self.add("fitting.iterations", r.n_iter if r else 0)},
            "optics.transition_dipole":
                {"before": self._start_tracemalloc, "after": self._stop_tracemalloc},
        }
        return self.wrap(fn, name, layer, **hooks.get(name, {}))

    def _count_evaluations(self, args):
        if len(args) < 2:
            return args
        residual, jacobian, *rest = args

        def counted_residual(x):
            self.add("fitting.residual_evals", 1)
            return residual(x)

        def counted_jacobian(x):
            self.add("fitting.jacobian_evals", 1)
            return jacobian(x)

        return (counted_residual, counted_jacobian, *rest)

    def _start_tracemalloc(self, args):
        tracemalloc.start()
        return args

    def _stop_tracemalloc(self, args, result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        key = "optics.transition_dipole_peak_mb"
        self.counters[key] = max(self.counters.get(key, 0.0), peak / 2**20)


def run_child(result_path: str, mode: str, argv: list[str]) -> int:
    """Run one CLI command in this process and write its timings and spans."""
    clock = time.perf_counter
    recorder = Recorder() if mode == "traced" else None
    start = clock()
    import defect_forge.cli as cli
    imported = clock()
    if recorder is not None:
        recorder.record("import defect_forge.cli", "import", start, imported)
        recorder.install()
    main_start = clock()
    code = cli.main(argv)
    end = clock()
    payload = {
        "code": code,
        "start": start,
        "end": end,
        "import_s": imported - start,
        "main_s": end - main_start,
        "spans": recorder.spans if recorder else [],
        "counters": recorder.counters if recorder else {},
    }
    with open(result_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(run_child(sys.argv[1], sys.argv[2], sys.argv[3:]))
