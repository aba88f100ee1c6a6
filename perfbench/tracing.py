"""Span tracing from outside the package.

`Tracer.install()` wraps the public functions that `cli`, `harness` and
`scd` call and rebinds every name that refers to them in the package's
modules; `uninstall()` puts the originals back.  Each wrapped call records
a span (name, start, end, span id, parent id, run id) in memory, timed
with `time.perf_counter_ns`.

Pool workers forked by `run_roc` inherit the wrappers.  The task function
`harness._compute_phase_range` is also wrapped, only so that a worker
appends its spans and window-cache counts to a spool file after each task;
`collect()` merges those files into the parent's span list.  This works
only with the `fork` start method (`FORK_SPANS`); otherwise the caller
traces a serial run instead.
"""

import functools
import multiprocessing
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name) for every traced boundary.
TRACED = (
    ("siggen", "generate_am", "siggen.generate_am"),
    ("siggen", "noise_only", "siggen.noise_only"),
    ("siggen", "add_awgn", "siggen.add_awgn"),
    ("siggen", "read_signal_file", "siggen.read_signal_file"),
    ("scd", "dft", "scd.dft"),
    ("scd", "make_window", "scd.make_window"),
    ("scd", "scd_slice", "scd.scd_slice"),
    ("scd", "cycle_profile", "scd.cycle_profile"),
    ("scd", "write_profile_csv", "scd.write_profile_csv"),
    ("detect", "cycle_metric", "detect.cycle_metric"),
    ("detect", "energy_metric", "detect.energy_metric"),
    ("detect", "calibrate_threshold", "detect.calibrate_threshold"),
    ("detect", "decide", "detect.decide"),
    ("harness", "derive_seed", "harness.derive_seed"),
    ("harness", "run_roc", "harness.run_roc"),
    ("harness", "write_roc_csv", "harness.write_roc_csv"),
    ("harness", "read_threshold_file", "harness.read_threshold_file"),
    ("harness", "write_threshold_file", "harness.write_threshold_file"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_cmd_roc", "cli.roc"),
    ("cli", "_cmd_profile", "cli.profile"),
    ("cli", "_cmd_calibrate", "cli.calibrate"),
    ("cli", "_cmd_detect", "cli.detect"),
)
MODULES = ("siggen", "scd", "detect", "harness", "cli")
WORKER_TASK = "harness.worker_task"
FORK_SPANS = multiprocessing.get_start_method() == "fork"


class Tracer:
    def __init__(self, package, spool_dir: Path):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spool_dir = spool_dir
        self.spans = []          # (name, start_ns, end_ns, span_id, parent_id, run_id)
        self.read_bytes = 0      # bytes of signal files read through read_signal_file
        self.cache_hits = 0      # window-transform cache hits in traced units, workers too
        self.run_id = 0
        self._stack = []
        self._pid = os.getpid()
        self._origin_pid = self._pid
        self._counter = 0
        self._bindings = []

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._counter += 1
        return (self._pid << 32) | self._counter

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((name, start, end, span_id, parent, self.run_id))

    def _wrap(self, name, fn):
        if name == "siggen.read_signal_file":
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                result = self.span(name, fn, path, *args, **kwargs)
                self.read_bytes += os.path.getsize(path)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_worker_task(self, fn):
        cache = self.modules["scd"]._window_transform

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._origin_pid:
                return fn(*args, **kwargs)
            if os.getpid() != self._pid:
                # first task in a freshly forked worker: drop the parent's spans
                self._pid = os.getpid()
                self._counter = 0
                self.spans = []
            hits = cache.cache_info().hits
            try:
                return self.span(WORKER_TASK, fn, *args, **kwargs)
            finally:
                self._spool(cache.cache_info().hits - hits)
        return wrapper

    def _spool(self, cache_hits: int) -> None:
        with open(self.spool_dir / f"worker-{self._pid}.pkl", "ab") as fh:
            pickle.dump((self.spans, cache_hits), fh)
        self.spans = []

    def collect(self) -> None:
        """Merge spans spooled by pool workers into this process's list."""
        for path in sorted(self.spool_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans, hits = pickle.load(fh)
                    except EOFError:
                        break
                    self.spans.extend(spans)
                    self.cache_hits += hits
            path.unlink()

    # -- (un)installing ----------------------------------------------------

    def start(self, run_id: int) -> None:
        """Trace the calls of one unit, tagged with run_id."""
        self.run_id = run_id
        self._hits_before = self.modules["scd"]._window_transform.cache_info().hits
        self.install()

    def stop(self) -> None:
        self.uninstall()
        self.cache_hits += (self.modules["scd"]._window_transform.cache_info().hits
                            - self._hits_before)
        self.collect()

    def install(self) -> None:
        targets = [(vars(self.modules[module])[fn], name) for module, fn, name in TRACED]
        targets.append((self.modules["harness"]._compute_phase_range, None))
        for original, name in targets:
            wrapper = (self._wrap_worker_task(original) if name is None
                       else self._wrap(name, original))
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        children[parent].append((start, end))
    result = {}
    for _, start, end, span_id, _, _ in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(span_id, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer numbers from the spans: name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    child_ns = defaultdict(int)
    by_id = {s[3]: s for s in spans}
    for name, start, end, _, parent, _ in spans:
        calls[name] += 1
        total_ns[name] += end - start
        if parent in by_id:
            child_ns[by_id[parent][0]] += end - start
    self_ns = defaultdict(int)
    for span_id, value in selfs.items():
        self_ns[by_id[span_id][0]] += value

    out = {}
    for _, _, name in TRACED:
        seconds = total_ns[name] / 1e9
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (seconds, "s")
        if not name.startswith("cli."):
            out[f"{name}.us_per_call"] = (seconds * 1e6 / calls[name] if calls[name] else 0.0, "us")
    out["siggen.read_signal_file.bytes"] = (tracer.read_bytes, "bytes")
    buffers = sum(calls[n] for n in ("siggen.generate_am", "siggen.noise_only",
                                     "siggen.read_signal_file"))
    out["scd.make_window.calls_per_trial"] = (
        calls["scd.make_window"] / buffers if buffers else 0.0, "ratio")
    slices = calls["scd.scd_slice"]
    out["scd.window_cache.hit_ratio"] = (tracer.cache_hits / slices if slices else 0.0, "ratio")
    roc_ns = total_ns["harness.run_roc"]
    out["harness.run_roc.self_s"] = (self_ns["harness.run_roc"] / 1e9, "s")
    out["harness.run_roc.children_s"] = (child_ns["harness.run_roc"] / 1e9, "s")
    out["harness.pool_busy_frac"] = (
        total_ns[WORKER_TASK] / (workers * roc_ns) if workers > 1 and roc_ns else 0.0, "ratio")
    out["cli.self_s"] = (sum(self_ns[n] for n in ("cli.main", "cli.roc", "cli.profile",
                                                  "cli.calibrate", "cli.detect")) / 1e9, "s")
    return out
