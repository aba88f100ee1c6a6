#!/usr/bin/env python3
"""cyclosense benchmark: end-to-end and per-layer timings of the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload roc_reference --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each run imports the package from ./src in a fresh interpreter, builds
its inputs from --seed, then repeats the workload's unit (a fixed list of
in-process `cyclosense.cli.main` calls, one caller, closed loop) until
--seconds have passed, checking every call's output.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`; with --trace 0 the metrics are the end-to-end ones, timed at
reference machine speed (see speed.py) except on the pooled workload,
with --trace 1 the per-layer ones from spans (see tracing.py).  A fuller
record, with the machine description, goes to .perfbench-out/.
See perfbench/README.md for what each metric means.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# workloads, speed and tracing import numpy, so they are imported only after
# `import cyclosense`: setup_s must include numpy's import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-run"
WORKLOADS = ("roc_reference", "roc_sweep_w2", "profile_full", "calibrate_detect")
SETUP_PROBES = 8            # extra fresh interpreters timed for setup_s
MIN_UNITS = 2


def now_s() -> float:
    return time.perf_counter_ns() / 1e9


def import_package():
    """Import cyclosense from ./src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cyclosense")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cyclosense imported from {package.__file__}, not {SRC}")
    importlib.import_module("cyclosense.cli")
    return package


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the inputs.

    Returns (package, unit, seconds at reference machine speed).
    """
    start = now_s()
    package = import_package()
    import workloads
    unit = workloads.BUILDERS[workload](workdir, seed)
    elapsed = now_s() - start
    import speed
    return package, unit, elapsed / speed.slowdown_now()


def setup_probe(args) -> int:
    workdir = WORK_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _, _, seconds = setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def probe_setups(args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    backend = np.fft.fft.__module__
    if hasattr(np.fft, "_pocketfft_umath"):
        backend += " (pocketfft C++ ufuncs)"
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "fft_backend": backend}


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; stays within the observed range."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Run:
    """One workload run: repeated units, their output checks and timings."""

    def __init__(self, args, package, unit, tracer):
        import speed
        import workloads

        self.w = workloads
        self.args = args
        self.cli = package.cli
        self.unit = unit
        self.tracer = tracer
        self.expected = workloads.load_expected(args.workload, args.seed)
        self.reference_outputs = None
        self.probe = speed.SpeedProbe()
        # Units that run pool workers keep raw times and run without the
        # sampler: samples taken beside the workers would divide the
        # program's own load out, and samples taken between units did not
        # track the pooled calls' speed.
        self.pooled = unit.workers > 1
        # times at reference machine speed (see speed.py), and raw wall times
        self.unit_walls = {False: [], True: []}     # keyed by traced
        self.raw_walls = {False: [], True: []}
        self.item_s = self.raw_item_s = 0.0
        self.items = 0
        self.op_ms = []
        self.raw_op_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, call, traced: bool):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter_ns()
            try:
                if traced:
                    code = self.tracer.span("cli.main", self.cli.main, call.argv)
                else:
                    code = self.cli.main(call.argv)
            except Exception as exc:     # counted as a failed operation
                code = f"raised {exc!r}"
            end = time.perf_counter_ns()
        if code != 0:
            return (start, end), None, f"exit {code}"
        text = call.out_path.read_text() if call.out_path else buf.getvalue()
        return (start, end), text, None

    def unit_once(self, index: int, traced: bool) -> None:
        if traced:
            self.tracer.start(index)
        timed = []
        try:
            for call in self.unit.calls:
                timed.append((call, *self.call(call, traced)))
        finally:
            if traced:
                self.tracer.stop()
        outputs = []
        scaled_wall = raw_wall = 0.0
        for call, (start, end), text, error in timed:
            raw = (end - start) / 1e9
            elapsed = raw if self.pooled else self.probe.scaled(start, end)
            scaled_wall += elapsed
            raw_wall += raw
            errors = [error] if error else []
            if text is not None:
                try:
                    errors += self.w.check_call(self.unit, call, text, outputs, self.expected)
                except (ValueError, KeyError, IndexError, AttributeError) as exc:
                    errors.append(f"unparseable output: {exc!r}")
            if self.reference_outputs is not None and \
                    text != self.reference_outputs[len(outputs)]:
                errors.append("output differs from the run's first unit"
                              + (" (traced)" if traced else ""))
            outputs.append(text)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.extend(f"unit {index} {call.kind}: {e}" for e in errors)
            if call.kind in self.unit.item_kinds:
                self.items += call.items
                self.item_s += elapsed
                self.raw_item_s += raw
            if call.kind == self.unit.op_kind:
                self.op_ms.append(elapsed * 1e3)
                self.raw_op_ms.append(raw * 1e3)
        if self.reference_outputs is None:
            self.reference_outputs = outputs
        self.unit_walls[traced].append(scaled_wall)
        self.raw_walls[traced].append(raw_wall)

    def loop(self) -> None:
        start = now_s()
        index = 0
        if not self.pooled:
            self.probe.start()
        try:
            while True:
                self.unit_once(index, traced=bool(self.args.trace) and index % 2 == 1)
                index += 1
                walls = self.raw_walls[False] + self.raw_walls[True]
                if index >= MIN_UNITS and \
                        now_s() - start + statistics.median(walls) > self.args.seconds:
                    break
        finally:
            if not self.pooled:
                self.probe.stop()


def end_to_end(run: Run, setups: list, child_rss_kb: int) -> dict:
    """`child_rss_kb`: the largest child peak, read before any setup probe ran."""
    walls = run.unit_walls[False]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if run.unit.workers > 1:
        rss_kb += run.unit.workers * child_rss_kb
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "items_per_s": (run.items / run.item_s, "1/s", run.items),
        "op_ms_p50": (statistics.median(run.op_ms), "ms", len(run.op_ms)),
        "op_ms_p99": (quantile(run.op_ms, 0.99), "ms", len(run.op_ms)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def raw_times(run: Run) -> dict:
    """The same timings unscaled, for the human-readable report only."""
    import speed

    walls = run.raw_walls[False]
    return {
        "raw.wall_s": (statistics.median(walls), "s", len(walls)),
        "raw.items_per_s": (run.items / run.raw_item_s, "1/s", run.items),
        "raw.op_ms_p50": (statistics.median(run.raw_op_ms), "ms", len(run.raw_op_ms)),
        "raw.op_ms_p99": (quantile(run.raw_op_ms, 0.99), "ms", len(run.raw_op_ms)),
        # a pooled run samples the machine only now, with no worker alive
        "machine.slowdown": (speed.slowdown_now(), "x", 20) if run.pooled
        else (run.probe.factor(), "x", len(run.probe.cpus)),
    }


def per_layer(run: Run) -> dict:
    import tracing

    metrics = {k: (v, unit, None) for k, (v, unit) in
               tracing.layer_metrics(run.tracer, run.unit.workers).items()}
    plain = statistics.median(run.unit_walls[False])
    traced = statistics.median(run.unit_walls[True])
    metrics["trace.overhead_s"] = (traced - plain, "s", len(run.unit_walls[True]))
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "ratio", None)
    return metrics


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tspan_id\tparent_id\trun_id\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")


def run_one(args) -> int:
    load_before = os.getloadavg()
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    notes = []
    try:
        package, unit, first_setup = setup(args.workload, args.seed, workdir)
        import tracing
        import workloads

        tracer = None
        if args.trace:
            if unit.workers > 1 and not tracing.FORK_SPANS:
                unit = workloads.BUILDERS[args.workload](workdir, args.seed, workers=1)
                notes.append("pool workers are not forked here, so worker spans cannot be "
                             "collected: per-layer numbers come from a serial traced run")
            tracer = tracing.Tracer(package, workdir)
        run = Run(args, package, unit, tracer)
        run.loop()
        child_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.trace:
            metrics = per_layer(run)
        else:
            metrics = end_to_end(run, [first_setup] + probe_setups(args), child_rss_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    info = machine()
    loaded = load_before[0] >= 0.75 * info["nproc"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    print(f"# loadavg before={load_before} after={load_after}"
          + ("  ** started under outside load **" if loaded else ""))
    for note in notes:
        print(f"# note: {note}")
    extra = {} if args.trace else raw_times(run)
    for name, (value, unit_name, n) in (metrics | extra).items():
        count = "" if n is None else f"  (n={n})"
        print(f"{name} = {value:.6g} {unit_name}{count}")
    if args.trace and metrics["harness.run_roc.calls"][0]:
        span, own, children = (metrics[f"harness.run_roc.{k}"][0]
                               for k in ("s", "self_s", "children_s"))
        print(f"# run_roc span {span:.6f} s = children {children:.6f} s + self {own:.6f} s "
              f"({(children + own) / span:.4f} of the span; above 1 where workers overlap)")
    if args.trace and unit.smoothing_len == 1301:
        calls = metrics["scd.scd_slice.calls"][0]
        print(f"# scd_slice at N=4096, L=1301: "
              f"{metrics['scd.scd_slice.us_per_call'][0]:.1f} us/call (n={calls})")
    print(f"failed_frac = {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    for error in run.errors[:20]:
        print(f"# error: {error}")

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, machine=info, loadavg_before=load_before, loadavg_after=load_after,
                  started_loaded=loaded, notes=notes, errors=run.errors[:100],
                  samples={k: n for k, (_, _, n) in metrics.items() if n is not None},
                  unscaled={k: v for k, (v, _, _) in extra.items()},
                  recorded_expectation=run.expected is not None)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(OUT_DIR / f"spans-{args.workload}.tsv", run.tracer.spans)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    rows = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        record = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        samples = json.loads(record.read_text())["samples"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"], samples.get(name, "")))
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "",
                     result["attempted"]))
    print(f"\n{'workload':18s} {'metric':40s} {'value':>14s} {'unit':6s} n")
    for workload, name, value, unit, n in rows:
        print(f"{workload:18s} {name:40s} {value:14.6g} {unit:6s} {n}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cyclosense" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cyclosense'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
