"""The names perfbench/tracing.py wraps and reads must exist in the package.

perfbench traces a run by rebinding the functions it lists in TRACED, and
the pool task harness._compute_phase_range, in the package's modules; it
fails with a KeyError at install when a refactor drops one of them.
Tracer.start and stop also read scd._window_transform.cache_info().  The
tracer is loaded from its file, unedited, and driven as perfbench drives
it: start, one traced command, stop, layer_metrics.
"""

import importlib.util
import json
import os
from collections import Counter
from pathlib import Path

import pytest

import cyclosense
import cyclosense.cli
from cyclosense.cli import main

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ["calibrate", "--n", "64", "--fs-hz", "64", "--fc-hz", "16", "--bandwidth-hz",
             "4", "--smoothing-len", "5", "--detector", "cycle_feature", "--noise-variance",
             "1.0", "--calibration-trials", "20", "--target-pf", "0.5", "--seed", "7"]
ROC = ["roc", "--n", "64", "--fs-hz", "64", "--fc-hz", "16", "--bandwidth-hz", "4",
       "--smoothing-len", "5", "--snr-db", "10", "--target-pf", "0.5", "--trials", "21",
       "--calibration-trials", "20", "--h1-trials", "9", "--seed", "7", "--workers"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name(tmp_path, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer(cyclosense, tmp_path)
    modules = tracer.modules
    targets = [(module, fn) for module, fn, _ in tracing.TRACED]
    targets.append(("harness", "_compute_phase_range"))
    originals = {target: vars(modules[target[0]])[target[1]] for target in targets}
    bindings = {name: dict(vars(module)) for name, module in modules.items()}
    cache = modules["scd"]._window_transform
    before = cache.cache_info()
    tracer.start(0)
    try:
        for (module, fn), original in originals.items():
            wrapper = vars(modules[module])[fn]
            assert wrapper is not original and wrapper.__wrapped__ is original, (module, fn)
        assert main(CALIBRATE) == 0
    finally:
        tracer.stop()
    after = cache.cache_info()
    assert after.hits + after.misses > before.hits + before.misses
    assert tracer.cache_hits == after.hits - before.hits
    for name, module in modules.items():
        assert all(vars(module)[attr] is value for attr, value in bindings[name].items()), name
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "calibrate_cycle.txt").read_text()
    spans = {span[0] for span in tracer.spans}
    assert {"cli.build_parser", "cli.calibrate", "detect.calibrate_threshold",
            "scd.make_window", "harness.derive_seed", "siggen.noise_only"} <= spans
    metrics = tracing.layer_metrics(tracer, 1)
    for _, _, name in tracing.TRACED:
        suffixes = ("calls", "s") if name.startswith("cli.") else ("calls", "s", "us_per_call")
        assert all(f"{name}.{suffix}" in metrics for suffix in suffixes), name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) <= {metric["name"] for metric in declared}
    assert metrics["cli.calibrate.calls"] == (1, "count")
    assert metrics["cli.build_parser.calls"] == (1, "count")
    assert {span[5] for span in tracer.spans} == {0}


def test_pooled_roc_merges_worker_spans(tmp_path, capsys, monkeypatch):
    tracing = load_tracing()
    if not tracing.FORK_SPANS:
        pytest.skip("worker spans are merged only from forked pool workers")
    assert main([*ROC, "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tracer = tracing.Tracer(cyclosense, tmp_path)
    tracer.start(0)
    try:
        assert main([*ROC, "2"]) == 0
    finally:
        tracer.stop()
    assert capsys.readouterr().out == serial
    assert list(tmp_path.iterdir()) == []
    # 2 workers split each of the 3 phases in two, one worker_task span per task
    tasks = {span[3] for span in tracer.spans if span[0] == tracing.WORKER_TASK}
    assert len(tasks) == 6
    assert all(span_id >> 32 != os.getpid() for span_id in tasks)
    in_tasks = Counter(span[0] for span in tracer.spans if span[4] in tasks)
    assert in_tasks["siggen.noise_only"] == 20 + 21
    assert in_tasks["harness.derive_seed"] == 20 + 21 + 2 * 9
    metrics = tracing.layer_metrics(tracer, 2)
    assert metrics["harness.run_roc.calls"] == (1, "count")
    assert metrics["siggen.noise_only.calls"] == (20 + 21, "count")
    assert 0.0 < metrics["harness.pool_busy_frac"][0] <= 1.0
    assert {span[5] for span in tracer.spans} == {0}
