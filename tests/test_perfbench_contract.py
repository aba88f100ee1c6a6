"""The names perfbench/tracing.py wraps must exist in the package.

perfbench traces a run by rebinding the functions it lists in TRACED, and
the pool task harness._compute_phase_range, in the package's modules; it
fails with a KeyError at install when a refactor drops one of them.  The
tracer is loaded from its file, unedited.
"""

import importlib.util
from pathlib import Path

import cyclosense
import cyclosense.cli
from cyclosense.cli import main

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ["calibrate", "--n", "64", "--fs-hz", "64", "--fc-hz", "16", "--bandwidth-hz",
             "4", "--smoothing-len", "5", "--detector", "cycle_feature", "--noise-variance",
             "1.0", "--calibration-trials", "20", "--target-pf", "0.5", "--seed", "7"]


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
    tracer.install()
    try:
        for (module, fn), original in originals.items():
            wrapper = vars(modules[module])[fn]
            assert wrapper is not original and wrapper.__wrapped__ is original, (module, fn)
        assert main(CALIBRATE) == 0
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        assert all(vars(module)[attr] is value for attr, value in bindings[name].items()), name
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "calibrate_cycle.txt").read_text()
    spans = {span[0] for span in tracer.spans}
    assert {"cli.build_parser", "cli.calibrate", "detect.calibrate_threshold",
            "scd.make_window", "harness.derive_seed", "siggen.noise_only"} <= spans
