#!/usr/bin/env python3
"""Record the expected outputs that run.py checks against.

    python3 perfbench/record.py            # seeds 0..10, every workload

Runs one unit of each workload per seed through `cyclosense.cli.main` and
stores what `workloads.summary` extracts under perfbench/expected/.
roc_sweep_w2 is recorded with --workers 1, so checking the pooled run
against it also checks that the worker count does not change the output.
Re-record only on purpose: a change that moves these numbers changes what
the package computes.
"""

import contextlib
import io
import json
import shutil
import sys

import numpy as np

import run
import workloads

SEEDS = range(11)


def record_unit(cli, workload: str, seed: int) -> dict:
    workdir = run.WORK_DIR / f"record-{workload}-{seed}"
    workdir.mkdir(parents=True)
    try:
        unit = workloads.BUILDERS[workload](workdir, seed, workers=1)
        calls = [c for c in unit.calls if c.kind != "detect" or c.index < workloads.DETECT_FILES]
        outputs = []
        for call in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(call.argv)
            if code != 0:
                raise RuntimeError(f"{workload} seed {seed}: {call.kind} exited {code}")
            outputs.append(call.out_path.read_text() if call.out_path else buf.getvalue())
            errors = workloads.check_call(unit, call, outputs[-1], outputs[:-1], None)
            if errors:
                raise RuntimeError(f"{workload} seed {seed}: {errors}")
        return workloads.summary(unit, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    cli = run.import_package().cli
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        by_seed = {seed: record_unit(cli, workload, seed) for seed in SEEDS}
        if workload == "profile_full":
            np.savez_compressed(workloads.EXPECTED_DIR / "profile_full.npz",
                                **{f"seed{s}": np.array(v["magnitudes"])
                                   for s, v in by_seed.items()})
        else:
            path = workloads.EXPECTED_DIR / f"{workload}.json"
            path.write_text(json.dumps({str(s): v for s, v in by_seed.items()}, indent=1) + "\n")
        print(f"recorded {workload} for seeds 0..{SEEDS[-1]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
