#!/usr/bin/env python3
"""Run alternating perfbench pairs of two checkouts and add them to a BENCH_*.json file.

    python3 tools/bench_pairs.py BENCH.json NAME WORKLOAD SEEDS A=DIR@REV B=DIR@REV [SECONDS]

SEEDS is FIRST-LAST, at least two seeds: the summary's quartiles need two runs a side.
Pair k runs `perfbench/run.py --workload WORKLOAD --seed S --seconds SECONDS --trace 0`
(SECONDS defaults to 25) in both checkouts, A first when k is even; a call that adds to
a comparison already in the file numbers its pairs on from that comparison's last pair.
Each record gives the comparison NAME, the side, its revision, its
checkout root as an absolute path, the seed, the argv, the end-to-end metrics, `correct`
and `failed`.  Two roots whose absolute paths differ in length are refused before any
run: a path's length can bias the timings, as environment size does (Mytkowicz et al.,
ASPLOS 2009).  In alternating 5-second `roc_reference` runs of one revision (2-vCPU
Xeon), a checkout at a 40-character path beat one at 16 characters in 3 of 4 pairs,
while two 16-character copies split 2-2.  A root with a `__pycache__` directory
anywhere under it is refused too, and each run has PYTHONDONTWRITEBYTECODE=1 set:
bytecode left by an earlier run or test session spares one side its compiles at
import.  The summary is recomputed from all records after the last pair: per
comparison, side and metric, the median and quartiles (statistics.quantiles, n=4,
exclusive method) of the runs.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(side, rev, root, workload, seed, seconds):
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"side": side, "rev": rev, "root": root, "seed": seed, "argv": argv[1:],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"]}


def summarize(records):
    values = {}
    for record in records:
        sides = values.setdefault(record["comparison"], {})
        for name, value in record["metrics"].items():
            sides.setdefault(record["side"], {}).setdefault(name, []).append(value)
    return {comparison: {side: {name: dict(zip(("q1", "median", "q3"), statistics.quantiles(
        runs, n=4)), runs=len(runs)) for name, runs in metrics.items()}
        for side, metrics in sides.items()} for comparison, sides in values.items()}


def main(path, name, workload, seeds, *sides_and_seconds):
    first, last = map(int, seeds.split("-"))
    if last - first < 1:
        sys.exit(f"seed range {seeds} holds fewer than 2 seeds; the summary needs 2 runs a side")
    sides = []
    for side in sides_and_seconds[:2]:
        label, _, where = side.partition("=")
        root, _, rev = where.partition("@")
        sides.append((label, rev, str(Path(root).resolve())))
    roots = [root for _, _, root in sides]
    if len(roots[0]) != len(roots[1]):
        sys.exit(f"checkout roots {roots[0]} and {roots[1]} differ in path length; "
                 "give both sides paths of equal length")
    for root in roots:
        if next(Path(root).rglob("__pycache__"), None) is not None:
            sys.exit(f"checkout root {root} holds a __pycache__ directory; "
                     "give a fresh checkout, such as one from git archive")
    seconds = sides_and_seconds[2] if len(sides_and_seconds) > 2 else "25"
    bench = json.loads(Path(path).read_text()) if Path(path).exists() else {"records": []}
    start = 1 + max((r["pair"] for r in bench["records"] if r["comparison"] == name),
                    default=-1)
    for pair, seed in enumerate(range(first, last + 1), start):
        for label, rev, root in sides if pair % 2 == 0 else sides[::-1]:
            record = run(label, rev, root, workload, seed, seconds)
            bench["records"].append({"comparison": name, "workload": workload,
                                     "pair": pair, **record})
            Path(path).write_text(json.dumps(bench, indent=1) + "\n")
    bench["summary"] = summarize(bench["records"])
    Path(path).write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
