"""Fail unless a perfbench run's output reports every call correct.

    python .github/perfbench_gate.py OUTPUT.txt

OUTPUT.txt is the standard output of `perfbench/run.py`.  Its last line is
the run's JSON result; the gate passes only when that result says
`correct: true`, attempted at least one call and failed none.  Each call's
output is checked against the recorded thresholds, ROC rows and decisions
under perfbench/expected/, so a change that moves one of them fails here.
"""

import json
import sys


def verdict(text: str) -> list[str]:
    """What is wrong with the run whose standard output is text; empty if nothing."""
    lines = text.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not the JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}, not 0")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] > 0):
        problems.append(f"attempted is {result.get('attempted')!r}; no call was checked")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        problems = verdict(fh.read())
    for problem in problems:
        print(f"perfbench gate: {problem}")
    if not problems:
        print("perfbench gate: every call correct")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
