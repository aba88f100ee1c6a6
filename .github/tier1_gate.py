"""Fail unless a tier-1 JUnit report fails exactly the two by-design tests.

    python .github/tier1_gate.py REPORT.xml

A test counts as failed when its <testcase> holds a <failure> or an <error>;
pytest reports a module that fails to collect as an <error> testcase, so a
collection error fails the gate too.  Both by-design failures come from one
cause: at the reference scenario the cycle detector's deflection is below the
energy detector's (ROADMAP, "State").  If either starts to pass, the gate
fails as well, so that this list is edited on purpose, with the estimator.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_4_low_snr_roc_claim",
    "tests.test_acceptance::test_invariant_low_snr_dominance",
}


def failed_set(report: str) -> tuple[set[str], int]:
    """The ids of the failed testcases in report, and how many testcases it holds."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    return failed, len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed, total = failed_set(argv[1])
    print(f"{total} tests, {len(failed)} failed")
    unexpected, missing = sorted(failed - EXPECTED), sorted(EXPECTED - failed)
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in missing:
        print(f"by-design failure did not fail: {name}")
    return 1 if unexpected or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
