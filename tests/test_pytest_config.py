"""The suite's pytest settings keep a failing hypothesis test an ordinary
failure.

Every warning is an error under pyproject.toml's filterwarnings.  Hypothesis
reports a failing @given test through a hook that can raise a
DeprecationWarning; were that an error, pytest would stop with an
INTERNALERROR (exit 3) and skip every test after the failing one.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
