"""The suite's pytest settings keep a failing hypothesis test an ordinary
failure, and the declared numpy floor can run the kernel.

Every warning is an error under pyproject.toml's filterwarnings.  Hypothesis
reports a failing @given test through a hook that can raise a
DeprecationWarning; were that an error, pytest would stop with an
INTERNALERROR (exit 3) and skip every test after the failing one.
"""

import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
from packaging.requirements import Requirement
from packaging.version import Version

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


def test_declared_numpy_floor_has_fft_out():
    # scd.smoothed_slices and harness._score pass out= to np.fft.fft and np.fft.ifft,
    # which numpy added in 2.0.0; below it the first cycle-detector call raises TypeError
    dependencies = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    (numpy,) = [req for req in map(Requirement, dependencies) if req.name == "numpy"]
    floors = [Version(spec.version) for spec in numpy.specifier if spec.operator == ">="]
    assert floors and max(floors) >= Version("2.0")
    x = np.arange(8.0) + 0j
    spectrum, back = np.empty(8, complex), np.empty(8, complex)
    assert np.fft.fft(x, out=spectrum) is spectrum
    assert np.fft.ifft(spectrum, out=back) is back
    np.testing.assert_allclose(back, x)
