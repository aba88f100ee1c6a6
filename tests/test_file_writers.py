"""Every writer takes a path, a text stream or None for stdout, and writes
the same bytes to each."""

import io

import numpy as np
import pytest

from cyclosense import (DetectorKind, RocPoint, SampleBuffer, write_profile_csv, write_roc_csv,
                        write_signal_file, write_threshold_file)

POINTS = [RocPoint(DetectorKind.ENERGY, -22.0, 0.1, 1.25, 0.09, 0.8, 100, 50),
          RocPoint(DetectorKind.CYCLE_FEATURE, 0.0, 0.01, 2.0 / 3.0, 0.0, 1.0, 100, 50)]
# the same points in numpy scalars, which numpy 2 reprs as np.float64(0.1)
NUMPY_POINTS = [RocPoint(p.detector, *map(np.float64, (p.snr_db, p.target_pf, p.threshold,
                                                      p.measured_pf, p.measured_pd)),
                         np.int64(p.h0_trials), np.int64(p.h1_trials)) for p in POINTS]
ROC_BYTES = (b"detector,snr_db,target_pf,threshold,measured_pf,measured_pd,h0_trials,h1_trials\n"
             b"cycle_feature,0.0,0.01,0.6666666666666666,0.0,1.0,100,50\n"
             b"energy,-22.0,0.1,1.25,0.09,0.8,100,50\n")

# (writer, what it writes, the bytes it writes to a path)
CASES = {
    "roc_csv": (write_roc_csv, POINTS, ROC_BYTES),
    "roc_csv_numpy_scalars": (write_roc_csv, NUMPY_POINTS, ROC_BYTES),
    # write_threshold_file takes its three fields apart, ahead of the target
    "threshold_file": (lambda fields, target: write_threshold_file(*fields, target),
                       (DetectorKind.ENERGY, 0.1, 2.0 / 3.0), b"energy,0.1,0.6666666666666666\n"),
    # write_profile_csv takes its two columns apart, ahead of the target
    "profile_csv": (lambda columns, target: write_profile_csv(*columns, target),
                    ([-2.0, 0.0, 2.0], [0.1, 1e-300, 3.5]),
                    b"alpha_hz,i_alpha\n-2.0,0.1\n0.0,1e-300\n2.0,3.5\n"),
    "signal_file": (write_signal_file, SampleBuffer([1.0, -2.5, 1e-300], 48000.0),
                    b"# sample_rate_hz=48000.0\n1.0\n-2.5\n1e-300\n"),
}


@pytest.mark.parametrize("target", ["path", "stream", "stdout"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_same_bytes_on_every_target(name, target, tmp_path, capsys):
    writer, value, expected = CASES[name]
    if target == "path":
        path = tmp_path / "out.txt"
        writer(value, path)
        written = path.read_bytes()
    elif target == "stream":
        stream = io.StringIO()
        writer(value, stream)
        written = stream.getvalue().encode()
    else:
        writer(value, None)
        written = capsys.readouterr().out.encode()
    assert written == expected
