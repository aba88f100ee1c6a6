"""Command-line interface tests.

Everything drives cyclosense.cli.main with an argv list and checks exit
codes (0 success, 2 configuration error, 3 I/O error), stdout text, and
emitted files.  Small buffer sizes keep each invocation fast.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclosense import (DetectorKind, SampleBuffer, SensingConfig, Threshold, harness,
                        noise_only, write_signal_file, write_threshold_file)
from cyclosense.cli import build_parser, config_from_args, main

TINY = ["--n", "64", "--fs-hz", "64", "--fc-hz", "16", "--bandwidth-hz", "4",
        "--smoothing-len", "5"]


def tone_file(path, n=64, cycles=16, rate=64.0, amplitude=1.0):
    k = np.arange(n)
    x = amplitude * np.cos(2.0 * np.pi * cycles * k / n)
    write_signal_file(SampleBuffer(x, rate), path)
    return str(path)


def read_profile(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha_hz,i_alpha"
    rows = [line.split(",") for line in lines[1:]]
    alphas = np.array([float(a) for a, _ in rows])
    mags = np.array([float(m) for _, m in rows])
    return alphas, mags


class TestArgumentMapping:
    def test_default_roc_config_matches_reference(self):
        args = build_parser().parse_args(["roc"])
        assert config_from_args(args) == SensingConfig()

    def test_flag_overrides_reach_config(self):
        args = build_parser().parse_args([
            "roc", "--modulation", "bpsk", "--fc-hz", "2e6", "--fs-hz", "8e6",
            "--symbol-rate-hz", "5e3", "--n", "1024", "--smoothing-len", "31",
            "--window", "rectangular", "--snr-db", "-10", "--snr-db", "-5",
            "--target-pf", "0.2", "--trials", "50", "--calibration-trials",
            "50", "--seed", "9", "--h1-trials", "25",
        ])
        config = config_from_args(args)
        assert config.modulation.kind.value == "bpsk"
        assert config.modulation.carrier_hz == 2e6
        assert config.modulation.symbol_rate_hz == 5e3
        assert config.sample_rate_hz == 8e6
        assert config.n_samples == 1024
        assert config.smoothing_len == 31
        assert config.window_kind.value == "rectangular"
        assert config.snr_db_list == (-10.0, -5.0)
        assert config.target_pf_list == (0.2,)
        assert config.trials == 50
        assert config.calibration_trials == 50
        assert config.master_seed == 9
        assert config.effective_h1_trials == 25

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["roc", "--does-not-exist"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2


class TestComplexityCommand:
    def test_reference_numbers(self, capsys):
        assert main(["complexity", "--n", "4096", "--smoothing-len", "1300"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n=4096 smoothing_len=1300"
        assert "proposed_real_mul=104804" in lines
        assert "proposed_real_add=151356" in lines
        assert "energy_real_mul=16384" in lines
        assert "energy_real_add=12288" in lines
        assert "mul_ratio=6.396728515625" in lines
        assert "add_ratio=12.3173828125" in lines

    def test_non_power_of_two_exits_2(self, capsys):
        assert main(["complexity", "--n", "4095"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_generated_tone_feature_location(self, tmp_path):
        out = tmp_path / "profile.csv"
        code = main(["profile", *TINY, "--am-mod-index", "0",
                     "--out", str(out)])
        assert code == 0
        alphas, mags = read_profile(out)
        # full default grid: every representable alpha, range +-(n-1)/2 bins
        assert len(alphas) == 63
        positive = alphas > 0
        assert alphas[positive][np.argmax(mags[positive])] == 32.0

    def test_alpha_max_limits_grid(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", *TINY, "--alpha-max-hz", "40",
                     "--out", str(out)]) == 0
        alphas, _ = read_profile(out)
        assert alphas.min() == -40.0
        assert alphas.max() == 40.0
        assert len(alphas) == 41

    def test_alpha_step_coarsens_grid(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["profile", *TINY, "--alpha-max-hz", "40",
                     "--alpha-step-hz", "4", "--out", str(out)]) == 0
        alphas, _ = read_profile(out)
        assert len(alphas) == 21
        assert np.all(np.diff(alphas) == 4.0)

    def test_input_file_analyzed(self, tmp_path):
        signal = tone_file(tmp_path / "tone.txt")
        out = tmp_path / "profile.csv"
        assert main(["profile", *TINY, "--input", signal,
                     "--out", str(out)]) == 0
        alphas, mags = read_profile(out)
        positive = alphas > 0
        assert alphas[positive][np.argmax(mags[positive])] == 32.0

    def test_stdout_default(self, capsys):
        assert main(["profile", *TINY, "--alpha-max-hz", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha_hz,i_alpha\n")

    def test_repeated_snr_rejected(self, capsys):
        code = main(["profile", *TINY, "--snr-db", "0", "--snr-db", "5"])
        assert code == 2
        assert "at most once" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path):
        code = main(["profile", *TINY, "--out",
                     str(tmp_path / "missing" / "profile.csv")])
        assert code == 3

    def test_noisy_profile_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["profile", *TINY, "--snr-db", "0", "--seed", "5",
                "--alpha-max-hz", "40"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCalibrateCommand:
    def test_writes_threshold_file(self, tmp_path):
        out = tmp_path / "threshold.txt"
        code = main(["calibrate", *TINY, "--detector", "energy",
                     "--noise-variance", "1.0", "--calibration-trials", "20",
                     "--target-pf", "0.5", "--out", str(out)])
        assert code == 0
        fields = out.read_text().strip().split(",")
        assert fields[0] == "energy"
        assert float(fields[1]) == 0.5
        # energy of 64 unit-variance samples concentrates near 64
        assert 30.0 < float(fields[2]) < 110.0

    def test_stdout_default(self, capsys):
        code = main(["calibrate", *TINY, "--detector", "energy",
                     "--noise-variance", "1.0", "--calibration-trials", "20",
                     "--target-pf", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.startswith("energy,0.5,")

    def test_missing_variance_exits_2(self, capsys):
        code = main(["calibrate", *TINY, "--calibration-trials", "20",
                     "--target-pf", "0.5"])
        assert code == 2
        assert "--noise-variance" in capsys.readouterr().err

    def test_cycle_detector_threshold(self, tmp_path):
        out = tmp_path / "threshold.txt"
        code = main(["calibrate", *TINY, "--detector", "cycle_feature",
                     "--noise-variance", "1.0", "--calibration-trials", "20",
                     "--target-pf", "0.5", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("cycle_feature,0.5,")


class TestDetectCommand:
    def test_loud_signal_is_active(self, tmp_path, capsys):
        signal = tone_file(tmp_path / "loud.txt", amplitude=10.0)
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(100.0, 0.1, 100, DetectorKind.ENERGY),
                             threshold)
        code = main(["detect", *TINY, "--input", signal, "--detector",
                     "energy", "--threshold-file", str(threshold)])
        assert code == 0
        out = capsys.readouterr().out
        assert "decision=h1_active" in out
        assert "detector=energy" in out

    def test_quiet_signal_is_inactive(self, tmp_path, capsys):
        quiet = noise_only(64, 1e-6, seed=1, sample_rate_hz=64.0)
        path = tmp_path / "quiet.txt"
        write_signal_file(quiet, path)
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(100.0, 0.1, 100, DetectorKind.ENERGY),
                             threshold)
        code = main(["detect", *TINY, "--input", str(path), "--detector",
                     "energy", "--threshold-file", str(threshold)])
        assert code == 0
        assert "decision=h0_inactive" in capsys.readouterr().out

    def test_on_the_spot_calibration(self, tmp_path, capsys):
        signal = tone_file(tmp_path / "loud.txt", amplitude=10.0)
        code = main(["detect", *TINY, "--input", signal, "--detector",
                     "cycle_feature", "--noise-variance", "1.0",
                     "--calibration-trials", "20", "--target-pf", "0.5"])
        assert code == 0
        assert "decision=h1_active" in capsys.readouterr().out

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["detect", *TINY, "--input", str(tmp_path / "absent.txt"),
                     "--detector", "energy", "--noise-variance", "1.0",
                     "--calibration-trials", "20", "--target-pf", "0.5"])
        assert code == 3

    def test_no_threshold_source_exits_2(self, tmp_path, capsys):
        signal = tone_file(tmp_path / "tone.txt")
        code = main(["detect", *TINY, "--input", signal,
                     "--detector", "energy"])
        assert code == 2
        assert "--noise-variance" in capsys.readouterr().err

    def test_detector_mismatch_exits_2(self, tmp_path, capsys):
        signal = tone_file(tmp_path / "tone.txt")
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(
            Threshold(1.0, 0.1, 100, DetectorKind.CYCLE_FEATURE), threshold)
        code = main(["detect", *TINY, "--input", signal, "--detector",
                     "energy", "--threshold-file", str(threshold)])
        assert code == 2


class TestRocCommand:
    ROC_ARGS = ["roc", *TINY, "--trials", "20", "--calibration-trials", "20",
                "--h1-trials", "10", "--target-pf", "0.5", "--snr-db", "60"]

    def test_csv_layout_and_saturation(self, tmp_path):
        out = tmp_path / "roc.csv"
        assert main([*self.ROC_ARGS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("detector,snr_db,target_pf")
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "60.0"
            assert float(fields[5]) == 1.0   # measured_pd saturates
            assert fields[6] == "20"
            assert fields[7] == "10"

    def test_stdout_default(self, capsys):
        assert main(self.ROC_ARGS) == 0
        assert capsys.readouterr().out.startswith("detector,snr_db,target_pf")

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*self.ROC_ARGS, "--out", str(a)]) == 0
        assert main([*self.ROC_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_insufficient_calibration_exits_2(self, capsys):
        code = main(["roc", *TINY, "--trials", "20", "--calibration-trials",
                     "20", "--h1-trials", "10", "--target-pf", "0.01"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["-22.0004", "-22"])
    def test_snrs_sharing_seeds_exit_2(self, second, capsys):
        # trials are seeded by the SNR rounded to 0.001 dB, so these two
        # sweeps would measure one SNR twice
        code = main(["roc", *TINY, "--trials", "20", "--calibration-trials", "20",
                     "--h1-trials", "10", "--target-pf", "0.5",
                     "--snr-db", "-22", "--snr-db", second])
        assert code == 2
        assert "share seeds" in capsys.readouterr().err


# Exact outputs of the small configurations, recorded at the commit before
# roc, calibrate and detect were moved onto one trial engine.  "{signal}"
# is a 64-sample tone-plus-noise file at 64 Hz and "{golden}" this
# directory, so detect reads the recorded calibrate outputs as threshold
# files.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_ROC = ["roc", *TINY, "--trials", "20", "--calibration-trials", "40",
              "--h1-trials", "10", "--target-pf", "0.25", "--target-pf", "0.5",
              "--snr-db", "0", "--snr-db", "10", "--seed", "3"]
CALIBRATION = ["--noise-variance", "1.0", "--calibration-trials", "20",
               "--target-pf", "0.5", "--seed", "7"]
GOLDEN_CASES = {
    "roc_am.csv": GOLDEN_ROC,
    "roc_bpsk.csv": [*GOLDEN_ROC, "--modulation", "bpsk", "--symbol-rate-hz", "4"],
    "profile_am.csv": ["profile", *TINY, "--snr-db", "0", "--seed", "5"],
    "profile_bpsk.csv": ["profile", *TINY, "--modulation", "bpsk",
                         "--symbol-rate-hz", "4", "--seed", "5"],
    "profile_input.csv": ["profile", *TINY, "--input", "{signal}"],
    "calibrate_energy.txt": ["calibrate", *TINY, "--detector", "energy", *CALIBRATION],
    "calibrate_cycle.txt": ["calibrate", *TINY, "--detector", "cycle_feature",
                            *CALIBRATION],
    "detect_energy_file.txt": ["detect", *TINY, "--input", "{signal}", "--detector",
                               "energy", "--threshold-file",
                               "{golden}/calibrate_energy.txt"],
    "detect_cycle_file.txt": ["detect", *TINY, "--input", "{signal}", "--detector",
                              "cycle_feature", "--threshold-file",
                              "{golden}/calibrate_cycle.txt"],
    "detect_energy_calibrated.txt": ["detect", *TINY, "--input", "{signal}",
                                     "--detector", "energy", *CALIBRATION],
    "detect_cycle_calibrated.txt": ["detect", *TINY, "--input", "{signal}",
                                    "--detector", "cycle_feature", *CALIBRATION],
    # the energy detector reads no window: the default --smoothing-len 1301
    # is longer than the 64-sample file and must not be refused
    "detect_energy_default_window_file.txt": [
        "detect", "--input", "{signal}", "--detector", "energy",
        "--threshold-file", "{golden}/calibrate_energy.txt"],
    "detect_energy_default_window_calibrated.txt": [
        "detect", "--input", "{signal}", "--detector", "energy", *CALIBRATION],
}


def golden_signal(path):
    k = np.arange(64)
    x = 0.5 * np.cos(2.0 * np.pi * 16 * k / 64) + np.random.default_rng(2).normal(size=64)
    write_signal_file(SampleBuffer(x, 64.0), path)
    return str(path)


def golden_argv(name, tmp_path):
    signal = golden_signal(tmp_path / "signal.txt")
    return [arg.format(signal=signal, golden=GOLDEN_DIR) for arg in GOLDEN_CASES[name]]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stdout_matches_recording(self, name, tmp_path, capsys):
        assert main(golden_argv(name, tmp_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN_CASES
                                            if not n.startswith("detect")))
    def test_out_file_matches_recording(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*golden_argv(name, tmp_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestCycleFrequencyOutOfBand:
    """2 * fc must be a shift of at most (N-1)/2 bins, or no two in-band bins
    pair up and the slice, metric and threshold are all zero."""

    CALIBRATE = ["calibrate", "--noise-variance", "1.0", "--calibration-trials", "20",
                 "--target-pf", "0.5"]

    def test_reference_rate_far_carrier_exits_2(self, tmp_path, capsys):
        path = tmp_path / "noise.txt"
        write_signal_file(noise_only(64, 1.0, seed=1, sample_rate_hz=3e6), path)
        for argv in (["detect", "--input", str(path), *self.CALIBRATE[1:]],
                     self.CALIBRATE):
            assert main([*argv, "--n", "64", "--fc-hz", "5e6",
                         "--smoothing-len", "5"]) == 2
            assert "cycle frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "roc"])
    def test_band_edge(self, command, capsys):
        # at n = fs = 64 the shift is fc bins, and (64 - 1) // 2 = 31
        extra = (self.CALIBRATE[1:] if command == "calibrate" else
                 ["--trials", "20", "--calibration-trials", "20", "--target-pf", "0.5"])
        edge = [command, *TINY, *extra]
        assert main([*edge, "--fc-hz", "32"]) == 2
        assert "cycle frequency" in capsys.readouterr().err
        if command == "calibrate":
            assert main([*edge, "--fc-hz", "31"]) == 0

    def test_energy_detector_ignores_carrier(self, tmp_path, capsys):
        signal = golden_signal(tmp_path / "signal.txt")
        assert main(["detect", *TINY, "--input", signal, "--detector", "energy",
                     "--fc-hz", "5e6", *CALIBRATION]) == 0
        assert capsys.readouterr().out == (
            GOLDEN_DIR / "detect_energy_calibrated.txt").read_text()


class TestEnergyCalibration:
    def test_runs_no_transform(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("energy calibration computed a spectrum")
        monkeypatch.setattr(harness, "smoothed_slices", refuse)
        monkeypatch.setattr(harness, "SliceWork", refuse)
        monkeypatch.setattr(np.fft, "fft", refuse)
        assert main(GOLDEN_CASES["calibrate_energy.txt"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "calibrate_energy.txt").read_text()

    def test_unused_flags_not_validated(self, capsys):
        argv = [*GOLDEN_CASES["calibrate_energy.txt"], "--trials", "0",
                "--bandwidth-hz", "1e9", "--fc-hz", "-1", "--am-mod-index", "7",
                "--symbol-rate-hz", "0", "--snr-db", "nan"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "calibrate_energy.txt").read_text()


class TestNumericInputs:
    """Numeric flags that once escaped as tracebacks (exit 1)."""

    @pytest.mark.parametrize("argv", [
        ["roc", *TINY, "--snr-db=-3e6"],
        ["roc", *TINY, "--snr-db=3e6"],
        ["profile", *TINY, "--alpha-step-hz", "nan"],
        ["profile", *TINY, "--alpha-step-hz", "inf"],
        ["profile", *TINY, "--alpha-max-hz", "inf"],
        ["calibrate", *TINY, "--noise-variance", "1.0", "--calibration-trials", "-3"],
        ["calibrate", *TINY, "--detector", "energy", "--noise-variance", "1e308",
         "--calibration-trials", "20", "--target-pf", "0.5"],
    ])
    def test_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestOverflow:
    """A noise or signal level whose metric overflows: refused with exit 2
    and one error line, in a fresh interpreter so that numpy's warnings
    would reach stderr."""

    @pytest.mark.parametrize("argv", [
        ["profile", "--n", "8192", "--smoothing-len", "31", "--snr-db", "-3000",
         "--alpha-max-hz", "3e5"],
        ["roc", "--n", "8192", "--smoothing-len", "31", "--trials", "20",
         "--calibration-trials", "40", "--target-pf", "0.25", "--snr-db", "-3000"],
        # every sample squares to inf
        ["detect", "--detector", "energy", "--input", "{huge}",
         "--threshold-file", "{threshold}"],
    ])
    def test_exits_2_without_warnings(self, argv, tmp_path):
        huge = tmp_path / "huge.txt"
        write_signal_file(SampleBuffer(np.full(64, 1e300), 64.0), huge)
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(1.0, 0.1, 1, DetectorKind.ENERGY), threshold)
        argv = [arg.format(huge=huge, threshold=threshold) for arg in argv]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "cyclosense.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


FLOAT_EDGES = ["0", "-1", "1e-300", "1e308", "nan", "inf", "-inf", "3e6", "-3e6"]
INT_EDGES = ["0", "-1", "1", "x"]


def flag_value(valid, edges=FLOAT_EDGES):
    """Mostly values from `valid`, one time in eight an edge case."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(edges) if k == 0 else valid.map(str))


def floats(low, high):
    return st.floats(low, high, allow_nan=False)


# Valid ranges fit 64-sample buffers at 64 Hz, so most draws run to a
# decision or a CSV and the edge cases hit every stage, not only parsing.
COMMON_FLAGS = {
    "--modulation": st.sampled_from(["am", "bpsk"]),
    "--fc-hz": flag_value(floats(10.0, 34.0)),
    "--fs-hz": flag_value(st.just(64.0)),
    "--bandwidth-hz": flag_value(floats(2.5, 8.0)),
    "--am-mod-index": flag_value(floats(0.0, 1.0)),
    "--symbol-rate-hz": flag_value(floats(1.0, 16.0)),
    "--n": flag_value(st.integers(32, 96), INT_EDGES),
    "--smoothing-len": flag_value(st.sampled_from([1, 3, 5, 7]), INT_EDGES),
    "--window": st.sampled_from(["hamming", "rectangular"]),
    "--snr-db": flag_value(floats(-10.0, 30.0)),
    "--target-pf": flag_value(floats(0.3, 0.9)),
    # the pool forks one process per worker, so trial counts stay small and
    # --workers is never drawn
    "--trials": flag_value(st.integers(1, 40), INT_EDGES),
    "--calibration-trials": flag_value(st.integers(30, 40), INT_EDGES),
    "--seed": flag_value(st.integers(0, 5), INT_EDGES),
}
COMMAND_FLAGS = {
    "roc": {"--h1-trials": COMMON_FLAGS["--trials"]},
    "profile": {"--alpha-max-hz": flag_value(floats(1.0, 80.0)),
                "--alpha-step-hz": flag_value(floats(1.0, 20.0)),
                "--input": st.sampled_from(["{signal}", "{missing}"])},
    "detect": {"--input": st.sampled_from(["{signal}", "{signal}", "{missing}"]),
               "--detector": st.sampled_from(["cycle_feature", "energy"]),
               "--threshold-file": st.sampled_from(["{threshold}", "{missing}"]),
               "--noise-variance": flag_value(floats(0.1, 4.0))},
    "calibrate": {"--detector": st.sampled_from(["cycle_feature", "energy"]),
                  "--noise-variance": flag_value(floats(0.1, 4.0))},
    "complexity": {"--n": COMMON_FLAGS["--n"],
                   "--smoothing-len": COMMON_FLAGS["--smoothing-len"]},
}
# drawn on every call: the defaults of --n and the trial counts cost 4096
# samples or 2000 trials, and the others' defaults fit no 64-sample buffer or
# 40-trial calibration
ALWAYS_DRAWN = {"--n", "--smoothing-len", "--trials", "--calibration-trials",
                "--h1-trials", "--fc-hz", "--fs-hz", "--bandwidth-hz", "--target-pf",
                "--noise-variance"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = dict(COMMAND_FLAGS[command])
    if command != "complexity":
        flags = {**COMMON_FLAGS, **flags}
    chosen = [flag for flag in flags if flag in ALWAYS_DRAWN]
    optional = sorted(set(flags) - ALWAYS_DRAWN)
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=6, unique=True))
    argv = [command]
    # --flag=value, so that argparse reads "-1" as a value, not a flag
    argv += [f"{flag}={draw(flags[flag])}" for flag in chosen]
    if command == "detect" and "--input" not in chosen:
        argv += ["--input", "{signal}"]
    if command == "roc":
        argv += ["--workers", "1"]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    threshold = root / "threshold.txt"
    write_threshold_file(Threshold(50.0, 0.5, 20, DetectorKind.ENERGY), threshold)
    return {"signal": golden_signal(root / "signal.txt"), "threshold": str(threshold),
            "missing": str(root / "absent.txt")}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_fuzzed_flags_exit_cleanly(fuzz_files, argv):
    argv = [arg.format(**fuzz_files) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in stderr.getvalue(), argv
