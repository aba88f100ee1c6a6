"""Command-line interface tests.

Everything drives cyclosense.cli.main with an argv list and checks exit
codes (0 success, 2 configuration error, 3 I/O error), stdout text, and
emitted files.  Small buffer sizes keep each invocation fast.
"""

import argparse
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

from cyclosense import (DetectorKind, SampleBuffer, SensingConfig, Threshold, cli, harness,
                        noise_only, scd, write_signal_file, write_threshold_file)
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


def subcommand_options():
    """Each subcommand's long option strings, from build_parser()."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: {option for action in sub._actions for option in action.option_strings
                   if option != "--help" and option.startswith("--")}
            for name, sub in subparsers.choices.items()}


SHARED = {"--modulation", "--fc-hz", "--fs-hz", "--bandwidth-hz", "--am-mod-index",
          "--symbol-rate-hz", "--n", "--smoothing-len", "--window", "--seed"}


# a flag of another subcommand, which this one would ignore
IGNORED_FLAGS = [
    ("profile", "--target-pf", "0.1"),
    ("profile", "--trials", "1"),
    ("profile", "--calibration-trials", "20"),
    ("calibrate", "--snr-db", "0"),
    ("calibrate", "--trials", "1"),
    ("detect", "--snr-db", "0"),
    ("detect", "--trials", "1"),
]


class TestFlagsPerSubcommand:
    """Each subcommand takes only the flags that one of its modes reads."""

    def test_option_strings(self):
        assert subcommand_options() == {
            "roc": SHARED | {"--snr-db", "--target-pf", "--trials", "--h1-trials",
                             "--calibration-trials", "--workers", "--out"},
            "profile": SHARED | {"--snr-db", "--input", "--alpha-max-hz", "--alpha-step-hz",
                                 "--out"},
            "calibrate": SHARED | {"--target-pf", "--calibration-trials", "--detector",
                                   "--noise-variance", "--out"},
            "detect": SHARED | {"--target-pf", "--calibration-trials", "--input",
                                "--detector", "--threshold-file", "--noise-variance"},
            "complexity": {"--n", "--smoothing-len"},
        }

    @pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
    def test_flag_a_subcommand_ignored_exits_2(self, command, flag, value, tmp_path, capsys):
        argv = [command, *TINY, flag, value]
        if command == "detect":
            argv += ["--input", tone_file(tmp_path / "tone.txt")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cyclosense")
        assert f"unrecognized arguments: {flag} {value}" in captured.err


def full_parser_exit(argv, capsys):
    """Exit code, stdout and stderr of the full parser on argv, which it refuses
    or answers with help."""
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return int(info.value.code or 0), captured.out, captured.err


COMMANDS = ["roc", "profile", "detect", "calibrate", "complexity"]


class TestLoneSubcommandParser:
    """main parses with the named subcommand's parser alone, which prints its
    own help and errors; the full parser parses only argv that names no
    subcommand or leaves an argument over.  Either way main prints what the
    full parser would print, byte for byte."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["bogus"], ["-h", "detect"],
        *([command, "-h"] for command in COMMANDS),
        ["detect", "--he"],
        ["roc", "--h", "5"],  # ambiguous: --help or --h1-trials
        ["roc", "--does-not-exist"],
        *([command, *TINY, flag, value] for command, flag, value in IGNORED_FLAGS),
        ["detect", *TINY],
        ["detect", "--input"],
        ["detect", "--input", "f.txt", "--detector", "bogus"],
        ["calibrate", "--n", "4.5"],
        ["detect", "--input", "f.txt", "leftover"],
        ["detect", "--", "--input", "f.txt"],
        # --flag=value
        ["detect", "--n=4.5"],
        ["roc", "--window=bogus"],
        ["calibrate", "--input=f.txt"],
        ["detect", "--input=f.txt", "--detector=bogus"],
        ["complexity", "--help=1"],
        # prefix abbreviations
        ["detect", "--inp"],
        ["detect", "--inp", "f.txt", "--thr"],
        ["calibrate", "--noise", "loud"],
        ["profile", "--alpha", "1"],  # ambiguous: --alpha-max-hz or --alpha-step-hz
        ["profile", "--inp=f.txt", "--alpha-m", "x"],
        # a negative number beside an unknown flag
        ["roc", "--bogus", "-22"],
        ["roc", "--snr-db", "-22", "--bogus"],
        ["profile", "-22"],
        ["calibrate", "--target-pf", "-22", "-x"],
        # a missing --input beside a leftover
        ["detect", "leftover"],
        ["detect", "--n", "64", "--bogus", "-22"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_output_is_the_full_parsers(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == full_parser_exit(argv, capsys)
        assert captured.out or captured.err

    @pytest.mark.parametrize("argv, built", [
        (["detect", "-h"], ["detect"]),
        (["detect", "--n", "4.5", "--input", "f.txt"], ["detect"]),
        (["detect", "--n", "64"], ["detect"]),
        (["detect", "--input", "f.txt", "leftover"], ["detect", None]),
        (["detect", "leftover"], ["detect"]),
        (["bogus"], [None]),
        ([], [None]),
    ], ids=lambda value: " ".join(map(str, value)) or "none")
    def test_one_parser_unless_none_is_named_or_an_argument_is_left(self, argv, built,
                                                                   monkeypatch, capsys):
        """Structural, not timed: which parsers one refused argv builds."""
        calls = []
        build_parser = cli.build_parser

        def spy(command=None):
            calls.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(argv) in (0, 2)
        assert calls == built
        assert capsys.readouterr() != ("", "")

    def test_detect_builds_only_its_own_arguments(self, tmp_path, monkeypatch, capsys):
        """Structural, not timed: a detect call adds detect's arguments and -h,
        none of the other four subcommands'."""
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        expected = [action.option_strings[0] for action in subparsers.choices["detect"]._actions]
        signal = tone_file(tmp_path / "tone.txt")
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(100.0, 0.1, 100, DetectorKind.ENERGY), threshold)
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args[0])
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        cli._parser.cache_clear()   # a cold cache: this call builds detect's parser
        assert main(["detect", *TINY, "--input", signal, "--detector", "energy",
                     "--threshold-file", str(threshold)]) == 0
        assert added == expected
        assert capsys.readouterr().out.startswith("decision=h0_inactive detector=energy")


class TestWarmParser:
    """Each parser is built once per process; every main call still runs the
    _cmd_<name> bound in the module at call time, on a namespace of its own."""

    @staticmethod
    def detect_argv(tmp_path):
        signal = tone_file(tmp_path / "tone.txt")
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(100.0, 0.1, 100, DetectorKind.ENERGY), threshold)
        return ["detect", *TINY, "--input", signal, "--detector", "energy",
                "--threshold-file", str(threshold)]

    def test_second_detect_adds_no_argument(self, tmp_path, monkeypatch, capsys):
        argv = self.detect_argv(tmp_path)
        assert main(argv) == 0
        first = capsys.readouterr().out
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args[0])
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(argv) == 0
        assert added == []
        assert capsys.readouterr().out == first

    def test_rebound_command_runs(self, tmp_path, monkeypatch, capsys):
        argv = self.detect_argv(tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        seen = []

        def rebound(args):
            seen.append(args.input)
            return 0

        monkeypatch.setattr(cli, "_cmd_detect", rebound)
        assert main(argv) == 0
        assert seen == [argv[argv.index("--input") + 1]]
        assert capsys.readouterr().out == ""

    def test_append_default_does_not_leak(self):
        build_parser("roc")     # warm
        for snr_db in (-22.0, -10.0):
            args = build_parser("roc").parse_args(["--snr-db", repr(snr_db)])
            assert args.snr_db == [snr_db]
            assert args.target_pf is None

    def test_fresh_interpreter_reads_sys_argv(self, tmp_path, capsys):
        signal = tone_file(tmp_path / "tone.txt")
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(100.0, 0.1, 100, DetectorKind.ENERGY), threshold)
        argv = ["detect", *TINY, "--input", signal, "--detector", "energy",
                "--threshold-file", str(threshold)]
        assert main(argv) == 0
        proc = run_fresh(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


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

    # at 1e-300 Hz both grid flags overflowed int() and round(); beyond the grid
    # they mean what they mean at ordinary rates: the full grid, and its first point
    @pytest.mark.parametrize("flag, rows", [("--alpha-max-hz", slice(None)),
                                            ("--alpha-step-hz", slice(2))])
    def test_grid_flag_beyond_the_grid_at_a_tiny_rate(self, flag, rows, tmp_path, capsys):
        argv = ["profile", "--input", tone_file(tmp_path / "tiny.txt", rate=1e-300),
                "--smoothing-len", "5"]
        assert main(argv) == 0
        full = capsys.readouterr().out.splitlines(keepends=True)
        assert len(full) == 64
        assert main([*argv, flag, "1e308"]) == 0
        assert capsys.readouterr() == ("".join(full[rows]), "")

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


class TestDetectFileShape:
    """detect's --n and --fs-hz default to the signal file's; a value that
    differs is refused when the buffer is scored, before any calibration
    trial is drawn."""

    WAVEFORM = ["--fc-hz", "16", "--bandwidth-hz", "4", "--smoothing-len", "5"]
    ON_THE_SPOT = ["--noise-variance", "1.0", "--calibration-trials", "20",
                   "--target-pf", "0.5"]

    @pytest.mark.parametrize("flags, config", [
        (["--n", "128", *WAVEFORM, *ON_THE_SPOT], "128 samples at 64.0 Hz"),
        (["--fs-hz", "32", *WAVEFORM, *ON_THE_SPOT], "64 samples at 32.0 Hz"),
        # a valid config on its own: only the file's length and rate refuse it
        (["--n", "8192", "--fs-hz", "1e6", "--fc-hz", "800", "--bandwidth-hz", "200",
          "--smoothing-len", "5", "--noise-variance", "1", "--calibration-trials", "200"],
         "8192 samples at 1000000.0 Hz"),
    ], ids=["n", "fs_hz", "both"])
    def test_mismatch_exits_2_without_a_trial(self, flags, config, tmp_path, monkeypatch,
                                              capsys):
        signal = tone_file(tmp_path / "tone.txt")

        def refuse(*args, **kwargs):
            raise AssertionError("detect ran a calibration trial")
        monkeypatch.setattr(harness, "noise_only", refuse)
        assert main(["detect", "--input", signal, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: buffer of 64 samples at 64.0 Hz does not match "
                                f"the config's {config}\n")

    def test_matching_flags_change_nothing(self, tmp_path, capsys):
        signal = golden_signal(tmp_path / "signal.txt")
        argv = ["detect", *self.WAVEFORM, "--input", signal, *CALIBRATION]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main([*argv, "--n", "64", "--fs-hz", "64"]) == 0
        assert capsys.readouterr().out == bare
        assert bare == (GOLDEN_DIR / "detect_cycle_calibrated.txt").read_text()


class TestThresholdFileRefusedBeforeScoring:
    """detect --threshold-file refuses a file with more than its one line, a
    threshold for the other detector and the calibration flags it would not
    read, each before the signal is scored."""

    @pytest.mark.parametrize("content, flags, message", [
        ("energy,0.1,1.0\ngarbage line\n", [],
         "{path}: expected 'detector,target_pf,threshold' on one line"),
        ("energy,0.1,1.0\n\n", [],
         "{path}: expected 'detector,target_pf,threshold' on one line"),
        ("cycle_feature,0.1,1.0\n", [],
         "{path}: threshold is for cycle_feature, not --detector energy"),
        ("energy,0.5,1.0\n", ["--noise-variance", "5", "--target-pf", "0.01",
                               "--calibration-trials", "3"],
         "--target-pf is read only without --threshold-file"),
        ("energy,0.5,1.0\n", ["--noise-variance", "5"],
         "--noise-variance is read only without --threshold-file"),
        # the default's value, given: still a flag that goes unread
        ("energy,0.5,1.0\n", ["--calibration-trials", "2000"],
         "--calibration-trials is read only without --threshold-file"),
    ], ids=["second_line", "blank_second_line", "other_detector", "all_three_flags",
            "noise_variance", "calibration_trials"])
    def test_exits_2_without_scoring(self, content, flags, message, tmp_path, monkeypatch,
                                     capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("detect scored the signal")
        monkeypatch.setattr(harness, "measure", refuse)
        monkeypatch.setattr(cli, "measure", refuse)
        path = tmp_path / "threshold.txt"
        path.write_text(content)
        signal = golden_signal(tmp_path / "signal.txt")
        assert main(["detect", *TINY, "--input", signal, "--detector", "energy",
                     "--threshold-file", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"

    def test_one_line_without_a_newline_decides(self, tmp_path, capsys):
        path = tmp_path / "threshold.txt"
        path.write_text("energy,0.1,1e9")
        signal = golden_signal(tmp_path / "signal.txt")
        assert main(["detect", *TINY, "--input", signal, "--detector", "energy",
                     "--threshold-file", str(path)]) == 0
        assert capsys.readouterr().out.startswith("decision=h0_inactive detector=energy")


class TestProfileFileShape:
    """profile --input holds --n and --fs-hz to the file as detect does: they
    default to its length and rate, and a value that differs exits 2 before
    any profile is computed."""

    @pytest.mark.parametrize("flags, config", [
        (["--n", "8192", "--fs-hz", "1e6", "--modulation", "bpsk"],
         "8192 samples at 1000000.0 Hz"),
        (["--n", "128"], "128 samples at 64.0 Hz"),
        (["--fs-hz", "32"], "64 samples at 32.0 Hz"),
    ], ids=["both", "n", "fs_hz"])
    def test_mismatch_exits_2_without_a_profile(self, flags, config, tmp_path,
                                                monkeypatch, capsys):
        signal = tone_file(tmp_path / "tone.txt")

        def refuse(*args, **kwargs):
            raise AssertionError("profile computed a profile")
        monkeypatch.setattr(cli, "cycle_profile", refuse)
        assert main(["profile", "--input", signal, "--smoothing-len", "5", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: buffer of 64 samples at 64.0 Hz does not match "
                                f"the config's {config}\n")

    @pytest.mark.parametrize("flags", [[], ["--n", "64", "--fs-hz", "64"]],
                             ids=["defaults", "matching"])
    def test_file_shape_gives_the_recording(self, flags, tmp_path, capsys):
        signal = golden_signal(tmp_path / "signal.txt")
        assert main(["profile", "--smoothing-len", "5", "--input", signal, *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "profile_input.csv").read_text()


class TestZeroSliceScale:
    """At f_s = 1e-305 Hz a 4096-sample buffer spans (N-1) Ts = inf seconds,
    so the slice scale 1 / ((N-1) Ts) is 0 and every cycle metric would read
    0: the request exits 2 instead of deciding from no evidence.  At the
    default carrier, alpha = 2 MHz is also a shift of inf bins; the scale is
    refused first, as the library refuses it."""

    ONESHOT = ["--noise-variance", "1", "--calibration-trials", "100"]

    @pytest.mark.parametrize("argv", [
        ["detect", "--input", "{slow}", "--fc-hz", "2.5e-306", "--bandwidth-hz", "1e-308",
         "--smoothing-len", "31", "--noise-variance", "1", "--calibration-trials", "200"],
        ["profile", "--input", "{slow}", "--smoothing-len", "31"],
        ["detect", "--input", "{slow}", *ONESHOT],
        ["calibrate", "--fs-hz", "1e-305", *ONESHOT],
        ["roc", "--fs-hz", "1e-305", "--trials", "20", "--calibration-trials", "100",
         "--target-pf", "0.1"],
    ], ids=["detect", "profile", "detect_default_fc", "calibrate_default_fc", "roc_default_fc"])
    def test_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        slow = tmp_path / "slow.txt"
        write_signal_file(noise_only(4096, 1.0, seed=1, sample_rate_hz=1e-305), slow)

        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "noise_only", refuse)
        monkeypatch.setattr(harness, "generate_signal", refuse)
        assert main([arg.format(slow=slow) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: slice scale 1/((n-1) Ts) = 0.0 is not positive and finite\n"


class TestZeroBinWidth:
    """At f_s = 5e-324 Hz the bin width f_s / 64 underflows to 0.  Every path
    that divides by it, profile's grid and the cycle detector's bin shift,
    exits 2 with the one rule's message before any trial; the energy
    detector reads no bin width and still decides."""

    MESSAGE = "error: bin width 5e-324 Hz / 64 underflows to 0 Hz\n"
    CYCLE = ["--smoothing-len", "5", "--noise-variance", "1", "--calibration-trials", "100"]

    @pytest.mark.parametrize("argv", [
        ["profile", "--input", "{slow}", "--smoothing-len", "5", "--alpha-max-hz", "1"],
        ["profile", "--input", "{slow}", "--smoothing-len", "5"],
        ["detect", "--input", "{slow}", *CYCLE],
        ["roc", "--fs-hz", "5e-324", "--n", "64", "--smoothing-len", "5", "--trials", "10",
         "--calibration-trials", "100", "--target-pf", "0.1"],
        ["calibrate", "--fs-hz", "5e-324", "--n", "64", *CYCLE],
    ], ids=["profile_alpha_max", "profile", "detect", "roc", "calibrate"])
    def test_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        slow = tmp_path / "slow.txt"
        write_signal_file(noise_only(64, 1.0, seed=1, sample_rate_hz=5e-324), slow)

        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "noise_only", refuse)
        monkeypatch.setattr(harness, "generate_signal", refuse)
        assert main([arg.format(slow=slow) for arg in argv]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    def test_energy_detector_decides(self, tmp_path, capsys):
        outputs = []
        for rate in (5e-324, 64.0):
            path = tmp_path / f"{rate}.txt"
            write_signal_file(noise_only(64, 1.0, seed=1, sample_rate_hz=rate), path)
            assert main(["detect", "--input", str(path), "--detector", "energy",
                         *self.CYCLE]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("decision=") and outputs[0].err == ""


class TestShiftZeroCarrier:
    """At N = 4096 and 3 MHz a bin is 732 Hz wide, so alpha = 2 * 100 Hz rounds
    to shift 0: the slice there is the power spectrum, not a cycle feature.
    Every cycle-detector path exits 2 before any trial; the energy detector
    reads no carrier and still decides."""

    MESSAGE = ("error: cycle frequency 200.0 Hz is a shift of 0 bins, the power spectrum; "
               "the carrier must exceed half the bin width, 366.2109375 Hz\n")
    CARRIER = ["--fc-hz", "100", "--bandwidth-hz", "50", "--smoothing-len", "31"]
    ONESHOT = ["--noise-variance", "1", "--calibration-trials", "100", "--target-pf", "0.1"]

    @pytest.fixture
    def signal(self, tmp_path):
        path = tmp_path / "signal.txt"
        write_signal_file(noise_only(4096, 1.0, seed=1, sample_rate_hz=3e6), path)
        return str(path)

    @pytest.fixture
    def threshold(self, tmp_path):
        path = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(1.0, 0.1, 100, DetectorKind.CYCLE_FEATURE), path)
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["roc", "--am-mod-index", "0", "--trials", "100", "--calibration-trials", "100",
         "--target-pf", "0.1", "--snr-db", "-10"],
        ["calibrate", "--detector", "cycle_feature", *ONESHOT],
        ["detect", "--input", "{signal}", *ONESHOT],
        ["detect", "--input", "{signal}", "--threshold-file", "{threshold}"],
    ], ids=["roc", "calibrate", "detect", "detect_threshold_file"])
    def test_exits_2(self, argv, signal, threshold, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "noise_only", refuse)
        monkeypatch.setattr(harness, "generate_signal", refuse)
        argv = [arg.format(signal=signal, threshold=threshold) for arg in argv]
        assert main([*argv, *self.CARRIER]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    @pytest.mark.parametrize("command", ["calibrate", "detect"])
    def test_energy_detector_unaffected(self, command, signal, capsys):
        argv = [command, "--detector", "energy", *self.ONESHOT]
        if command == "detect":
            argv += ["--input", signal]
        assert main([*argv, *self.CARRIER]) == 0
        carrier = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == carrier and carrier.err == ""


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


class TestRocRefusedBeforeTrials:
    """A request no trial could run is refused before the first one, at the
    default trial counts, so no noise or signal buffer is ever drawn."""

    @pytest.mark.parametrize("flags, message", [
        (["--modulation", "bpsk", "--symbol-rate-hz", "4e6"], "symbol_rate_hz"),
        (["--bandwidth-hz", "100"], "bandwidth_hz"),
        (["--fs-hz", "inf"], "sample_rate_hz"),
    ])
    def test_exits_2_without_a_trial(self, flags, message, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("roc ran a trial")
        monkeypatch.setattr(harness, "noise_only", refuse)
        monkeypatch.setattr(harness, "generate_signal", refuse)
        assert main(["roc", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err


class TestCalibrationRefusedBeforeTrials:
    """calibrate and on-the-spot detect check the target Pf and the
    calibration size before their first noise-only trial."""

    REQUESTS = {
        "pf_above_1": ["--target-pf", "7"],
        "pf_nan": ["--target-pf", "nan"],
        # 2000 default trials, 10000 needed
        "pf_needs_more_trials": ["--target-pf", "0.001"],
        "one_trial_short": ["--calibration-trials", "999", "--target-pf", "0.01"],
    }

    @pytest.mark.parametrize("request_flags", REQUESTS.values(), ids=REQUESTS.keys())
    @pytest.mark.parametrize("command", ["calibrate", "detect"])
    @pytest.mark.parametrize("detector", ["cycle_feature", "energy"])
    def test_exits_2_without_a_trial(self, command, detector, request_flags, tmp_path,
                                     monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} ran a calibration trial")
        monkeypatch.setattr(harness, "noise_only", refuse)
        argv = [command, *TINY, "--detector", detector, "--noise-variance", "1",
                *request_flags]
        if command == "detect":
            argv += ["--input", tone_file(tmp_path / "tone.txt")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "target_pf" in captured.err


def assert_one_error(captured, message):
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


class TestNoEvidenceRefused:
    """A zero threshold, -inf SNR or an infinite noise variance leaves nothing
    to decide on or no finite buffer to draw: exit 2 with one error line, the
    last two before any trial or generation."""

    @pytest.fixture
    def refuse_trials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial or a waveform was drawn")
        monkeypatch.setattr(harness, "noise_only", refuse)
        monkeypatch.setattr(harness, "generate_signal", refuse)
        monkeypatch.setattr(cli, "generate_signal", refuse)

    @pytest.mark.parametrize("detector, flags", [
        ("energy", []),
        ("cycle_feature", ["--fc-hz", "16", "--bandwidth-hz", "4", "--smoothing-len", "5"]),
    ])
    def test_zero_threshold_file(self, detector, flags, tmp_path, capsys):
        zeros = tmp_path / "zeros.txt"
        write_signal_file(SampleBuffer(np.zeros(64), 64.0), zeros)
        threshold = tmp_path / "threshold.txt"
        threshold.write_text(f"{detector},0.1,0.0\n")
        assert main(["detect", "--detector", detector, "--input", str(zeros),
                     "--threshold-file", str(threshold), *flags]) == 2
        assert_one_error(capsys.readouterr(), "threshold 0.0 ")

    def test_zero_calibrated_threshold(self, tmp_path, monkeypatch, capsys):
        # no positive, finite noise variance calibrates to 0.0 in practice,
        # so the calibration is replaced: decide alone holds the rule
        monkeypatch.setattr(cli, "calibrate_at_noise", lambda config, detector, pf, variance:
                            Threshold(0.0, pf, config.calibration_trials, detector))
        assert main(["detect", *TINY, "--detector", "energy", "--noise-variance", "1",
                     "--input", tone_file(tmp_path / "tone.txt")]) == 2
        assert_one_error(capsys.readouterr(), "threshold 0.0 ")

    @pytest.mark.parametrize("argv", [
        ["profile", *TINY, "--snr-db=-inf"],
        ["roc", *TINY, "--snr-db=-inf", "--trials", "20", "--calibration-trials", "100",
         "--target-pf", "0.1"],
    ], ids=["profile", "roc"])
    def test_minus_infinite_snr(self, argv, refuse_trials, capsys):
        assert main(argv) == 2
        assert_one_error(capsys.readouterr(), "snr_db")

    @pytest.mark.parametrize("command", ["calibrate", "detect"])
    @pytest.mark.parametrize("detector", ["cycle_feature", "energy"])
    def test_infinite_noise_variance(self, command, detector, refuse_trials, tmp_path, capsys):
        argv = [command, *TINY, "--detector", detector, "--noise-variance", "inf",
                "--calibration-trials", "100"]
        if command == "detect":
            argv += ["--input", tone_file(tmp_path / "tone.txt")]
        assert main(argv) == 2
        assert_one_error(capsys.readouterr(), "noise variance must be positive and finite")


class TestOversizedWindow:
    """An odd --smoothing-len far beyond the buffer is refused by its length
    before any window is built: building one first would allocate its
    weights, or fail with a MemoryError."""

    @pytest.mark.parametrize("argv, n", [
        (["roc"], 4096),
        (["calibrate", "--noise-variance", "1"], 4096),
        (["detect", "--input", "{tone}", "--noise-variance", "1"], 64),
        (["profile"], 4096),
        (["profile", "--input", "{tone}"], 64),
    ], ids=["roc", "calibrate", "detect", "profile", "profile_input"])
    def test_exits_2_without_a_window(self, argv, n, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a window was built")
        monkeypatch.setattr(scd, "_window", refuse)
        tone = tone_file(tmp_path / "tone.txt")
        argv = [arg.format(tone=tone) for arg in argv] + ["--smoothing-len", "99999999999"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: window length 99999999999 must be below the "
                                f"transform size {n}\n")


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


def test_golden_outputs_repeat_in_one_process(tmp_path, capsys):
    """Every golden argv twice in one process, file-threshold and on-the-spot
    detect calls interleaved: no call leaves state that changes another's bytes."""
    names = sorted(GOLDEN_CASES)
    for name in [*names, *reversed(names)]:
        assert main(golden_argv(name, tmp_path)) == 0, name
        assert capsys.readouterr() == ((GOLDEN_DIR / name).read_text(), ""), name


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
        argv = [*GOLDEN_CASES["calibrate_energy.txt"],
                "--bandwidth-hz", "1e9", "--fc-hz", "-1", "--am-mod-index", "7",
                "--symbol-rate-hz", "0"]
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


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_fresh(argv):
    """Run the CLI in a fresh interpreter, so that warnings and tracebacks
    reach its stderr; returns the finished process."""
    return subprocess.run([sys.executable, "-m", "cyclosense.cli", *argv],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)


def test_import_leaves_the_process_pool_unloaded():
    # every cold command pays for what importing the CLI loads; only a pooled
    # roc sweep needs concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cyclosense.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def assert_one_error_line(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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
        # every square is finite, their sum is not
        ["detect", "--detector", "energy", "--input", "{big}", "--n", "16", "--fs-hz", "8",
         "--noise-variance", "1", "--calibration-trials", "100", "--target-pf", "0.1"],
    ])
    def test_exits_2_without_warnings(self, argv, tmp_path):
        huge = tmp_path / "huge.txt"
        write_signal_file(SampleBuffer(np.full(64, 1e300), 64.0), huge)
        big = tmp_path / "big.txt"
        write_signal_file(SampleBuffer(np.full(16, 1.3e154), 8.0), big)
        threshold = tmp_path / "threshold.txt"
        write_threshold_file(Threshold(1.0, 0.1, 1, DetectorKind.ENERGY), threshold)
        proc = run_fresh([arg.format(huge=huge, big=big, threshold=threshold) for arg in argv])
        assert_one_error_line(proc)
        assert "finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestUndecodableFile:
    """A file that is not UTF-8 text, read as a signal or a threshold: exit 2
    with one error line naming it, not a UnicodeDecodeError traceback.  Its
    bytes read as U+FFFD, which no header, sample or threshold field parses."""

    @pytest.mark.parametrize("argv", [
        ["detect", "--input", "{binary}", "--noise-variance", "1"],
        ["detect", "--detector", "energy", "--input", "{signal}",
         "--threshold-file", "{binary}"],
        ["profile", "--input", "{binary}"],
    ], ids=["detect_input", "detect_threshold_file", "profile_input"])
    def test_exits_2_naming_the_file(self, argv, tmp_path):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(BINARY_BYTES)
        signal = golden_signal(tmp_path / "signal.txt")
        proc = run_fresh([arg.format(binary=binary, signal=signal) for arg in argv])
        assert_one_error_line(proc)
        assert proc.stderr.startswith(f"error: {binary}: ")


class TestRefusedFileContent:
    """A signal or threshold file that parses but holds a rate, a sample or a
    threshold that the library refuses: exit 2 with one error line naming it."""

    @pytest.mark.parametrize("argv, bad, content", [
        (["detect", "--input", "{bad}", "--noise-variance", "1"],
         "signal.txt", "# sample_rate_hz=nan\n1.0\n"),
        (["profile", "--input", "{bad}"], "signal.txt", "# sample_rate_hz=64\n1.0\n1e400\n"),
        (["detect", "--detector", "energy", "--input", "{signal}", "--threshold-file", "{bad}"],
         "threshold.txt", "energy,7,1.0\n"),
    ], ids=["detect_input", "profile_input", "detect_threshold_file"])
    def test_exits_2_naming_the_file(self, argv, bad, content, tmp_path):
        path = tmp_path / "bad" / bad
        path.parent.mkdir()
        path.write_text(content)
        signal = golden_signal(tmp_path / "signal.txt")
        proc = run_fresh([arg.format(bad=path, signal=signal) for arg in argv])
        assert_one_error_line(proc)
        assert proc.stderr.startswith(f"error: {path}: ")


# a UTF-16 byte-order mark: not UTF-8
BINARY_BYTES = b"\xff\xfe# sample_rate_hz=64\n"

FLOAT_EDGES = ["0", "-1", "1e-300", "1e308", "nan", "inf", "-inf", "3e6", "-3e6"]
INT_EDGES = ["0", "-1", "1", "x"]


def flag_value(valid, edges=FLOAT_EDGES):
    """An edge case when the drawn k is 0, else a value from `valid`.  k == 0 is
    hypothesis's simplest draw, so edge cases come far more often than one
    time in eight."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(edges) if k == 0 else valid.map(str))


def floats(low, high):
    return st.floats(low, high, allow_nan=False)


# Valid ranges fit 64-sample buffers at 64 Hz, so most draws run to a
# decision or a CSV and the edge cases hit every stage, not only parsing.
FLAG_VALUES = {
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
    "--h1-trials": flag_value(st.integers(1, 40), INT_EDGES),
    "--calibration-trials": flag_value(st.integers(30, 40), INT_EDGES),
    "--seed": flag_value(st.integers(0, 5), INT_EDGES),
    "--alpha-max-hz": flag_value(floats(1.0, 80.0)),
    "--alpha-step-hz": flag_value(floats(1.0, 20.0)),
    "--input": st.sampled_from(["{signal}"] * 4 + ["{missing}", "{binary}", "{nan_rate}"]),
    "--detector": st.sampled_from(["cycle_feature", "energy"]),
    "--threshold-file": st.sampled_from(
        ["{threshold}"] * 2 + ["{missing}", "{binary}", "{inf_threshold}"]),
    "--noise-variance": flag_value(floats(0.1, 4.0)),
}
# complexity refuses an --n that is not a power of two
COMMAND_VALUES = {
    "complexity": {"--n": flag_value(st.sampled_from([32, 48, 64, 4096]), INT_EDGES)},
}
# detect and profile --input read a 64-sample, 64 Hz file, so their --n mostly
# matches the file (--fs-hz is drawn from 64 for every command)
FILE_FED_VALUES = {"--n": flag_value(st.just(64), INT_EDGES)}
# what detect reads only when it calibrates, without a threshold file
CALIBRATION_FLAGS = {"--target-pf", "--calibration-trials", "--noise-variance"}
# drawn on every call: the defaults of --n and the trial counts cost 4096
# samples or 2000 trials, and the others' defaults fit no 64-sample buffer or
# 40-trial calibration
ALWAYS_DRAWN = {"--n", "--smoothing-len", "--trials", "--calibration-trials",
                "--h1-trials", "--fc-hz", "--fs-hz", "--bandwidth-hz", "--target-pf",
                "--noise-variance"}
# every flag a command takes and the fuzz can draw (not --workers or --out)
COMMAND_FLAGS = {command: {flag: COMMAND_VALUES.get(command, {}).get(flag, FLAG_VALUES[flag])
                           for flag in sorted(options) if flag in FLAG_VALUES}
                 for command, options in subcommand_options().items()}


@st.composite
def cli_argv(draw, command):
    # a file-fed run defaults --n and --fs-hz to its --input file's, so it
    # draws them only now and then, and reads the signal file unless it draws
    # another
    file_fed = command == "detect" or (command == "profile" and draw(st.booleans()))
    flags = dict(COMMAND_FLAGS[command], **(FILE_FED_VALUES if file_fed else {}))
    always = ALWAYS_DRAWN - {"--n", "--fs-hz"} if file_fed else ALWAYS_DRAWN
    chosen = [flag for flag in flags if flag in always]
    optional = sorted(set(flags) - always - (set() if file_fed else {"--input"}))
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=6, unique=True))
    # detect refuses the calibration flags beside a threshold file, so half such
    # draws leave them out and reach the file
    if "--threshold-file" in chosen and draw(st.booleans()):
        chosen = [flag for flag in chosen if flag not in CALIBRATION_FLAGS]
    argv = [command]
    # --flag=value, so that argparse reads "-1" as a value, not a flag
    argv += [f"{flag}={draw(flags[flag])}" for flag in chosen]
    if file_fed and "--input" not in chosen:
        argv += ["--input", "{signal}"]
    if command == "roc":
        argv += ["--workers", "1"]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    threshold = root / "threshold.txt"
    write_threshold_file(Threshold(50.0, 0.5, 20, DetectorKind.ENERGY), threshold)
    binary = root / "binary.txt"
    binary.write_bytes(BINARY_BYTES)
    nan_rate = root / "nan_rate.txt"
    nan_rate.write_text("# sample_rate_hz=nan\n1.0\n")
    inf_threshold = root / "inf_threshold.txt"
    inf_threshold.write_text("energy,0.1,inf\n")
    return {"signal": golden_signal(root / "signal.txt"), "threshold": str(threshold),
            "missing": str(root / "absent.txt"), "binary": str(binary),
            "nan_rate": str(nan_rate), "inf_threshold": str(inf_threshold)}


# each example runs one argv of every command, so every command is drawn
# max_examples times rather than as often as a drawn command name lands on it
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs=st.tuples(*(cli_argv(command) for command in sorted(COMMAND_FLAGS))))
def test_fuzzed_flags_exit_cleanly(fuzz_files, argvs):
    for argv in argvs:
        argv = [arg.format(**fuzz_files) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in stderr.getvalue(), argv
