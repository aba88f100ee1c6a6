"""Command-line interface.

Subcommands:
  roc         Monte Carlo ROC sweep over SNR and target-Pf grids -> CSV.
  profile     Cycle-frequency profile of a generated or file-loaded
              signal -> CSV (`alpha_hz,i_alpha`).
  detect      One-shot H0/H1 decision on a signal file, against a stored
              threshold file or a threshold calibrated on the spot.
  calibrate   Calibrate a detection threshold for a target false-alarm
              rate at a stated noise variance -> threshold file.
  complexity  Print the analytical operation-count comparison.

Exit codes: 0 success, 2 configuration/usage error, 3 I/O error.
"""

import argparse
import math
import sys

import numpy as np

from .detect import DetectorKind, decide
from .errors import CalibrationError, ConfigurationError
from .harness import (SensingConfig, calibrate_at_noise, complexity_model, measure,
                      output_stream, profile_seed, read_threshold_file, run_roc,
                      write_roc_csv, write_threshold_file)
from .scd import WindowKind, cycle_profile, make_window, write_profile_csv
from .siggen import (ChannelSpec, ModulationKind, ModulationSpec, add_awgn,
                     generate_signal, read_signal_file)

_DEFAULT_SNR_DB = (-22.0,)
_DEFAULT_TARGET_PF = (0.01, 0.1)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--modulation", choices=["am", "bpsk"], default="am",
                        help="primary-user modulation (default: am)")
    parser.add_argument("--fc-hz", type=float, default=1e6,
                        help="carrier frequency; the cycle detector monitors "
                             "alpha = 2*fc (default: 1e6)")
    parser.add_argument("--fs-hz", type=float, default=3e6,
                        help="sampling rate (default: 3e6)")
    parser.add_argument("--bandwidth-hz", type=float, default=10e3,
                        help="one-sided AM message bandwidth (default: 1e4)")
    parser.add_argument("--am-mod-index", type=float, default=0.5,
                        help="AM modulation index in [0, 1]; the message is "
                             "brick-wall lowpassed unit-RMS Gaussian noise "
                             "(default: 0.5)")
    parser.add_argument("--symbol-rate-hz", type=float, default=10e3,
                        help="BPSK symbol rate (default: 1e4)")
    parser.add_argument("--n", type=int, default=4096,
                        help="samples per sensing buffer (default: 4096)")
    parser.add_argument("--smoothing-len", type=int, default=1301,
                        help="frequency-smoothing window length, odd "
                             "(default: 1301)")
    parser.add_argument("--window", choices=["hamming", "rectangular"],
                        default="hamming", help="smoothing window kind")
    parser.add_argument("--snr-db", type=float, action="append", default=None,
                        help="SNR in dB over the full sampling band; repeatable "
                             "for roc (default: -22)")
    parser.add_argument("--target-pf", type=float, action="append", default=None,
                        help="target false-alarm probability; repeatable for roc "
                             "(default: 0.01 and 0.1)")
    parser.add_argument("--trials", type=int, default=2000,
                        help="measurement trials per hypothesis (default: 2000)")
    parser.add_argument("--calibration-trials", type=int, default=2000,
                        help="noise-only trials used to set thresholds "
                             "(default: 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; every trial seed derives from it "
                             "(default: 0)")


def _modulation_from_args(args) -> ModulationSpec:
    return ModulationSpec(
        kind=ModulationKind(args.modulation),
        carrier_hz=args.fc_hz,
        bandwidth_hz=args.bandwidth_hz,
        am_mod_index=args.am_mod_index,
        symbol_rate_hz=args.symbol_rate_hz,
    )


def config_from_args(args) -> SensingConfig:
    """Map parsed flags onto a SensingConfig (defaults mirror the parser's)."""
    return SensingConfig(
        modulation=_modulation_from_args(args),
        n_samples=args.n,
        smoothing_len=args.smoothing_len,
        sample_rate_hz=args.fs_hz,
        snr_db_list=tuple(args.snr_db) if args.snr_db else _DEFAULT_SNR_DB,
        target_pf_list=tuple(args.target_pf) if args.target_pf else _DEFAULT_TARGET_PF,
        trials=args.trials,
        calibration_trials=args.calibration_trials,
        master_seed=args.seed,
        window_kind=WindowKind(args.window),
        h1_trials=getattr(args, "h1_trials", None),
    )


def _single_value(values, default, flag):
    if values is None:
        return default
    if len(values) > 1:
        raise ConfigurationError(f"{flag} may be given at most once here")
    return values[0]


def _oneshot_config(args, detector, n_samples, sample_rate_hz) -> SensingConfig:
    """Config for one-shot calibration and decisions, from the flags they read.

    The cycle detector monitors twice the carrier of the modulation the
    flags describe.  The energy detector reads no modulation or window
    flags, so those fields keep neutral values and cannot make it fail.
    """
    common = dict(n_samples=n_samples, sample_rate_hz=sample_rate_hz,
                  calibration_trials=args.calibration_trials, master_seed=args.seed)
    if detector is DetectorKind.ENERGY:
        return SensingConfig(smoothing_len=1, **common)
    return SensingConfig(modulation=_modulation_from_args(args),
                         smoothing_len=args.smoothing_len,
                         window_kind=WindowKind(args.window), **common)


def _calibrate(args, config, detector):
    if args.noise_variance is None:
        raise ConfigurationError(
            "--noise-variance is required when no threshold file is given"
        )
    target_pf = _single_value(args.target_pf, 0.1, "--target-pf")
    return calibrate_at_noise(config, detector, target_pf, args.noise_variance)


def _cmd_profile(args) -> int:
    snr_db = _single_value(args.snr_db, None, "--snr-db")
    for flag, value in (("--alpha-max-hz", args.alpha_max_hz),
                        ("--alpha-step-hz", args.alpha_step_hz)):
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ConfigurationError(f"{flag} must be positive and finite")
    if args.input is not None:
        buffer = read_signal_file(args.input)
    else:
        buffer = generate_signal(_modulation_from_args(args), args.n, args.fs_hz,
                                 profile_seed(args.seed, snr_db, 0))
    if snr_db is not None:
        buffer = add_awgn(buffer, ChannelSpec(snr_db, profile_seed(args.seed, snr_db, 1)))
    n = len(buffer)
    window = make_window(WindowKind(args.window), args.smoothing_len)
    fres = buffer.sample_rate_hz / n
    step = 2.0 * fres
    max_shift = (n - 1) // 2
    if args.alpha_max_hz is not None:
        max_shift = min(max_shift, int(args.alpha_max_hz // step))
    stride = 1
    if args.alpha_step_hz is not None:
        stride = max(1, round(args.alpha_step_hz / step))
    shifts = np.arange(-max_shift, max_shift + 1, stride)
    alphas = 2.0 * shifts * fres
    profile = cycle_profile(buffer, alphas, window)
    with output_stream(args.out) as stream:
        write_profile_csv(profile, stream)
    return 0


def _cmd_calibrate(args) -> int:
    detector = DetectorKind(args.detector)
    config = _oneshot_config(args, detector, args.n, args.fs_hz)
    write_threshold_file(_calibrate(args, config, detector), args.out)
    return 0


def _cmd_detect(args) -> int:
    buffer = read_signal_file(args.input)
    detector = DetectorKind(args.detector)
    config = _oneshot_config(args, detector, len(buffer), buffer.sample_rate_hz)
    if args.threshold_file is not None:
        threshold = read_threshold_file(args.threshold_file)
    else:
        threshold = _calibrate(args, config, detector)
    metric = measure(config, detector, buffer)
    decision = decide(metric, threshold)
    print(f"decision={decision.value} detector={detector.value} "
          f"metric={metric.value!r} threshold={threshold.value!r}")
    return 0


def _cmd_roc(args) -> int:
    write_roc_csv(run_roc(config_from_args(args), workers=args.workers), args.out)
    return 0


def _cmd_complexity(args) -> int:
    report = complexity_model(args.n, args.smoothing_len)
    print(f"n={report.n} smoothing_len={report.l}")
    print(f"proposed_real_mul={report.proposed_real_mul}")
    print(f"proposed_real_add={report.proposed_real_add}")
    print(f"energy_real_mul={report.energy_real_mul}")
    print(f"energy_real_add={report.energy_real_add}")
    print(f"mul_ratio={report.mul_ratio!r}")
    print(f"add_ratio={report.add_ratio!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosense",
        description="Cyclostationary-feature spectrum sensing with an "
                    "energy-detection baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roc = sub.add_parser("roc", help="Monte Carlo ROC sweep -> CSV")
    _add_common_flags(roc)
    roc.add_argument("--h1-trials", type=int, default=None,
                     help="signal-present trials (default: same as --trials)")
    roc.add_argument("--workers", type=int, default=1,
                     help="worker processes, at most the CPU count; results are "
                          "byte-identical for any value (default: 1)")
    roc.add_argument("--out", default=None, help="CSV path (default: stdout)")
    roc.set_defaults(func=_cmd_roc)

    profile = sub.add_parser("profile", help="cycle-frequency profile -> CSV")
    _add_common_flags(profile)
    profile.add_argument("--input", default=None,
                         help="signal file to analyze instead of generating")
    profile.add_argument("--alpha-max-hz", type=float, default=None,
                         help="largest |alpha| in the grid (default: just "
                              "under the sampling rate)")
    profile.add_argument("--alpha-step-hz", type=float, default=None,
                         help="grid step, rounded to a multiple of the "
                              "representable 2*Fs step (default: 2*Fs)")
    profile.add_argument("--out", default=None, help="CSV path (default: stdout)")
    profile.set_defaults(func=_cmd_profile)

    detect = sub.add_parser("detect", help="one-shot decision on a signal file")
    _add_common_flags(detect)
    detect.add_argument("--input", required=True, help="signal file to sense")
    detect.add_argument("--detector", choices=[d.value for d in DetectorKind],
                        default=DetectorKind.CYCLE_FEATURE.value)
    detect.add_argument("--threshold-file", default=None,
                        help="stored threshold; otherwise calibrate now from "
                             "--noise-variance")
    detect.add_argument("--noise-variance", type=float, default=None,
                        help="noise variance for on-the-spot calibration")
    detect.set_defaults(func=_cmd_detect)

    calibrate = sub.add_parser("calibrate",
                               help="calibrate a threshold -> threshold file")
    _add_common_flags(calibrate)
    calibrate.add_argument("--detector", choices=[d.value for d in DetectorKind],
                           default=DetectorKind.CYCLE_FEATURE.value)
    calibrate.add_argument("--noise-variance", type=float, default=None,
                           help="noise variance of the H0 calibration buffers")
    calibrate.add_argument("--out", default=None,
                           help="threshold file path (default: stdout)")
    calibrate.set_defaults(func=_cmd_calibrate)

    complexity = sub.add_parser(
        "complexity",
        help="analytical operation counts",
        description="Closed-form real-operation counts for one sensing "
                    "decision.  --smoothing-len is used verbatim here (even "
                    "values accepted); the estimator itself requires an odd "
                    "window and defaults to 1301.",
    )
    complexity.add_argument("--n", type=int, default=4096,
                            help="transform size, power of two (default: 4096)")
    complexity.add_argument("--smoothing-len", type=int, default=1301,
                            help="window length in the count formulas "
                                 "(default: 1301)")
    complexity.set_defaults(func=_cmd_complexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, CalibrationError, ArithmeticError) as exc:
        # ArithmeticError: a numeric input the checks above let through
        # overflowed; it is still the input's fault, not the program's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
