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
import sys
from functools import lru_cache

from .detect import DetectorKind, decide
from .errors import ConfigurationError, CyclosenseError
from .harness import (SensingConfig, calibrate_at_noise, complexity_model, measure,
                      profile_seed, read_threshold_file, run_roc, write_roc_csv,
                      write_threshold_file)
from .scd import SliceWork, WindowKind, cycle_profile, write_profile_csv
from .siggen import (ModulationKind, ModulationSpec, add_awgn, check_buffer_shape,
                     generate_signal, read_signal_file)

# read by roc, profile, calibrate and detect alike
_SHARED_FLAGS = ("--modulation", "--fc-hz", "--fs-hz", "--bandwidth-hz", "--am-mod-index",
                 "--symbol-rate-hz", "--n", "--smoothing-len", "--window", "--seed")


def _add_flags(parser: argparse.ArgumentParser, *names) -> None:
    """Register the named flags.  Each subcommand names only the flags that
    one of its modes reads, so a flag it would ignore exits 2 as unknown."""
    def add(name, **kwargs):
        if name in names:
            parser.add_argument(name, **kwargs)

    add("--modulation", choices=["am", "bpsk"], default="am",
        help="primary-user modulation (default: am)")
    add("--fc-hz", type=float, default=1e6,
        help="carrier frequency; the cycle detector monitors alpha = 2*fc (default: 1e6)")
    add("--fs-hz", type=float, default=None, help="sampling rate (default: 3e6; "
        "with --input: the file's, and another value exits 2)")
    add("--bandwidth-hz", type=float, default=10e3,
        help="one-sided AM message bandwidth (default: 1e4)")
    add("--am-mod-index", type=float, default=0.5, help="AM modulation index in [0, 1]; "
        "the message is brick-wall lowpassed unit-RMS Gaussian noise (default: 0.5)")
    add("--symbol-rate-hz", type=float, default=1e4, help="BPSK symbol rate (default: 1e4)")
    add("--n", type=int, default=None, help="samples per sensing buffer (default: 4096; "
        "with --input: the file's, and another value exits 2)")
    add("--smoothing-len", type=int, default=1301,
        help="frequency-smoothing window length, odd (default: 1301)")
    add("--window", choices=["hamming", "rectangular"], default="hamming",
        help="smoothing window kind")
    add("--snr-db", type=float, action="append", default=None,
        help="SNR in dB over the full sampling band; repeatable for roc "
             "(default: -22 for roc; profile adds no noise)")
    add("--target-pf", type=float, action="append", default=None,
        help="target false-alarm probability; repeatable for roc "
             "(default: 0.01 and 0.1 for roc, 0.1 for calibrate and detect)")
    add("--trials", type=int, default=2000,
        help="measurement trials per hypothesis (default: 2000)")
    add("--h1-trials", type=int, default=None,
        help="signal-present trials (default: same as --trials)")
    add("--calibration-trials", type=int, default=None,
        help="noise-only trials used to set thresholds (default: 2000)")
    add("--seed", type=int, default=0,
        help="master seed; every trial seed derives from it (default: 0)")
    add("--workers", type=int, default=1, help="worker processes, at most the CPU count; "
        "results are byte-identical for any value (default: 1)")
    add("--alpha-max-hz", type=float, default=None,
        help="largest |alpha| in the grid (default: just under the sampling rate)")
    add("--alpha-step-hz", type=float, default=None, help="grid step, rounded to a "
        "multiple of the representable 2*Fs step (default: 2*Fs)")
    add("--detector", choices=[d.value for d in DetectorKind],
        default=DetectorKind.CYCLE_FEATURE.value)
    add("--threshold-file", default=None,
        help="stored threshold; otherwise calibrate now from --noise-variance")
    add("--noise-variance", type=float, default=None,
        help="noise variance of the H0 calibration buffers")
    add("--out", default=None, help="output path (default: stdout)")


def _modulation_from_args(args) -> ModulationSpec:
    return ModulationSpec(
        kind=ModulationKind(args.modulation),
        carrier_hz=args.fc_hz,
        bandwidth_hz=args.bandwidth_hz,
        am_mod_index=args.am_mod_index,
        symbol_rate_hz=args.symbol_rate_hz,
    )


def config_from_args(args, detector=None, shape=None) -> SensingConfig:
    """Map parsed flags onto a SensingConfig (defaults mirror the parser's).

    With no detector, roc's sweep of both detectors.  With one, the config
    of one-shot calibration and decisions, which reads no sweep flag.  The
    energy detector reads no modulation or window flag either, so those
    fields keep their defaults and cannot make it fail.  shape holds
    n_samples and sample_rate_hz, by default from --n and --fs-hz.
    """
    trials = args.calibration_trials
    fields = dict(shape or _shape(args), master_seed=args.seed, calibration_trials=(
        SensingConfig.calibration_trials if trials is None else trials))
    if detector is not DetectorKind.ENERGY:
        fields.update(modulation=_modulation_from_args(args), smoothing_len=args.smoothing_len,
                      window_kind=WindowKind(args.window))
    if detector is not None:
        return SensingConfig(detectors=(detector,), **fields)
    return SensingConfig(
        snr_db_list=tuple(args.snr_db or SensingConfig.snr_db_list),
        target_pf_list=tuple(args.target_pf or SensingConfig.target_pf_list),
        trials=args.trials, h1_trials=args.h1_trials, **fields)


def _single_value(values, default, flag):
    if values is None:
        return default
    if len(values) > 1:
        raise ConfigurationError(f"{flag} may be given at most once here")
    return values[0]


def _shape(args, buffer=None) -> dict:
    """n_samples and sample_rate_hz from --n and --fs-hz, else buffer's or SensingConfig's."""
    n, rate = ((SensingConfig.n_samples, SensingConfig.sample_rate_hz) if buffer is None
               else (len(buffer), buffer.sample_rate_hz))
    return dict(n_samples=n if args.n is None else args.n,
                sample_rate_hz=rate if args.fs_hz is None else args.fs_hz)


def _calibrate(args, config) -> tuple:
    """The target Pf and the threshold calibrated for config's detector at --noise-variance."""
    if args.noise_variance is None:
        raise ConfigurationError(
            "--noise-variance is required when no threshold file is given"
        )
    target_pf = _single_value(args.target_pf, 0.1, "--target-pf")
    return target_pf, calibrate_at_noise(config, target_pf, args.noise_variance)[0]


def _cmd_profile(args) -> int:
    snr_db = _single_value(args.snr_db, None, "--snr-db")
    if args.input is not None:
        buffer = read_signal_file(args.input)
        check_buffer_shape(buffer, **_shape(args, buffer))
    else:
        buffer = generate_signal(_modulation_from_args(args), **_shape(args),
                                 seed=profile_seed(args.seed, snr_db, 0))
    if snr_db is not None:
        buffer = add_awgn(buffer, snr_db, profile_seed(args.seed, snr_db, 1))
    window = (WindowKind(args.window), args.smoothing_len)
    work = SliceWork(0, len(buffer), buffer.sample_rate_hz, *window)
    alphas = work.grid(args.alpha_max_hz, args.alpha_step_hz)
    write_profile_csv(alphas, cycle_profile(buffer, alphas, *window), args.out)
    return 0


def _cmd_calibrate(args) -> int:
    detector = DetectorKind(args.detector)
    write_threshold_file(detector, *_calibrate(args, config_from_args(args, detector)), args.out)
    return 0


def _cmd_detect(args) -> int:
    detector = DetectorKind(args.detector)
    if args.threshold_file is not None:
        for flag in ("--target-pf", "--calibration-trials", "--noise-variance"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigurationError(f"{flag} is read only without --threshold-file")
        calibrated_for, _, threshold = read_threshold_file(args.threshold_file)
        if calibrated_for is not detector:
            raise ConfigurationError(f"{args.threshold_file}: threshold is for "
                                     f"{calibrated_for.value}, not --detector {detector.value}")
    buffer = read_signal_file(args.input)
    config = config_from_args(args, detector, _shape(args, buffer))
    # scored first: measure refuses a --n or --fs-hz unlike the file's before any trial
    (metric,) = measure(config, buffer)
    if args.threshold_file is None:
        _, threshold = _calibrate(args, config)
    decision = "h1_active" if decide(metric, threshold) else "h0_inactive"
    print(f"decision={decision} detector={detector.value} "
          f"metric={metric!r} threshold={threshold!r}")
    return 0


def _cmd_roc(args) -> int:
    write_roc_csv(run_roc(config_from_args(args), workers=args.workers), args.out)
    return 0


def _cmd_complexity(args) -> int:
    counts = complexity_model(args.n, args.smoothing_len)
    print(f"n={args.n} smoothing_len={args.smoothing_len}")
    for name, value in counts.items():
        print(f"{name}={value!r}")
    return 0


# name -> (help, description, _add_flags names, (flag, add_argument keywords) pairs).
# Each runs _cmd_<name>, looked up per call, so a wrapper rebound to it (perfbench) runs.
_COMMANDS = {
    "roc": ("Monte Carlo ROC sweep -> CSV", None,
            (*_SHARED_FLAGS, "--snr-db", "--target-pf", "--trials", "--h1-trials",
             "--calibration-trials", "--workers", "--out"), ()),
    "profile": ("cycle-frequency profile -> CSV", None,
                (*_SHARED_FLAGS, "--snr-db", "--alpha-max-hz", "--alpha-step-hz", "--out"),
                (("--input", dict(default=None,
                                  help="signal file to analyze instead of generating")),)),
    "detect": ("one-shot decision on a signal file", None,
               (*_SHARED_FLAGS, "--target-pf", "--calibration-trials", "--detector",
                "--threshold-file", "--noise-variance"),
               (("--input", dict(required=True, help="signal file to sense")),)),
    "calibrate": ("calibrate a threshold -> threshold file", None,
                  (*_SHARED_FLAGS, "--target-pf", "--calibration-trials", "--detector",
                   "--noise-variance", "--out"), ()),
    "complexity": (
        "analytical operation counts",
        "Closed-form real-operation counts for one sensing decision.  --smoothing-len "
        "is used verbatim here (even values accepted); the estimator itself requires "
        "an odd window and defaults to 1301.", (),
        (("--n", dict(type=int, default=4096,
                      help="transform size, power of two (default: 4096)")),
         ("--smoothing-len", dict(type=int, default=1301,
                                  help="window length in the count formulas (default: 1301)")))),
}


def _fill(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    _, _, flags, extras = _COMMANDS[command]
    _add_flags(parser, *flags)
    for flag, keywords in extras:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(command=command)
    return parser


def build_parser(command=None) -> argparse.ArgumentParser:
    """The full parser, or with command that subcommand's parser alone, built once per process."""
    return _parser(command)


@lru_cache(maxsize=None)
def _parser(command) -> argparse.ArgumentParser:
    if command is not None:
        return _fill(argparse.ArgumentParser(prog=f"cyclosense {command}",
                                             description=_COMMANDS[command][1]), command)
    parser = argparse.ArgumentParser(prog="cyclosense", description=(
        "Cyclostationary-feature spectrum sensing with an energy-detection baseline."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, description, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text, description=description), name)
    return parser


def _parse(argv) -> argparse.Namespace:
    """One parse by argv's subcommand parser, or the full one for no subcommand or a leftover."""
    if argv and argv[0] in _COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (CyclosenseError, ArithmeticError, MemoryError) as exc:
        # a numeric input the checks above let through overflowed, or asked for
        # more memory than the host holds; either is the input's fault, not the program's
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
