"""Monte Carlo trial engine, complexity model, and CSV/threshold-file formats.

One engine, _compute_phase_range, seeds and generates every trial: the ROC
sweep's phases and the noise-only calibration of one-shot decisions.  One
scorer, _score, turns every buffer into metrics, one-shot decisions too.

Determinism contract: every trial derives its RNG seed from
(master_seed, phase, snr, trial index) alone, and per-phase results are
assembled in trial order, so a run is a pure function of its SensingConfig
and is byte-identical across worker counts and schedulers.
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detect import DetectorKind, calibrate_threshold, check_target_pf, check_value, \
    sum_of_squares
from .errors import ConfigurationError
from .scd import BLOCK_ROWS, SliceWork, WindowKind, check_window, smoothed_slices
from .siggen import ModulationKind, ModulationSpec, SampleBuffer, add_awgn, \
    check_buffer_shape, check_count, check_length_and_rate, check_noise_variance, check_seed, \
    check_snr_db, check_waveform, generate_signal, noise_only, open_text, seed_words, write_lines

__all__ = [
    "SensingConfig",
    "RocPoint",
    "run_roc",
    "calibrate_at_noise",
    "measure",
    "profile_seed",
    "complexity_model",
    "write_roc_csv",
    "write_threshold_file",
    "read_threshold_file",
    "ROC_CSV_HEADER",
]

ROC_CSV_HEADER = "detector,snr_db,target_pf,threshold,measured_pf,measured_pd,h0_trials,h1_trials"

# Phase tags for seed derivation; profiles and one-shot calibration use 4 and 5.
PHASE_CALIBRATION = 1
PHASE_H0 = 2
PHASE_H1 = 3
PHASE_PROFILE = 4
PHASE_ONESHOT = 5

DETECTORS = (DetectorKind.CYCLE_FEATURE, DetectorKind.ENERGY)

_SNR_TOKEN_OFFSET = 2 ** 31


@dataclass(frozen=True)
class SensingConfig:
    """Full description of one sensing simulation.

    Defaults describe the reference scenario: 4096-sample buffers at
    3 MHz sampling, AM primary user on a 1 MHz carrier with 10 kHz
    message bandwidth, Hamming smoothing of length 1301, -22 dB SNR.
    h1_trials defaults to trials when left None.  detectors, a tuple of
    distinct kinds, names what run_roc, calibrate_at_noise and measure
    score, in order; the window is checked only when CYCLE_FEATURE is one.
    """

    modulation: ModulationSpec = ModulationSpec(ModulationKind.AM, 1e6, 10e3)
    n_samples: int = 4096
    smoothing_len: int = 1301
    sample_rate_hz: float = 3e6
    snr_db_list: tuple = (-22.0,)
    target_pf_list: tuple = (0.01, 0.1)
    trials: int = 2000
    calibration_trials: int = 2000
    master_seed: int = 0
    window_kind: WindowKind = WindowKind.HAMMING
    h1_trials: int | None = None
    detectors: tuple = DETECTORS

    def __post_init__(self):
        if not isinstance(self.modulation, ModulationSpec):
            raise ConfigurationError("modulation must be a ModulationSpec")
        check_length_and_rate(self.n_samples, self.sample_rate_hz)
        if not (isinstance(self.detectors, tuple) and self.detectors
                and all(isinstance(d, DetectorKind) for d in self.detectors)
                and len(set(self.detectors)) == len(self.detectors)):
            raise ConfigurationError("detectors must be a nonempty tuple of distinct DetectorKind")
        if DetectorKind.CYCLE_FEATURE in self.detectors:
            check_window(self.window_kind, self.smoothing_len, self.n_samples)
        snrs = tuple(float(s) for s in self.snr_db_list)
        pfs = tuple(float(p) for p in self.target_pf_list)
        if not (snrs and pfs):
            raise ConfigurationError("snr_db_list and target_pf_list must be nonempty")
        tokens = [_snr_token(s) for s in snrs]
        if len(set(tokens)) < len(tokens):
            raise ConfigurationError(
                "snr_db_list entries must differ to 0.001 dB, or their trials share seeds")
        for pf in pfs:
            check_target_pf(pf)
        for name in ("trials", "calibration_trials"):
            check_count(name, getattr(self, name))
        if self.h1_trials is not None:
            check_count("h1_trials", self.h1_trials)
        check_seed(self.master_seed)
        object.__setattr__(self, "snr_db_list", snrs)
        object.__setattr__(self, "target_pf_list", pfs)

    @property
    def effective_h1_trials(self) -> int:
        return self.trials if self.h1_trials is None else int(self.h1_trials)

    @property
    def alpha0_hz(self) -> float:
        """Cycle frequency the detector monitors: twice the carrier."""
        return 2.0 * self.modulation.carrier_hz


@dataclass(frozen=True)
class RocPoint:
    """Measured operating point of one detector at one SNR and target Pf."""

    detector: DetectorKind
    snr_db: float
    target_pf: float
    threshold: float
    measured_pf: float
    measured_pd: float
    h0_trials: int
    h1_trials: int

    def __post_init__(self):
        check_target_pf(self.target_pf)
        for name in ("measured_pf", "measured_pd"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.h0_trials < 1 or self.h1_trials < 1:
            raise ConfigurationError("trial counts must be positive")
        check_value("threshold", self.threshold)


def complexity_model(n: int, l: int) -> dict:
    """Closed-form real-operation counts for one sensing decision at transform
    size n and window length l, by name: proposed_real_mul, proposed_real_add,
    energy_real_mul and energy_real_add as ints, then mul_ratio and add_ratio,
    the proposed counts over the energy ones.

    proposed: radix-2 transform of n samples (each complex multiply
    counted as 4 real multiplies + 2 adds, butterfly adds 2 each) plus a
    single smoothed correlation at one cycle frequency with an l-point
    window.  energy: n squarings plus the magnitude-squared accumulation.
    mul_ratio equals log2(n)/2 + 5l/(4n).
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or n & (n - 1):
        raise ConfigurationError(f"n must be a power of two, got {n}")
    if not isinstance(l, (int, np.integer)) or l < 1:
        raise ConfigurationError("l must be a positive integer")
    n, l = int(n), int(l)
    log2n = n.bit_length() - 1
    mul, add = 2 * n * log2n + 5 * l, 3 * n * log2n + 3 * l
    return dict(proposed_real_mul=mul, proposed_real_add=add, energy_real_mul=4 * n,
                energy_real_add=3 * n, mul_ratio=mul / (4 * n), add_ratio=add / (3 * n))


def _snr_token(snr_db: float) -> int:
    """Nonnegative integer identifying an SNR, to 0.001 dB, in seed derivations."""
    check_snr_db(snr_db)
    return int(round(snr_db * 1000.0)) + _SNR_TOKEN_OFFSET


def derive_seed(master_seed: int, phase: int, snr_token: int, index: int, slot: int) -> int:
    """128-bit per-trial seed, a pure function of its coordinates."""
    ss = np.random.SeedSequence(seed_words(master_seed, phase, snr_token, index, slot))
    lo, hi = ss.generate_state(2, np.uint64)
    return (int(hi) << 64) | int(lo)


def _noise_variance(snr_db: float) -> float:
    """H0/H1 noise variance for unit-power signals under the full-band SNR."""
    return 10.0 ** (-snr_db / 10.0)


def _cycle_work(config: SensingConfig):
    """The cycle detector's SliceWork on config's grid, unserved, and its nonzero shift."""
    work = SliceWork(config.n_samples, config.sample_rate_hz, config.window_kind,
                     config.smoothing_len)
    shift = work.shift(config.alpha0_hz)
    if not shift:
        raise ConfigurationError(
            f"cycle frequency {config.alpha0_hz!r} Hz is a shift of 0 bins, the power spectrum; "
            f"the carrier must exceed half the bin width, {work.bin_width / 2!r} Hz")
    return work, shift


def _score(config: SensingConfig, count: int, buffers) -> np.ndarray:
    """Metrics of `count` buffers, one row per detector of config: the one scorer
    of ROC trials, calibrations and one-shot decisions.  Buffers go through the
    slice kernel BLOCK_ROWS at a time; no metric depends on the block boundaries."""
    values = np.empty((len(config.detectors), count))
    row_of = {detector: d for d, detector in enumerate(config.detectors)}
    energy, cycle = row_of.get(DetectorKind.ENERGY), row_of.get(DetectorKind.CYCLE_FEATURE)
    # Energy sums read each buffer's samples and share one scratch; cycle rows hold samples,
    # then their spectra, transformed in place.  A one-shot decision gets one row: freeing
    # four rows at once, or temporaries per row, lets glibc trim the heap and refault it.
    rows = min(BLOCK_ROWS, count)
    if cycle is not None:
        work, shift = _cycle_work(config)
        work.serve(rows, work.nfft(0))
        spectra = np.empty((rows, config.n_samples), dtype=np.complex128)
    squares = np.empty((2, config.n_samples)) if energy is not None else None
    buffers = iter(buffers)
    for first in range(0, count, BLOCK_ROWS):
        columns = slice(first, min(first + BLOCK_ROWS, count))
        for column, buffer in zip(range(first, columns.stop), buffers):
            if energy is not None:
                values[energy, column] = sum_of_squares(buffer.samples, squares)
            if cycle is not None:
                spectra[column - first] = buffer.samples
        if cycle is not None:
            block = spectra[:columns.stop - first]
            np.fft.fft(block, axis=-1, out=block)
            values[cycle, columns] = work.peaks(
                smoothed_slices(block, [shift] * len(block), work))
        if not np.all(np.isfinite(values[:, columns])):
            raise ConfigurationError(
                "a metric overflowed to a non-finite value; the noise or signal "
                "level is beyond what the estimator can represent")
    return values


def _compute_phase_range(config: SensingConfig, phase: int, snr_db: float | None,
                         start: int, stop: int, noise_variance: float | None = None) -> np.ndarray:
    """Metrics for trials [start, stop) of one phase, one row per detector of config.

    Runs in workers.  noise_variance replaces the noise level derived from
    snr_db; one-shot calibration has no SNR, passes snr_db=None and seeds
    its trials with SNR token 0.
    """
    token = 0 if snr_db is None else _snr_token(snr_db)
    variance = _noise_variance(snr_db) if noise_variance is None else noise_variance
    seed = partial(derive_seed, config.master_seed, phase, token)
    n, rate = config.n_samples, config.sample_rate_hz

    def trial(t: int) -> SampleBuffer:
        if phase == PHASE_H1:
            return add_awgn(generate_signal(config.modulation, n, rate, seed(t, 0)),
                            snr_db, seed(t, 1))
        return noise_only(n, variance, seed(t, 0), rate)

    return _score(config, stop - start, map(trial, range(start, stop)))


def run_roc(config: SensingConfig, workers: int = 1):
    """Calibrate and measure config.detectors over the configured sweep.

    Per SNR: calibration_trials noise-only buffers fix the thresholds (one
    per target Pf per detector, all from the same calibration sample),
    then `trials` fresh noise-only buffers measure Pf and h1 trials of
    signal+noise measure Pd.  Returns a list of RocPoint.
    """
    if not isinstance(config, SensingConfig):
        raise ConfigurationError("config must be a SensingConfig")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigurationError("workers must be a positive integer")
    for target_pf in config.target_pf_list:
        check_target_pf(target_pf, config.calibration_trials)
    # refused before the first trial, not at the first H1 trial; the grid allocates no block
    if DetectorKind.CYCLE_FEATURE in config.detectors:
        _cycle_work(config)
    check_waveform(config.modulation, config.n_samples, config.sample_rate_hz)

    # a fork pool starts all its workers at the first task, and the output
    # does not depend on their number: more than the CPUs only costs processes
    workers = min(workers, os.cpu_count() or 1)
    phases = ((PHASE_CALIBRATION, config.calibration_trials), (PHASE_H0, config.trials),
              (PHASE_H1, config.effective_h1_trials))
    # one ordered stream of trial ranges for the whole sweep: no barrier between phases
    tasks = []
    for snr_db in config.snr_db_list:
        for phase, count in phases:
            bounds = np.linspace(0, count, workers + 1).astype(int)
            tasks += [(phase, snr_db, a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    metrics = {}
    with pool as executor:
        # read inside map's iterator, which cancels the pending tasks when one fails
        for (phase, snr_db, _, _), values in zip(tasks, (executor.map if executor else map)(
                partial(_compute_phase_range, config), *zip(*tasks))):
            metrics.setdefault((snr_db, phase), []).append(values)
    points = []
    for snr_db in config.snr_db_list:
        calibration, h0, h1 = (np.concatenate(metrics[snr_db, p], axis=1) for p, _ in phases)
        per_detector = tuple(zip(config.detectors, calibration, h0, h1))
        for target_pf in config.target_pf_list:
            for detector, cal_values, h0_values, h1_values in per_detector:
                threshold = calibrate_threshold(cal_values, target_pf)
                points.append(RocPoint(
                    detector=detector,
                    snr_db=float(snr_db),
                    target_pf=float(target_pf),
                    threshold=threshold,
                    measured_pf=float(np.mean(h0_values >= threshold)),
                    measured_pd=float(np.mean(h1_values >= threshold)),
                    h0_trials=h0_values.size,
                    h1_trials=h1_values.size,
                ))
    return points


def calibrate_at_noise(config: SensingConfig, target_pf: float, noise_variance: float) -> tuple:
    """One built-in float threshold per detector of config, in order, from
    the same config.calibration_trials noise-only buffers.

    One-shot decisions on external signals have no SNR handle, so the noise
    level is given directly.  Trial t is seeded
    (master_seed, PHASE_ONESHOT, 0, t, 0).
    """
    check_noise_variance(noise_variance)
    check_target_pf(target_pf, config.calibration_trials)
    values = _compute_phase_range(config, PHASE_ONESHOT, None, 0, config.calibration_trials,
                                  noise_variance)
    return tuple(calibrate_threshold(row, target_pf) for row in values)


def measure(config: SensingConfig, buffer: SampleBuffer) -> tuple:
    """One built-in float metric per detector of config, in order, on a buffer
    of config's length and rate."""
    check_buffer_shape(buffer, config.n_samples, config.sample_rate_hz)
    return tuple(_score(config, 1, [buffer])[:, 0].tolist())


def profile_seed(master_seed: int, snr_db: float | None, slot: int) -> int:
    """Seed of a profiled waveform (slot 0) or of its noise (slot 1).

    The SNR token is 0 when no SNR is given.
    """
    check_seed(master_seed)
    token = 0 if snr_db is None else _snr_token(snr_db)
    return derive_seed(master_seed, PHASE_PROFILE, token, 0, slot)


def write_roc_csv(points, path_or_stream) -> None:
    """Write the ROC CSV, rows sorted for reproducibility (see siggen.write_lines); each
    float field as a built-in float's repr, so a numpy scalar writes as one."""
    ordered = sorted(points, key=lambda p: (p.detector.value, p.snr_db, p.target_pf))
    write_lines([ROC_CSV_HEADER + "\n", *(
        f"{p.detector.value},{float(p.snr_db)!r},{float(p.target_pf)!r},{float(p.threshold)!r},"
        f"{float(p.measured_pf)!r},{float(p.measured_pd)!r},{p.h0_trials},{p.h1_trials}\n"
        for p in ordered)], path_or_stream)


def write_threshold_file(detector: DetectorKind, target_pf: float, threshold: float,
                         path_or_stream) -> None:
    """Single line `<detector>,<target_pf>,<threshold>` matching the CSV field
    order (see siggen.write_lines); refused unless read_threshold_file reads it back."""
    check_value("threshold", threshold)
    check_target_pf(target_pf)
    write_lines([f"{detector.value},{float(target_pf)!r},{float(threshold)!r}\n"], path_or_stream)


def read_threshold_file(path) -> tuple:
    """(detector, target_pf, threshold) of a threshold file, the threshold a
    built-in float; the format does not carry the calibration sample size."""
    with open_text(path) as fh:
        parts = fh.readline().strip().split(",")
        rest = fh.read()
    if len(parts) != 3 or rest:
        raise ConfigurationError(f"{path}: expected 'detector,target_pf,threshold' on one line")
    try:
        detector, target_pf, threshold = DetectorKind(parts[0]), float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"{path}: unparseable threshold file: {exc}") from exc
    try:
        check_value("threshold", threshold)
        check_target_pf(target_pf)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return detector, target_pf, threshold
