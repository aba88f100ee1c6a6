"""Monte Carlo trial engine, complexity model, and CSV/threshold-file formats.

One engine, _compute_phase_range, seeds and generates every trial: the ROC
sweep's phases and the noise-only calibration of one-shot decisions.  One
scorer, _score, turns every buffer into metrics, one-shot decisions too.

Determinism contract: every trial derives its RNG seed from
(master_seed, phase, snr, trial index) alone, and per-phase results are
assembled in trial order, so a run is a pure function of its SensingConfig
and is byte-identical across worker counts and schedulers.
"""

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detect import DetectorKind, SensingMetric, Threshold, calibrate_threshold, \
    check_target_pf, energy_metric
from .errors import ConfigurationError
from .scd import BLOCK_ROWS, SliceWork, WindowKind, check_window, cycle_shift, \
    make_window, smoothed_slices
from .siggen import ChannelSpec, ModulationKind, ModulationSpec, SampleBuffer, \
    add_awgn, check_buffer_shape, check_length_and_rate, check_seed, check_snr_db, \
    check_waveform, generate_signal, noise_only

__all__ = [
    "SensingConfig",
    "RocPoint",
    "ComplexityReport",
    "run_roc",
    "calibrate_at_noise",
    "measure",
    "profile_seed",
    "complexity_model",
    "output_stream",
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
    h1_trials defaults to trials when left None.
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

    def __post_init__(self):
        if not isinstance(self.modulation, ModulationSpec):
            raise ConfigurationError("modulation must be a ModulationSpec")
        check_length_and_rate(self.n_samples, self.sample_rate_hz)
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
            if not isinstance(getattr(self, name), (int, np.integer)) or getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.h1_trials is not None and (
                not isinstance(self.h1_trials, (int, np.integer)) or self.h1_trials < 1):
            raise ConfigurationError("h1_trials must be a positive integer or None")
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
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ConfigurationError("threshold must be finite and nonnegative")


@dataclass(frozen=True)
class ComplexityReport:
    """Closed-form real-operation counts for one sensing decision.

    proposed: radix-2 transform of n samples (each complex multiply
    counted as 4 real multiplies + 2 adds, butterfly adds 2 each) plus a
    single smoothed correlation at one cycle frequency with an l-point
    window.  energy: n squarings plus the magnitude-squared accumulation.
    """

    n: int
    l: int
    proposed_real_mul: int
    proposed_real_add: int
    energy_real_mul: int
    energy_real_add: int

    @property
    def mul_ratio(self) -> float:
        """Equals log2(n)/2 + 5l/(4n)."""
        return self.proposed_real_mul / self.energy_real_mul

    @property
    def add_ratio(self) -> float:
        return self.proposed_real_add / self.energy_real_add


def complexity_model(n: int, l: int) -> ComplexityReport:
    """Evaluate the operation-count formulas at transform size n, window l."""
    if not isinstance(n, (int, np.integer)) or n < 1 or n & (n - 1):
        raise ConfigurationError(f"n must be a power of two, got {n}")
    if not isinstance(l, (int, np.integer)) or l < 1:
        raise ConfigurationError("l must be a positive integer")
    log2n = int(n).bit_length() - 1
    return ComplexityReport(
        n=int(n),
        l=int(l),
        proposed_real_mul=2 * n * log2n + 5 * l,
        proposed_real_add=3 * n * log2n + 3 * l,
        energy_real_mul=4 * n,
        energy_real_add=3 * n,
    )


def _snr_token(snr_db: float) -> int:
    """Nonnegative integer identifying an SNR, to 0.001 dB, in seed derivations."""
    check_snr_db(snr_db)
    if math.isinf(snr_db):
        return 2 ** 40 if snr_db > 0 else 0
    return int(round(snr_db * 1000.0)) + _SNR_TOKEN_OFFSET


def derive_seed(master_seed: int, phase: int, snr_token: int, index: int, slot: int) -> int:
    """128-bit per-trial seed, a pure function of its coordinates."""
    ss = np.random.SeedSequence(
        (int(master_seed), int(phase), int(snr_token), int(index), int(slot)))
    lo, hi = ss.generate_state(2, np.uint64)
    return (int(hi) << 64) | int(lo)


def _noise_variance(snr_db: float) -> float:
    """H0/H1 noise variance for unit-power signals under the full-band SNR."""
    return 10.0 ** (-snr_db / 10.0)


def _cycle_window(config: SensingConfig, detectors):
    """The cycle detector's smoothing window and bin shift, or None when it
    is not scored."""
    if DetectorKind.CYCLE_FEATURE not in detectors:
        return None
    n = config.n_samples
    return (make_window(config.window_kind, config.smoothing_len),
            cycle_shift(config.alpha0_hz, n, config.sample_rate_hz / n))


def _trial_buffer(config: SensingConfig, phase: int, snr_db: float | None, token: int,
                  variance: float, trial: int) -> SampleBuffer:
    """The received buffer of one trial, seeded by its coordinates alone."""
    if phase == PHASE_H1:
        signal = generate_signal(
            config.modulation, config.n_samples, config.sample_rate_hz,
            derive_seed(config.master_seed, phase, token, trial, 0))
        return add_awgn(signal, ChannelSpec(
            snr_db, derive_seed(config.master_seed, phase, token, trial, 1)))
    if variance == 0.0:
        # noise disabled: the H0 waveform is identically zero
        return SampleBuffer(np.zeros(config.n_samples), config.sample_rate_hz)
    return noise_only(config.n_samples, variance,
                      derive_seed(config.master_seed, phase, token, trial, 0),
                      config.sample_rate_hz)


def _score(config: SensingConfig, detectors, count: int, buffers) -> np.ndarray:
    """Metrics of `count` buffers, one row per detector: the one scorer of ROC
    trials, calibrations and one-shot decisions.  Buffers go through the slice
    kernel BLOCK_ROWS at a time; no metric depends on the block boundaries."""
    values = np.empty((len(detectors), count))
    row_of = {detector: d for d, detector in enumerate(detectors)}
    cycle = _cycle_window(config, detectors)
    # Rows hold samples, then their spectra: the transform runs in place, with
    # no complex copy of a real block.  A one-shot decision gets one row:
    # freeing four rows at once would let glibc trim the heap, and every next
    # decision would fault ~120 pages back in.
    rows = min(BLOCK_ROWS, count)
    if cycle is not None:
        window, shift = cycle
        work = SliceWork(rows, config.n_samples, window, 1.0 / config.sample_rate_hz)
    spectra = np.empty((rows, config.n_samples), dtype=np.complex128)
    buffers = iter(buffers)
    for first in range(0, count, BLOCK_ROWS):
        columns = slice(first, min(first + BLOCK_ROWS, count))
        block = spectra[:columns.stop - first]
        for column, (row, buffer) in enumerate(zip(block, buffers), first):
            row[:] = buffer.samples
            if DetectorKind.ENERGY in row_of:
                values[row_of[DetectorKind.ENERGY], column] = energy_metric(buffer).value
        if cycle is not None:
            np.fft.fft(block, axis=-1, out=block)
            values[row_of[DetectorKind.CYCLE_FEATURE], columns] = work.peaks(
                smoothed_slices(block, [shift] * len(block), work))
        if not np.all(np.isfinite(values[:, columns])):
            raise ConfigurationError(
                "a metric overflowed to a non-finite value; the noise or signal "
                "level is beyond what the estimator can represent")
    return values


def _compute_phase_range(config: SensingConfig, phase: int, snr_db: float | None,
                         start: int, stop: int, detectors=DETECTORS,
                         noise_variance: float | None = None) -> np.ndarray:
    """Metrics for trials [start, stop) of one phase, one row per detector.

    Runs in workers.  noise_variance replaces the noise level derived from
    snr_db; one-shot calibration has no SNR, passes snr_db=None and seeds
    its trials with SNR token 0.
    """
    token = 0 if snr_db is None else _snr_token(snr_db)
    variance = _noise_variance(snr_db) if noise_variance is None else noise_variance
    return _score(config, detectors, stop - start, (
        _trial_buffer(config, phase, snr_db, token, variance, t) for t in range(start, stop)))


def _phase_metrics(config, phase, snr_db, count, workers, executor):
    if executor is None or count < 2:
        return _compute_phase_range(config, phase, snr_db, 0, count)
    bounds = np.linspace(0, count, workers + 1).astype(int)
    task = partial(_compute_phase_range, config, phase, snr_db)
    return np.concatenate(list(executor.map(task, bounds[:-1], bounds[1:])), axis=1)


def run_roc(config: SensingConfig, workers: int = 1):
    """Calibrate and measure both detectors over the configured sweep.

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
    # refused before the first trial, not at the first H1 trial
    _cycle_window(config, DETECTORS)
    check_waveform(config.modulation, config.n_samples, config.sample_rate_hz)

    # a fork pool starts all its workers at the first task, and the output
    # does not depend on their number: more than the CPUs only costs processes
    workers = min(workers, os.cpu_count() or 1)
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    points = []
    try:
        for snr_db in config.snr_db_list:
            calibration = _phase_metrics(config, PHASE_CALIBRATION, snr_db,
                                         config.calibration_trials, workers, executor)
            h0 = _phase_metrics(config, PHASE_H0, snr_db,
                                config.trials, workers, executor)
            h1 = _phase_metrics(config, PHASE_H1, snr_db,
                                config.effective_h1_trials, workers, executor)
            per_detector = tuple(zip(DETECTORS, calibration, h0, h1))
            for target_pf in config.target_pf_list:
                for detector, cal_values, h0_values, h1_values in per_detector:
                    threshold = calibrate_threshold(cal_values, target_pf, detector)
                    points.append(RocPoint(
                        detector=detector,
                        snr_db=float(snr_db),
                        target_pf=float(target_pf),
                        threshold=threshold.value,
                        measured_pf=float(np.mean(h0_values >= threshold.value)),
                        measured_pd=float(np.mean(h1_values >= threshold.value)),
                        h0_trials=h0_values.size,
                        h1_trials=h1_values.size,
                    ))
    finally:
        if executor is not None:
            executor.shutdown()
    return points


def calibrate_at_noise(config: SensingConfig, detector: DetectorKind, target_pf: float,
                       noise_variance: float) -> Threshold:
    """Threshold from config.calibration_trials noise-only buffers.

    One-shot decisions on external signals have no SNR handle, so the noise
    level is given directly.  Trial t is seeded
    (master_seed, PHASE_ONESHOT, 0, t, 0).
    """
    if not noise_variance > 0.0:
        raise ConfigurationError(f"noise variance must be positive, got {noise_variance!r}")
    check_target_pf(target_pf, config.calibration_trials)
    values = _compute_phase_range(config, PHASE_ONESHOT, None, 0, config.calibration_trials,
                                  (detector,), noise_variance)
    return calibrate_threshold(values[0], target_pf, detector)


def measure(config: SensingConfig, detector: DetectorKind,
            buffer: SampleBuffer) -> SensingMetric:
    """One detector's metric on a buffer of config's length and rate."""
    check_buffer_shape(buffer, config.n_samples, config.sample_rate_hz)
    return SensingMetric(float(_score(config, (detector,), 1, [buffer])[0, 0]), detector)


def profile_seed(master_seed: int, snr_db: float | None, slot: int) -> int:
    """Seed of a profiled waveform (slot 0) or of its noise (slot 1).

    The SNR token is 0 when no SNR is given.
    """
    check_seed(master_seed)
    token = 0 if snr_db is None else _snr_token(snr_db)
    return derive_seed(master_seed, PHASE_PROFILE, token, 0, slot)


@contextmanager
def output_stream(path_or_stream):
    """A text stream: the file at a path, opened for writing, a stream
    itself, or stdout for None."""
    if path_or_stream is None:
        yield sys.stdout
    elif hasattr(path_or_stream, "write"):
        yield path_or_stream
    else:
        with open(path_or_stream, "w", newline="\n") as fh:
            yield fh


def write_roc_csv(points, path_or_stream) -> None:
    """Write the ROC CSV, rows sorted for reproducibility (see output_stream)."""
    ordered = sorted(points, key=lambda p: (p.detector.value, p.snr_db, p.target_pf))
    with output_stream(path_or_stream) as stream:
        stream.write(ROC_CSV_HEADER + "\n")
        for p in ordered:
            stream.write(
                f"{p.detector.value},{p.snr_db!r},{p.target_pf!r},{p.threshold!r},"
                f"{p.measured_pf!r},{p.measured_pd!r},{p.h0_trials},{p.h1_trials}\n"
            )


def write_threshold_file(threshold: Threshold, path_or_stream) -> None:
    """Single line `<detector>,<target_pf>,<value>` matching the CSV field
    order (see output_stream)."""
    with output_stream(path_or_stream) as stream:
        stream.write(f"{threshold.detector.value},{threshold.target_pf!r},"
                     f"{threshold.value!r}\n")


def read_threshold_file(path):
    """Parse a threshold file back into a Threshold.

    The format does not carry the calibration sample size, so the returned
    Threshold records calibration_trials=1 as a placeholder.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        line = fh.readline().strip()
    parts = line.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            f"{path}: expected 'detector,target_pf,threshold' on one line"
        )
    try:
        detector = DetectorKind(parts[0])
        target_pf = float(parts[1])
        value = float(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"{path}: unparseable threshold file: {exc}") from exc
    return Threshold(value=value, target_pf=target_pf,
                     calibration_trials=1, detector=detector)
