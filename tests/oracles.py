"""Reference implementations the fast paths are tested against.

dft_naive and scd_slice_naive are O(N^2) oracles for the estimator.  They
share no code with the package beyond reading its SampleBuffer and
make_window's weights, so a defect in the FFT path cannot hide in both.  They
take a window as its kind and length, as scd_slice does, and return plain
arrays; naive_shift and naive_scale are their own rules for the bin shift and
the scale, which tests compare with SliceWork's.
scd_bins_direct evaluates the same definition term by term at chosen output
bins, from numpy's transform, which reaches the reference size N = 4096,
L = 1301 that the O(N^2) oracle cannot.

reference_phase_range is the per-trial engine that the blocked one
replaced: one buffer, one dft and one scd_slice per trial.  It shares
seeding, generation and the slice definition with the package, and checks
that blocking trials changes no bit of any metric.  only(config, detector)
is config with that one detector, for the calls that score one.

read_signal_file_lines is the signal-file reader that the one-pass one
replaced: strip and float() line by line, straight from the open file.

profile_grid_arithmetic is the profile command's grid as the CLI computed it
before scd.SliceWork.grid took it over, with the bin width and the largest
shift written out.
"""

import dataclasses

import numpy as np

from cyclosense import (ConfigurationError, DetectorKind, SampleBuffer, WindowKind, add_awgn,
                        cycle_metric, energy_metric, generate_signal, make_window, noise_only,
                        scd_slice)
from cyclosense.harness import PHASE_H1, _noise_variance, _snr_token, derive_seed
from cyclosense.siggen import _SIGNAL_FILE_HEADER, open_text


def dft_naive(signal: SampleBuffer) -> np.ndarray:
    """Direct per-bin summation of the transform; O(N^2) oracle for dft."""
    x = signal.samples
    n = x.size
    k = np.arange(n)
    bins = np.empty(n, dtype=np.complex128)
    for v in range(n):
        bins[v] = np.sum(x * np.exp((-2j * np.pi * v / n) * k))
    return bins


def naive_shift(signal: SampleBuffer, alpha_hz: float) -> int:
    """The bin shift of alpha_hz as the definition writes it: alpha / (2 fs/N),
    rounded half to even; 2 * shift * fs/N is the quantized cycle frequency."""
    return int(round(alpha_hz / (2.0 * (signal.sample_rate_hz / signal.samples.size))))


def naive_scale(signal: SampleBuffer) -> float:
    """The definition's scale 1 / ((N-1) Ts) at Ts = 1/fs."""
    return 1.0 / ((signal.samples.size - 1) * (1.0 / signal.sample_rate_hz))


def scd_slice_naive(signal: SampleBuffer, alpha_hz: float, kind: WindowKind,
                    length: int) -> np.ndarray:
    """Same mathematical definition as scd_slice, evaluated the slow way.

    Explicit per-term loops over the naive DFT; independent oracle with no
    shared code.  O(N^2) transform plus O(N*L) smoothing, so keep N small.
    """
    n = signal.samples.size
    if not length < n:
        raise ConfigurationError(
            f"window length {length} must be below the transform size {n}"
        )
    return _definition(dft_naive(signal), naive_shift(signal, alpha_hz),
                       make_window(kind, length), naive_scale(signal), range(n))


def scd_bins_direct(signal: SampleBuffer, alpha_hz: float, kind: WindowKind, length: int,
                    out_bins) -> np.ndarray:
    """scd_slice's values at the DFT-order bins out_bins, evaluated term by
    term from np.fft.fft bins: O(L) per output bin."""
    return _definition(np.fft.fft(signal.samples), naive_shift(signal, alpha_hz),
                       make_window(kind, length), naive_scale(signal), out_bins)


def _definition(bins: np.ndarray, shift: int, weights: np.ndarray, scale: float,
                out_bins) -> np.ndarray:
    """scale * (1/L) * sum_v X<s(l)+a+v> * conj(X<s(l)-a+v>) * W(v) at each
    DFT-order bin l of out_bins, one term at a time, where X<i> is bins[i]
    for a signed bin i inside the band and 0 outside it."""
    n = bins.size
    length = weights.size
    half = (length - 1) // 2
    low = -(n // 2)
    high = n - 1 - (n // 2)

    def bin_at(i: int) -> complex:
        if low <= i <= high:
            return complex(bins[i % n])
        return 0j

    values = np.empty(len(out_bins), dtype=np.complex128)
    for out, l in enumerate(out_bins):
        center = l if l <= high else l - n
        acc = 0j
        for v in range(-half, half + 1):
            acc += (bin_at(center + shift + v)
                    * bin_at(center - shift + v).conjugate()
                    * weights[v + half])
        values[out] = acc * (scale / length)
    return values


def _metrics(buffer: SampleBuffer, detectors, alpha_hz: float, window) -> list:
    """Each detector's metric on one buffer, in the order of detectors."""
    return [cycle_metric(scd_slice(buffer, alpha_hz, *window))
            if detector is DetectorKind.CYCLE_FEATURE else energy_metric(buffer)
            for detector in detectors]


def only(config, detector):
    """config scoring detector alone."""
    return dataclasses.replace(config, detectors=(detector,))


def reference_phase_range(config, phase: int, snr_db: float | None,
                          start: int, stop: int,
                          noise_variance: float | None = None) -> np.ndarray:
    """Metrics for trials [start, stop) of one phase, one row per detector of
    config, one trial at a time (same contract as harness._compute_phase_range)."""
    detectors = config.detectors
    values = np.empty((len(detectors), stop - start))
    window = (config.window_kind, config.smoothing_len)
    token = 0 if snr_db is None else _snr_token(snr_db)
    variance = _noise_variance(snr_db) if noise_variance is None else noise_variance
    for i, trial in enumerate(range(start, stop)):
        if phase == PHASE_H1:
            signal = generate_signal(
                config.modulation, config.n_samples, config.sample_rate_hz,
                derive_seed(config.master_seed, phase, token, trial, 0))
            buffer = add_awgn(signal, snr_db,
                              derive_seed(config.master_seed, phase, token, trial, 1))
        else:
            buffer = noise_only(
                config.n_samples, variance,
                derive_seed(config.master_seed, phase, token, trial, 0),
                config.sample_rate_hz)
        values[:, i] = _metrics(buffer, detectors, config.alpha0_hz, window)
    return values


def read_signal_file_lines(path) -> SampleBuffer:
    """Same contract as siggen.read_signal_file, one line at a time."""
    with open_text(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(_SIGNAL_FILE_HEADER):
            raise ConfigurationError(
                f"{path}: missing '{_SIGNAL_FILE_HEADER}<value>' header line"
            )
        try:
            rate = float(header[len(_SIGNAL_FILE_HEADER):])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: unparseable sample rate in header") from exc
        samples = []
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            try:
                samples.append(float(text))
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: unparseable sample value {text!r}"
                ) from exc
    if not samples:
        raise ConfigurationError(f"{path}: no samples in file")
    try:
        return SampleBuffer(np.asarray(samples), rate)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def profile_grid_arithmetic(n: int, sample_rate_hz: float, alpha_max_hz=None,
                            alpha_step_hz=None) -> np.ndarray:
    """The profile command's alphas: shifts -max_shift .. max_shift times 2 Fs."""
    step = 2.0 * (sample_rate_hz / n)
    max_shift = (n - 1) // 2
    # clamped to the grid before int() and round(), which overflow at tiny rates
    if alpha_max_hz is not None:
        max_shift = int(min(max_shift, alpha_max_hz // step))
    stride = 1
    if alpha_step_hz is not None:
        stride = max(1, round(min(2 * max_shift + 1, alpha_step_hz / step)))
    shifts = np.arange(-max_shift, max_shift + 1, stride)
    return shifts * step
