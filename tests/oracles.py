"""Reference implementations the fast paths are tested against.

dft_naive and scd_slice_naive are O(N^2) oracles for the estimator.  They
share no code with the package beyond the type definitions, so a defect
in the FFT path cannot hide in both.

reference_phase_range is the per-trial engine that the blocked one
replaced: one buffer, one dft and one scd_slice per trial.  It shares
seeding, generation and the slice definition with the package, and checks
that blocking trials changes no bit of any metric.
"""

import numpy as np

from cyclosense import (ChannelSpec, ConfigurationError, DetectorKind, SampleBuffer,
                        ScdSlice, SmoothingWindow, Spectrum, add_awgn, cycle_metric, dft,
                        energy_metric, generate_signal, noise_only, scd_slice)
from cyclosense.harness import (DETECTORS, PHASE_H1, _cycle_window, _noise_variance,
                                _snr_token, derive_seed)


def dft_naive(signal: SampleBuffer) -> Spectrum:
    """Direct per-bin summation of the transform; O(N^2) oracle for dft."""
    x = signal.samples
    n = x.size
    k = np.arange(n)
    bins = np.empty(n, dtype=np.complex128)
    for v in range(n):
        bins[v] = np.sum(x * np.exp((-2j * np.pi * v / n) * k))
    return Spectrum(bins, n, signal.sample_rate_hz / n)


def scd_slice_naive(signal: SampleBuffer, alpha_hz: float,
                    window: SmoothingWindow) -> ScdSlice:
    """Same mathematical definition as scd_slice, evaluated the slow way.

    Explicit per-term loops over the naive DFT; independent oracle with no
    shared code beyond the type definitions.  O(N^2) transform plus
    O(N*L) smoothing, so keep N small.
    """
    n = signal.samples.size
    length = window.length
    if not length < n:
        raise ConfigurationError(
            f"window length {length} must be below the transform size {n}"
        )
    spectrum = dft_naive(signal)
    bins = spectrum.bins
    fres = spectrum.freq_resolution_hz
    shift = int(round(alpha_hz / (2.0 * fres)))
    half = (length - 1) // 2
    weights = window.weights
    low = -(n // 2)
    high = n - 1 - (n // 2)

    def bin_at(i: int) -> complex:
        if low <= i <= high:
            return complex(bins[i % n])
        return 0j

    ts = 1.0 / signal.sample_rate_hz
    scale = 1.0 / ((n - 1) * ts)
    values = np.empty(n, dtype=np.complex128)
    for l in range(n):
        center = l if l <= high else l - n
        acc = 0j
        for v in range(-half, half + 1):
            acc += (bin_at(center + shift + v)
                    * bin_at(center - shift + v).conjugate()
                    * weights[v + half])
        values[l] = acc * (scale / length)
    return ScdSlice(
        values=values,
        alpha_requested_hz=float(alpha_hz),
        alpha_effective_hz=2.0 * shift * fres,
        scale=scale,
    )


def _metrics(buffer: SampleBuffer, spectrum, detectors, alpha_hz: float, window) -> list:
    """Each detector's metric on one buffer, in the order of detectors.

    spectrum is dft(buffer), or None when the cycle detector is not scored.
    """
    return [cycle_metric(scd_slice(spectrum, alpha_hz, window, 1.0 / buffer.sample_rate_hz))
            if detector is DetectorKind.CYCLE_FEATURE else energy_metric(buffer)
            for detector in detectors]


def reference_phase_range(config, phase: int, snr_db: float | None,
                          start: int, stop: int, detectors=DETECTORS,
                          noise_variance: float | None = None) -> np.ndarray:
    """Metrics for trials [start, stop) of one phase, one row per detector,
    one trial at a time (same contract as harness._compute_phase_range)."""
    values = np.empty((len(detectors), stop - start))
    cycle = _cycle_window(config, detectors)
    window = None if cycle is None else cycle[0]
    token = 0 if snr_db is None else _snr_token(snr_db)
    variance = _noise_variance(snr_db) if noise_variance is None else noise_variance
    for i, trial in enumerate(range(start, stop)):
        if phase == PHASE_H1:
            signal = generate_signal(
                config.modulation, config.n_samples, config.sample_rate_hz,
                derive_seed(config.master_seed, phase, token, trial, 0))
            buffer = add_awgn(signal, ChannelSpec(
                snr_db, derive_seed(config.master_seed, phase, token, trial, 1)))
        elif variance == 0.0:
            # noise disabled: the H0 waveform is identically zero
            buffer = SampleBuffer(np.zeros(config.n_samples), config.sample_rate_hz)
        else:
            buffer = noise_only(
                config.n_samples, variance,
                derive_seed(config.master_seed, phase, token, trial, 0),
                config.sample_rate_hz)
        spectrum = None if window is None else dft(buffer)
        values[:, i] = [metric.value for metric in
                        _metrics(buffer, spectrum, detectors, config.alpha0_hz, window)]
    return values
