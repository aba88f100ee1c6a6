"""O(N^2) reference implementations the fast estimator is tested against.

They share no code with the package beyond the type definitions, so a
defect in the FFT path cannot hide in both.
"""

import numpy as np

from cyclosense import ConfigurationError, SampleBuffer, ScdSlice, SmoothingWindow, Spectrum


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
