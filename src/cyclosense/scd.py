"""Spectral correlation estimation at single cycle frequencies.

The estimator measures correlation between spectral components spaced a
cycle frequency apart: a frequency-smoothed average of
X(f + alpha/2) * conj(X(f - alpha/2)).  A modulated carrier concentrates
this correlation at alpha = 2 * carrier_hz, while stationary noise has
none at any alpha != 0, which is what makes the cycle-frequency axis a
detection domain.

Frequency indexing is bounded to the sampled band: spectra live on signed
bins -N/2 .. N/2-1 and smoothing terms whose shifted index falls outside
contribute zero.  Wrapping mod N instead would alias every genuine
feature at alpha into a second, equal-magnitude feature at
alpha -/+ sample_rate (the wrapped pairing picks up the negative-frequency
image), leaving profile maxima ambiguous.  The cost is that slice values
within L/2 bins of the band edges are averaged over fewer terms.

cycle_shift alone maps a cycle frequency onto the grid: the bin shift
a = round(alpha / (2 Fs)) (ties to even), refused when |a| > (N-1)/2,
since no two in-band bins are further apart.  The quantized value
2 * a * Fs is reported as alpha_effective_hz.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .siggen import SampleBuffer

# Rows per smoothed_slices call in cycle_profile and the trial engine.  At
# N = 4096 and L = 1301 the engine's block buffers take about 1.2 MB; more
# rows buy little speed and cost peak memory.
BLOCK_ROWS = 4

__all__ = [
    "WindowKind",
    "Spectrum",
    "SmoothingWindow",
    "ScdSlice",
    "CycleProfile",
    "SliceWork",
    "dft",
    "make_window",
    "max_cycle_shift",
    "cycle_shift",
    "smoothed_slices",
    "scd_slice",
    "cycle_profile",
    "write_profile_csv",
]


class WindowKind(Enum):
    HAMMING = "hamming"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT bins of a sample buffer, in standard DFT order."""

    bins: np.ndarray
    n: int
    freq_resolution_hz: float

    def __post_init__(self):
        arr = np.array(self.bins, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("spectrum must be a nonempty 1-D sequence")
        if arr.size != self.n:
            raise ConfigurationError("spectrum length must equal n")
        if not self.freq_resolution_hz > 0.0:
            raise ConfigurationError("freq_resolution_hz must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)


@dataclass(frozen=True)
class SmoothingWindow:
    """Odd-length symmetric spectral smoothing window with unit mean."""

    weights: np.ndarray
    kind: WindowKind

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or arr.size % 2 == 0:
            raise ConfigurationError("window weights must have odd positive length")
        if not np.array_equal(arr, arr[::-1]):
            raise ConfigurationError("window weights must be symmetric")
        if abs(float(np.mean(arr)) - 1.0) > 1e-12:
            raise ConfigurationError("window weights must average to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @property
    def length(self) -> int:
        return self.weights.size

    @property
    def half(self) -> int:
        return (self.weights.size - 1) // 2


@dataclass(frozen=True)
class ScdSlice:
    """Smoothed spectral correlation over frequency at one cycle frequency.

    values[l] follows DFT bin order (l=0 is DC); scale is the fixed
    1 / ((N-1) Ts) factor already applied to the values.
    """

    values: np.ndarray
    alpha_requested_hz: float
    alpha_effective_hz: float
    scale: float

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("slice values must be a nonempty 1-D sequence")
        if not self.scale > 0.0:
            raise ConfigurationError("scale must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CycleProfile:
    """Max slice magnitude over frequency, per cycle frequency."""

    alphas_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas_hz, dtype=np.float64)
        mags = np.array(self.magnitudes, dtype=np.float64)
        if alphas.ndim != 1 or mags.ndim != 1 or alphas.size != mags.size:
            raise ConfigurationError("profile arrays must be 1-D and equally long")
        if alphas.size == 0:
            raise ConfigurationError("profile must contain at least one point")
        if not np.all(np.isfinite(mags) & (mags >= 0.0)):
            raise ConfigurationError(
                "profile magnitudes must be finite and nonnegative; "
                "the spectral correlation overflowed")
        alphas.flags.writeable = False
        mags.flags.writeable = False
        object.__setattr__(self, "alphas_hz", alphas)
        object.__setattr__(self, "magnitudes", mags)


def dft(signal: SampleBuffer) -> Spectrum:
    """Unnormalized forward transform: bins[v] = sum_k x[k] e^{-i2pi vk/N}."""
    n = signal.samples.size
    return Spectrum(np.fft.fft(signal.samples), n, signal.sample_rate_hz / n)


def check_window(kind: WindowKind, length: int, n: int | None = None) -> None:
    """The window rule, which builds nothing: a WindowKind, odd positive length, below n."""
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ConfigurationError("window length must be a positive integer")
    if length % 2 == 0:
        raise ConfigurationError(
            f"window length must be odd; use {length - 1} or {length + 1}"
        )
    if not isinstance(kind, WindowKind):
        raise ConfigurationError(f"unknown window kind: {kind!r}")
    if n is not None and not length < n:
        raise ConfigurationError(f"window length {length} must be below the transform size {n}")


def make_window(kind: WindowKind, length: int, n: int | None = None) -> SmoothingWindow:
    """The smoothing window of kind and length (below n if given), normalized to unit mean.

    Windows are immutable, so equal requests share one instance.  Hamming
    weights are mirrored about the center before normalization so the
    symmetry invariant holds exactly in floating point.
    """
    check_window(kind, length, n)
    return _window(kind, int(length))


@lru_cache(maxsize=16)
def _window(kind: WindowKind, length: int) -> SmoothingWindow:
    if kind is WindowKind.RECTANGULAR or length == 1:
        return SmoothingWindow(np.ones(length), kind)
    j = np.arange(length, dtype=np.float64)
    weights = 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (length - 1))
    half = (length - 1) // 2
    weights[half + 1:] = weights[half - 1::-1]
    weights *= length / weights.sum()
    return SmoothingWindow(weights, kind)


def _next_pow2(m: int) -> int:
    return 1 << (m - 1).bit_length()


@lru_cache(maxsize=16)
def _window_transform(weights_bytes: bytes, nfft: int) -> np.ndarray:
    w = np.frombuffer(weights_bytes, dtype=np.float64)
    out = np.fft.fft(w, nfft)
    out.flags.writeable = False
    return out


class SliceWork:
    """Settings and preallocated buffers of smoothed_slices: blocks of up to
    `rows` slices of n bins, smoothed by window and scaled by
    scale = 1 / ((n-1) * sample_period_s).

    Reusing one across calls spares each slice its ~100 KB temporaries,
    which glibc would otherwise map, fault in and unmap every time.
    """

    def __init__(self, rows: int, n: int, window: SmoothingWindow, sample_period_s: float):
        check_window(window.kind, window.length, n)
        period = (n - 1) * sample_period_s
        self.scale = 1.0 / period if period else 0.0
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"slice scale 1/((n-1) Ts) = {self.scale!r} is not "
                                     "positive and finite")
        self.n = n
        self.window = window
        nfft = n if window.length == 1 else _next_pow2(n + window.length - 1)
        self.transform = (None if window.length == 1
                          else _window_transform(window.weights.tobytes(), nfft))
        self.centered = np.empty(n, dtype=np.complex128)
        self.products = np.empty((rows, nfft), dtype=np.complex128)
        self.magnitudes = np.empty((rows, n))

    def peaks(self, values: np.ndarray) -> np.ndarray:
        """Max |value| of each row of a block smoothed_slices returned."""
        with np.errstate(over="ignore"):
            return np.abs(values, out=self.magnitudes[:values.shape[0]]).max(axis=1)


def max_cycle_shift(n: int) -> int:
    """The largest |bin shift| that pairs two in-band bins of an n-bin grid."""
    return (n - 1) // 2


def cycle_shift(alpha_hz: float, n: int, freq_resolution_hz: float) -> int:
    """The bin shift round(alpha_hz / (2 Fs)), ties to even, on an n-bin grid;
    refused beyond max_cycle_shift(n), where no two in-band bins pair up."""
    shift = float(alpha_hz) / (2.0 * freq_resolution_hz)
    if not (math.isfinite(shift) and abs(round(shift)) <= max_cycle_shift(n)):
        raise ConfigurationError(
            f"cycle frequency {float(alpha_hz)!r} Hz is a shift of {shift:.6g} bins; "
            f"no two of {n} in-band bins are more than {max_cycle_shift(n)} apart")
    return int(round(shift))


def smoothed_slices(spectra: np.ndarray, shifts, work: SliceWork) -> np.ndarray:
    """Core kernel: scale * (1/L) sum_v X<i+a+v> conj(X<i-a+v>) W(v), a block at a time.

    spectra holds DFT-order bins, one row per shift, or one spectrum that
    every row shares; shifts gives each row's bin shift a.  Each row is
    formed in signed-bin (fftshifted) order with zero padding outside the
    band; the smoothing sum is a linear convolution evaluated by one
    batched FFT pair (valid because the window is symmetric).  Returns a
    (len(shifts), n) view of work's buffers in signed-bin order, valid
    until work is used again.  Overflow yields inf or nan, not a warning;
    callers check finiteness where they need it.  Requires every
    |a| <= (n-1)/2, which cycle_shift guarantees.
    """
    rows = len(shifts)
    n = work.n
    low = n // 2
    centered = work.centered
    block = work.products[:rows]
    with np.errstate(over="ignore", invalid="ignore"):
        for row, bins, shift in zip(block, np.broadcast_to(spectra, (rows, n)), shifts):
            a = abs(shift)
            centered[low:] = bins[:n - low]
            centered[:low] = bins[n - low:]
            row[:a] = 0.0
            row[n - a:] = 0.0
            # explicit out= buffers: numpy's temporary elision would change
            # the last bit of a large `x * np.conj(y)`
            np.conj(centered[a - shift:n - a - shift], out=row[a:n - a])
            np.multiply(centered[a + shift:n - a + shift], row[a:n - a], out=row[a:n - a])
        if work.transform is None:
            # the single weight is 1 only to within SmoothingWindow's tolerance
            values = block
            np.multiply(values, work.window.weights[0], out=values)
        else:
            np.fft.fft(block, axis=-1, out=block)
            np.multiply(block, work.transform, out=block)
            np.fft.ifft(block, axis=-1, out=block)
            values = block[:, work.window.half:work.window.half + n]
        np.divide(values, work.window.length, out=values)
        np.multiply(values, work.scale, out=values)
    return values


def scd_slice(spectrum: Spectrum, alpha_hz: float, window: SmoothingWindow,
              sample_period_s: float) -> ScdSlice:
    """Frequency-smoothed spectral correlation at one cycle frequency.

    values[l] = scale * (1/L) * sum_v X<s(l)+a+v> * conj(X<s(l)-a+v>) * W(v)

    where a = cycle_shift(alpha_hz, N, Fs), s(l) is the signed
    interpretation of bin l, X<i> is the spectrum on signed bins (zero
    outside the band), and scale = 1 / ((N-1) * Ts).  The quantized cycle
    frequency 2*a*Fs is reported as alpha_effective_hz.
    """
    work = SliceWork(1, spectrum.n, window, sample_period_s)
    fres = spectrum.freq_resolution_hz
    shift = cycle_shift(alpha_hz, spectrum.n, fres)
    values = smoothed_slices(spectrum.bins, [shift], work)[0]
    return ScdSlice(
        values=np.fft.ifftshift(values),
        alpha_requested_hz=float(alpha_hz),
        alpha_effective_hz=2.0 * shift * fres,
        scale=work.scale,
    )


def cycle_profile(signal: SampleBuffer, alphas_hz, window: SmoothingWindow) -> CycleProfile:
    """Max slice magnitude over frequency for each requested cycle frequency."""
    alphas = np.asarray(alphas_hz, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ConfigurationError("alphas_hz must be a nonempty 1-D sequence")
    spectrum = dft(signal)
    work = SliceWork(BLOCK_ROWS, spectrum.n, window, 1.0 / signal.sample_rate_hz)
    shifts = [cycle_shift(alpha, spectrum.n, spectrum.freq_resolution_hz) for alpha in alphas]
    magnitudes = np.empty(alphas.size)
    for first in range(0, alphas.size, BLOCK_ROWS):
        block = shifts[first:first + BLOCK_ROWS]
        magnitudes[first:first + len(block)] = work.peaks(
            smoothed_slices(spectrum.bins, block, work))
    return CycleProfile(alphas, magnitudes)


def write_profile_csv(profile: CycleProfile, stream) -> None:
    """Emit `alpha_hz,i_alpha` rows at full precision to a text stream."""
    stream.write("alpha_hz,i_alpha\n")
    for alpha, mag in zip(profile.alphas_hz, profile.magnitudes):
        stream.write(f"{float(alpha)!r},{float(mag)!r}\n")
