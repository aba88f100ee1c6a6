"""Spectral correlation estimation at single cycle frequencies.

The estimator measures correlation between spectral components spaced a
cycle frequency apart: a frequency-smoothed average of
X(f + alpha/2) * conj(X(f - alpha/2)).  A modulated carrier concentrates
this correlation at alpha = 2 * carrier_hz, while stationary noise has
none at any alpha != 0, which is what makes the cycle-frequency axis a
detection domain.  The estimate keeps the exact symmetry S^-alpha(f) =
conj(S^alpha(f)) bit for bit, so a profile computes each |alpha| once.

Frequency indexing is bounded to the sampled band: spectra live on signed
bins -N/2 .. N/2-1 and smoothing terms whose shifted index falls outside
contribute zero.  Wrapping mod N instead would alias every genuine
feature at alpha into a second, equal-magnitude feature at
alpha -/+ sample_rate (the wrapped pairing picks up the negative-frequency
image), leaving profile maxima ambiguous.  The cost is that slice values
within L/2 bins of the band edges are averaged over fewer terms.

SliceWork alone owns the grid of N samples at rate fs: bin width Fs = fs/N, scale
1/((N-1) Ts) at Ts = 1/fs, the shift a = round(alpha / (2 Fs)) (ties to even) of
a cycle frequency, reported as alpha_effective_hz = 2 a Fs and refused when |a| >
(N-1)/2 as no two in-band bins are further apart, and profile's grid of 2 a Fs.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .siggen import SampleBuffer, check_length_and_rate, read_only, write_lines

# Rows per smoothed_slices call in cycle_profile and the trial engine.  At
# N = 4096 and L = 1301 the engine's block buffers take about 1.2 MB; more
# rows buy little speed and cost peak memory.
BLOCK_ROWS = 4

__all__ = [
    "WindowKind",
    "SmoothingWindow",
    "ScdSlice",
    "CycleProfile",
    "SliceWork",
    "dft",
    "make_window",
    "smoothed_slices",
    "scd_slice",
    "cycle_profile",
    "write_profile_csv",
]


class WindowKind(Enum):
    HAMMING = "hamming"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "weights", read_only(arr))

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
        object.__setattr__(self, "values", read_only(arr))

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
        object.__setattr__(self, "alphas_hz", read_only(alphas))
        object.__setattr__(self, "magnitudes", read_only(mags))


def dft(signal: SampleBuffer) -> np.ndarray:
    """Unnormalized forward transform, read-only: bins[v] = sum_k x[k] e^{-i2pi vk/N}."""
    return read_only(np.fft.fft(signal.samples))


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
def _window_transform(window: SmoothingWindow, nfft: int) -> np.ndarray:
    return read_only(np.fft.fft(window.weights, nfft))


class SliceWork:
    """The grid of n samples at sample_rate_hz, and the buffers of smoothed_slices
    for blocks of up to `rows` slices.  Refuses, in this order, a length or rate no
    buffer has, a bin width, a window and a scale 1 / ((n-1) * Ts) the grid cannot hold.

    Reusing one across calls spares each slice its ~100 KB temporaries,
    which glibc would otherwise map, fault in and unmap every time.
    """

    def __init__(self, rows: int, n: int, sample_rate_hz: float, window: SmoothingWindow):
        check_length_and_rate(n, sample_rate_hz)
        if not sample_rate_hz / n:
            raise ConfigurationError(f"bin width {sample_rate_hz!r} Hz / {n} underflows to 0 Hz")
        check_window(window.kind, window.length, n)
        self.scale = 1.0 / ((n - 1) * (1.0 / sample_rate_hz))
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"slice scale 1/((n-1) Ts) = {self.scale!r} is not "
                                     "positive and finite")
        self.n = n
        self.bin_width = sample_rate_hz / n
        self.max_shift = (n - 1) // 2
        self.window = window
        nfft = n if window.length == 1 else _next_pow2(n + window.length - 1)
        self.transform = None if window.length == 1 else _window_transform(window, nfft)
        self.centered = np.empty(n, dtype=np.complex128)
        self.products = np.empty((rows, nfft), dtype=np.complex128)
        self.magnitudes = np.empty((rows, n))

    def shift(self, alpha_hz: float) -> int:
        """The bin shift round(alpha_hz / (2 Fs)), ties to even; refused beyond
        max_shift = (n-1) // 2, where no two in-band bins pair up."""
        shift = float(alpha_hz) / (2.0 * self.bin_width)
        if not (math.isfinite(shift) and abs(round(shift)) <= self.max_shift):
            raise ConfigurationError(
                f"cycle frequency {float(alpha_hz)!r} Hz is a shift of {shift:.6g} bins; "
                f"no two of {self.n} in-band bins are more than {self.max_shift} apart")
        return int(round(shift))

    def grid(self, alpha_max_hz=None, alpha_step_hz=None) -> np.ndarray:
        """profile's cycle frequencies 2 a Fs: every round(alpha_step_hz / (2 Fs))-th
        shift a in -max_shift .. max_shift with 2 |a| Fs <= alpha_max_hz (default: all)."""
        step = 2.0 * self.bin_width
        top = self.max_shift
        # clamped to the grid before int() and round(), which overflow at tiny rates
        if alpha_max_hz is not None:
            top = int(min(top, alpha_max_hz // step))
        stride = 1
        if alpha_step_hz is not None:
            stride = max(1, round(min(2 * top + 1, alpha_step_hz / step)))
        return np.arange(-top, top + 1, stride) * step

    def peaks(self, values: np.ndarray) -> np.ndarray:
        """Max |value| of each row of a block smoothed_slices returned."""
        with np.errstate(over="ignore"):
            return np.abs(values, out=self.magnitudes[:values.shape[0]]).max(axis=1)


def smoothed_slices(spectra: np.ndarray, shifts, work: SliceWork) -> np.ndarray:
    """Core kernel: scale * (1/L) sum_v X<i+a+v> conj(X<i-a+v>) W(v), a block at a time.

    spectra holds DFT-order bins, one row per shift, or one spectrum that
    every row shares; shifts gives each row's bin shift a.  Each row is
    formed at |a| in signed-bin (fftshifted) order, zero outside the band,
    smoothed by one batched FFT pair (a linear convolution, as the window is
    symmetric), then conjugated where a < 0, as S^-a = conj(S^a).  Returns a
    (len(shifts), n) view of work's buffers in signed-bin order, valid
    until work is used again.  Overflow yields inf or nan, not a warning;
    callers check finiteness where they need it.  Requires every
    |a| <= (n-1)/2, which SliceWork.shift guarantees.
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
            np.conj(centered[:n - 2 * a], out=row[a:n - a])
            np.multiply(centered[2 * a:], row[a:n - a], out=row[a:n - a])
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
    for row, shift in zip(values, shifts):
        if shift < 0:
            np.conj(row, out=row)
    return values


def scd_slice(signal: SampleBuffer, alpha_hz: float, window: SmoothingWindow) -> ScdSlice:
    """Frequency-smoothed spectral correlation of signal at one cycle frequency.

    values[l] = scale * (1/L) * sum_v X<s(l)+a+v> * conj(X<s(l)-a+v>) * W(v)

    where X<i> is dft(signal) on signed bins (zero outside the band), s(l) is
    the signed bin l, and the buffer's grid, work = SliceWork(1, N, rate, window),
    gives a = work.shift(alpha_hz), scale = work.scale and Fs = work.bin_width.
    The quantized cycle frequency 2*a*Fs is reported as alpha_effective_hz.
    """
    work = SliceWork(1, len(signal), signal.sample_rate_hz, window)
    shift = work.shift(alpha_hz)
    values = smoothed_slices(dft(signal), [shift], work)[0]
    return ScdSlice(
        values=np.fft.ifftshift(values),
        alpha_requested_hz=float(alpha_hz),
        alpha_effective_hz=2.0 * shift * work.bin_width,
        scale=work.scale,
    )


def cycle_profile(signal: SampleBuffer, alphas_hz, window: SmoothingWindow) -> CycleProfile:
    """Max slice magnitude over frequency per requested cycle frequency; each |alpha| runs once."""
    alphas = np.asarray(alphas_hz, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ConfigurationError("alphas_hz must be a nonempty 1-D sequence")
    work = SliceWork(BLOCK_ROWS, len(signal), signal.sample_rate_hz, window)
    shifts = [abs(work.shift(alpha)) for alpha in alphas]
    bins = dft(signal)
    distinct = list(dict.fromkeys(shifts))
    peaks = np.empty(max(distinct) + 1)
    for first in range(0, len(distinct), BLOCK_ROWS):
        block = distinct[first:first + BLOCK_ROWS]
        peaks[block] = work.peaks(smoothed_slices(bins, block, work))
    return CycleProfile(alphas, peaks[shifts])


def write_profile_csv(profile: CycleProfile, path_or_stream) -> None:
    """Emit `alpha_hz,i_alpha` rows at full precision (see siggen.write_lines)."""
    write_lines(["alpha_hz,i_alpha\n", *(f"{alpha!r},{mag!r}\n" for alpha, mag in zip(
        profile.alphas_hz.tolist(), profile.magnitudes.tolist()))], path_or_stream)
