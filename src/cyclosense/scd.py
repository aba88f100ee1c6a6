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
a cycle frequency, refused when |a| > (N-1)/2 as no two in-band bins are further
apart, and profile's grid of 2 a Fs.  scd_slice returns values only; a caller
reads the quantized cycle frequency 2 a Fs and the scale from a SliceWork.
A row at shift a has N - 2|a| nonzero products, and its N bins need only N + L//2 circular
columns, as its convolution's spill past the end wraps left of them.  SliceWork.serve(rows, nfft)
sizes every buffer: nfft(0) for scd_slice and the engine, and for profiles each class's power of
two or _profile_cap(N + L//2).
"""

import math
from enum import Enum
from functools import lru_cache
from itertools import groupby

import numpy as np

from .errors import ConfigurationError
from .siggen import SampleBuffer, check_length_and_rate, read_only, write_lines

# Rows per smoothed_slices call in cycle_profile and the trial engine.  At
# N = 4096 and L = 1301 the engine's block buffers take about 1.2 MB; more
# rows buy little speed and cost peak memory.
BLOCK_ROWS = 4

__all__ = [
    "WindowKind",
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


def make_window(kind: WindowKind, length: int, n: int | None = None) -> np.ndarray:
    """The read-only weights of the window of kind and length (below n if given),
    normalized to unit mean.  Equal requests share one array.  Hamming weights are
    mirrored about the center before normalization, so they are exactly symmetric.
    """
    check_window(kind, length, n)
    return _window(kind, int(length))


@lru_cache(maxsize=16)
def _window(kind: WindowKind, length: int) -> np.ndarray:
    if kind is WindowKind.RECTANGULAR or length == 1:
        return read_only(np.ones(length))
    j = np.arange(length, dtype=np.float64)
    weights = 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (length - 1))
    half = (length - 1) // 2
    weights[half + 1:] = weights[half - 1::-1]
    weights *= length / weights.sum()
    return read_only(weights)


# Only profile runs below nfft(0): scd_slice's and the engine's bits are recorded, and
# ROADMAP item 12 moves them.  Measured (numpy 2.4.6, 2-vCPU Xeon), profile's widest class
# ran in 0.76-0.99 of its power of two's time at 5-smooth sizes from 3/4 to 7/8 of 2048,
# 4096 or 8192, but in up to 1.20 times it above 7/8 (3888 against 4096).
@lru_cache(maxsize=16)
def _profile_cap(size: int) -> int:
    """profile's largest FFT size for size = N + L//2 (see SliceWork.serve): the smallest
    2**i * 3**j * 5**k >= size if at most 7/8 of the power of two >= size, else that power."""
    odds = [3 ** j * 5 ** k for j in range(size.bit_length()) for k in range(size.bit_length())]
    smooth = min(odd << (-(-size // odd) - 1).bit_length() for odd in odds)
    power = 1 << (size - 1).bit_length()
    return smooth if 8 * smooth <= 7 * power else power


# One window's sizes are the powers of two from 4 to nfft(0) < 2 n and profile's cap: at
# most 54 for n < 2**53, so a profile's classes never evict each other's transforms.
@lru_cache(maxsize=64)
def _window_transform(kind: WindowKind, length: int, nfft: int) -> np.ndarray:
    return read_only(np.fft.fft(_window(kind, length), nfft))


class SliceWork:
    """The grid of n samples at sample_rate_hz and make_window's weights of kind and length;
    serve sizes the buffers of smoothed_slices.  Refuses, in this order, a length or rate no
    buffer has, a bin width, a window (check_window's rule) and a scale 1 / ((n-1) * Ts) the
    grid cannot hold.

    Served at nfft(0), it holds every shift, all n bins; cycle_profile serves it per class.
    Reusing one across calls spares each slice its ~100 KB temporaries, which glibc would
    otherwise map, fault in and unmap every time.  glibc raises its mmap threshold only on
    freeing a mapped block (mallopt(3)), so serve frees a products-sized block untouched
    first: numpy's batched-FFT scratch then stays on the heap from the first call.
    """

    def __init__(self, n: int, sample_rate_hz: float, kind: WindowKind, length: int):
        check_length_and_rate(n, sample_rate_hz)
        if not sample_rate_hz / n:
            raise ConfigurationError(f"bin width {sample_rate_hz!r} Hz / {n} underflows to 0 Hz")
        weights = make_window(kind, length, n)
        self.scale = 1.0 / ((n - 1) * (1.0 / sample_rate_hz))
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"slice scale 1/((n-1) Ts) = {self.scale!r} is not "
                                     "positive and finite")
        self.n = n
        self.bin_width = sample_rate_hz / n
        self.max_shift = (n - 1) // 2
        self.kind, self.weights = kind, weights

    def nfft(self, shift: int) -> int:
        """The power of two that holds a row's linear convolution at |shift| (n if L = 1)."""
        length = self.weights.size
        return self.n if length == 1 else 1 << (self.n - 2 * abs(shift) + length - 2).bit_length()

    def serve(self, rows: int, nfft: int) -> None:
        """Make the buffers of blocks of up to rows slices at nfft, for |a| >= band: a row's
        products start at column |a| - band, its n bins at L//2 - band; held is the columns of
        those it holds (all n at band 0; the rest are 0).  band is the smaller of ceil((n + L -
        1 - nfft) / 2), where no row's convolution wraps, and n + L//2 - nfft, where its spill
        lands left of its bins (in columns <= L//2 - 1 - |a| at band 0), or 0 if negative."""
        n, length = self.n, self.weights.size
        self.band = max(0, min((n + length - nfft) // 2, n + length // 2 - nfft))
        self.transform = None if length == 1 else _window_transform(self.kind, length, nfft)
        self.centered = np.empty(n, dtype=np.complex128)
        np.empty((rows, nfft), dtype=np.complex128)  # freed untouched; see the docstring
        self.products = np.empty((rows, nfft), dtype=np.complex128)
        self.magnitudes = np.empty((rows, n))
        first = length // 2 - self.band
        self.held = slice(max(first, 0), min(first + n, nfft))

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
        shift a in -max_shift .. max_shift with 2 |a| Fs <= alpha_max_hz (default: all).
        Either bound, if given, must be positive and finite."""
        for name, value in (("alpha_max_hz", alpha_max_hz), ("alpha_step_hz", alpha_step_hz)):
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
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
            rows, width = values.shape
            return np.abs(values, out=self.magnitudes[:rows, :width]).max(axis=1)


def smoothed_slices(spectra: np.ndarray, shifts, work: SliceWork) -> np.ndarray:
    """Core kernel: scale * (1/L) sum_v X<i+a+v> conj(X<i-a+v>) W(v), a block at a time.

    spectra holds DFT-order bins, one row per shift, or one spectrum that
    every row shares (centred once a call); shifts gives each row's shift a.  Each row is
    formed at |a| in signed-bin (fftshifted) order, zero outside the band,
    smoothed by one batched FFT pair (a linear convolution, as the window is
    symmetric), then conjugated where a < 0, as S^-a = conj(S^a).  Returns work.held's
    columns of work's products, valid until work is used again: column j is fftshifted
    bin held.start - (L//2 - work.band) + j, all n bins at band 0, the rest exact zeros.
    Overflow yields inf or nan, not a warning; callers check finiteness where they need it.
    Requires every work.band <= |a| <= (n-1)/2; SliceWork.shift guarantees the upper bound.
    """
    rows = len(shifts)
    n = work.n
    low = n // 2
    centered = work.centered
    block = work.products[:rows]
    shared = spectra.ndim == 1
    if shared:  # one spectrum for every row: centred and conjugated once per call
        centered[low:] = spectra[:n - low]
        centered[:low] = spectra[n - low:]
        conj = np.conj(centered)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, bins, shift in zip(block, np.broadcast_to(spectra, (rows, n)), shifts):
            a = abs(shift)
            lo, hi = a - work.band, n - a - work.band
            row[:lo] = 0.0
            row[hi:] = 0.0
            # explicit out= buffers: numpy's temporary elision would change
            # the last bit of a large `x * np.conj(y)`
            if not shared:
                centered[low:] = bins[:n - low]
                centered[:low] = bins[n - low:]
                conj = np.conj(centered[:n - 2 * a], out=row[lo:hi])
            np.multiply(centered[2 * a:], conj[:n - 2 * a], out=row[lo:hi])
        if work.transform is not None:
            np.fft.fft(block, axis=-1, out=block)
            np.multiply(block, work.transform, out=block)
            np.fft.ifft(block, axis=-1, out=block)
        values = block[:, work.held]
        length = work.weights.size
        # numpy divides by L + 0j as (re + im*0) * fl(1/L): the same bits but a zero's sign
        np.multiply(values, 1.0 / length, out=values)
        np.multiply(values, work.scale, out=values)
    for row, shift in zip(values, shifts):
        if shift < 0:
            np.conj(row, out=row)
    return values


def scd_slice(signal: SampleBuffer, alpha_hz: float, kind: WindowKind, length: int) -> np.ndarray:
    """Frequency-smoothed spectral correlation of signal at one cycle frequency,
    read-only, in DFT bin order (index 0 is DC):

    values[l] = scale * (1/L) * sum_v X<s(l)+a+v> * conj(X<s(l)-a+v>) * W(v)

    where X<i> is dft(signal) on signed bins (zero outside the band), s(l) is
    the signed bin l, W is make_window(kind, length), L = length, and the
    buffer's grid, work = SliceWork(N, rate, kind, length), gives
    a = work.shift(alpha_hz), scale = work.scale and Fs = work.bin_width.
    """
    work = SliceWork(len(signal), signal.sample_rate_hz, kind, length)
    work.serve(1, work.nfft(0))
    row = smoothed_slices(dft(signal), [work.shift(alpha_hz)], work)[0]
    return read_only(np.fft.ifftshift(row))


def cycle_profile(signal: SampleBuffer, alphas_hz, kind: WindowKind, length: int) -> np.ndarray:
    """Max slice magnitude per alpha in alphas_hz, read-only; each |alpha| once, in its class."""
    alphas = np.asarray(alphas_hz, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ConfigurationError("alphas_hz must be a nonempty 1-D sequence")
    work = SliceWork(len(signal), signal.sample_rate_hz, kind, length)
    shifts = [abs(work.shift(alpha)) for alpha in alphas]
    bins = dft(signal)
    peaks = np.empty(max(shifts) + 1)
    cap = _profile_cap(work.n + work.weights.size // 2)
    for nfft, members in groupby(sorted(set(shifts)), lambda a: min(work.nfft(a), cap)):
        work.serve(BLOCK_ROWS, nfft)
        distinct = list(members)
        for first in range(0, len(distinct), BLOCK_ROWS):
            block = distinct[first:first + BLOCK_ROWS]
            peaks[block] = work.peaks(smoothed_slices(bins, block, work))
    magnitudes = peaks[shifts]
    if not np.isfinite(magnitudes).all():
        raise ConfigurationError("profile magnitudes must be finite and nonnegative; "
                                 "the spectral correlation overflowed")
    return read_only(magnitudes)


def write_profile_csv(alphas_hz, magnitudes, path_or_stream) -> None:
    """Emit `alpha_hz,i_alpha` rows at full precision (see siggen.write_lines).
    Refuses, before writing, arrays that are not 1-D and equally long."""
    alphas = np.asarray(alphas_hz, dtype=np.float64)
    mags = np.asarray(magnitudes, dtype=np.float64)
    if alphas.ndim != 1 or alphas.shape != mags.shape:
        raise ConfigurationError("profile arrays must be 1-D and equally long")
    write_lines(["alpha_hz,i_alpha\n", *(f"{alpha!r},{mag!r}\n" for alpha, mag in zip(
        alphas.tolist(), mags.tolist()))], path_or_stream)
