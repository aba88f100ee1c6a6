"""Waveform generators and the AWGN channel.

Everything here is real passband sampling: a real carrier below Nyquist,
so the squared waveform carries a spectral line at twice the carrier and
cycle-frequency features appear at alpha = 2 * carrier_hz.

Generators are pure functions of (spec, n_samples, rate, seed) and
normalize their output to exactly unit average power, so channel SNR is
controlled by the noise variance alone.
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ModulationKind",
    "SampleBuffer",
    "ModulationSpec",
    "ChannelSpec",
    "generate_am",
    "generate_bpsk",
    "generate_signal",
    "add_awgn",
    "noise_only",
    "read_signal_file",
    "write_signal_file",
]

_SIGNAL_FILE_HEADER = "# sample_rate_hz="

# Largest finite |SNR|: 10^(snr_db/10) stays well inside the float range,
# so noise variances derived from it neither overflow nor underflow.
SNR_DB_LIMIT = 3000.0


class ModulationKind(Enum):
    AM = "am"
    BPSK = "bpsk"


@dataclass(frozen=True)
class SampleBuffer:
    """Real-valued time series together with its sampling rate.

    The sample array is copied on construction and marked read-only, so
    buffers can be shared freely between concurrent trial workers.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError("sample buffer must be a 1-D sequence")
        rate = float(self.sample_rate_hz)
        check_length_and_rate(arr.size, rate)
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("sample buffer contains non-finite values")
        object.__setattr__(self, "samples", read_only(arr))
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    @property
    def average_power(self) -> float:
        """Mean square of the samples."""
        return float(np.mean(np.square(self.samples)))


@dataclass(frozen=True)
class ModulationSpec:
    """Parameters of the primary-user waveform.

    bandwidth_hz is the one-sided message bandwidth for AM (occupied RF
    bandwidth is twice that).  am_mod_index applies to AM only and
    symbol_rate_hz to BPSK only; the unused field is ignored.
    """

    kind: ModulationKind
    carrier_hz: float
    bandwidth_hz: float
    am_mod_index: float = 0.5
    symbol_rate_hz: float = 10e3

    def __post_init__(self):
        if not isinstance(self.kind, ModulationKind):
            raise ConfigurationError("kind must be a ModulationKind")
        if not self.carrier_hz > 0.0:
            raise ConfigurationError("carrier_hz must be positive")
        if not self.bandwidth_hz > 0.0:
            raise ConfigurationError("bandwidth_hz must be positive")
        if not self.bandwidth_hz < self.carrier_hz:
            raise ConfigurationError("bandwidth_hz must be smaller than carrier_hz")
        if not 0.0 <= self.am_mod_index <= 1.0:
            raise ConfigurationError("am_mod_index must lie in [0, 1]")
        if not self.symbol_rate_hz > 0.0:
            raise ConfigurationError("symbol_rate_hz must be positive")


@dataclass(frozen=True)
class ChannelSpec:
    """AWGN channel: SNR in dB over the full sampling bandwidth, plus the
    seed that fully determines the noise realization."""

    snr_db: float
    seed: int

    def __post_init__(self):
        check_snr_db(self.snr_db)
        check_seed(self.seed)


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only so that it can be shared or cached."""
    arr.flags.writeable = False
    return arr


def check_snr_db(snr_db) -> None:
    """The SNR rule: +inf (no noise) or finite to +-SNR_DB_LIMIT; -inf makes no finite buffer."""
    if not (abs(snr_db) <= SNR_DB_LIMIT or snr_db == math.inf):
        raise ConfigurationError(
            f"snr_db must be +inf or within +-{SNR_DB_LIMIT} dB, got {snr_db!r}")


def check_noise_variance(variance) -> None:
    """The noise-variance rule: positive and finite."""
    if not (variance > 0.0 and math.isfinite(variance)):
        raise ConfigurationError(f"noise variance must be positive and finite, got {variance!r}")


def check_seed(seed) -> None:
    """The one seed rule, for trial and master seeds alike: a nonnegative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")


def check_length_and_rate(n_samples, sample_rate_hz) -> None:
    """The rule every buffer meets: a positive integer length, a positive finite rate."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ConfigurationError("n_samples must be a positive integer")
    if not (sample_rate_hz > 0.0 and math.isfinite(sample_rate_hz)):
        raise ConfigurationError("sample_rate_hz must be positive and finite")


def check_buffer_shape(buffer: SampleBuffer, n_samples, sample_rate_hz) -> None:
    """The rule a buffer fed to a config meets: the config's length and rate."""
    if len(buffer) != n_samples or buffer.sample_rate_hz != sample_rate_hz:
        raise ConfigurationError(
            f"buffer of {len(buffer)} samples at {buffer.sample_rate_hz!r} Hz does not "
            f"match the config's {n_samples} samples at {sample_rate_hz!r} Hz")


def check_waveform(spec: ModulationSpec, n_samples, sample_rate_hz) -> None:
    """Every rule a buffer generated from spec needs.  An AM message is
    brick-wall filtered on the rfft grid, whose first bin is 1 / (n Ts)."""
    check_length_and_rate(n_samples, sample_rate_hz)
    if not spec.carrier_hz < sample_rate_hz / 2.0:
        raise ConfigurationError(f"carrier_hz={spec.carrier_hz} is at or above Nyquist "
                                 f"({sample_rate_hz / 2.0} Hz)")
    if spec.kind is ModulationKind.BPSK and not spec.symbol_rate_hz < sample_rate_hz:
        raise ConfigurationError(f"symbol_rate_hz={spec.symbol_rate_hz} must be below "
                                 f"sample_rate_hz={sample_rate_hz}")
    if (spec.kind is ModulationKind.AM and spec.am_mod_index > 0.0
            and not 1.0 / (n_samples * (1.0 / sample_rate_hz)) <= spec.bandwidth_hz):
        raise ConfigurationError(
            f"bandwidth_hz={spec.bandwidth_hz} is below the frequency resolution of "
            f"{n_samples} samples at {sample_rate_hz} Hz; no message content survives")


def _modulated(spec, kind, envelope, n_samples, sample_rate_hz, seed) -> SampleBuffer:
    """The one synthesis body: envelope(spec, k, rate, seed) times the cosine
    carrier, rescaled to unit average power."""
    if spec.kind is not kind:
        raise ConfigurationError(f"modulation spec is {spec.kind.value}, expected {kind.value}")
    check_waveform(spec, n_samples, sample_rate_hz)
    check_seed(seed)
    x = (envelope(spec, np.arange(n_samples), sample_rate_hz, seed)
         * _carrier(n_samples, sample_rate_hz, spec.carrier_hz))
    return SampleBuffer(x / math.sqrt(float(np.mean(np.square(x)))), sample_rate_hz)


@lru_cache(maxsize=16)
def _carrier(n_samples, sample_rate_hz, carrier_hz) -> np.ndarray:
    return read_only(np.cos(2.0 * np.pi * (carrier_hz / sample_rate_hz) * np.arange(n_samples)))


@lru_cache(maxsize=16)
def _stopband(n_samples, sample_rate_hz, bandwidth_hz) -> np.ndarray:
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate_hz)
    return read_only((freqs > bandwidth_hz) | (freqs == 0.0))    # an AM message has no DC


def _am_envelope(spec, k, sample_rate_hz, seed):
    if spec.am_mod_index == 0.0:
        return 1.0
    spectrum = np.fft.rfft(np.random.default_rng(seed).normal(size=k.size))
    spectrum[_stopband(k.size, sample_rate_hz, spec.bandwidth_hz)] = 0.0
    message = np.fft.irfft(spectrum, k.size)
    return 1.0 + spec.am_mod_index * (message / math.sqrt(float(np.mean(np.square(message)))))


def _bpsk_envelope(spec, k, sample_rate_hz, seed):
    symbol_index = (k * (spec.symbol_rate_hz / sample_rate_hz)).astype(np.int64)
    symbols = np.random.default_rng(seed).integers(0, 2, int(symbol_index[-1]) + 1) * 2 - 1
    return symbols[symbol_index]


def generate_am(spec: ModulationSpec, n_samples: int, sample_rate_hz: float,
                seed: int) -> SampleBuffer:
    """Real passband AM: (1 + mu * m[k]) * cos(2 pi fc k Ts), at unit average power.

    The message m is zero-mean, unit-RMS Gaussian noise, brick-wall filtered
    in the frequency domain: bins above spec.bandwidth_hz and the DC bin are
    zeroed, which makes the mean exactly zero and the spectral support exact.
    With mod index 0 no message is drawn and the output is a pure carrier.
    """
    return _modulated(spec, ModulationKind.AM, _am_envelope, n_samples, sample_rate_hz, seed)


def generate_bpsk(spec: ModulationSpec, n_samples: int, sample_rate_hz: float,
                  seed: int) -> SampleBuffer:
    """Rectangular-pulse BPSK: equiprobable +-1 symbols on a cosine carrier.

    Symbol k of the sequence covers samples with floor(i * rate_ratio) == k;
    one symbol can span the whole buffer when the symbol rate is low enough,
    in which case the output is a pure carrier up to sign.  Unit average
    power, deterministic given seed.
    """
    return _modulated(spec, ModulationKind.BPSK, _bpsk_envelope, n_samples, sample_rate_hz,
                      seed)


def generate_signal(spec: ModulationSpec, n_samples: int, sample_rate_hz: float,
                    seed: int) -> SampleBuffer:
    """The generator for spec.kind: generate_am or generate_bpsk."""
    if spec.kind is ModulationKind.AM:
        return generate_am(spec, n_samples, sample_rate_hz, seed)
    return generate_bpsk(spec, n_samples, sample_rate_hz, seed)


def add_awgn(signal: SampleBuffer, channel: ChannelSpec) -> SampleBuffer:
    """Add white Gaussian noise at the channel's SNR.

    Noise variance is P_signal / 10^(snr_db / 10) with P_signal measured
    from the buffer, so scaling the input by c scales the noise variance
    by c^2 and the SNR is invariant.  Infinite SNR returns the input
    samples unchanged.
    """
    variance = signal.average_power / (10.0 ** (channel.snr_db / 10.0))
    if variance == 0.0:
        return SampleBuffer(signal.samples, signal.sample_rate_hz)
    rng = np.random.default_rng(channel.seed)
    noise = rng.normal(0.0, math.sqrt(variance), signal.samples.size)
    return SampleBuffer(signal.samples + noise, signal.sample_rate_hz)


def noise_only(n_samples: int, variance: float, seed: int,
               sample_rate_hz: float = 1.0) -> SampleBuffer:
    """I.i.d. zero-mean Gaussian buffer with the given variance.

    sample_rate_hz defaults to 1.0 (dimensionless buffer); pass the real
    rate when the buffer feeds frequency-domain processing.
    """
    check_length_and_rate(n_samples, sample_rate_hz)
    check_noise_variance(variance)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return SampleBuffer(rng.normal(0.0, math.sqrt(variance), n_samples), sample_rate_hz)


def write_lines(lines, path_or_stream) -> None:
    """Write newline-ended lines to the file at a path, with "\\n" line ends, to a
    text stream, or for None to sys.stdout, looked up at call time."""
    if path_or_stream is None:
        path_or_stream = sys.stdout
    if hasattr(path_or_stream, "write"):
        return path_or_stream.writelines(lines)
    with open(path_or_stream, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def open_text(path):
    """The file at path, opened for reading as UTF-8.  A byte that is not
    UTF-8 reads as U+FFFD, which no header, sample or threshold field parses."""
    return open(path, "r", encoding="utf-8", errors="replace")


def write_signal_file(buffer: SampleBuffer, path_or_stream) -> None:
    """One repr'd sample per line after a `# sample_rate_hz=` header (see write_lines)."""
    write_lines([f"{_SIGNAL_FILE_HEADER}{buffer.sample_rate_hz!r}\n",
                 *(f"{value!r}\n" for value in buffer.samples.tolist())], path_or_stream)


def read_signal_file(path) -> SampleBuffer:
    """Inverse of write_signal_file; a file it refuses is named in the error."""
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
        lines = fh.read().removesuffix("\n").split("\n")
    try:
        samples = np.array(lines, dtype=np.float64)    # by float()'s rules, in one call
    except ValueError:
        # a blank line, a separator that str.strip removes or a bad token: the
        # line loop reads the file or names the line it refuses
        samples = []
        for lineno, line in enumerate(lines, start=2):
            text = line.strip()
            if not text:
                continue
            try:
                samples.append(float(text))
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: unparseable sample value {text!r}"
                ) from exc
    if not len(samples):
        raise ConfigurationError(f"{path}: no samples in file")
    try:
        return SampleBuffer(samples, rate)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
