"""Waveform generators and the AWGN channel.

Everything here is real passband sampling: a real carrier below Nyquist,
so the squared waveform carries a spectral line at twice the carrier and
cycle-frequency features appear at alpha = 2 * carrier_hz.

Generators are pure functions of (spec, n_samples, rate, seed) and
normalize their output to exactly unit average power, so channel SNR is
controlled by the noise variance alone.
"""

import math
from dataclasses import dataclass
from enum import Enum

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
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("sample buffer must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("sample buffer contains non-finite values")
        rate = float(self.sample_rate_hz)
        if not rate > 0.0 or not math.isfinite(rate):
            raise ConfigurationError("sample_rate_hz must be positive and finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
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
        _check_seed(self.seed)


def check_snr_db(snr_db) -> None:
    """Refuse NaN and finite SNRs beyond SNR_DB_LIMIT; +-inf stay legal."""
    if not (abs(snr_db) <= SNR_DB_LIMIT or math.isinf(snr_db)):
        raise ConfigurationError(
            f"snr_db must be +-inf or within +-{SNR_DB_LIMIT} dB, got {snr_db!r}")


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError("seed must be a nonnegative integer")


def _check_generator_args(spec, expected_kind, n_samples, sample_rate_hz, seed) -> None:
    if spec.kind is not expected_kind:
        raise ConfigurationError(
            f"modulation spec is {spec.kind.value}, expected {expected_kind.value}"
        )
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ConfigurationError("n_samples must be a positive integer")
    if not sample_rate_hz > 0.0:
        raise ConfigurationError("sample_rate_hz must be positive")
    if not spec.carrier_hz < sample_rate_hz / 2.0:
        raise ConfigurationError(
            f"carrier_hz={spec.carrier_hz} is at or above Nyquist "
            f"({sample_rate_hz / 2.0} Hz)"
        )
    _check_seed(seed)


def _bandlimited_message(bandwidth_hz, n_samples, sample_rate_hz, seed):
    """Zero-mean, unit-RMS Gaussian message, brick-wall lowpassed.

    White Gaussian noise is filtered in the frequency domain: bins above
    bandwidth_hz and the DC bin are zeroed, which makes the mean exactly
    zero and the spectral support exact.
    """
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=n_samples)
    spectrum = np.fft.rfft(raw)
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate_hz)
    spectrum[freqs > bandwidth_hz] = 0.0
    spectrum[0] = 0.0
    message = np.fft.irfft(spectrum, n_samples)
    rms = math.sqrt(float(np.mean(np.square(message))))
    if rms == 0.0:
        raise ConfigurationError(
            "bandwidth_hz is below the frequency resolution; "
            "no message content survives the brick-wall filter"
        )
    return message / rms


def generate_am(spec: ModulationSpec, n_samples: int, sample_rate_hz: float,
                seed: int) -> SampleBuffer:
    """Real passband AM: (1 + mu * m[k]) * cos(2 pi fc k Ts).

    The message m is zero-mean unit-RMS Gaussian noise brick-wall filtered
    to spec.bandwidth_hz (see _bandlimited_message).  With mod index 0 the
    output degenerates to a pure carrier and no message is drawn.  The
    buffer is rescaled to unit average power.
    """
    _check_generator_args(spec, ModulationKind.AM, n_samples, sample_rate_hz, seed)
    k = np.arange(n_samples)
    carrier = np.cos(2.0 * np.pi * (spec.carrier_hz / sample_rate_hz) * k)
    if spec.am_mod_index > 0.0:
        message = _bandlimited_message(spec.bandwidth_hz, n_samples, sample_rate_hz, seed)
        x = (1.0 + spec.am_mod_index * message) * carrier
    else:
        x = carrier
    x = x / math.sqrt(float(np.mean(np.square(x))))
    return SampleBuffer(x, sample_rate_hz)


def generate_bpsk(spec: ModulationSpec, n_samples: int, sample_rate_hz: float,
                  seed: int) -> SampleBuffer:
    """Rectangular-pulse BPSK: equiprobable +-1 symbols on a cosine carrier.

    Symbol k of the sequence covers samples with floor(i * rate_ratio) == k;
    one symbol can span the whole buffer when the symbol rate is low enough,
    in which case the output is a pure carrier up to sign.  Unit average
    power, deterministic given seed.
    """
    _check_generator_args(spec, ModulationKind.BPSK, n_samples, sample_rate_hz, seed)
    if not spec.symbol_rate_hz < sample_rate_hz:
        raise ConfigurationError(
            f"symbol_rate_hz={spec.symbol_rate_hz} must be below "
            f"sample_rate_hz={sample_rate_hz}"
        )
    rng = np.random.default_rng(seed)
    k = np.arange(n_samples)
    symbol_index = (k * (spec.symbol_rate_hz / sample_rate_hz)).astype(np.int64)
    symbols = rng.integers(0, 2, int(symbol_index[-1]) + 1) * 2 - 1
    x = symbols[symbol_index] * np.cos(2.0 * np.pi * (spec.carrier_hz / sample_rate_hz) * k)
    x = x / math.sqrt(float(np.mean(np.square(x))))
    return SampleBuffer(x, sample_rate_hz)


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
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ConfigurationError("n_samples must be a positive integer")
    if not variance > 0.0:
        raise ConfigurationError("variance must be positive")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    return SampleBuffer(rng.normal(0.0, math.sqrt(variance), n_samples), sample_rate_hz)


def write_signal_file(buffer: SampleBuffer, path) -> None:
    """One repr'd sample per line after a `# sample_rate_hz=` header."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{_SIGNAL_FILE_HEADER}{buffer.sample_rate_hz!r}\n")
        for value in buffer.samples:
            fh.write(f"{float(value)!r}\n")


def read_signal_file(path) -> SampleBuffer:
    """Inverse of write_signal_file. Raises ConfigurationError on bad format."""
    with open(path, "r") as fh:
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
    return SampleBuffer(np.asarray(samples), rate)
