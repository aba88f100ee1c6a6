"""Waveform generator and channel tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclosense import (ChannelSpec, ConfigurationError, ModulationKind,
                        ModulationSpec, SampleBuffer, SensingConfig, add_awgn,
                        generate_am, generate_bpsk, generate_signal, noise_only,
                        read_signal_file, write_signal_file)
from cyclosense import siggen
from cyclosense.siggen import check_buffer_shape, check_noise_variance, check_waveform
from oracles import read_signal_file_lines


def am_spec(**kwargs):
    base = dict(kind=ModulationKind.AM, carrier_hz=1e6, bandwidth_hz=10e3)
    base.update(kwargs)
    return ModulationSpec(**base)


def bpsk_spec(**kwargs):
    base = dict(kind=ModulationKind.BPSK, carrier_hz=1e6, bandwidth_hz=10e3,
                symbol_rate_hz=10e3)
    base.update(kwargs)
    return ModulationSpec(**base)


class TestSampleBuffer:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.array([]), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.array([1.0, np.nan]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.ones(4), 0.0)

    def test_samples_are_immutable(self):
        buf = SampleBuffer(np.ones(4), 1.0)
        with pytest.raises(ValueError):
            buf.samples[0] = 2.0

    def test_owns_a_copy(self):
        src = np.ones(4)
        buf = SampleBuffer(src, 1.0)
        src[0] = 99.0
        assert buf.samples[0] == 1.0


class TestGenerateAm:
    def test_same_seed_bit_identical(self):
        a = generate_am(am_spec(), 4096, 3e6, seed=11)
        b = generate_am(am_spec(), 4096, 3e6, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a = generate_am(am_spec(), 4096, 3e6, seed=11)
        b = generate_am(am_spec(), 4096, 3e6, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_unit_average_power(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=5)
        assert abs(buf.average_power - 1.0) < 1e-12

    def test_default_buffer_duration(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=0)
        assert len(buf) == 4096
        assert buf.duration_s == 4096 / 3e6
        assert round(buf.duration_s * 1e3, 3) == 1.365

    def test_pure_carrier_spectral_placement(self):
        # mod index 0 with a bin-aligned carrier leaves only the two
        # carrier bins in the spectrum
        n = 4096
        rate = 3e6
        carrier_bin = 512
        spec = am_spec(carrier_hz=carrier_bin * rate / n, am_mod_index=0.0)
        buf = generate_am(spec, n, rate, seed=1)
        mags = np.abs(np.fft.fft(buf.samples))
        assert mags[carrier_bin] > n / 4
        assert mags[n - carrier_bin] > n / 4
        mags = mags.copy()
        mags[carrier_bin] = 0.0
        mags[n - carrier_bin] = 0.0
        assert np.all(mags < 1e-9)

    def test_mod_index_zero_is_normalized_cosine(self):
        n = 1024
        rate = 1e6
        spec = am_spec(carrier_hz=2e5, am_mod_index=0.0)
        buf = generate_am(spec, n, rate, seed=9)
        k = np.arange(n)
        raw = np.cos(2.0 * np.pi * (2e5 / rate) * k)
        expected = raw / math.sqrt(float(np.mean(np.square(raw))))
        assert np.array_equal(buf.samples, expected)

    def test_message_band_limited(self):
        # spectral support confined to carrier +- bandwidth (brick wall)
        n = 4096
        rate = 3e6
        spec = am_spec(carrier_hz=512 * rate / n, bandwidth_hz=20e3)
        buf = generate_am(spec, n, rate, seed=3)
        mags = np.abs(np.fft.fft(buf.samples))
        freqs = np.fft.fftfreq(n, 1.0 / rate)
        in_band = (np.abs(np.abs(freqs) - 512 * rate / n) <= 20e3 + rate / n)
        assert np.all(mags[~in_band] < 1e-9 * mags.max())

    def test_cached_carrier_and_stopband_keep_every_bit(self):
        # the carrier is cached per (n, rate, f_c) and the message's stopband
        # per (n, rate, B), both read-only; expected is the uncached formula
        spec, n, rate, seed = am_spec(), 4096, 3e6, 7
        spectrum = np.fft.rfft(np.random.default_rng(seed).normal(size=n))
        spectrum[np.fft.rfftfreq(n, 1.0 / rate) > spec.bandwidth_hz] = 0.0
        spectrum[0] = 0.0
        message = np.fft.irfft(spectrum, n)
        message /= math.sqrt(float(np.mean(np.square(message))))
        x = (1.0 + spec.am_mod_index * message) * np.cos(
            2.0 * np.pi * (spec.carrier_hz / rate) * np.arange(n))
        expected = x / math.sqrt(float(np.mean(np.square(x))))
        siggen._carrier.cache_clear()
        siggen._stopband.cache_clear()
        for _ in range(2):    # cold, then warm
            assert np.array_equal(generate_am(spec, n, rate, seed).samples, expected)
        assert not siggen._carrier(n, rate, spec.carrier_hz).flags.writeable
        assert not siggen._stopband(n, rate, spec.bandwidth_hz).flags.writeable

    def test_carrier_at_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(carrier_hz=1.5e6), 4096, 3e6, seed=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(), 0, 3e6, seed=0)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(bpsk_spec(), 4096, 3e6, seed=0)

    def test_bandwidth_below_resolution_rejected(self):
        # brick wall at 10 Hz on a 732 Hz grid leaves no message bins
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(bandwidth_hz=10.0), 4096, 3e6, seed=0)


class TestWaveformCheck:
    @settings(max_examples=300)
    @given(n=st.integers(1, 5000), rate=st.floats(1.0, 1e9),
           bins=st.just(1.0) | st.sampled_from([0.5, 2.0]) | st.floats(1e-3, 3.0),
           nudge=st.integers(-2, 2))
    def test_am_band_refused_exactly_when_the_filter_keeps_no_bin(
            self, n, rate, bins, nudge):
        # bandwidths near rate / n, which differs from the rfft grid's first
        # bin in its last bits for about a third of (n, rate), a few ulps
        # either side
        bandwidth = float(rate / n * bins)
        for _ in range(abs(nudge)):
            bandwidth = float(np.nextafter(bandwidth, math.copysign(math.inf, nudge)))
        carrier = (bandwidth + rate / 2.0) / 2.0
        assume(bandwidth < carrier < rate / 2.0)
        spec = am_spec(carrier_hz=carrier, bandwidth_hz=bandwidth)
        kept = np.fft.rfftfreq(n, 1.0 / rate)[1:] <= bandwidth
        if kept.any():
            check_waveform(spec, n, rate)
            assert abs(generate_am(spec, n, rate, seed=n).average_power - 1.0) < 1e-12
        else:
            with pytest.raises(ConfigurationError, match="bandwidth_hz"):
                check_waveform(spec, n, rate)

    def test_pure_carrier_is_not_held_to_the_message_band(self):
        spec = am_spec(bandwidth_hz=10.0, am_mod_index=0.0)
        check_waveform(spec, 4096, 3e6)
        assert abs(generate_am(spec, 4096, 3e6, seed=0).average_power - 1.0) < 1e-12


class TestLengthAndRate:
    """SampleBuffer, noise_only, the generators and SensingConfig share one rule."""

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate_refused_everywhere(self, rate):
        for build in (lambda: SampleBuffer(np.ones(4), rate),
                      lambda: noise_only(16, 1.0, seed=0, sample_rate_hz=rate),
                      lambda: generate_am(am_spec(), 16, rate, seed=0),
                      lambda: SensingConfig(sample_rate_hz=rate)):
            with pytest.raises(ConfigurationError, match="sample_rate_hz"):
                build()

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_bad_length_refused_everywhere(self, n):
        for build in (lambda: noise_only(n, 1.0, seed=0),
                      lambda: generate_bpsk(bpsk_spec(), n, 3e6, seed=0),
                      lambda: SensingConfig(n_samples=n)):
            with pytest.raises(ConfigurationError, match="n_samples"):
                build()


class TestModulationSpec:
    def test_bandwidth_must_be_below_carrier(self):
        with pytest.raises(ConfigurationError):
            am_spec(bandwidth_hz=2e6)

    def test_mod_index_range(self):
        with pytest.raises(ConfigurationError):
            am_spec(am_mod_index=1.5)
        with pytest.raises(ConfigurationError):
            am_spec(am_mod_index=-0.1)
        am_spec(am_mod_index=0.0)
        am_spec(am_mod_index=1.0)


class TestGenerateBpsk:
    def test_same_seed_bit_identical(self):
        a = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=2)
        b = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=2)
        assert np.array_equal(a.samples, b.samples)

    def test_unit_average_power(self):
        buf = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=8)
        assert abs(buf.average_power - 1.0) < 1e-12

    def test_single_symbol_is_carrier_up_to_sign(self):
        n = 2048
        rate = 1e6
        spec = bpsk_spec(carrier_hz=2e5, symbol_rate_hz=rate / (2 * n))
        carrier_spec = am_spec(carrier_hz=2e5, am_mod_index=0.0)
        for seed in range(6):
            bpsk = generate_bpsk(spec, n, rate, seed=seed)
            carrier = generate_am(carrier_spec, n, rate, seed=seed)
            matches = (np.array_equal(bpsk.samples, carrier.samples)
                       or np.array_equal(bpsk.samples, -carrier.samples))
            assert matches

    def test_symbols_are_piecewise_constant(self):
        n = 4000
        rate = 1e6
        spec = bpsk_spec(carrier_hz=2.5e5, symbol_rate_hz=1e3)
        buf = generate_bpsk(spec, n, rate, seed=4)
        k = np.arange(n)
        carrier = np.cos(2.0 * np.pi * 0.25 * k)
        keep = np.abs(carrier) > 0.5
        signs = np.sign(buf.samples[keep] * carrier[keep])
        boundaries = (k[keep] * 1e3 / rate).astype(int)
        for symbol in np.unique(boundaries):
            assert len(set(signs[boundaries == symbol])) == 1

    def test_symbol_rate_at_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_bpsk(bpsk_spec(symbol_rate_hz=3e6), 4096, 3e6, seed=0)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_bpsk(am_spec(), 4096, 3e6, seed=0)


class TestGenerateSignal:
    @pytest.mark.parametrize("spec, generator", [(am_spec(), generate_am),
                                                 (bpsk_spec(), generate_bpsk)])
    def test_dispatches_on_kind(self, spec, generator):
        assert np.array_equal(generate_signal(spec, 1024, 3e6, seed=3).samples,
                              generator(spec, 1024, 3e6, seed=3).samples)


class TestAddAwgn:
    @pytest.mark.parametrize("snr_db", [3000.0, -3000.0])
    def test_snr_limit_keeps_noise_finite(self, snr_db):
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=snr_db, seed=5))
        assert np.all(np.isfinite(out.samples))

    # -inf: infinite noise makes no finite buffer
    @pytest.mark.parametrize("snr_db", [3000.5, -3e6, math.nan, -math.inf])
    def test_snr_beyond_limit_rejected(self, snr_db):
        with pytest.raises(ConfigurationError):
            ChannelSpec(snr_db=snr_db, seed=5)

    def test_zero_db_noise_variance(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=0.0, seed=77))
        noise = out.samples - buf.samples
        measured = float(np.var(noise))
        # sample variance of N Gaussians has relative spread sqrt(2/(N-1))
        spread = math.sqrt(2.0 / (len(buf) - 1))
        assert abs(measured - 1.0) < 5 * spread

    def test_target_variance_tracks_snr(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=1)
        snr_db = -12.0
        out = add_awgn(buf, ChannelSpec(snr_db=snr_db, seed=5))
        noise = out.samples - buf.samples
        target = 10.0 ** (-snr_db / 10.0)
        spread = target * math.sqrt(2.0 / (len(buf) - 1))
        assert abs(float(np.var(noise)) - target) < 5 * spread

    def test_infinite_snr_is_identity(self):
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=math.inf, seed=5))
        assert np.array_equal(out.samples, buf.samples)

    def test_snr_invariant_under_input_scaling(self):
        # scaling the signal by 2 scales the same-seed noise by exactly 2
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        scaled = SampleBuffer(2.0 * buf.samples, buf.sample_rate_hz)
        channel = ChannelSpec(snr_db=3.0, seed=21)
        noise1 = add_awgn(buf, channel).samples - buf.samples
        noise2 = add_awgn(scaled, channel).samples - scaled.samples
        assert np.array_equal(noise2, 2.0 * noise1)

    def test_same_seed_reproducible(self):
        buf = generate_am(am_spec(), 512, 3e6, seed=1)
        a = add_awgn(buf, ChannelSpec(snr_db=5.0, seed=9))
        b = add_awgn(buf, ChannelSpec(snr_db=5.0, seed=9))
        assert np.array_equal(a.samples, b.samples)


class TestNoiseOnly:
    def test_mean_bound(self):
        buf = noise_only(4096, 1.0, seed=3)
        assert abs(float(np.mean(buf.samples))) < 5.0 / math.sqrt(4096)

    def test_variance_bound(self):
        variance = 2.5
        buf = noise_only(4096, variance, seed=3)
        spread = variance * math.sqrt(2.0 / 4095)
        assert abs(float(np.var(buf.samples)) - variance) < 5 * spread

    def test_deterministic(self):
        assert np.array_equal(noise_only(256, 1.0, seed=1).samples,
                              noise_only(256, 1.0, seed=1).samples)

    def test_rate_passthrough(self):
        assert noise_only(16, 1.0, seed=0, sample_rate_hz=3e6).sample_rate_hz == 3e6

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_only(16, 0.0, seed=0)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf])
    def test_one_variance_rule(self, variance):
        for call in (lambda: check_noise_variance(variance),
                     lambda: noise_only(64, variance, seed=0)):
            with pytest.raises(ConfigurationError) as info:
                call()
            assert str(info.value) == (
                f"noise variance must be positive and finite, got {variance!r}")

    @pytest.mark.parametrize("variance", [5e-324, 1.0, 1e308])
    def test_positive_finite_variance_kept(self, variance):
        check_noise_variance(variance)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_only(16, 1.0, seed=-1)


class TestSignalFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = am_spec(carrier_hz=30e3, bandwidth_hz=12e3)
        buf = generate_am(spec, 257, 100e3, seed=13)
        path = tmp_path / "signal.txt"
        write_signal_file(buf, path)
        back = read_signal_file(path)
        assert back.sample_rate_hz == buf.sample_rate_hz
        assert np.array_equal(back.samples, buf.samples)

    def test_header_line_format(self, tmp_path):
        path = tmp_path / "signal.txt"
        write_signal_file(SampleBuffer([1.0, -2.0], 48000.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sample_rate_hz=48000.0"
        assert lines[1:] == ["1.0", "-2.0"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigurationError):
            read_signal_file(path)

    def test_bad_sample_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# sample_rate_hz=1000.0\n1.0\npotato\n")
        with pytest.raises(ConfigurationError):
            read_signal_file(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_signal_file(tmp_path / "absent.txt")

    def test_bad_sample_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# sample_rate_hz=1000.0\n1.0\n\npotato\n")
        with pytest.raises(ConfigurationError, match=r"bad.txt:4: .*'potato'"):
            read_signal_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="header"):
            read_signal_file(path)

    # a byte that is not UTF-8 reads as U+FFFD, which no header or sample parses
    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe# sample_rate_hz=64\n1.0\n", "missing"),
        (b"# sample_rate_hz=6\xff4\n1.0\n", "unparseable sample rate"),
        (b"# sample_rate_hz=64\n1.0\n\xff\n", "3: unparseable sample value"),
    ], ids=["header", "rate", "sample"])
    def test_undecodable_file_rejected_by_name(self, data, message, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(data)
        with pytest.raises(ConfigurationError) as info:
            read_signal_file(path)
        assert str(info.value).startswith(f"{path}:")
        assert message in str(info.value)

    # a parsed file whose rate or samples SampleBuffer refuses
    @pytest.mark.parametrize("text, message", [
        ("# sample_rate_hz=nan\n1.0\n", "sample_rate_hz must be positive and finite"),
        ("# sample_rate_hz=-5\n1.0\n", "sample_rate_hz must be positive and finite"),
        ("# sample_rate_hz=64\n1.0\ninf\n", "sample buffer contains non-finite values"),
        ("# sample_rate_hz=64\n1e400\n", "sample buffer contains non-finite values"),
    ], ids=["nan_rate", "negative_rate", "inf_sample", "overflowing_sample"])
    def test_refused_content_names_the_file(self, text, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as info:
            read_signal_file(path)
        assert str(info.value) == f"{path}: {message}"


def read_outcome(read, path):
    """The rate and sample bytes read from path, or the message refusing it."""
    try:
        buffer = read(path)
    except ConfigurationError as exc:
        return str(exc)
    return buffer.sample_rate_hz, buffer.samples.tobytes()


# what float() accepts, refuses or reads unlike str.strip() then float(), and where
# one numpy conversion of every line could part from float()
SAMPLE_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_0", "infinity", "nan", "0x1p3", "1e400", "\x1c3\x1f", "\u3000 1.5",
                     "\ufeff1", "1.0 2.0", "", " ", "-0", "\xa01", "\u0661\u0662", "1e5_0",
                     "+.5", "1e-400", "\t2", "1,5", "1234567890" * 40 + "e-390"]))


class TestReaderMatchesLineLoop:
    """read_signal_file against the line-by-line reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(SAMPLE_TOKENS, st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=8),
           last_newline=st.booleans())
    def test_same_samples_or_same_message(self, lines, last_newline, tmp_path_factory):
        body = "".join(token + end for token, end in lines)
        if lines and not last_newline:
            body = body.removesuffix(lines[-1][1])
        path = tmp_path_factory.getbasetemp() / "reader.txt"
        path.write_bytes(f"# sample_rate_hz=64\n{body}".encode())
        assert read_outcome(read_signal_file, path) == read_outcome(read_signal_file_lines, path)


class TestBufferShape:
    def test_match_accepted(self):
        check_buffer_shape(SampleBuffer(np.zeros(8), 4.0), 8, 4.0)

    @pytest.mark.parametrize("n, rate", [(16, 4.0), (8, 2.0), (0, 4.0), (8, math.nan)])
    def test_mismatch_names_both_shapes(self, n, rate):
        with pytest.raises(ConfigurationError) as info:
            check_buffer_shape(SampleBuffer(np.zeros(8), 4.0), n, rate)
        assert str(info.value) == (f"buffer of 8 samples at 4.0 Hz does not match the "
                                   f"config's {n} samples at {rate!r} Hz")
