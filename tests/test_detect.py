"""Detection metric, calibration, and decision tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosense import (CalibrationError, ConfigurationError, Decision,
                        DetectorKind, SampleBuffer, SensingMetric, Threshold,
                        WindowKind, calibrate_threshold, cycle_metric, decide,
                        dft, energy_metric, make_window, noise_only,
                        required_calibration_trials, scd_slice)


def tone_slice(n=64, cycles=8, amplitude=1.0, seed=None):
    k = np.arange(n)
    x = amplitude * np.cos(2.0 * np.pi * cycles * k / n)
    if seed is not None:
        x = x + np.random.default_rng(seed).normal(size=n)
    buf = SampleBuffer(x, float(n))
    window = make_window(WindowKind.HAMMING, 5)
    return scd_slice(dft(buf), 2.0 * cycles, window, 1.0 / n)


class TestCycleMetric:
    def test_value_is_max_magnitude(self):
        piece = tone_slice()
        metric = cycle_metric(piece)
        assert metric.value == float(np.abs(piece.values).max())
        assert metric.detector is DetectorKind.CYCLE_FEATURE

    def test_amplitude_scaling_is_exactly_quadratic(self):
        one = cycle_metric(tone_slice(amplitude=1.0))
        four = cycle_metric(tone_slice(amplitude=2.0))
        assert four.value == 4.0 * one.value

    def test_signal_plus_noise_exceeds_noise(self):
        noisy = cycle_metric(tone_slice(amplitude=3.0, seed=1))
        rng = np.random.default_rng(1)
        noise = SampleBuffer(rng.normal(size=64), 64.0)
        window = make_window(WindowKind.HAMMING, 5)
        quiet = cycle_metric(scd_slice(dft(noise), 16.0, window, 1.0 / 64))
        assert noisy.value > quiet.value


class TestEnergyMetric:
    def test_matches_exact_rational_sum(self):
        rng = np.random.default_rng(3)
        buf = SampleBuffer(rng.normal(size=257), 1.0)
        metric = energy_metric(buf)
        exact = sum(Fraction(float(v)) ** 2 for v in buf.samples)
        assert metric.value == float(exact)
        assert metric.detector is DetectorKind.ENERGY

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        forward = energy_metric(SampleBuffer(x, 1.0)).value
        reverse = energy_metric(SampleBuffer(x[::-1].copy(), 1.0)).value
        assert forward == reverse

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-1024, max_value=1024), min_size=2,
                    max_size=120),
           st.integers(min_value=1, max_value=119))
    def test_concatenation_additive_on_exact_inputs(self, ints, cut):
        # samples k/64 have exactly representable squares whose total stays
        # far below 2^53, so fsum returns the exact value on each piece
        cut = min(cut, len(ints) - 1)
        x = np.array(ints, dtype=np.float64) / 64.0
        whole = energy_metric(SampleBuffer(x, 1.0)).value
        left = energy_metric(SampleBuffer(x[:cut].copy(), 1.0)).value
        right = energy_metric(SampleBuffer(x[cut:].copy(), 1.0)).value
        assert whole == left + right


class TestRequiredCalibrationTrials:
    @pytest.mark.parametrize("pf,want", [
        (0.1, 100),
        (0.01, 1000),
        (0.5, 20),
        (0.25, 40),
        # float 1/3 sits just below the true third, so the exact rule
        # rounds up to 31 rather than 30
        (1.0 / 3.0, 31),
    ])
    def test_examples(self, pf, want):
        # 10 / 0.1 in floats can land at 100.000...01 and ceil to 101;
        # the rational path must not
        assert required_calibration_trials(pf) == want


class TestCalibrateThreshold:
    def test_ninetieth_order_statistic(self):
        sample = [float(v) for v in range(1, 101)]
        threshold = calibrate_threshold(sample, 0.1)
        assert threshold.value == 90.0
        assert threshold.target_pf == 0.1
        assert threshold.calibration_trials == 100
        assert threshold.detector is DetectorKind.CYCLE_FEATURE

    def test_median_at_half(self):
        sample = [float(v) for v in range(1, 21)]
        assert calibrate_threshold(sample, 0.5).value == 10.0

    def test_order_of_input_is_irrelevant(self):
        rng = np.random.default_rng(8)
        sample = list(rng.normal(size=200) ** 2)
        shuffled = sample.copy()
        rng.shuffle(shuffled)
        assert (calibrate_threshold(sample, 0.05).value
                == calibrate_threshold(shuffled, 0.05).value)

    def test_detector_tag(self):
        sample = [float(v) for v in range(100)]
        threshold = calibrate_threshold(sample, 0.1, detector=DetectorKind.ENERGY)
        assert threshold.detector is DetectorKind.ENERGY

    def test_too_small_sample_names_minimum(self):
        sample = [1.0] * 99
        with pytest.raises(CalibrationError, match="100"):
            calibrate_threshold(sample, 0.1)

    def test_invalid_metrics_rejected(self):
        good = [1.0] * 100
        with pytest.raises(CalibrationError):
            calibrate_threshold(good[:-1] + [-1.0], 0.1)
        with pytest.raises(CalibrationError):
            calibrate_threshold(good[:-1] + [math.nan], 0.1)

    def test_pf_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                calibrate_threshold([1.0] * 100, bad)

    def test_pf_refusal_names_the_value(self):
        for call in (lambda: calibrate_threshold([1.0] * 100, math.nan),
                     lambda: Threshold(1.0, math.nan, 100, DetectorKind.ENERGY)):
            with pytest.raises(ConfigurationError,
                               match=r"^target_pf must lie in \(0, 1\), got nan$"):
                call()

    def test_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(9)
        sample = list(rng.normal(size=150) ** 2)
        base = calibrate_threshold(sample, 0.1).value
        scaled = calibrate_threshold([4.0 * v for v in sample], 0.1).value
        assert scaled == 4.0 * base

    def test_threshold_monotone_in_pf(self):
        rng = np.random.default_rng(10)
        sample = list(rng.normal(size=1000) ** 2)
        strict = calibrate_threshold(sample, 0.01).value
        loose = calibrate_threshold(sample, 0.1).value
        assert strict >= loose

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=50),
           st.sampled_from([0.5, 0.25, 0.2, 0.1]),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_tail_fraction_bounded_by_target(self, mult, pf, seed):
        # on a tie-free sample, strictly-above count is at most pf * K and
        # the at-or-above count exceeds pf * K
        k = mult * required_calibration_trials(pf)
        rng = np.random.default_rng(seed)
        sample = np.cumsum(rng.random(size=k) + 1e-9)
        threshold = calibrate_threshold(list(sample), pf)
        above = int(np.sum(sample > threshold.value))
        at_or_above = int(np.sum(sample >= threshold.value))
        assert above <= pf * k
        assert at_or_above > pf * k - 1e-9


class TestDecide:
    def setup_method(self):
        self.threshold = Threshold(5.0, 0.1, 100, DetectorKind.CYCLE_FEATURE)

    def test_above_is_active(self):
        metric = SensingMetric(5.5, DetectorKind.CYCLE_FEATURE)
        assert decide(metric, self.threshold) is Decision.H1_ACTIVE

    def test_below_is_inactive(self):
        metric = SensingMetric(4.5, DetectorKind.CYCLE_FEATURE)
        assert decide(metric, self.threshold) is Decision.H0_INACTIVE

    def test_tie_counts_as_detection(self):
        metric = SensingMetric(5.0, DetectorKind.CYCLE_FEATURE)
        assert decide(metric, self.threshold) is Decision.H1_ACTIVE

    def test_detector_mismatch_rejected(self):
        metric = SensingMetric(9.0, DetectorKind.ENERGY)
        with pytest.raises(ConfigurationError):
            decide(metric, self.threshold)


class TestMetricAndThresholdTypes:
    def test_metric_rejects_negative_nan_inf(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SensingMetric(bad, DetectorKind.ENERGY)

    def test_threshold_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            Threshold(-1.0, 0.1, 100, DetectorKind.ENERGY)
        with pytest.raises(ConfigurationError):
            Threshold(1.0, 0.0, 100, DetectorKind.ENERGY)
        with pytest.raises(ConfigurationError):
            Threshold(1.0, 0.1, 0, DetectorKind.ENERGY)


class TestEndToEnd:
    def test_strong_tone_flags_active(self):
        n = 64
        window = make_window(WindowKind.HAMMING, 5)
        rng = np.random.default_rng(0)
        noise_metrics = []
        for _ in range(100):
            noise = SampleBuffer(rng.normal(size=n), float(n))
            noise_metrics.append(
                cycle_metric(scd_slice(dft(noise), 16.0, window, 1.0 / n)).value)
        threshold = calibrate_threshold(noise_metrics, 0.1)
        loud = cycle_metric(tone_slice(n=n, cycles=8, amplitude=10.0, seed=1))
        assert decide(loud, threshold) is Decision.H1_ACTIVE

    def test_out_of_band_cycle_frequency_refused_before_calibration(self):
        # alpha = 30 Hz at n = fs = 16 is a shift of 15 bins, past (16 - 1) // 2:
        # every slice there would be zero, and so would the calibrated
        # threshold that near-silent noise then meets
        n = 16
        window = make_window(WindowKind.HAMMING, 5)
        metrics = []
        with pytest.raises(ConfigurationError, match="cycle frequency"):
            for seed in range(100):
                noise = noise_only(n, 1.0, seed=seed, sample_rate_hz=float(n))
                metrics.append(cycle_metric(scd_slice(dft(noise), 30.0, window, 1.0 / n)).value)
            calibrate_threshold(metrics, 0.1)
        assert metrics == []
