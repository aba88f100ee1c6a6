"""Detection metric, calibration, and decision tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosense import (ConfigurationError, DetectorKind, SampleBuffer,
                        WindowKind, calibrate_threshold, cycle_metric, decide,
                        energy_metric, noise_only,
                        required_calibration_trials, scd_slice)
from cyclosense import detect
from cyclosense.detect import sum_of_squares
from cyclosense.harness import SensingConfig, calibrate_at_noise, measure, run_roc
from oracles import only


def tone_slice(n=64, cycles=8, amplitude=1.0, seed=None):
    k = np.arange(n)
    x = amplitude * np.cos(2.0 * np.pi * cycles * k / n)
    if seed is not None:
        x = x + np.random.default_rng(seed).normal(size=n)
    buf = SampleBuffer(x, float(n))
    return scd_slice(buf, 2.0 * cycles, WindowKind.HAMMING, 5)


class TestCycleMetric:
    def test_value_is_max_magnitude(self):
        piece = tone_slice()
        metric = cycle_metric(piece)
        assert type(metric) is float
        assert metric == float(np.abs(piece).max())

    def test_amplitude_scaling_is_exactly_quadratic(self):
        one = cycle_metric(tone_slice(amplitude=1.0))
        four = cycle_metric(tone_slice(amplitude=2.0))
        assert four == 4.0 * one

    @pytest.mark.parametrize("values", [
        np.array([], dtype=complex), np.ones((2, 4), dtype=complex), np.complex128(1.0)],
        ids=["empty", "2-D", "0-D"])
    def test_empty_or_not_1d_refused(self, values):
        with pytest.raises(ConfigurationError,
                           match="^slice values must be a nonempty 1-D sequence$"):
            cycle_metric(values)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_slice_refused(self, bad):
        values = np.ones(8, dtype=complex)
        values[3] = bad
        with pytest.raises(ConfigurationError,
                           match="^metric value must be finite and nonnegative$"):
            cycle_metric(values)

    def test_signal_plus_noise_exceeds_noise(self):
        noisy = cycle_metric(tone_slice(amplitude=3.0, seed=1))
        rng = np.random.default_rng(1)
        noise = SampleBuffer(rng.normal(size=64), 64.0)
        quiet = cycle_metric(scd_slice(noise, 16.0, WindowKind.HAMMING, 5))
        assert noisy > quiet


class TestEnergyMetric:
    def test_matches_exact_rational_sum(self):
        rng = np.random.default_rng(3)
        buf = SampleBuffer(rng.normal(size=257), 1.0)
        metric = energy_metric(buf)
        exact = sum(Fraction(float(v)) ** 2 for v in buf.samples)
        assert type(metric) is float
        assert metric == float(exact)

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        forward = energy_metric(SampleBuffer(x, 1.0))
        reverse = energy_metric(SampleBuffer(x[::-1].copy(), 1.0))
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
        whole = energy_metric(SampleBuffer(x, 1.0))
        left = energy_metric(SampleBuffer(x[:cut].copy(), 1.0))
        right = energy_metric(SampleBuffer(x[cut:].copy(), 1.0))
        assert whole == left + right


def fsum_of_squares(row):
    """The oracle: math.fsum of the squares, and where fsum overflows, the
    exact rational sum rounded once (inf beyond the float range).  fsum also
    overflows on a few sums that round to the largest float.  The exact
    routine shares this algorithm; fraction_of_squares does not."""
    with np.errstate(over="ignore"):
        squares = np.square(row).tolist()
    try:
        return math.fsum(squares)
    except OverflowError:
        try:
            return float(sum(map(Fraction, squares)))
        except OverflowError:
            return math.inf


def fraction_of_squares(row):
    """The independent oracle: the exact rational sum of the squares, rounded
    once, and inf where that overflows (an inf square included)."""
    with np.errstate(over="ignore"):
        squares = np.square(row).tolist()
    try:
        return float(sum(map(Fraction, squares)))
    except OverflowError:
        return math.inf


def squares_summing_to(total, unit_exponent):
    """Powers of two whose squares sum to the integer total, a multiple of
    2^unit_exponent (even): one per unit of each base-4 digit."""
    samples, digits, exponent = [], total >> unit_exponent, unit_exponent // 2
    while digits:
        samples += [2.0 ** exponent] * (digits % 4)
        digits, exponent = digits // 4, exponent + 1
    return np.array(samples)


# A sample of m * 2^k squares to about 2^(2k): from below the smallest
# subnormal (2^-1074) to beyond the largest float (2^1024).
SCALES = st.integers(min_value=-560, max_value=512)


@st.composite
def blocks(draw):
    """A complex block like the engine's, whose real rows hold all zeros, one
    scale, or a scale per sample; rows of one block differ in scale."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 48))
    block = np.zeros((rows, n), dtype=np.complex128)
    for row in block.real:
        kind = draw(st.sampled_from(["zeros", "one scale", "mixed"]))
        if kind == "zeros":
            continue
        mantissas = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        scales = (draw(st.lists(SCALES, min_size=n, max_size=n)) if kind == "mixed"
                  else [draw(SCALES)] * n)
        row[:] = np.ldexp(mantissas, scales)
    return block


class TestSumOfSquares:
    """The engine's energy sum against math.fsum, bit for bit."""

    routine = staticmethod(sum_of_squares)

    @pytest.mark.parametrize("chunk", [None, 3], ids=["one_chunk", "chunks_of_3"])
    @settings(max_examples=300, deadline=None)
    @given(blocks())
    def test_matches_fsum(self, chunk, block):
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(detect, "_SUM_CHUNK", chunk)
            got = [self.routine(row) for row in block.real]
        assert got == [fsum_of_squares(row) for row in block.real]
        assert got == [fraction_of_squares(row) for row in block.real]

    def test_fsum_overflow_gives_inf(self):
        row = np.full(16, 1.3e154)    # each square is finite, their sum is not
        with pytest.raises(OverflowError):
            math.fsum(np.square(row).tolist())
        assert self.routine(row) == math.inf == fraction_of_squares(row)

    def test_overflowing_energy_metric_refused(self):
        # inf, refused as a ConfigurationError; math.fsum would raise
        # OverflowError, which is not a CyclosenseError
        with pytest.raises(ConfigurationError, match="finite"):
            energy_metric(SampleBuffer(np.full(16, 1.3e154), 8.0))

    @pytest.mark.parametrize("excess, want", [
        (-2 ** 900, 1.7976931348623157e308),    # below the midpoint: the largest float
        (0, math.inf),                          # the midpoint: ties to even, 2^1024
        (2 ** 900, math.inf),
    ])
    def test_rounded_once_at_the_overflow_threshold(self, excess, want):
        # the largest float plus half its last place, 2^1024 - 2^970; fsum's
        # partials overflow on all three sums
        row = squares_summing_to(2 ** 1024 - 2 ** 970 + excess, 900)
        assert sum(Fraction(float(v)) ** 2 for v in row) == 2 ** 1024 - 2 ** 970 + excess
        with pytest.raises(OverflowError):
            math.fsum(np.square(row).tolist())
        assert self.routine(row) == want == fraction_of_squares(row)

    def test_subnormal_squares_and_total(self):
        # squares of 2^-1074, 9 * 2^-1076 (rounded to 2^-1073) and 2^-1060
        row = np.array([2.0 ** -537, 3 * 2.0 ** -538, 2.0 ** -530, 0.0])
        exact = sum(map(Fraction, np.square(row).tolist()))
        assert self.routine(row) == float(exact) == fsum_of_squares(row)
        assert self.routine(row) == fraction_of_squares(row)

    def test_nan_row_gives_nan(self):
        # no SampleBuffer holds a NaN, but a raw row with one sums to NaN, which
        # energy_metric and the trial engine refuse as they refuse inf
        assert math.isnan(self.routine(np.array([1.0, math.nan, 2.0])))


class TestExactSumOfSquares(TestSumOfSquares):
    """Every case again on the exact routine alone, the fast path's fallback:
    most rows above take the fast path and never reach it."""

    routine = staticmethod(detect._exact_sum_of_squares)


class TestSumOfSquaresInScratch(TestSumOfSquares):
    """Every case again with the engine's reused scratch, longer than the row
    and holding stale values."""

    @staticmethod
    def routine(row):
        return sum_of_squares(row, np.full((2, row.size + 3), np.nan))


@pytest.fixture
def exact_calls(monkeypatch):
    """The rows that sum_of_squares hands to its exact routine."""
    calls, exact = [], detect._exact_sum_of_squares

    def spy(row):
        calls.append(row.size)
        return exact(row)
    monkeypatch.setattr(detect, "_exact_sum_of_squares", spy)
    return calls


class TestFastSumFallback:
    """Which rows the exact routine decides, and that both paths agree there."""

    def test_midpoint_decided_by_the_exact_routine(self, exact_calls):
        # squares 1, 2^-54 and 2^-54 sum to 1 + 2^-53, the midpoint after 1 (no
        # float squares to 2^-53 itself); ties to even give 1.0
        row = np.array([1.0, 2.0 ** -27, 2.0 ** -27])
        assert sum_of_squares(row) == 1.0 == fsum_of_squares(row)
        assert exact_calls == [3]

    @pytest.mark.parametrize("largest, exact", [
        (2.0 ** -450, True),                    # max square 2^-900, the open lower edge
        (math.nextafter(2.0 ** -450, 1.0), False),
        (2.0 ** 499, True),                     # 2^998 = 2^(1000 - c) at 4 samples
        (math.nextafter(2.0 ** 499, 0.0), False),
    ])
    def test_range_edges(self, exact_calls, largest, exact):
        row = np.array([largest, -largest / 3, largest / 7, 0.0])
        assert sum_of_squares(row) == fsum_of_squares(row)
        assert exact_calls == ([4] if exact else [])

    def test_empty_row(self, exact_calls):
        assert sum_of_squares(np.empty(0)) == 0.0 == fsum_of_squares(np.empty(0))
        assert exact_calls == [0]

    def test_length_cap(self, exact_calls, monkeypatch):
        # the real cap is 2^25 samples; a cap of 8 tries both sides of it cheaply
        monkeypatch.setattr(detect, "_FAST_SUM_MAX", 8)
        row = np.random.default_rng(5).normal(size=9)
        assert sum_of_squares(row[:8]) == fsum_of_squares(row[:8])
        assert sum_of_squares(row) == fsum_of_squares(row)
        assert exact_calls == [9]

    def test_reference_calibration_takes_the_fast_path(self, exact_calls):
        # 200 energy trials at the reference scenario: every row is summed by
        # the fast path, so the engine pays nothing for the exact routine
        config = SensingConfig(calibration_trials=200)
        (threshold,) = calibrate_at_noise(only(config, DetectorKind.ENERGY), 0.1, 1.0)
        assert threshold > 0.0
        assert exact_calls == []

    def test_sweep_takes_the_fast_path(self, exact_calls):
        # the shape of perfbench's roc_sweep_w2, smaller: L = 1, four SNRs,
        # calibration, H0 and H1 rows
        config = SensingConfig(smoothing_len=1, snr_db_list=(-22.0, -18.0, -14.0, -10.0),
                               trials=50, h1_trials=50, calibration_trials=100,
                               target_pf_list=(0.1,))
        assert len(run_roc(config)) == 8
        assert exact_calls == []

    @pytest.mark.parametrize("variance, exact", [
        (1e-275, True), (1e-270, False), (1e295, False), (1e297, True)])
    def test_noise_variances_the_fast_path_covers(self, exact_calls, variance, exact):
        # at N = 4096 the exact routine sums every row below about 1e-270 and
        # above about 1e295, where the largest square leaves (2^-900, 2^988)
        config = only(SensingConfig(calibration_trials=200), DetectorKind.ENERGY)
        calibrate_at_noise(config, 0.1, variance)
        assert exact_calls == ([4096] * 200 if exact else [])


class TestNanRowRefused:
    """A NaN row sums to NaN; a buffer holding one, forced past SampleBuffer's
    check, is refused as before."""

    @staticmethod
    def poisoned():
        buffer = SampleBuffer(np.ones(4096), 3e6)
        object.__setattr__(buffer, "samples", np.append(np.ones(4095), math.nan))
        return buffer

    def test_energy_metric(self):
        with pytest.raises(ConfigurationError,
                           match="metric value must be finite and nonnegative"):
            energy_metric(self.poisoned())

    def test_trial_engine(self):
        config = only(SensingConfig(), DetectorKind.ENERGY)
        with pytest.raises(ConfigurationError, match="a metric overflowed"):
            measure(config, self.poisoned())


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
        assert threshold == 90.0
        assert type(threshold) is float

    def test_median_at_half(self):
        sample = [float(v) for v in range(1, 21)]
        assert calibrate_threshold(sample, 0.5) == 10.0

    def test_order_of_input_is_irrelevant(self):
        rng = np.random.default_rng(8)
        sample = list(rng.normal(size=200) ** 2)
        shuffled = sample.copy()
        rng.shuffle(shuffled)
        assert calibrate_threshold(sample, 0.05) == calibrate_threshold(shuffled, 0.05)

    def test_numpy_sample_gives_a_float(self):
        # a row of the engine's metric array, as run_roc and calibrate_at_noise pass
        threshold = calibrate_threshold(np.arange(100.0), 0.1)
        assert threshold == 89.0
        assert type(threshold) is float

    def test_too_small_sample_names_minimum(self):
        sample = [1.0] * 99
        with pytest.raises(ConfigurationError, match="100"):
            calibrate_threshold(sample, 0.1)

    def test_invalid_metrics_rejected(self):
        good = [1.0] * 100
        # one type for every refusal, so the message tells this rule from the size rule
        message = "^calibration metrics must be finite and nonnegative$"
        with pytest.raises(ConfigurationError, match=message):
            calibrate_threshold(good[:-1] + [-1.0], 0.1)
        with pytest.raises(ConfigurationError, match=message):
            calibrate_threshold(good[:-1] + [math.nan], 0.1)

    def test_pf_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                calibrate_threshold([1.0] * 100, bad)

    def test_pf_refusal_names_the_value(self):
        with pytest.raises(ConfigurationError,
                           match=r"^target_pf must lie in \(0, 1\), got nan$"):
            calibrate_threshold([1.0] * 100, math.nan)

    def test_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(9)
        sample = list(rng.normal(size=150) ** 2)
        base = calibrate_threshold(sample, 0.1)
        scaled = calibrate_threshold([4.0 * v for v in sample], 0.1)
        assert scaled == 4.0 * base

    def test_threshold_monotone_in_pf(self):
        rng = np.random.default_rng(10)
        sample = list(rng.normal(size=1000) ** 2)
        strict = calibrate_threshold(sample, 0.01)
        loose = calibrate_threshold(sample, 0.1)
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
        above = int(np.sum(sample > threshold))
        at_or_above = int(np.sum(sample >= threshold))
        assert above <= pf * k
        assert at_or_above > pf * k - 1e-9


class TestDecide:
    def setup_method(self):
        self.threshold = 5.0

    def test_above_is_active(self):
        assert decide(5.5, self.threshold) is True

    def test_below_is_inactive(self):
        assert decide(4.5, self.threshold) is False

    def test_tie_counts_as_detection(self):
        assert decide(5.0, self.threshold) is True

    def test_numpy_scalars_give_a_builtin_bool(self):
        # a numpy comparison gives np.bool_, which is neither True nor False
        assert decide(np.float64(5.5), self.threshold) is True
        assert decide(np.float64(4.5), np.float64(self.threshold)) is False

    @pytest.mark.parametrize("value", [0.0, -0.0, np.float64(0.0)])
    def test_zero_threshold_refused(self, value):
        # every metric is >= 0, so a zero threshold would call an all-zero buffer active;
        # the message names it as a float, a numpy scalar too
        for metric in (0.0, 1.0):
            with pytest.raises(ConfigurationError, match=f"^threshold {float(value)!r} "):
                decide(metric, value)

    def test_smallest_positive_threshold_still_decides(self):
        assert decide(0.0, 5e-324) is False
        assert decide(5e-324, 5e-324) is True


class TestMetricAndThresholdTypes:
    def test_metric_rejects_negative_nan_inf(self):
        # a metric is a float; decide refuses one that no detector returns
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError,
                               match="^metric value must be finite and nonnegative$"):
                decide(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_threshold_rejects_bad_values(self, bad):
        # a threshold is a float; decide refuses one that no calibration returns
        for metric in (0.0, 1.0, 1e300):
            with pytest.raises(ConfigurationError,
                               match="^threshold value must be finite and nonnegative$"):
                decide(metric, bad)


class TestEndToEnd:
    def test_strong_tone_flags_active(self):
        n = 64
        window = (WindowKind.HAMMING, 5)
        rng = np.random.default_rng(0)
        noise_metrics = []
        for _ in range(100):
            noise = SampleBuffer(rng.normal(size=n), float(n))
            noise_metrics.append(
                cycle_metric(scd_slice(noise, 16.0, *window)))
        threshold = calibrate_threshold(noise_metrics, 0.1)
        loud = cycle_metric(tone_slice(n=n, cycles=8, amplitude=10.0, seed=1))
        assert decide(loud, threshold) is True

    def test_out_of_band_cycle_frequency_refused_before_calibration(self):
        # alpha = 30 Hz at n = fs = 16 is a shift of 15 bins, past (16 - 1) // 2:
        # every slice there would be zero, and so would the calibrated
        # threshold that near-silent noise then meets
        n = 16
        window = (WindowKind.HAMMING, 5)
        metrics = []
        with pytest.raises(ConfigurationError, match="cycle frequency"):
            for seed in range(100):
                noise = noise_only(n, 1.0, seed=seed, sample_rate_hz=float(n))
                metrics.append(cycle_metric(scd_slice(noise, 30.0, *window)))
            calibrate_threshold(metrics, 0.1)
        assert metrics == []
