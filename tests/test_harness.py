"""Monte Carlo harness, complexity model, and serialization tests."""

import concurrent.futures
import dataclasses
import io
import math
import multiprocessing
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosense import (ConfigurationError, DetectorKind,
                        ModulationKind, ModulationSpec, RocPoint, SampleBuffer,
                        SensingConfig, WindowKind, add_awgn, complexity_model,
                        cycle_metric, energy_metric, generate_signal, harness, make_window,
                        noise_only, read_threshold_file, run_roc, scd_slice,
                        write_roc_csv, write_threshold_file)
from cyclosense.harness import (DETECTORS, PHASE_CALIBRATION, PHASE_H0, PHASE_H1,
                                PHASE_ONESHOT, ROC_CSV_HEADER, _compute_phase_range,
                                _score, calibrate_at_noise, derive_seed, measure)
from oracles import only, reference_phase_range


def tiny_config(**kwargs):
    # 64-sample buffers keep a full calibrate+measure cycle under 100 ms
    base = dict(
        modulation=ModulationSpec(kind=ModulationKind.AM, carrier_hz=16.0,
                                  bandwidth_hz=4.0),
        n_samples=64,
        smoothing_len=5,
        sample_rate_hz=64.0,
        snr_db_list=(10.0,),
        target_pf_list=(0.5,),
        trials=20,
        calibration_trials=20,
        h1_trials=10,
    )
    base.update(kwargs)
    return SensingConfig(**base)


class TaskFailingAtFirstH0:
    """Stand-in for the pool task: marks each task it starts with a file in
    `marks`, raises on the first SNR's H0 trials and runs every other task
    slowly enough that the tasks queued behind the failure are still pending
    when it is read.  Module-level, so that the pool can pickle it."""

    def __init__(self, marks):
        self.marks = marks

    def __call__(self, config, phase, snr_db, start, stop):
        (self.marks / f"{phase}_{snr_db}_{start}").touch()
        if phase == PHASE_H0 and snr_db == config.snr_db_list[0]:
            raise ConfigurationError(f"stand-in failure at snr {snr_db}")
        time.sleep(0.1)
        return _compute_phase_range(config, phase, snr_db, start, stop)


class TestSensingConfig:
    def test_reference_defaults(self):
        config = SensingConfig()
        assert config.n_samples == 4096
        assert config.smoothing_len == 1301
        assert config.sample_rate_hz == 3e6
        assert config.snr_db_list == (-22.0,)
        assert config.target_pf_list == (0.01, 0.1)
        assert config.trials == 2000
        assert config.calibration_trials == 2000
        assert config.master_seed == 0
        assert config.window_kind is WindowKind.HAMMING
        assert config.modulation.kind is ModulationKind.AM
        assert config.modulation.carrier_hz == 1e6
        assert config.modulation.bandwidth_hz == 10e3
        assert config.alpha0_hz == 2e6
        assert config.effective_h1_trials == 2000

    def test_h1_trials_override(self):
        config = tiny_config(h1_trials=7)
        assert config.effective_h1_trials == 7

    def test_lists_coerced_to_float_tuples(self):
        config = tiny_config(snr_db_list=[0, -5], target_pf_list=[0.5])
        assert config.snr_db_list == (0.0, -5.0)
        assert config.target_pf_list == (0.5,)

    @pytest.mark.parametrize("kwargs", [
        dict(smoothing_len=4),
        dict(smoothing_len=65),
        dict(n_samples=1),
        dict(snr_db_list=()),
        dict(snr_db_list=(math.nan,)),
        dict(target_pf_list=(0.0,)),
        dict(target_pf_list=(1.0,)),
        dict(trials=0),
        dict(calibration_trials=0),
        dict(h1_trials=0),
        dict(master_seed=-1),
        dict(window_kind="hamming"),
        dict(modulation="am"),
        dict(snr_db_list=(3000.5,)),
        dict(snr_db_list=(-3e6,)),
        dict(snr_db_list=(-math.inf,)),         # infinite noise: no finite buffer
        dict(snr_db_list=(-22.0, -22.0004)),     # same seeds at 0.001 dB
        dict(snr_db_list=(5.0, 5.0)),
        dict(snr_db_list=(math.inf,)),          # no noise: nothing to calibrate on
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            tiny_config(**kwargs)

    @pytest.mark.parametrize("name", ["n_samples", "trials", "calibration_trials", "h1_trials"])
    def test_counts_below_2_to_the_53(self, name):
        # the largest count allocates nothing here; only the buffers and trials would
        assert getattr(tiny_config(**{name: 2**53 - 1}), name) == 2**53 - 1
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} must be a positive integer below 2\*\*53, got 2\.5$"):
            tiny_config(**{name: 2.5})
        with pytest.raises(ConfigurationError, match=rf"below 2\*\*53, got {2**53}$"):
            tiny_config(**{name: 2**53})

    @pytest.mark.parametrize("kind, length", [
        (WindowKind.HAMMING, 4), (WindowKind.HAMMING, 0), (WindowKind.HAMMING, 5.0),
        ("hamming", 5),
    ])
    def test_window_refused_by_make_windows_rule(self, kind, length):
        with pytest.raises(ConfigurationError) as want:
            make_window(kind, length)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(want.value))}$"):
            tiny_config(window_kind=kind, smoothing_len=length)

    def test_target_pf_refusal_names_the_value(self):
        with pytest.raises(ConfigurationError, match=r"got 1\.5$"):
            tiny_config(target_pf_list=(0.5, 1.5))

    @pytest.mark.parametrize("detectors", [
        (),
        (DetectorKind.ENERGY, DetectorKind.ENERGY),
        (DetectorKind.ENERGY, "cycle_feature"),
    ], ids=["empty", "repeated", "not_a_kind"])
    def test_detectors_refused(self, detectors):
        with pytest.raises(ConfigurationError, match="detectors"):
            tiny_config(detectors=detectors)

    @pytest.mark.parametrize("length", [65, 4])
    def test_energy_detector_reads_no_window(self, length):
        # the default detectors refuse these lengths at N = 64 (see above)
        config = tiny_config(smoothing_len=length, detectors=(DetectorKind.ENERGY,))
        assert config.smoothing_len == length
        assert tiny_config().detectors == DETECTORS


class TestComplexityModel:
    def test_reference_operating_point(self):
        counts = complexity_model(4096, 1300)
        assert counts["proposed_real_mul"] == 104804
        assert counts["proposed_real_add"] == 151356
        assert counts["energy_real_mul"] == 16384
        assert counts["energy_real_add"] == 12288

    def test_names_in_print_order(self):
        # counts as Python ints, ratios as the quotients of the counts
        counts = complexity_model(np.int64(4096), np.int64(1300))
        assert list(counts) == ["proposed_real_mul", "proposed_real_add", "energy_real_mul",
                                "energy_real_add", "mul_ratio", "add_ratio"]
        assert [type(value) for value in counts.values()] == [int] * 4 + [float] * 2
        assert counts["add_ratio"] == counts["proposed_real_add"] / counts["energy_real_add"]

    def test_smallest_transform(self):
        counts = complexity_model(2, 1)
        assert counts["proposed_real_mul"] == 9
        assert counts["proposed_real_add"] == 9
        assert counts["energy_real_mul"] == 8
        assert counts["energy_real_add"] == 6

    def test_mul_ratio_closed_form(self):
        # log2(n)/2 + 5l/(4n); dyadic at this operating point, so exact
        assert complexity_model(4096, 1300)["mul_ratio"] == 6.0 + 6500.0 / 16384.0

    def test_growth_is_n_log_n(self):
        small = complexity_model(1024, 1)["proposed_real_mul"]
        large = complexity_model(2048, 1)["proposed_real_mul"]
        assert large - 5 == 2 * (small - 5) * 11 / 10

    @pytest.mark.parametrize("n", [0, 3, 6, 4095, 4097])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ConfigurationError):
            complexity_model(n, 1)

    def test_even_window_length_accepted_verbatim(self):
        # the estimator itself requires odd lengths, but the formula is
        # evaluated at whatever l the caller quotes
        assert complexity_model(4096, 1300)["proposed_real_mul"] == 2 * 4096 * 12 + 5 * 1300

    def test_bad_window_length_rejected(self):
        with pytest.raises(ConfigurationError):
            complexity_model(4096, 0)


class TestDeriveSeed:
    def test_pure_function_of_coordinates(self):
        assert derive_seed(0, 1, 5, 7, 0) == derive_seed(0, 1, 5, 7, 0)

    def test_distinct_coordinates_decorrelate(self):
        base = derive_seed(0, 1, 5, 7, 0)
        assert derive_seed(1, 1, 5, 7, 0) != base
        assert derive_seed(0, 2, 5, 7, 0) != base
        assert derive_seed(0, 1, 6, 7, 0) != base
        assert derive_seed(0, 1, 5, 8, 0) != base
        assert derive_seed(0, 1, 5, 7, 1) != base

    def test_range(self):
        value = derive_seed(3, 4, 5, 6, 7)
        assert 0 <= value < 2 ** 128

    @staticmethod
    def numpys(*coordinates):
        lo, hi = np.random.SeedSequence(coordinates).generate_state(2, np.uint64)
        return (int(hi) << 64) | int(lo)

    # master seeds and trial indices of several words, and 0 as one word
    @pytest.mark.parametrize("coordinates", [
        (0, 0, 0, 0, 0), (0, PHASE_H0, 2**31 - 22000, 7, 0), (2**32, PHASE_H1, 2**31, 2**32, 1),
        (2**64 + 1, PHASE_CALIBRATION, 0, 2**53 - 1, 0),
        (2**128 - 1, PHASE_ONESHOT, 0, 2**32 - 1, 1)])
    def test_equals_numpys_seed_sequence(self, coordinates):
        assert derive_seed(*coordinates) == self.numpys(*coordinates)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(min_value=0, max_value=2**130),
                     st.integers(min_value=1, max_value=5),
                     st.integers(min_value=0, max_value=2**32),
                     st.integers(min_value=0, max_value=2**70),
                     st.integers(min_value=0, max_value=1)))
    def test_random_coordinates_equal_numpys(self, coordinates):
        assert derive_seed(*coordinates) == self.numpys(*coordinates)

    def test_profile_seed_refuses_minus_infinite_snr(self):
        # infinite noise makes no finite buffer, so no profile seeds its noise
        with pytest.raises(ConfigurationError, match="snr_db"):
            harness.profile_seed(0, -math.inf, 0)

    def test_profile_seed_refuses_plus_infinite_snr(self):
        # no noise to draw: every SNR a seed names is finite
        with pytest.raises(ConfigurationError, match="snr_db"):
            harness.profile_seed(0, math.inf, 0)


class TestRunRoc:
    def test_point_layout(self):
        points = run_roc(tiny_config(target_pf_list=(0.25, 0.5),
                                     calibration_trials=40))
        assert len(points) == 4
        kinds = {(p.detector, p.target_pf) for p in points}
        assert kinds == {(DetectorKind.CYCLE_FEATURE, 0.25),
                         (DetectorKind.CYCLE_FEATURE, 0.5),
                         (DetectorKind.ENERGY, 0.25),
                         (DetectorKind.ENERGY, 0.5)}
        for p in points:
            assert p.snr_db == 10.0
            assert p.h0_trials == 20
            assert p.h1_trials == 10

    def test_high_snr_detects_everything(self):
        points = run_roc(tiny_config(snr_db_list=(60.0,)))
        for p in points:
            assert p.measured_pd == 1.0

    def test_highest_snr_still_calibrates_on_noise(self):
        # at the +3000 dB edge every trial still draws noise, so no threshold is 0
        points = run_roc(tiny_config(snr_db_list=(3000.0,)))
        for p in points:
            assert p.threshold > 0.0
            assert p.measured_pd == 1.0

    def test_repeat_run_identical(self):
        config = tiny_config()
        assert run_roc(config) == run_roc(config)

    def test_worker_count_does_not_change_output(self):
        config = tiny_config(trials=21, calibration_trials=20, h1_trials=9)
        serial = io.StringIO()
        threaded = io.StringIO()
        write_roc_csv(run_roc(config, workers=1), serial)
        write_roc_csv(run_roc(config, workers=3), threaded)
        assert serial.getvalue() == threaded.getvalue()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_a_multi_snr_sweep(self, workers, monkeypatch):
        # no worker count divides these counts evenly, so every (SNR, phase)
        # is reassembled from uneven chunks of the one ordered task stream
        config = tiny_config(snr_db_list=(-5.0, 0.0, 10.0), trials=21,
                             calibration_trials=22, h1_trials=9)
        serial = io.StringIO()
        pooled = io.StringIO()
        write_roc_csv(run_roc(config, workers=1), serial)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: workers)
        write_roc_csv(run_roc(config, workers=workers), pooled)
        assert serial.getvalue() == pooled.getvalue()

    def test_failed_task_stops_the_pool(self, tmp_path, monkeypatch):
        config = tiny_config(snr_db_list=(-5.0, 0.0, 10.0))
        monkeypatch.setattr(harness, "_compute_phase_range", TaskFailingAtFirstH0(tmp_path))
        with pytest.raises(ConfigurationError) as serial:
            run_roc(config, workers=1)
        for mark in tmp_path.iterdir():
            mark.unlink()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        with pytest.raises(ConfigurationError) as pooled:
            run_roc(config, workers=2)
        assert str(pooled.value) == str(serial.value) == "stand-in failure at snr -5.0"
        assert multiprocessing.active_children() == []
        # 18 tasks in order, 6 per SNR, and the first SNR's third fails; the
        # tasks already handed to a worker may finish, but the last SNR's
        # were cancelled before any started
        started = [path.name.split("_") for path in tmp_path.iterdir()]
        assert [str(PHASE_H0), "-5.0", "0"] in started
        assert all(snr != "10.0" for _, snr, _ in started)

    def test_master_seed_changes_output(self):
        a = run_roc(tiny_config(snr_db_list=(0.0,)))
        b = run_roc(tiny_config(snr_db_list=(0.0,), master_seed=1))
        assert a != b

    def test_pd_monotone_in_snr_with_slack(self):
        config = tiny_config(snr_db_list=(-10.0, 0.0, 10.0), trials=40,
                             calibration_trials=40, h1_trials=40)
        points = run_roc(config)
        for detector in DetectorKind:
            curve = [p.measured_pd for p in points
                     if p.detector is detector and p.target_pf == 0.5]
            assert len(curve) == 3
            assert curve[1] >= curve[0] - 0.15
            assert curve[2] >= curve[1] - 0.15

    def test_each_target_pf_checked_against_the_calibration_size(self):
        # 20 trials serve pf = 0.5 but not pf = 0.25, which needs 40
        config = tiny_config(target_pf_list=(0.5, 0.25), calibration_trials=20)
        with pytest.raises(ConfigurationError, match="target_pf=0.25; need at least 40"):
            run_roc(config)

    def test_insufficient_calibration_refused_upfront(self):
        config = tiny_config(target_pf_list=(0.01,), calibration_trials=100)
        with pytest.raises(ConfigurationError, match="1000"):
            run_roc(config)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a fork pool starts all its workers at the first task, so a pool the
        # size of --workers 100000 would fork that many; this one forks none
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        config = tiny_config(trials=21, calibration_trials=20, h1_trials=9)
        serial = run_roc(config)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        assert run_roc(config, workers=100000) == serial
        assert sizes == [2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert run_roc(config, workers=3) == serial
        assert sizes == [2]

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_roc(tiny_config(), workers=0)

    def test_config_type_checked(self):
        with pytest.raises(ConfigurationError):
            run_roc({"n_samples": 64})


CYCLE, ENERGY = DetectorKind.CYCLE_FEATURE, DetectorKind.ENERGY
# (phase, snr_db, noise_variance): the ROC phases, and one-shot calibration,
# which has no SNR and a given noise level
PHASES = [(PHASE_CALIBRATION, 10.0, None), (PHASE_H0, 10.0, None),
          (PHASE_H1, 10.0, None), (PHASE_ONESHOT, None, 2.0)]


class TestBlockedEngine:
    """The blocked engine against the per-trial loop it replaced, bit for bit."""

    @pytest.mark.parametrize("start, stop", [(0, 3), (5, 37)])
    @pytest.mark.parametrize("detectors", [DETECTORS, (ENERGY, CYCLE), (CYCLE,), (ENERGY,)])
    @pytest.mark.parametrize("phase, snr_db, variance", PHASES)
    @pytest.mark.parametrize("length", [1, 5, 31])
    def test_matches_per_trial_engine(self, length, phase, snr_db, variance, detectors,
                                      start, stop):
        config = tiny_config(smoothing_len=length, detectors=detectors)
        args = (config, phase, snr_db, start, stop, variance)
        assert np.array_equal(_compute_phase_range(*args), reference_phase_range(*args))

    @pytest.mark.parametrize("phase", [PHASE_H0, PHASE_H1])
    def test_reference_scenario_matches_per_trial_engine(self, phase):
        args = (SensingConfig(), phase, -22.0, 3, 10)
        assert np.array_equal(_compute_phase_range(*args), reference_phase_range(*args))

    @pytest.mark.parametrize("phase, snr_db, variance", PHASES)
    def test_split_ranges_concatenate(self, phase, snr_db, variance):
        config = tiny_config(smoothing_len=5)
        whole = _compute_phase_range(config, phase, snr_db, 0, 37, variance)
        parts = [_compute_phase_range(config, phase, snr_db, a, b, variance)
                 for a, b in [(0, 5), (5, 21), (21, 37)]]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))

    @pytest.mark.parametrize("phase", [PHASE_CALIBRATION, PHASE_H0, PHASE_H1])
    def test_overflowing_metric_refused(self, phase):
        # at -3000 dB the noise is ~1e150 per sample: energy stays finite,
        # the smoothed correlation overflows to nan
        config = SensingConfig(n_samples=8192, smoothing_len=31)
        with pytest.raises(ConfigurationError, match="non-finite"):
            _compute_phase_range(config, phase, -3000.0, 0, 4)

    def test_memory_stays_within_budget(self):
        # The kernel's block buffers dominate: about 1.2 MiB at 4 rows of
        # N = 4096, L = 1301, and 0.22 MiB more per extra row.
        config = SensingConfig()
        _compute_phase_range(config, PHASE_H1, -22.0, 0, 1)   # caches and lazy imports
        tracemalloc.start()
        try:
            _compute_phase_range(config, PHASE_H1, -22.0, 0, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_energy_only_memory_stays_within_budget(self):
        # without the cycle detector no block is allocated, only the energy scratch
        config = only(SensingConfig(), ENERGY)
        _compute_phase_range(config, PHASE_H1, -22.0, 0, 1)
        tracemalloc.start()
        try:
            _compute_phase_range(config, PHASE_H1, -22.0, 0, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_energy_row_equals_public_metric(self):
        # the block sum of each row is energy_metric's, at scales whose squares
        # lie 600 decades apart within one block
        config = tiny_config()
        rng = np.random.default_rng(11)
        buffers = [SampleBuffer(scale * rng.normal(size=config.n_samples),
                                config.sample_rate_hz) for scale in (1e-150, 1.0, 1e150, 0.0)]
        values = _score(only(config, ENERGY), len(buffers), buffers)
        assert values[0].tolist() == [energy_metric(buffer) for buffer in buffers]

    def test_energy_overflow_refused_as_configuration_error(self):
        # every square is finite, their sum is not: the scorer's finiteness
        # check refuses it, where math.fsum would raise OverflowError
        config = tiny_config(n_samples=16, sample_rate_hz=8.0)
        buffer = SampleBuffer(np.full(16, 1.3e154), 8.0)
        with pytest.raises(ConfigurationError, match="non-finite"):
            measure(only(config, ENERGY), buffer)


class TestOneScorer:
    """One-shot decisions are scored by the trial engine's own scorer."""

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("config", [tiny_config(), SensingConfig()],
                             ids=["tiny", "reference"])
    def test_measure_equals_engine(self, config, detector):
        count = 6
        config = only(config, detector)
        engine = _compute_phase_range(config, PHASE_ONESHOT, None, 0, count, 2.0)
        for k in range(count):
            buffer = noise_only(config.n_samples, 2.0,
                                derive_seed(config.master_seed, PHASE_ONESHOT, 0, k, 0),
                                config.sample_rate_hz)
            (metric,) = measure(config, buffer)
            assert metric == engine[0, k]

    def test_measure_returns_builtin_floats(self):
        config = tiny_config()
        buffer = noise_only(config.n_samples, 1.0, 5, config.sample_rate_hz)
        metrics = measure(config, buffer)
        assert type(metrics) is tuple
        assert [type(metric) for metric in metrics] == [float, float]

    def test_decision_memory_stays_within_budget(self):
        # One row of block buffers, transformed in place: 0.29 MiB at
        # N = 4096, L = 1301.  Four rows would take 1.2 MiB.
        config = only(SensingConfig(), CYCLE)
        buffer = noise_only(config.n_samples, 1.0, 5, config.sample_rate_hz)
        measure(config, buffer)   # caches and lazy imports
        tracemalloc.start()
        try:
            measure(config, buffer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * 2 ** 20

    @pytest.mark.parametrize("kind", list(WindowKind))
    @pytest.mark.parametrize("n, length", [(64, 1), (64, 5), (65, 1), (65, 5), (4096, 1301)])
    def test_measure_equals_library_slice(self, n, length, kind):
        if n == 4096:
            config = SensingConfig(window_kind=kind)
        else:
            config = tiny_config(n_samples=n, smoothing_len=length, window_kind=kind)
        rate = config.sample_rate_hz
        buffer = add_awgn(generate_signal(config.modulation, n, rate, 11), 0.0, 12)
        library = cycle_metric(scd_slice(buffer, config.alpha0_hz, kind, length))
        (metric,) = measure(only(config, CYCLE), buffer)
        assert metric == library


class TestDetectorsInOneConfig:
    """Scoring two detectors in one config changes neither one's numbers."""

    CONFIGS = [tiny_config(calibration_trials=100), SensingConfig(calibration_trials=100)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["tiny", "reference"])
    def test_calibrate_at_noise(self, config):
        alone = tuple(calibrate_at_noise(only(config, d), 0.1, 2.0)[0] for d in DETECTORS)
        assert calibrate_at_noise(config, 0.1, 2.0) == alone
        # one built-in float per detector, each in its detector's place
        assert all(type(threshold) is float for threshold in alone)
        reversed_order = dataclasses.replace(config, detectors=(ENERGY, CYCLE))
        assert calibrate_at_noise(reversed_order, 0.1, 2.0) == alone[::-1]

    @pytest.mark.parametrize("config", CONFIGS, ids=["tiny", "reference"])
    def test_measure(self, config):
        buffer = add_awgn(generate_signal(config.modulation, config.n_samples,
                                          config.sample_rate_hz, 11), 0.0, 12)
        alone = tuple(measure(only(config, d), buffer)[0] for d in DETECTORS)
        assert measure(config, buffer) == alone
        # each in its detector's place: the library's metrics, in DETECTORS order
        window = (config.window_kind, config.smoothing_len)
        assert alone == (cycle_metric(scd_slice(buffer, config.alpha0_hz, *window)),
                         energy_metric(buffer))
        reversed_order = dataclasses.replace(config, detectors=(ENERGY, CYCLE))
        assert measure(reversed_order, buffer) == alone[::-1]

    def test_energy_only_roc_is_the_energy_rows(self, monkeypatch):
        both = io.StringIO()
        write_roc_csv(run_roc(tiny_config(snr_db_list=(0.0, 10.0))), both)

        def refuse(*args, **kwargs):
            raise AssertionError("an energy-only sweep built a SliceWork")
        monkeypatch.setattr(harness, "SliceWork", refuse)
        energy = io.StringIO()
        # a window too long for N = 64, which the energy detector never reads
        write_roc_csv(run_roc(tiny_config(snr_db_list=(0.0, 10.0), smoothing_len=65,
                                          detectors=(ENERGY,))), energy)
        header, *rows = both.getvalue().splitlines(keepends=True)
        assert len(rows) == 4
        assert energy.getvalue() == header + "".join(
            row for row in rows if row.startswith("energy,"))


class TestRocCsv:
    def make_point(self, detector=DetectorKind.ENERGY, snr=0.0, pf=0.1):
        return RocPoint(detector=detector, snr_db=snr, target_pf=pf,
                        threshold=1.25, measured_pf=0.09, measured_pd=0.8,
                        h0_trials=100, h1_trials=50)

    def test_header_and_row_format(self):
        out = io.StringIO()
        write_roc_csv([self.make_point()], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == ROC_CSV_HEADER
        assert lines[0] == ("detector,snr_db,target_pf,threshold,"
                            "measured_pf,measured_pd,h0_trials,h1_trials")
        assert lines[1] == "energy,0.0,0.1,1.25,0.09,0.8,100,50"

    def test_rows_sorted_by_detector_snr_pf(self):
        points = [
            self.make_point(DetectorKind.ENERGY, snr=5.0, pf=0.1),
            self.make_point(DetectorKind.ENERGY, snr=5.0, pf=0.01),
            self.make_point(DetectorKind.CYCLE_FEATURE, snr=5.0, pf=0.1),
            self.make_point(DetectorKind.ENERGY, snr=-5.0, pf=0.1),
        ]
        out = io.StringIO()
        write_roc_csv(points, out)
        rows = [line.split(",")[:3] for line in out.getvalue().splitlines()[1:]]
        assert rows == [
            ["cycle_feature", "5.0", "0.1"],
            ["energy", "-5.0", "0.1"],
            ["energy", "5.0", "0.01"],
            ["energy", "5.0", "0.1"],
        ]

    def test_empty_run_writes_header_only(self):
        out = io.StringIO()
        write_roc_csv([], out)
        assert out.getvalue() == ROC_CSV_HEADER + "\n"

    def test_emit_matches_stream_writer(self, tmp_path):
        points = [self.make_point()]
        path = tmp_path / "roc.csv"
        write_roc_csv(points, path)
        out = io.StringIO()
        write_roc_csv(points, out)
        assert path.read_text() == out.getvalue()


class TestThresholdFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "threshold.txt"
        write_threshold_file(DetectorKind.ENERGY, 0.1, 2.0 / 3.0, path)
        assert path.read_text() == f"energy,0.1,{2.0 / 3.0!r}\n"
        back = read_threshold_file(path)
        assert back == (DetectorKind.ENERGY, 0.1, 2.0 / 3.0)
        assert [type(field) for field in back[1:]] == [float, float]

    def test_numpy_scalars_write_as_floats(self, tmp_path):
        # numpy 2 reprs a scalar as np.float64(0.1), which no reader parses
        path = tmp_path / "threshold.txt"
        write_threshold_file(DetectorKind.ENERGY, np.float64(0.1), np.float64(2.0 / 3.0), path)
        assert path.read_text() == f"energy,0.1,{2.0 / 3.0!r}\n"
        assert read_threshold_file(path) == (DetectorKind.ENERGY, 0.1, 2.0 / 3.0)

    @pytest.mark.parametrize("target_pf, threshold, message", [
        (7.0, 1.0, "target_pf must lie in (0, 1), got 7.0"),
        (0.1, math.nan, "threshold value must be finite and nonnegative"),
        (0.1, -1.0, "threshold value must be finite and nonnegative"),
    ], ids=["target_pf", "nan_value", "negative_value"])
    def test_writer_refuses_what_the_reader_refuses(self, target_pf, threshold, message,
                                                     tmp_path):
        path = tmp_path / "threshold.txt"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            write_threshold_file(DetectorKind.ENERGY, target_pf, threshold, path)
        assert not path.exists()

    @pytest.mark.parametrize("content", [
        "energy,0.1\n",
        "sonar,0.1,1.5\n",
        "energy,zero,1.5\n",
        "energy,0.1,soup\n",
    ])
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "threshold.txt"
        path.write_text(content)
        with pytest.raises(ConfigurationError):
            read_threshold_file(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_threshold_file(tmp_path / "nope.txt")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "threshold.txt"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="on one line"):
            read_threshold_file(path)

    # a byte that is not UTF-8 reads as U+FFFD, which no field parses
    @pytest.mark.parametrize("data", [b"\xff\xfeenergy,0.1,1.5\n", b"energy,0.1,1.\xff5\n"],
                             ids=["detector", "value"])
    def test_undecodable_file_rejected_by_name(self, data, tmp_path):
        path = tmp_path / "threshold.txt"
        path.write_bytes(data)
        with pytest.raises(ConfigurationError) as info:
            read_threshold_file(path)
        assert str(info.value).startswith(f"{path}: unparseable threshold file")

    # a parsed line whose target Pf or threshold its rule refuses
    @pytest.mark.parametrize("content, message", [
        ("energy,7,1.0\n", "target_pf must lie in (0, 1), got 7.0"),
        ("energy,nan,1.0\n", "target_pf must lie in (0, 1), got nan"),
        ("energy,0.1,-1.0\n", "threshold value must be finite and nonnegative"),
        ("energy,0.1,inf\n", "threshold value must be finite and nonnegative"),
        ("energy,0.1,nan\n", "threshold value must be finite and nonnegative"),
    ], ids=["target_pf", "nan_target_pf", "negative_value", "inf_value", "nan_value"])
    def test_refused_content_names_the_file(self, content, message, tmp_path):
        path = tmp_path / "threshold.txt"
        path.write_text(content)
        with pytest.raises(ConfigurationError) as info:
            read_threshold_file(path)
        assert str(info.value) == f"{path}: {message}"


class TestCalibrateAtNoise:
    """One-shot calibration checks its target Pf and its size before the
    first noise-only trial."""

    @pytest.mark.parametrize("target_pf, trials, rule", [
        (7.0, 20, "target_pf must lie in"),
        (math.nan, 20, "target_pf must lie in"),
        (0.01, 999, "target_pf=0.01; need at least 1000"),
    ])
    @pytest.mark.parametrize("detector", DETECTORS)
    def test_refused_before_a_trial(self, detector, target_pf, trials, rule, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibrate_at_noise ran a trial")
        monkeypatch.setattr(harness, "noise_only", refuse)
        # the Pf rule and the size rule share one type; each case names its own rule
        with pytest.raises(ConfigurationError, match=rule):
            calibrate_at_noise(only(tiny_config(calibration_trials=trials), detector),
                               target_pf, 1.0)

    @pytest.mark.parametrize("variance", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("detector", DETECTORS)
    def test_variance_refused_before_a_trial(self, detector, variance, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibrate_at_noise ran a trial")
        monkeypatch.setattr(harness, "noise_only", refuse)
        with pytest.raises(ConfigurationError, match="noise variance"):
            calibrate_at_noise(only(tiny_config(), detector), 0.5, variance)


class TestRocPointType:
    def test_probability_fields_bounded(self):
        with pytest.raises(ConfigurationError):
            RocPoint(DetectorKind.ENERGY, 0.0, 0.1, 1.0, 1.5, 0.5, 10, 10)
        with pytest.raises(ConfigurationError):
            RocPoint(DetectorKind.ENERGY, 0.0, 0.1, 1.0, 0.5, -0.1, 10, 10)
        with pytest.raises(ConfigurationError):
            RocPoint(DetectorKind.ENERGY, 0.0, 1.1, 1.0, 0.5, 0.5, 10, 10)
        with pytest.raises(ConfigurationError):
            RocPoint(DetectorKind.ENERGY, 0.0, 0.1, -1.0, 0.5, 0.5, 10, 10)
        with pytest.raises(ConfigurationError):
            RocPoint(DetectorKind.ENERGY, 0.0, 0.1, 1.0, 0.5, 0.5, 0, 10)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_threshold_refused_by_the_one_rule(self, threshold):
        # detect.check_threshold's message, as decide and the threshold file give it
        with pytest.raises(ConfigurationError,
                           match="^threshold value must be finite and nonnegative$"):
            RocPoint(DetectorKind.ENERGY, 0.0, 0.1, threshold, 0.5, 0.5, 10, 10)
