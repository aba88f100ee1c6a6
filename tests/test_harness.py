"""Monte Carlo harness, complexity model, and serialization tests."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from cyclosense import (CalibrationError, ChannelSpec, ConfigurationError, DetectorKind,
                        ModulationKind, ModulationSpec, RocPoint,
                        SensingConfig, Threshold, WindowKind, add_awgn, complexity_model,
                        cycle_metric, dft, generate_signal, harness, make_window,
                        noise_only, read_threshold_file, run_roc, scd_slice,
                        write_roc_csv, write_threshold_file)
from cyclosense.harness import (DETECTORS, PHASE_CALIBRATION, PHASE_H0, PHASE_H1,
                                PHASE_ONESHOT, ROC_CSV_HEADER, _compute_phase_range,
                                derive_seed, measure)
from oracles import reference_phase_range


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
        dict(snr_db_list=(-22.0, -22.0004)),     # same seeds at 0.001 dB
        dict(snr_db_list=(5.0, 5.0)),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            tiny_config(**kwargs)


class TestComplexityModel:
    def test_reference_operating_point(self):
        report = complexity_model(4096, 1300)
        assert report.proposed_real_mul == 104804
        assert report.proposed_real_add == 151356
        assert report.energy_real_mul == 16384
        assert report.energy_real_add == 12288

    def test_smallest_transform(self):
        report = complexity_model(2, 1)
        assert report.proposed_real_mul == 9
        assert report.proposed_real_add == 9
        assert report.energy_real_mul == 8
        assert report.energy_real_add == 6

    def test_mul_ratio_closed_form(self):
        # log2(n)/2 + 5l/(4n); dyadic at this operating point, so exact
        report = complexity_model(4096, 1300)
        assert report.mul_ratio == 6.0 + 6500.0 / 16384.0

    def test_growth_is_n_log_n(self):
        small = complexity_model(1024, 1)
        large = complexity_model(2048, 1)
        assert large.proposed_real_mul - 5 == 2 * (small.proposed_real_mul - 5) * 11 / 10

    @pytest.mark.parametrize("n", [0, 3, 6, 4095, 4097])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ConfigurationError):
            complexity_model(n, 1)

    def test_even_window_length_accepted_verbatim(self):
        # the estimator itself requires odd lengths, but the formula is
        # evaluated at whatever l the caller quotes
        assert complexity_model(4096, 1300).l == 1300

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

    def test_infinite_snr_is_noise_free(self):
        points = run_roc(tiny_config(snr_db_list=(math.inf,)))
        for p in points:
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

    def test_insufficient_calibration_refused_upfront(self):
        config = tiny_config(target_pf_list=(0.01,), calibration_trials=100)
        with pytest.raises(CalibrationError, match="1000"):
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

            def shutdown(self):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
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
        config = tiny_config(smoothing_len=length)
        args = (config, phase, snr_db, start, stop, detectors, variance)
        assert np.array_equal(_compute_phase_range(*args), reference_phase_range(*args))

    @pytest.mark.parametrize("phase", [PHASE_H0, PHASE_H1])
    def test_reference_scenario_matches_per_trial_engine(self, phase):
        args = (SensingConfig(), phase, -22.0, 3, 10)
        assert np.array_equal(_compute_phase_range(*args), reference_phase_range(*args))

    @pytest.mark.parametrize("phase, snr_db, variance", PHASES)
    def test_split_ranges_concatenate(self, phase, snr_db, variance):
        config = tiny_config(smoothing_len=5)
        whole = _compute_phase_range(config, phase, snr_db, 0, 37, DETECTORS, variance)
        parts = [_compute_phase_range(config, phase, snr_db, a, b, DETECTORS, variance)
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


class TestOneScorer:
    """One-shot decisions are scored by the trial engine's own scorer."""

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("config", [tiny_config(), SensingConfig()],
                             ids=["tiny", "reference"])
    def test_measure_equals_engine(self, config, detector):
        count = 6
        engine = _compute_phase_range(config, PHASE_ONESHOT, None, 0, count, (detector,), 2.0)
        for k in range(count):
            buffer = noise_only(config.n_samples, 2.0,
                                derive_seed(config.master_seed, PHASE_ONESHOT, 0, k, 0),
                                config.sample_rate_hz)
            metric = measure(config, detector, buffer)
            assert metric.detector is detector
            assert metric.value == engine[0, k]

    def test_decision_memory_stays_within_budget(self):
        # One row of block buffers, transformed in place: 0.29 MiB at
        # N = 4096, L = 1301.  Four rows would take 1.2 MiB.
        config = SensingConfig()
        buffer = noise_only(config.n_samples, 1.0, 5, config.sample_rate_hz)
        measure(config, CYCLE, buffer)   # caches and lazy imports
        tracemalloc.start()
        try:
            measure(config, CYCLE, buffer)
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
        buffer = add_awgn(generate_signal(config.modulation, n, rate, 11),
                          ChannelSpec(0.0, 12))
        window = make_window(kind, length)
        library = cycle_metric(scd_slice(dft(buffer), config.alpha0_hz, window, 1.0 / rate))
        assert measure(config, CYCLE, buffer).value == library.value


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
        original = Threshold(2.0 / 3.0, 0.1, 100, DetectorKind.ENERGY)
        write_threshold_file(original, path)
        assert path.read_text() == f"energy,0.1,{2.0 / 3.0!r}\n"
        back = read_threshold_file(path)
        assert back.value == original.value
        assert back.target_pf == original.target_pf
        assert back.detector is original.detector
        # the file format does not carry the sample size
        assert back.calibration_trials == 1

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
