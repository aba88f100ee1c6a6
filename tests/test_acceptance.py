"""End-to-end acceptance checks.

Each numbered test emits exactly one `ACCEPTANCE CRITERION k: PASS/FAIL`
line directly to the terminal (bypassing capture) before asserting, so a
full run always shows the verdict for every criterion.

The shared module-scope fixture runs the reference low-SNR sweep once
(AM defaults, -22 dB, 2000 calibration + 2000 H0 + 500 H1 trials) and
feeds criteria 4 and 6 plus the detector-dominance invariant.
"""

import math

import numpy as np
import pytest
from scipy import stats

from cyclosense import (DetectorKind, SampleBuffer, SensingConfig, WindowKind,
                        cycle_profile, dft, make_window, run_roc, scd_slice)
from cyclosense.cli import main
from oracles import dft_naive, scd_slice_naive


def report(capsys, number, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE CRITERION {number}: {status} ({detail})")


def rel_err(got, want):
    denom = float(np.max(np.abs(want)))
    if denom == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / denom)


@pytest.fixture(scope="module")
def reference_roc():
    config = SensingConfig(target_pf_list=(0.01, 0.05, 0.1), trials=2000,
                           calibration_trials=2000, h1_trials=500)
    points = run_roc(config, workers=4)
    return {(p.detector, p.target_pf): p for p in points}


def test_criterion_1_oracle_equivalence(capsys):
    # fast estimator vs the loop-and-direct-transform reference, >= 100
    # randomized cases over N x L with aligned and misaligned alpha
    rng = np.random.default_rng(20260823)
    worst = 0.0
    cases = 0
    for n in (16, 64, 256):
        for length in (1, 5, 31):
            if length >= n:
                # both paths must refuse a window that cannot fit
                buf = SampleBuffer(rng.normal(size=n), 1.0)
                window = make_window(WindowKind.HAMMING, length)
                with pytest.raises(Exception):
                    scd_slice(dft(buf), 0.0, window, 1.0)
                with pytest.raises(Exception):
                    scd_slice_naive(buf, 0.0, window)
                continue
            for case in range(13):
                rate = float(rng.choice([1.0, 3e6]))
                buf = SampleBuffer(rng.normal(size=n), rate)
                fres = rate / n
                if case % 2 == 0:
                    shift = int(rng.integers(-(n // 2 - 1), n // 2))
                    alpha = 2.0 * shift * fres
                else:
                    alpha = float(rng.uniform(-0.95, 0.95)) * rate
                kind = WindowKind.HAMMING if case % 3 else WindowKind.RECTANGULAR
                window = make_window(kind, length)
                fast = scd_slice(dft(buf), alpha, window, 1.0 / rate)
                slow = scd_slice_naive(buf, alpha, window)
                assert fast.alpha_effective_hz == slow.alpha_effective_hz
                worst = max(worst, rel_err(fast.values, slow.values))
                cases += 1
    ok = cases >= 100 and worst < 1e-9
    report(capsys, 1, ok, f"{cases} cases, worst relative error {worst:.3e}")
    assert cases >= 100
    assert worst < 1e-9


def test_criterion_2_dft_correctness(capsys):
    rng = np.random.default_rng(7)
    worst_dft = 0.0
    worst_parseval = 0.0
    for n in (8, 64, 257, 1024):
        for _ in range(3):
            buf = SampleBuffer(rng.normal(size=n), 1.0)
            fast = dft(buf).bins
            slow = dft_naive(buf).bins
            worst_dft = max(worst_dft, rel_err(fast, slow))
            time_energy = float(np.sum(buf.samples ** 2))
            freq_energy = float(np.sum(np.abs(fast) ** 2)) / n
            worst_parseval = max(
                worst_parseval, abs(freq_energy - time_energy) / time_energy)
    ok = worst_dft < 1e-9 and worst_parseval < 1e-9
    report(capsys, 2, ok,
           f"transform err {worst_dft:.3e}, energy-conservation err "
           f"{worst_parseval:.3e}, N up to 1024")
    assert worst_dft < 1e-9
    assert worst_parseval < 1e-9


def test_criterion_3_tone_feature_location(capsys):
    n = 4096
    rate = 3e6
    fres = rate / n
    tone_bin = 1365
    f0 = tone_bin * fres
    k = np.arange(n)
    buf = SampleBuffer(np.cos(2.0 * np.pi * (f0 / rate) * k), rate)
    window = make_window(WindowKind.HAMMING, 1301)
    shifts = np.arange(1, n // 2)
    profile = cycle_profile(buf, 2.0 * shifts * fres, window)
    best = float(profile.alphas_hz[np.argmax(profile.magnitudes)])
    expected = 2.0 * tone_bin * fres
    ok = best == expected
    report(capsys, 3, ok,
           f"argmax alpha {best} Hz vs 2*f0 = {expected} Hz, grid-exact")
    assert best == expected


def test_criterion_4_low_snr_roc_claim(reference_roc, capsys):
    cycle_10 = reference_roc[(DetectorKind.CYCLE_FEATURE, 0.1)].measured_pd
    cycle_01 = reference_roc[(DetectorKind.CYCLE_FEATURE, 0.01)].measured_pd
    energy_10 = reference_roc[(DetectorKind.ENERGY, 0.1)].measured_pd
    energy_01 = reference_roc[(DetectorKind.ENERGY, 0.01)].measured_pd
    ok = (cycle_10 >= 0.9 and cycle_01 >= 0.8
          and energy_10 <= 0.4 and energy_01 <= 0.5)
    report(capsys, 4,
           ok,
           f"-22 dB: cycle pd {cycle_10:.3f}@pf0.1 (need >=0.9), "
           f"{cycle_01:.3f}@pf0.01 (need >=0.8); energy pd "
           f"{energy_10:.3f}@pf0.1 (need <=0.4), {energy_01:.3f}@pf0.01 "
           f"(need <=0.5)")
    assert cycle_10 >= 0.9
    assert cycle_01 >= 0.8
    assert energy_10 <= 0.4
    assert energy_01 <= 0.5


def test_criterion_5_complexity_numbers(capsys):
    code = main(["complexity", "--n", "4096", "--smoothing-len", "1300"])
    lines = capsys.readouterr().out.splitlines()
    wanted = ("proposed_real_mul=104804", "proposed_real_add=151356",
              "energy_real_mul=16384", "energy_real_add=12288")
    ok = code == 0 and all(w in lines for w in wanted)
    report(capsys, 5, ok,
           "n=4096 l=1300 -> 104804/151356 proposed, 16384/12288 energy, "
           f"exit {code}")
    assert code == 0
    for w in wanted:
        assert w in lines


def test_criterion_6_calibration_fidelity(reference_roc, capsys):
    trials = 2000
    parts = []
    ok = True
    for target in (0.01, 0.1):
        lo = int(stats.binom.ppf(0.005, trials, target))
        hi = int(stats.binom.ppf(0.995, trials, target))
        for detector in DetectorKind:
            point = reference_roc[(detector, target)]
            count = int(round(point.measured_pf * point.h0_trials))
            ok = ok and lo <= count <= hi and point.h0_trials == trials
            parts.append(f"{detector.value}@{target}: {count} in [{lo},{hi}]")
    report(capsys, 6, ok, "; ".join(parts))
    for target in (0.01, 0.1):
        lo = int(stats.binom.ppf(0.005, trials, target))
        hi = int(stats.binom.ppf(0.995, trials, target))
        for detector in DetectorKind:
            point = reference_roc[(detector, target)]
            count = int(round(point.measured_pf * point.h0_trials))
            assert point.h0_trials == trials
            assert lo <= count <= hi, (detector, target, count)


def test_criterion_7_parallel_determinism(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["roc", "--trials", "100", "--calibration-trials", "100",
            "--h1-trials", "100", "--target-pf", "0.1"]
    code_a = main([*base, "--workers", "1", "--out", str(serial)])
    code_b = main([*base, "--workers", "2", "--out", str(parallel)])
    bytes_a = serial.read_bytes()
    bytes_b = parallel.read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    report(capsys, 7,
           ok,
           f"1-worker vs 2-worker CSVs: {len(bytes_a)} vs {len(bytes_b)} "
           f"bytes, identical={bytes_a == bytes_b}")
    assert code_a == 0 and code_b == 0
    assert bytes_a == bytes_b


def test_criterion_8_profile_shapes(tmp_path, capsys):
    results = {}
    for modulation in ("am", "bpsk"):
        out = tmp_path / f"{modulation}.csv"
        code = main(["profile", "--modulation", modulation, "--snr-db", "0",
                     "--alpha-max-hz", "2.5e6", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        alphas = np.array([float(a) for a, _ in rows])
        mags = np.array([float(m) for _, m in rows])
        results[modulation] = (alphas, mags)

    step = 2.0 * 3e6 / 4096
    target = 2e6
    parts = []
    ok = True
    for modulation, (alphas, mags) in results.items():
        positive = alphas > 0.0
        best = alphas[positive][np.argmax(mags[positive])]
        error = abs(best - target)
        ok = ok and error <= step
        parts.append(f"{modulation} peak at {best:.1f} Hz "
                     f"(off by {error:.1f} <= step {step:.1f})")

    am_alphas, am_mags = results["am"]
    on_peak = am_mags[am_alphas > 0.0].max()
    off_region = (am_alphas > 0.0) & (np.abs(am_alphas - target) > 3 * step)
    ratio = float(on_peak / np.median(am_mags[off_region]))
    ok = ok and ratio >= 10.0
    parts.append(f"am peak/median-off-peak {ratio:.2f}x (need >=10)")
    report(capsys, 8, ok, "; ".join(parts))
    for modulation, (alphas, mags) in results.items():
        positive = alphas > 0.0
        best = alphas[positive][np.argmax(mags[positive])]
        assert abs(best - target) <= step, modulation
    assert ratio >= 10.0


def test_invariant_low_snr_dominance(reference_roc, capsys):
    # declared sweep-level invariant: at -22 dB the cycle detector's pd
    # exceeds the energy detector's at every target pf
    parts = []
    ok = True
    for target in (0.01, 0.05, 0.1):
        cycle = reference_roc[(DetectorKind.CYCLE_FEATURE, target)].measured_pd
        energy = reference_roc[(DetectorKind.ENERGY, target)].measured_pd
        ok = ok and cycle > energy
        parts.append(f"pf={target}: cycle {cycle:.3f} vs energy {energy:.3f}")
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nINVARIANT dominance at -22 dB: {status} ({'; '.join(parts)})")
    for target in (0.01, 0.05, 0.1):
        cycle = reference_roc[(DetectorKind.CYCLE_FEATURE, target)].measured_pd
        energy = reference_roc[(DetectorKind.ENERGY, target)].measured_pd
        assert cycle > energy, target
