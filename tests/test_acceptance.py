"""End-to-end acceptance checks.

Each numbered test emits exactly one `ACCEPTANCE CRITERION k: PASS/FAIL`
line directly to the terminal (bypassing capture) before asserting, so a
full run always shows the verdict for every criterion.

The shared module-scope fixture runs the reference low-SNR sweep once
(AM defaults, -22 dB, 2000 calibration + 2000 H0 + 500 H1 trials) and
feeds criteria 4 and 6, the energy rows' exact-law check and the
detector-dominance invariant.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cyclosense import (DetectorKind, SampleBuffer, SensingConfig, WindowKind,
                        cycle_profile, dft, run_roc, scd_slice)
from cyclosense.cli import main
from cyclosense.harness import PHASE_H0, PHASE_H1, _compute_phase_range
from cyclosense.scd import SliceWork
from oracles import dft_naive, naive_shift, scd_slice_naive


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
                window = (WindowKind.HAMMING, length)
                with pytest.raises(Exception):
                    scd_slice(buf, 0.0, *window)
                with pytest.raises(Exception):
                    scd_slice_naive(buf, 0.0, *window)
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
                window = (kind, length)
                fast = scd_slice(buf, alpha, *window)
                slow = scd_slice_naive(buf, alpha, *window)
                assert SliceWork(n, rate, *window).shift(alpha) == naive_shift(buf, alpha)
                worst = max(worst, rel_err(fast, slow))
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
            fast = dft(buf)
            slow = dft_naive(buf)
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
    shifts = np.arange(1, n // 2)
    alphas = 2.0 * shifts * fres
    best = float(alphas[np.argmax(cycle_profile(buf, alphas, WindowKind.HAMMING, 1301))])
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
    """Each H0 exceedance count lies in the 99 % binomial band at its target Pf.

    That band covers less than 99 %.  The threshold is itself an order
    statistic of 2000 calibration trials, so its true Pf is a Beta variate
    and the count is beta-binomial, not binomial.  Under that law each of
    the four checks falls outside its band with probability 6.91 % at Pf
    0.01 ([10, 32]) and 6.52 % at Pf 0.1 ([166, 235]); the 99 %
    beta-binomial bands are [7, 40] and [154, 252].  The band is kept as
    it is; test_criterion_6_band_coverage pins these numbers.
    """
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


@pytest.mark.parametrize("target, band, miss, exact_band", [
    (0.01, (10, 32), 0.0691, (7, 40)),
    (0.1, (166, 235), 0.0652, (154, 252))])
def test_criterion_6_band_coverage(target, band, miss, exact_band):
    # calibrate_threshold returns the r-th smallest of K noise metrics,
    # r = ceil((1 - Pf) K); for a continuous H0 law its true Pf is exactly
    # Beta(K - r + 1, r), so a count over n fresh trials is
    # beta-binomial(n, K - r + 1, r) (David & Nagaraja, Order Statistics)
    trials = 2000
    r = math.ceil((1 - Fraction(target)) * trials)
    binomial = stats.binom(trials, target)
    law = stats.betabinom(trials, trials - r + 1, r)
    assert (int(binomial.ppf(0.005)), int(binomial.ppf(0.995))) == band
    lo, hi = band
    assert 1.0 - (law.cdf(hi) - law.cdf(lo - 1)) == pytest.approx(miss, abs=5e-5)
    assert (int(law.ppf(0.005)), int(law.ppf(0.995))) == exact_band


def test_energy_rows_follow_the_exact_law(reference_roc):
    """The energy rows' H0 and H1 counts lie in binomial bands of the exact law.

    Every generator scales its output to unit average power, and at -22 dB the
    noise variance is sigma^2 = 10^2.2 in both phases.  So E / sigma^2 is
    chi2(N) under H0 and noncentral chi2(N, lambda), lambda = N * 10^-2.2,
    under H1, whatever the message draw (Urkowitz, 1967).  The calibration
    trials are seeded apart from the H0 and H1 trials, so given a row's
    threshold tau each count is binomial with p = P(E >= tau).  The six bands
    are Bonferroni-corrected to a family-wise 99.9 %: correct code fails this
    test with probability at most 0.1 %.
    """
    n, variance = 4096, 10.0 ** 2.2
    laws = (stats.chi2(n), stats.ncx2(n, n * 10.0 ** -2.2))
    miss = 0.001 / 6
    for target in (0.01, 0.05, 0.1):
        point = reference_roc[(DetectorKind.ENERGY, target)]
        assert (point.h0_trials, point.h1_trials) == (2000, 500)
        for law, rate, trials in zip(laws, (point.measured_pf, point.measured_pd),
                                     (point.h0_trials, point.h1_trials)):
            count = stats.binom(trials, law.sf(point.threshold / variance))
            band = (count.ppf(miss / 2), count.ppf(1.0 - miss / 2))
            assert band[0] <= round(rate * trials) <= band[1], (target, rate, band)


def test_energy_metrics_follow_the_exact_law_in_distribution():
    """The engine's energy metrics pass Kolmogorov-Smirnov tests of the exact law.

    2000 H0 and 2000 H1 trials at each of -22 and -6 dB are scored by the
    trial engine under an energy-only config.  With sigma^2 = 10^(-SNR/10),
    E / sigma^2 is tested against chi2(N) under H0 and against noncentral
    chi2(N, N * 10^(SNR/10)) under H1 (Urkowitz, 1967).  The four tests are
    Bonferroni-corrected to a family-wise 0.001: correct code fails this test
    with probability at most 0.1 %.  Unlike the binomial bands above, they
    see a noise level off by 0.5 %: the H1 p-values then fall to about 1e-10.
    """
    config = SensingConfig(detectors=(DetectorKind.ENERGY,))
    n = config.n_samples
    for snr_db in (-22.0, -6.0):
        laws = {PHASE_H0: stats.chi2(n), PHASE_H1: stats.ncx2(n, n * 10.0 ** (snr_db / 10.0))}
        for phase, law in laws.items():
            (energy,) = _compute_phase_range(config, phase, snr_db, 0, 2000)
            p = stats.kstest(energy / 10.0 ** (-snr_db / 10.0), law.cdf).pvalue
            assert p > 0.001 / 4, (snr_db, phase, p)


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
