"""Workload definitions: inputs, the calls one unit makes, and output checks.

A unit is a fixed list of in-process `cli.main` calls.  A run repeats the
unit until its time is up, so every unit of a run must produce the same
bytes.  Inputs depend only on the seed and are made here with numpy, not
with the package's own generators, so a change to the package cannot
change what it is given.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FS_HZ = 3e6
FC_HZ = 1e6
BANDWIDTH_HZ = 10e3      # one-sided AM message bandwidth
N = 4096
ALPHA0_HZ = 2.0 * FC_HZ
PROFILE_HEADER = "alpha_hz,i_alpha"
ROC_HEADER = "detector,snr_db,target_pf,threshold,measured_pf,measured_pd,h0_trials,h1_trials"
THRESHOLD_REL_TOL = 1e-12
PROFILE_REL_TOL = 1e-9
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def reference_flags(smoothing_len: int) -> list:
    """The reference scenario spelled out, so a change of CLI defaults cannot move it."""
    return ["--modulation", "am", "--fc-hz", repr(FC_HZ), "--fs-hz", repr(FS_HZ),
            "--bandwidth-hz", repr(BANDWIDTH_HZ), "--am-mod-index", "0.5", "--n", str(N),
            "--window", "hamming", "--smoothing-len", str(smoothing_len)]


@dataclass
class Call:
    kind: str                    # roc | profile | calibrate | detect
    argv: list
    out_path: Path | None        # file the command writes; None means stdout
    items: int = 0               # Monte Carlo buffers or cycle frequencies processed
    index: int = 0               # position among a unit's detect calls


@dataclass
class Unit:
    calls: list
    item_kinds: tuple            # call kinds whose time and items make items_per_s
    op_kind: str                 # call kind whose latencies make op_ms_*
    workers: int = 1
    smoothing_len: int = 1301
    context: dict = field(default_factory=dict)


# -- inputs -----------------------------------------------------------------

def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def am_waveform(rng: np.random.Generator) -> np.ndarray:
    """Unit-power AM on FC_HZ: (1 + 0.5 m) cos, m brick-walled to BANDWIDTH_HZ."""
    spectrum = np.fft.rfft(rng.normal(size=N))
    spectrum[np.fft.rfftfreq(N, 1.0 / FS_HZ) > BANDWIDTH_HZ] = 0.0
    spectrum[0] = 0.0
    message = np.fft.irfft(spectrum, N)
    message /= math.sqrt(float(np.mean(message ** 2)))
    x = (1.0 + 0.5 * message) * np.cos(2.0 * np.pi * (FC_HZ / FS_HZ) * np.arange(N))
    return x / math.sqrt(float(np.mean(x ** 2)))


def write_signal(path: Path, samples: np.ndarray) -> None:
    """The package's signal-file format: rate header, one repr'd sample a line."""
    lines = [f"# sample_rate_hz={FS_HZ!r}"] + [repr(v) for v in samples.tolist()]
    path.write_text("\n".join(lines) + "\n")


# -- workloads --------------------------------------------------------------

def _roc_unit(workdir, seed, *, snrs, smoothing_len, workers, trials, cal, h1):
    argv = ["roc", *reference_flags(smoothing_len)]
    for snr in snrs:
        argv += ["--snr-db", repr(float(snr))]
    argv += ["--target-pf", "0.01", "--target-pf", "0.1", "--trials", str(trials),
             "--calibration-trials", str(cal), "--h1-trials", str(h1),
             "--seed", str(seed), "--workers", str(workers)]
    out = workdir / "roc.csv"
    call = Call("roc", argv + ["--out", str(out)], out, len(snrs) * (cal + trials + h1))
    return Unit([call], ("roc",), "roc", workers, smoothing_len,
                {"snrs": tuple(float(s) for s in snrs), "trials": trials, "h1": h1})


def build_roc_reference(workdir: Path, seed: int, workers: int = 1) -> Unit:
    return _roc_unit(workdir, seed, snrs=(-22.0,), smoothing_len=1301, workers=workers,
                     trials=1000, cal=1000, h1=250)


def build_roc_sweep_w2(workdir: Path, seed: int, workers: int = 2) -> Unit:
    return _roc_unit(workdir, seed, snrs=(-22.0, -18.0, -14.0, -10.0), smoothing_len=1,
                     workers=workers, trials=500, cal=1000, h1=250)


def build_profile_full(workdir: Path, seed: int, workers: int = 1) -> Unit:
    rng = _rng(seed, 3, 0)
    signal = workdir / "profile-input.txt"
    write_signal(signal, am_waveform(rng) + rng.normal(0.0, 1.0, N))   # 0 dB
    out = workdir / "profile.csv"
    argv = ["profile", *reference_flags(1301), "--input", str(signal), "--out", str(out)]
    return Unit([Call("profile", argv, out, N - 1)], ("profile",), "profile")


DETECT_FILES = 40          # half noise-only, half AM plus noise
DETECTS_PER_UNIT = 400
DETECT_SNR_DB = -14.0
CALIBRATION_TRIALS = 500


def build_calibrate_detect(workdir: Path, seed: int, workers: int = 1) -> Unit:
    flags = reference_flags(1301)
    calls = []
    thresholds = {}
    for detector in ("cycle_feature", "energy"):
        out = workdir / f"{detector}.threshold"
        thresholds[detector] = out
        calls.append(Call("calibrate", [
            "calibrate", *flags, "--detector", detector, "--noise-variance", "1.0",
            "--target-pf", "0.1", "--calibration-trials", str(CALIBRATION_TRIALS),
            "--seed", str(seed), "--out", str(out)], out, CALIBRATION_TRIALS))
    files = []
    amplitude = math.sqrt(10.0 ** (DETECT_SNR_DB / 10.0))
    for i in range(DETECT_FILES):
        rng = _rng(seed, 4, i)
        samples = rng.normal(0.0, 1.0, N)
        if i % 2:
            samples = samples + amplitude * am_waveform(rng)
        path = workdir / f"detect-{i:02d}.txt"
        write_signal(path, samples)
        files.append(path)
    for j in range(DETECTS_PER_UNIT):
        argv = ["detect", *flags, "--input", str(files[j % DETECT_FILES]),
                "--detector", "cycle_feature",
                "--threshold-file", str(thresholds["cycle_feature"])]
        calls.append(Call("detect", argv, None, 0, j))
    return Unit(calls, ("calibrate",), "detect")


BUILDERS = {
    "roc_reference": build_roc_reference,
    "roc_sweep_w2": build_roc_sweep_w2,
    "profile_full": build_profile_full,
    "calibrate_detect": build_calibrate_detect,
}


# -- parsing ----------------------------------------------------------------

def parse_roc(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != ROC_HEADER:
        raise ValueError("ROC CSV header mismatch")
    rows = []
    for line in lines[1:]:
        det, snr, pf, thr, mpf, mpd, h0, h1 = line.split(",")
        rows.append([det, float(snr), float(pf), float(thr), float(mpf), float(mpd),
                     int(h0), int(h1)])
    return rows


def parse_profile(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != PROFILE_HEADER:
        raise ValueError("profile CSV header mismatch")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return values[:, 0], values[:, 1]


def parse_detect(text: str) -> dict:
    fields = dict(part.split("=", 1) for part in text.split())
    return {"decision": fields["decision"], "detector": fields["detector"],
            "metric": float(fields["metric"]), "threshold": float(fields["threshold"])}


def parse_threshold(text: str) -> list:
    det, pf, value = text.strip().split(",")
    return [det, float(pf), float(value)]


def summary(unit: Unit, outputs: list) -> dict:
    """The recordable content of one unit's outputs (see expected/)."""
    first = unit.calls[0].kind
    if first == "roc":
        return {"rows": parse_roc(outputs[0])}
    if first == "profile":
        return {"magnitudes": parse_profile(outputs[0])[1].tolist()}
    thresholds = {}
    decisions = {}
    for call, text in zip(unit.calls, outputs):
        if call.kind == "calibrate":
            det, _, value = parse_threshold(text)
            thresholds[det] = value
        elif call.index < DETECT_FILES:
            decisions[call.index] = parse_detect(text)["decision"]
    return {"thresholds": thresholds,
            "decisions": [decisions[i] for i in range(DETECT_FILES)]}


def load_expected(workload: str, seed: int):
    """The recorded summary for this seed, or None if none was recorded."""
    if workload == "profile_full":
        path = EXPECTED_DIR / "profile_full.npz"
        if not path.exists():
            return None
        with np.load(path) as data:
            key = f"seed{seed}"
            return {"magnitudes": data[key]} if key in data.files else None
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


# -- checks -----------------------------------------------------------------

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_roc(unit: Unit, text: str, expected) -> list:
    ctx = unit.context
    rows = parse_roc(text)
    errors = []
    keys = [(det, snr, pf) for det in ("cycle_feature", "energy")
            for snr in sorted(ctx["snrs"]) for pf in (0.01, 0.1)]
    if [tuple(r[:3]) for r in rows] != keys:
        return [f"ROC rows {[tuple(r[:3]) for r in rows]} != {keys}"]
    for det, snr, pf, thr, mpf, mpd, h0, h1 in rows:
        where = f"{det} snr={snr} pf={pf}"
        if (h0, h1) != (ctx["trials"], ctx["h1"]):
            errors.append(f"{where}: trial counts {h0},{h1}")
        if not (math.isfinite(thr) and thr > 0.0):
            errors.append(f"{where}: threshold {thr!r}")
        for value, count in ((mpf, h0), (mpd, h1)):
            if not 0.0 <= value <= 1.0 or round(value * count) / count != value:
                errors.append(f"{where}: rate {value!r} is not k/{count}")
    if expected is not None:
        for got, want in zip(rows, expected["rows"]):
            if got[:3] != want[:3] or got[4:] != want[4:]:
                errors.append(f"ROC row {got} != recorded {want}")
            elif not _close(got[3], want[3], THRESHOLD_REL_TOL):
                errors.append(f"ROC threshold {got[3]!r} != recorded {want[3]!r}")
    return errors


def profile_grid() -> np.ndarray:
    fres = FS_HZ / N
    max_shift = (N - 1) // 2
    return 2.0 * np.arange(-max_shift, max_shift + 1) * fres


def check_profile(text: str, expected) -> list:
    alphas, mags = parse_profile(text)
    grid = profile_grid()
    if alphas.shape != grid.shape or not np.array_equal(alphas, grid):
        return ["profile alpha grid differs from the full grid"]
    if not (np.all(np.isfinite(mags)) and np.all(mags >= 0.0)):
        return ["profile magnitudes not finite and nonnegative"]
    errors = []
    away = np.abs(alphas) > 0.5 * ALPHA0_HZ       # away from the alpha = 0 power spectrum
    peak = float(alphas[away][np.argmax(mags[away])])
    # the AM message spreads the feature over 2 fc +- 2 B, and noise can put
    # the maximum anywhere in that band
    if abs(abs(peak) - ALPHA0_HZ) > 2.0 * BANDWIDTH_HZ:
        errors.append(f"profile peak at {peak!r} Hz, not within 2 B of 2 fc")
    if expected is not None:
        want = np.asarray(expected["magnitudes"])
        bad = np.abs(mags - want) > PROFILE_REL_TOL * np.abs(want)
        if bad.any():
            errors.append(f"{int(bad.sum())} profile values differ from the recording "
                          f"by more than {PROFILE_REL_TOL} relative")
    return errors


def check_calibrate(call: Call, text: str, expected) -> list:
    det, pf, value = parse_threshold(text)
    want_det = call.argv[call.argv.index("--detector") + 1]
    if det != want_det or pf != 0.1 or not (math.isfinite(value) and value > 0.0):
        return [f"threshold file {text.strip()!r}"]
    if expected is not None and value != expected["thresholds"][det]:
        return [f"{det} threshold {value!r} != recorded {expected['thresholds'][det]!r}"]
    return []


def check_detect(call: Call, text: str, threshold_text: str, expected) -> list:
    got = parse_detect(text)
    threshold = parse_threshold(threshold_text)[2]
    errors = []
    if got["detector"] != "cycle_feature" or got["threshold"] != threshold:
        errors.append(f"detect line {text.strip()!r} does not use threshold {threshold!r}")
    active = got["metric"] >= got["threshold"]
    if got["decision"] != ("h1_active" if active else "h0_inactive"):
        errors.append(f"decision {got['decision']} contradicts metric vs threshold")
    if expected is not None:
        want = expected["decisions"][call.index % DETECT_FILES]
        if got["decision"] != want:
            errors.append(f"decision {got['decision']} != recorded {want}")
    return errors


def check_call(unit: Unit, call: Call, text: str, outputs_so_far: list, expected) -> list:
    """Errors in one call's output; outputs_so_far holds earlier calls' outputs."""
    if call.kind == "roc":
        return check_roc(unit, text, expected)
    if call.kind == "profile":
        return check_profile(text, expected)
    if call.kind == "calibrate":
        return check_calibrate(call, text, expected)
    return check_detect(call, text, outputs_so_far[0], expected)
