"""Sensing metrics, threshold calibration, and H0/H1 decisions.

Two detectors share one decision protocol: a scalar metric is compared
against a threshold calibrated as an empirical quantile of noise-only
metrics, so no closed-form noise statistics are assumed for either.
"""

import math
from enum import Enum
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ConfigurationError
from .siggen import SampleBuffer

__all__ = [
    "DetectorKind",
    "cycle_metric",
    "energy_metric",
    "required_calibration_trials",
    "calibrate_threshold",
    "decide",
]

_SUM_CHUNK = 1 << 16    # squares the exact routine holds as Python floats at once
_FAST_SUM_MAX = 1 << 25    # n <= 2^25 keeps R's error within delta, and |R| <= Q (t's error exact)


class DetectorKind(Enum):
    CYCLE_FEATURE = "cycle_feature"
    ENERGY = "energy"


def _check_metric(value: float) -> float:
    """value, refused unless finite and nonnegative, as every metric is."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigurationError("metric value must be finite and nonnegative")
    return value


def check_threshold(value: float) -> float:
    """value, refused unless finite and nonnegative, as every threshold is."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigurationError("threshold value must be finite and nonnegative")
    return value


def cycle_metric(values: np.ndarray) -> float:
    """Max magnitude over frequency of a slice's values, a nonempty 1-D array as
    scd_slice returns."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("slice values must be a nonempty 1-D sequence")
    return _check_metric(float(np.abs(values).max()))


def energy_metric(signal: SampleBuffer) -> float:
    """The correctly rounded sum of the buffer's squares, a float, order-free; inf refused."""
    return _check_metric(sum_of_squares(signal.samples))


@np.errstate(over="ignore")    # an inf square is left to the exact routine, as 2^1024
def sum_of_squares(x: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """The correctly rounded sum of the squares of 1-D float64 x, inf on overflow, in the two
    rows of scratch if given.  A fast path certifies fl(Q + R) by Rump, Ogita and Oishi's
    extraction; the exact routine decides ties, empty rows, rows out of range or too long."""
    if 0 < x.size <= _FAST_SUM_MAX:
        c = max(1, (x.size - 1).bit_length())    # n <= 2^c
        s, q = np.empty((2, x.size)) if scratch is None else scratch[:, :x.size]
        np.square(x, out=s)
        m = float(s.max())
        if 2.0 ** -900 < m < 2.0 ** (1000 - c):    # false for inf and nan
            M = math.frexp(m)[1] + c    # sigma = 2^M >= n max(s)
            np.add(s, 2.0 ** M, out=q)    # q = (s + sigma) - sigma, multiples of 2^(M-52): Q exact
            q -= 2.0 ** M
            s -= q    # the exact rests, below 2^(M-53): R is within delta = 2^(2c+M-106)
            Q, R = float(q.sum()), float(s.sum())
            t = Q + R    # whose error is exactly R - (t - Q), as |R| <= Q
            if abs(R - (t - Q)) + 2.0 ** (2 * c + M - 106) < (t - math.nextafter(t, 0)) / 2:
                return t    # the exact sum lies within half the gap below t
    return _exact_sum_of_squares(x)


@np.errstate(over="ignore")    # an inf square makes the sum inf
def _exact_sum_of_squares(x: np.ndarray) -> float:
    """The correctly rounded sum of the squares of 1-D float64 x, inf on overflow: math.fsum,
    and where fsum's partials overflow, near DBL_MAX, the exact rational sum rounded once."""
    def squares():    # _SUM_CHUNK at a time, never one Python list per row
        return chain.from_iterable(np.square(x[start:start + _SUM_CHUNK]).tolist()
                                   for start in range(0, x.size, _SUM_CHUNK))
    try:
        return math.fsum(squares())
    except OverflowError:
        try:
            return float(sum(map(Fraction, squares())))
        except OverflowError:    # an inf square, or a sum from DBL_MAX + ulp/2 up
            return math.inf


def required_calibration_trials(target_pf: float) -> int:
    """Minimum sample size so the tail above the quantile holds ~10 points."""
    return math.ceil(10 / Fraction(target_pf))


def check_target_pf(target_pf, calibration_trials=None) -> None:
    """The target-Pf rule, 0 < Pf < 1, and given a calibration size, the size rule."""
    if not 0.0 < target_pf < 1.0:
        raise ConfigurationError(f"target_pf must lie in (0, 1), got {target_pf!r}")
    if calibration_trials is not None and calibration_trials < (
            required := required_calibration_trials(target_pf)):
        raise ConfigurationError(f"calibration sample of {calibration_trials} is too small for "
                                 f"target_pf={target_pf}; need at least {required}")


def calibrate_threshold(metric_sample, target_pf: float) -> float:
    """The threshold, a float: the order statistic at index ceil((1 - target_pf) * K).

    The index is 1-based over the ascending sort.  The index arithmetic is
    done in exact rationals: float rounding of (1 - pf) * K can land just
    above an integer and ceil would then skip one order statistic.
    """
    values = [float(v) for v in metric_sample]
    k = len(values)
    check_target_pf(target_pf, k)
    if any(not (math.isfinite(v) and v >= 0.0) for v in values):
        raise ConfigurationError("calibration metrics must be finite and nonnegative")
    values.sort()
    index = math.ceil((1 - Fraction(target_pf)) * k)
    return values[index - 1]


def decide(metric: float, threshold: float) -> bool:
    """True (H1, the primary user is active) iff metric >= threshold, a tie detecting; False
    is H0.  A zero threshold, met by all, is refused.  No kind is compared: detect refuses
    another detector's threshold before it measures."""
    _check_metric(metric)
    if check_threshold(threshold) == 0.0:
        raise ConfigurationError(f"threshold {float(threshold)!r} is met by every metric, an "
                                 "all-zero buffer's too; it decides on no evidence")
    return bool(metric >= threshold)
