"""Sensing metrics, threshold calibration, and H0/H1 decisions.

Two detectors share one decision protocol: a scalar metric is compared
against a threshold calibrated as an empirical quantile of noise-only
metrics, so no closed-form noise statistics are assumed for either.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import CalibrationError, ConfigurationError
from .scd import ScdSlice
from .siggen import SampleBuffer

__all__ = [
    "DetectorKind",
    "Decision",
    "SensingMetric",
    "Threshold",
    "cycle_metric",
    "energy_metric",
    "required_calibration_trials",
    "calibrate_threshold",
    "decide",
]


class DetectorKind(Enum):
    CYCLE_FEATURE = "cycle_feature"
    ENERGY = "energy"


class Decision(Enum):
    H0_INACTIVE = "h0_inactive"
    H1_ACTIVE = "h1_active"


@dataclass(frozen=True)
class SensingMetric:
    """Nonnegative scalar test statistic from one received buffer."""

    value: float
    detector: DetectorKind

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ConfigurationError("metric value must be finite and nonnegative")


@dataclass(frozen=True)
class Threshold:
    """Empirical (1 - target_pf) quantile of a noise-only metric sample."""

    value: float
    target_pf: float
    calibration_trials: int
    detector: DetectorKind

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ConfigurationError("threshold value must be finite and nonnegative")
        check_target_pf(self.target_pf)
        if self.calibration_trials < 1:
            raise ConfigurationError("calibration_trials must be positive")


def cycle_metric(slice_: ScdSlice) -> SensingMetric:
    """Max magnitude of the slice over frequency."""
    value = float(np.abs(slice_.values).max())
    return SensingMetric(value, DetectorKind.CYCLE_FEATURE)


def energy_metric(signal: SampleBuffer) -> SensingMetric:
    # fsum gives the correctly rounded sum, so the metric does not depend
    # on accumulation order and concatenation is exactly additive whenever
    # the partial sums are representable; a square that overflows to inf
    # is refused by SensingMetric, so numpy need not warn of it
    with np.errstate(over="ignore"):
        value = math.fsum(np.square(signal.samples).tolist())
    return SensingMetric(value, DetectorKind.ENERGY)


def required_calibration_trials(target_pf: float) -> int:
    """Minimum sample size so the tail above the quantile holds ~10 points."""
    return math.ceil(10 / Fraction(target_pf))


def check_target_pf(target_pf, calibration_trials=None) -> None:
    """The target-Pf rule, 0 < Pf < 1, and given a calibration size, the size rule."""
    if not 0.0 < target_pf < 1.0:
        raise ConfigurationError(f"target_pf must lie in (0, 1), got {target_pf!r}")
    if calibration_trials is not None and calibration_trials < (
            required := required_calibration_trials(target_pf)):
        raise CalibrationError(f"calibration sample of {calibration_trials} is too small for "
                               f"target_pf={target_pf}; need at least {required}")


def calibrate_threshold(metric_sample, target_pf: float,
                        detector: DetectorKind = DetectorKind.CYCLE_FEATURE) -> Threshold:
    """Threshold = order statistic at index ceil((1 - target_pf) * K).

    The index is 1-based over the ascending sort.  The index arithmetic is
    done in exact rationals: float rounding of (1 - pf) * K can land just
    above an integer and ceil would then skip one order statistic.
    """
    values = [float(v) for v in metric_sample]
    k = len(values)
    check_target_pf(target_pf, k)
    if any(not (math.isfinite(v) and v >= 0.0) for v in values):
        raise CalibrationError("calibration metrics must be finite and nonnegative")
    values.sort()
    index = math.ceil((1 - Fraction(target_pf)) * k)
    return Threshold(values[index - 1], float(target_pf), k, detector)


def decide(metric: SensingMetric, threshold: Threshold) -> Decision:
    """H1 iff metric >= threshold; the tie counts as a detection."""
    if metric.detector is not threshold.detector:
        raise ConfigurationError(
            f"metric from {metric.detector.value} cannot be compared against a "
            f"{threshold.detector.value} threshold"
        )
    if metric.value >= threshold.value:
        return Decision.H1_ACTIVE
    return Decision.H0_INACTIVE
