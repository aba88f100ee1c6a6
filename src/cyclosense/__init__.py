"""Spectrum sensing via single-cycle-frequency spectral correlation.

The package detects a primary user's modulated carrier at low SNR by
measuring the spectral correlation its cyclostationarity induces at
alpha = 2 * carrier frequency, and compares that detector against plain
energy detection under a common Monte Carlo protocol.
"""

from .detect import (DetectorKind, calibrate_threshold, cycle_metric, decide, energy_metric,
                     required_calibration_trials)
from .errors import ConfigurationError, CyclosenseError
from .harness import (RocPoint, SensingConfig, complexity_model, read_threshold_file, run_roc,
                      write_roc_csv, write_threshold_file)
from .scd import WindowKind, cycle_profile, dft, make_window, scd_slice, write_profile_csv
from .siggen import (ModulationKind, ModulationSpec, SampleBuffer, add_awgn, generate_am,
                     generate_bpsk, generate_signal, noise_only, read_signal_file,
                     write_signal_file)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CyclosenseError",
    "DetectorKind",
    "ModulationKind",
    "ModulationSpec",
    "RocPoint",
    "SampleBuffer",
    "SensingConfig",
    "WindowKind",
    "add_awgn",
    "calibrate_threshold",
    "complexity_model",
    "cycle_metric",
    "cycle_profile",
    "decide",
    "dft",
    "energy_metric",
    "generate_am",
    "generate_bpsk",
    "generate_signal",
    "make_window",
    "noise_only",
    "read_signal_file",
    "read_threshold_file",
    "required_calibration_trials",
    "run_roc",
    "scd_slice",
    "write_profile_csv",
    "write_roc_csv",
    "write_signal_file",
    "write_threshold_file",
    "__version__",
]
