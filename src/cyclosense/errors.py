"""Exception types shared across the package."""


class CyclosenseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CyclosenseError):
    """Invalid parameter, spec, input format, or calibration size for a target Pf. CLI exit 2."""
