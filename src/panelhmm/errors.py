"""Exception hierarchy shared across the package.

``InputError`` maps to CLI exit code 2, ``NumericalError`` to exit code 3.
"""


class PanelHmmError(Exception):
    """Base class for all package errors."""


class InputError(PanelHmmError):
    """Malformed input files, flags, or configuration."""


class NumericalError(PanelHmmError):
    """A numerical operation failed (non-finite values, no stationary
    distribution, undefined diagnostic)."""
