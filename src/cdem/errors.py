"""Exception taxonomy shared by all cdem modules."""

from __future__ import annotations


class CdemError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CdemError):
    """A file on disk does not conform to the expected layout; raised only
    while a file is read or parsed."""


class DataError(CdemError):
    """Input values violate a data contract: an array handed over in memory
    that breaks ``matio.as_matrix``'s rule or the label rule, or a well-formed
    file whose values are unusable."""


class DegenerateDataError(DataError):
    """Data is structurally valid but numerically unusable (zero variance, zero rows)."""


class ConfigError(CdemError):
    """A configuration value or combination of values is invalid."""


class NumericError(CdemError):
    """A numerical routine failed to produce a usable result."""
