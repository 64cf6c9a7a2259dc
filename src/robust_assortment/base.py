"""The package's typed exceptions, all subclasses of ``RobustAssortmentError``."""
from __future__ import annotations


class RobustAssortmentError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAssortmentError(RobustAssortmentError, ValueError):
    """An assortment contains out-of-range or duplicate items."""


class NumericRangeError(RobustAssortmentError, OverflowError):
    """A quantity left the representable floating-point range."""


class RadiusInfeasibleError(RobustAssortmentError, ValueError):
    """The varying-radius formula has no finite value for this assortment."""

    def __init__(self, message: str, items=None):
        super().__init__(message)
        self.items = tuple(items) if items is not None else None


class DataValidationError(RobustAssortmentError, ValueError):
    """An offline-data record is malformed."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class ModelFormatError(RobustAssortmentError, ValueError):
    """A model payload is not an object with attractions and revenues."""


class ConfigError(RobustAssortmentError, ValueError):
    """An experiment or learning config names a setting that does not exist, or
    gives one a value of the wrong type or range."""
