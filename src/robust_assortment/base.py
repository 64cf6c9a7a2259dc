"""Shared exceptions and the parameter-introspection mixin."""
from __future__ import annotations

import inspect


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
    """An experiment config names settings that do not exist."""


class NotFittedError(RobustAssortmentError, AttributeError):
    """fit() has not been called on this estimator yet."""


class ParamsMixin:
    """scikit-learn style ``get_params`` / ``set_params`` support.

    Estimators store constructor arguments verbatim as attributes, so the
    ``__init__`` signature is the single source of parameter names.  This is
    duck-type compatible with ``sklearn.base.clone`` and model-selection
    tooling without importing scikit-learn.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
