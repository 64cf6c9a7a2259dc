"""MNL choice models: parameters, choice columns, nominal revenue, sampling, file I/O."""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .base import InvalidAssortmentError, ModelFormatError, NumericRangeError

#: Attraction of the no-purchase option, fixed by the usual normalization.
V0 = 1.0
#: Lower end of the dual kernel's search bracket for lambda, relative to r_max.
LAMBDA_FLOOR = 1e-12
#: Largest r_max: the dual kernel squares lambda, which reaches 1e12 * r_max.
R_MAX_CEIL = 1e100
#: The fields of a model file, as ``MnlModel.to_dict`` writes them.
MODEL_FIELDS = ("attractions", "revenues", "r_max")


def column_sums(x: np.ndarray) -> np.ndarray:
    """Sums down the columns of ``x``, adding its rows in order, so zero rows never
    move a sum.  numpy adds an axis-0 sum row by row only over a C-contiguous array
    of two or more columns; it sums an F-ordered array or a lone column pairwise.
    So ``x`` is made C-contiguous, and a lone column accumulates."""
    x = np.ascontiguousarray(x)
    return x.sum(axis=0) if x.shape[1] > 1 else np.add.accumulate(x, axis=0)[-1]


def set_weights(columns) -> np.ndarray:
    """Total attraction W(S) = V0 + v(S) of each column of attractions, one set per column.

    Each column is added top to bottom from V0 (``column_sums`` under a V0 row),
    so a zero adds nothing: a boolean-masked column, a zero-padded column and a
    compact column of the same items in ascending order give the same bits.
    (``np.sum`` along a column would not: its pairwise blocks depend on the length.)
    """
    columns = np.asarray(columns, dtype=float)
    return _totals(np.concatenate((np.full((1, columns.shape[1]), V0), columns)))


def _totals(table: np.ndarray) -> np.ndarray:
    """Total attractions of the columns of ``table``, each V0 in row 0 over a set's
    attractions, by ``column_sums``; ``NumericRangeError`` where one overflows."""
    with np.errstate(over="ignore"):
        totals = column_sums(table)
    if not np.isfinite(totals).all():
        raise NumericRangeError("total attraction overflowed the float range")
    return totals


def as_assortment(items, n_items: int) -> tuple[int, ...]:
    """Validate an assortment and canonicalize it to a sorted tuple of 1-based ids.

    The empty assortment is allowed and models offering nothing.
    """
    out = tuple(int(i) for i in items)
    for i in out:
        if not 1 <= i <= n_items:
            raise InvalidAssortmentError(f"item {i} outside 1..{n_items}")
    if len(set(out)) != len(out):
        raise InvalidAssortmentError(f"duplicate items in {out}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class MnlModel:
    """An MNL choice environment: positive attractions and bounded revenues.

    Item ids are 1-based; the no-purchase option has id 0, attraction 1 and
    revenue 0 and is never stored.  ``r_max`` defaults to ``max(revenues)``.
    """

    attractions: np.ndarray
    revenues: np.ndarray
    r_max: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        v = np.asarray(self.attractions, dtype=float)
        r = np.asarray(self.revenues, dtype=float)
        if v.ndim != 1 or r.ndim != 1 or v.shape != r.shape or v.size < 1:
            raise ValueError("attractions and revenues must be equal-length 1-D vectors")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("attractions must be finite and strictly positive")
        r_max = float(np.max(r)) if self.r_max is None else float(self.r_max)
        if not (r_max > 0.0 and math.isfinite(r_max)):
            raise ValueError("r_max must be a positive finite real")
        if LAMBDA_FLOOR * r_max < sys.float_info.min:
            raise NumericRangeError(f"r_max={r_max} is too small: the dual's lambda floor "
                                    f"{LAMBDA_FLOOR} * r_max is not a normal float")
        if r_max > R_MAX_CEIL:
            raise NumericRangeError(f"r_max={r_max} is too large: the dual kernel needs "
                                    f"r_max <= {R_MAX_CEIL}")
        if not np.all(np.isfinite(r)) or np.any(r < 0.0) or np.any(r > r_max):
            raise ValueError(f"revenues must lie in [0, r_max={r_max}]")
        v = v.copy()
        r = r.copy()
        v.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "attractions", v)
        object.__setattr__(self, "revenues", r)
        object.__setattr__(self, "r_max", r_max)

    @property
    def n_items(self) -> int:
        return self.attractions.size

    @property
    def v_tot(self) -> float:
        """Total item attraction, excluding the no-purchase option."""
        return float(np.sum(self.attractions))

    def assortment_weight(self, items) -> float:
        """Total attraction of ``items`` plus the no-purchase option."""
        column = self.attractions[np.sort(np.asarray(items, dtype=np.intp)) - 1]
        return float(set_weights(column[:, None])[0])

    def to_dict(self) -> dict:
        return {
            "attractions": self.attractions.tolist(),
            "revenues": self.revenues.tolist(),
            "r_max": self.r_max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MnlModel":
        if not isinstance(payload, dict):
            raise ModelFormatError("a model must be a JSON object")
        unknown = sorted(set(payload) - set(MODEL_FIELDS))
        if unknown:
            raise ModelFormatError(f"unknown model field(s) {', '.join(map(repr, unknown))}; "
                                   f"a model has {', '.join(MODEL_FIELDS)}")
        missing = [key for key in ("attractions", "revenues") if key not in payload]
        if missing:
            raise ModelFormatError(f"model has no {' or '.join(map(repr, missing))} field")
        r_max = payload.get("r_max")
        fields = {"attractions": payload["attractions"], "revenues": payload["revenues"],
                  "r_max": [] if r_max is None else [r_max]}
        for key, values in fields.items():
            # finite JSON numbers: a true or false reads as a bool, which is no number here
            if not (isinstance(values, list) and all(
                    type(x) in (int, float) and abs(x) <= sys.float_info.max for x in values)):
                what = "finite number or null" if key == "r_max" else "list of finite numbers"
                raise ModelFormatError(f"model field {key!r} must be a {what}")
        return cls(attractions=np.array(payload["attractions"], dtype=float),
                   revenues=np.array(payload["revenues"], dtype=float), r_max=r_max)


def load_model(path) -> MnlModel:
    with open(path, "r", encoding="utf-8") as fh:
        return MnlModel.from_dict(json.load(fh))


def save_model(model: MnlModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ChoiceDistribution:
    """A probability mass function over an assortment plus no-purchase.

    ``support`` always starts with 0 (no purchase) followed by the offered
    items in increasing order; ``probs`` aligns with ``support``.
    """

    support: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.support),):
            raise ValueError("probs must align with support")
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        if self.support[0] != 0 or list(self.support[1:]) != sorted(set(self.support[1:])):
            raise ValueError("support must be (0, sorted distinct items)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))


def choice_columns(model: MnlModel, sets, attractions=None):
    """Conditional MNL choice columns of assortments, one per row of ``sets``.

    ``sets`` holds 1-based item ids in any order, padded with 0.  Returns
    (P, R, weights), P and R of shape (k + 1, m): column i of P holds set i's
    choice probabilities, no purchase in row 0 and then its items in ascending
    id order, zero-padded below; R holds the revenues aligned with P; and
    ``weights`` the sets' total attractions from ``set_weights``.

    Given ``attractions``, an (s, n) stack of attraction vectors that stand in
    for the model's, P and R have m * s columns: column i * s + j holds set i
    under vector j, with the bits it has in a model of those attractions.
    """
    support, P, weights = _support_columns(model, sets, attractions)
    R = np.concatenate(([0.0], model.revenues, [0.0]))[support]
    if attractions is not None:
        R = np.repeat(R, len(attractions), axis=1)
    return P, R, weights


def _support_columns(model: MnlModel, sets, attractions=None):
    """(support, P, weights) of ``choice_columns``: column i of ``support`` holds
    set i's S_+ ids, 0 first, then its items ascending, then n + 1 for padding."""
    ids = np.asarray(sets, dtype=np.intp)
    m, k = ids.shape
    if not (ids.size and ids.min() > 0 and _ascending(ids.ravel(), k * np.arange(m + 1))):
        # padding sorts last as id n + 1, whose entries are 0
        ids = np.sort(np.where(ids > 0, ids, model.n_items + 1), axis=1)
    support = np.zeros((k + 1, m), dtype=np.intp)  # row 0: no purchase
    support[1:] = ids.T
    if attractions is None:
        P = np.concatenate(([V0], model.attractions, [0.0]))[support]
    else:  # row i of the table: id i under each vector, so P[r, i, j] is set i's row r under j
        stack = np.asarray(attractions, dtype=float)
        table = np.concatenate((np.full((1, len(stack)), V0), stack.T,
                                np.zeros((1, len(stack)))))
        P = table[support].reshape(k + 1, m * len(stack))
    weights = _totals(P)  # row 0 is V0: set_weights(P[1:]) without copying P
    P /= weights
    return support, P, weights


def _ascending(flat: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether each run ``flat[offsets[i]:offsets[i + 1]]`` strictly ascends, in
    one pass; ``offsets`` rise from 0 to ``flat.size``."""
    rising = np.empty(flat.size + 1, dtype=bool)
    rising[1:-1] = flat[1:] > flat[:-1]  # entry j: flat[j] exceeds flat[j - 1] ...
    rising[offsets] = True  # ... or starts a run
    return bool(rising.all())


def nominal_revenues(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Expected revenue of each choice column: the dual kernel's zero-radius value."""
    return column_sums(P * R)


def nominal_expected_revenue(model: MnlModel, items) -> float:
    """Expected revenue of ``items`` under the model's own choice probabilities."""
    P, R, _ = choice_columns(model, [as_assortment(items, model.n_items)])
    return float(nominal_revenues(P, R)[0])


def _draw_choices(model: MnlModel, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the MNL conditionals over the canonical assortments in
    the rows of the (m, k) int array ``rows``: row i turns ``uniforms[i]`` into a choice.

    The CDF adds ``choice_columns``' probabilities one row at a time, top to
    bottom, so a batch rounds as each set alone and draws do not depend on it.
    """
    m, k = rows.shape
    cdf = np.zeros(m)
    drawn = np.zeros(m, dtype=np.intp)  # searchsorted(cdf, u, side="right") per set
    for probs in _support_columns(model, rows)[1]:
        cdf += probs
        drawn += cdf <= uniforms
    # the rounded CDF can end below 1, so a draw may land past its last entry
    drawn = np.minimum(drawn, k)
    flat = np.concatenate(([0], rows.ravel()))  # flat[i * k + j]: row i's item j >= 1
    return flat[(np.arange(m) * k + drawn) * (drawn > 0)]  # index 0: no purchase
