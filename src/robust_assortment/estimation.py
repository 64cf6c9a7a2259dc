"""Rank-breaking estimation of MNL attractions from offline choice data.

Each item's attraction is estimated from the binary comparison "chose the
item" vs "chose nothing" restricted to records that offered the item, which
decouples the items from each other.  Lower confidence bounds on the win
probability translate into pessimistic attraction estimates.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .base import DataValidationError, ParamsMixin, check_fitted
from .model import MnlModel, as_assortment

#: Cap applied to the plug-in attraction when the win-rate estimate is 1.
DEFAULT_V_CAP = 1e9


class OfflineDataset:
    """A sequence of (offered assortment, observed choice) records."""

    def __init__(self, records):
        self.records = [(tuple(map(int, s)), int(c)) for s, c in records]

    @property
    def n(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        return isinstance(other, OfflineDataset) and self.records == other.records

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for items, choice in self.records:
                fh.write(json.dumps({"assortment": list(items), "choice": choice}))
                fh.write("\n")

    @classmethod
    def from_jsonl(cls, path) -> "OfflineDataset":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataValidationError(
                        f"{path} line {line_no}: invalid JSON: {exc.msg} (column {exc.colno})",
                        record_index=len(records),
                    ) from exc
                records.append(_parse_record(row, path, line_no, len(records)))
        return cls(records)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["assortment", "choice"])
            for items, choice in self.records:
                writer.writerow([";".join(str(i) for i in items), choice])

    @classmethod
    def from_csv(cls, path) -> "OfflineDataset":
        records = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                records.append(_parse_record(row, path, reader.line_num, len(records)))
        return cls(records)


def _parse_record(row, path, line_no: int, index: int) -> tuple[tuple[int, ...], int]:
    """The (assortment, choice) pair of one file record, read from a JSON object
    or a CSV row whose assortment is semicolon-joined ids."""
    try:
        items, choice = row["assortment"], row["choice"]
        if isinstance(items, str):
            items = items.split(";") if items.strip() else ()
        return tuple(map(int, items)), int(choice)
    except KeyError as exc:
        message = f"record has no {exc} field"
    except (TypeError, ValueError) as exc:
        message = f"malformed record: {exc}"
    raise DataValidationError(f"{path} line {line_no}: {message}", record_index=index)


def load_dataset(path) -> OfflineDataset:
    """Read a dataset from JSON-lines (default) or CSV (by extension)."""
    if str(path).endswith(".csv"):
        return OfflineDataset.from_csv(path)
    return OfflineDataset.from_jsonl(path)


@dataclass(frozen=True)
class RankBreakingCounts:
    """Per-item pairwise-comparison counts from a single pass over the data."""

    wins: np.ndarray        # times the item was chosen
    duels: np.ndarray       # times the choice was the item or nothing, item offered
    offered: np.ndarray     # times the item appeared in the offered assortment
    n: int


def rank_breaking(dataset, n_items: int) -> RankBreakingCounts:
    """Exact rank-breaking counts; validates every record."""
    records = dataset.records if isinstance(dataset, OfflineDataset) else [
        (tuple(s), int(c)) for s, c in dataset
    ]
    wins = np.zeros(n_items, dtype=np.int64)
    duels = np.zeros(n_items, dtype=np.int64)
    offered = np.zeros(n_items, dtype=np.int64)

    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, (items, _) in enumerate(records):
        groups.setdefault(items, []).append(pos)

    for items, positions in groups.items():
        try:
            canon = as_assortment(items, n_items)
        except Exception as exc:
            raise DataValidationError(
                f"record {positions[0]}: invalid assortment {items}: {exc}",
                record_index=positions[0],
            ) from exc
        allowed = {0, *canon}
        choices = np.fromiter((records[p][1] for p in positions), dtype=np.int64)
        bad = [c not in allowed for c in choices.tolist()]
        if any(bad):
            where = positions[bad.index(True)]
            raise DataValidationError(
                f"record {where}: choice {records[where][1]} outside S_+ of {canon}",
                record_index=where,
            )
        counts = np.bincount(choices, minlength=n_items + 1)
        zeros = int(counts[0])
        for j in canon:
            wins[j - 1] += int(counts[j])
            duels[j - 1] += zeros + int(counts[j])
            offered[j - 1] += len(positions)
    return RankBreakingCounts(wins=wins, duels=duels, offered=offered, n=len(records))


@dataclass(frozen=True)
class RankBreakingEstimate:
    """Point estimates and lower confidence bounds for the attractions.

    ``p_hat`` is NaN where the item was never part of a duel; the matching
    ``v_hat`` is 0 there and capped at ``v_cap`` where ``p_hat`` hits 1.
    ``v_lcb`` needs no cap: the confidence penalty keeps the bound below 1.
    """

    wins: np.ndarray
    duels: np.ndarray
    offered: np.ndarray
    p_hat: np.ndarray
    v_hat: np.ndarray
    p_lcb: np.ndarray
    v_lcb: np.ndarray
    delta: float
    v_cap: float


def point_and_lcb(counts: RankBreakingCounts, delta: float,
                  v_cap: float = DEFAULT_V_CAP) -> RankBreakingEstimate:
    """Win-rate point estimates and their lower confidence bounds.

    The bound subtracts an empirical-Bernstein style penalty
    sqrt(2*p*(1-p)*log(1/delta)/m) + log(1/delta)/m, floored at zero.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    wins = counts.wins.astype(float)
    duels = counts.duels.astype(float)
    log_term = math.log(1.0 / delta)

    p_hat = np.full(wins.shape, np.nan)
    seen = duels > 0
    p_hat[seen] = wins[seen] / duels[seen]

    v_hat = np.zeros(wins.shape)
    v_hat[seen] = np.where(
        p_hat[seen] >= 1.0, v_cap, p_hat[seen] / (1.0 - np.where(p_hat[seen] >= 1.0, 0.0, p_hat[seen]))
    )

    p_lcb = np.zeros(wins.shape)
    ph, m = p_hat[seen], duels[seen]
    penalty = np.sqrt(2.0 * ph * (1.0 - ph) * log_term / m) + log_term / m
    p_lcb[seen] = np.maximum(0.0, ph - penalty)
    v_lcb = p_lcb / (1.0 - p_lcb)
    return RankBreakingEstimate(
        wins=counts.wins.copy(), duels=counts.duels.copy(), offered=counts.offered.copy(),
        p_hat=p_hat, v_hat=v_hat, p_lcb=p_lcb, v_lcb=v_lcb, delta=delta, v_cap=v_cap,
    )


class RankBreakingEstimator(ParamsMixin):
    """Estimator-style wrapper: ``fit(records)`` then read fitted arrays.

    Parameters
    ----------
    n_items : number of items in the catalogue (ids are 1-based).
    delta : per-item failure probability fed to the confidence bound. Passed
        through verbatim; callers wanting a simultaneous guarantee over all
        items should divide their budget by the number of items themselves.
    v_cap : cap for the plug-in attraction when the win rate estimate is 1.
    """

    def __init__(self, n_items: int, delta: float = 0.1, v_cap: float = DEFAULT_V_CAP):
        self.n_items = n_items
        self.delta = delta
        self.v_cap = v_cap

    def fit(self, records) -> "RankBreakingEstimator":
        counts = rank_breaking(records, self.n_items)
        est = point_and_lcb(counts, self.delta, self.v_cap)
        self.counts_ = counts
        self.estimate_ = est
        self.v_hat_ = est.v_hat
        self.v_lcb_ = est.v_lcb
        self.n_offered_ = counts.offered
        return self

    def transform(self, records=None) -> np.ndarray:
        """Pessimistic attraction vector of the fitted data."""
        check_fitted(self, "estimate_")
        return self.v_lcb_.copy()


def lcb_validity_rate(model: MnlModel, schedule, n: int, delta: float,
                      replications: int, rng: np.random.Generator) -> float:
    """Monte-Carlo frequency of the event {v_lcb <= v for every item}.

    ``schedule`` is either a fixed sequence of assortments or a factory
    ``(n, rng) -> sequence`` drawn fresh each replication.
    """
    from .simulate import generate_dataset  # local import to avoid a cycle

    hits = 0
    for _ in range(replications):
        plan = schedule(n, rng) if callable(schedule) else list(schedule)[:n]
        dataset = generate_dataset(model, plan, rng)
        counts = rank_breaking(dataset, model.n_items)
        est = point_and_lcb(counts, delta)
        if np.all(est.v_lcb <= model.attractions + 1e-12):
            hits += 1
    return hits / replications
