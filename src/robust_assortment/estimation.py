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
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .base import DataValidationError, InvalidAssortmentError
from .model import MnlModel, as_assortment

#: Cap applied to the plug-in attraction when the win-rate estimate is 1.
DEFAULT_V_CAP = 1e9


class OfflineDataset:
    """Offline (offered assortment, observed choice) records in CSR form.

    Record i offered ``items[offsets[i]:offsets[i + 1]]``, in the order it was
    given, and chose ``choices[i]`` (0 means no purchase).  The three arrays
    are read-only int64; ``records`` rebuilds the (ids, choice) pairs on demand.
    """

    def __init__(self, records):
        records = list(records)
        try:
            self._store(*_csr([items for items, _ in records]), [choice for _, choice in records])
        except (OverflowError, DataValidationError):
            for index, (items, choice) in enumerate(records):
                ids = [i for i in (*items, choice) if isinstance(i, numbers.Integral)]
                if ids and not _fits_int64(ids):
                    raise DataValidationError(
                        f"record {index}: an id does not fit in 64 bits",
                        record_index=index) from None
            raise

    @classmethod
    def from_arrays(cls, offsets, items, choices) -> "OfflineDataset":
        """The dataset of these CSR arrays, copied after a check of their shapes."""
        dataset = cls.__new__(cls)
        dataset._store(offsets, items, choices)
        return dataset

    def _store(self, offsets, items, choices) -> None:
        arrays = offsets, items, choices = [np.asarray(a) for a in (offsets, items, choices)]
        # uint64 is refused: casting it to int64 would wrap ids of 2**63 and more
        if (any(a.ndim != 1 or (a.size and (a.dtype.kind not in "iu" or a.dtype == np.uint64))
                for a in arrays)
                or offsets.size != choices.size + 1 or offsets[0] != 0
                or offsets[-1] != items.size or np.any(np.diff(offsets) < 0)):
            raise DataValidationError("offsets, items and choices must be 1-D integer arrays, "
                                      "offsets rising from 0 to len(items), one step per choice")
        self.offsets, self.items, self.choices = arrays = [a.astype(np.int64) for a in arrays]
        for a in arrays:
            a.flags.writeable = False

    @property
    def records(self) -> list[tuple[tuple[int, ...], int]]:
        flat, bounds = self.items.tolist(), self.offsets.tolist()
        return [(tuple(flat[a:b]), c)
                for a, b, c in zip(bounds, bounds[1:], self.choices.tolist())]

    @property
    def n(self) -> int:
        return self.choices.size

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return self.choices.size

    def __eq__(self, other) -> bool:
        return isinstance(other, OfflineDataset) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("offsets", "items", "choices"))

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for items, choice in self.records:
                fh.write(json.dumps({"assortment": list(items), "choice": choice}))
                fh.write("\n")

    @classmethod
    def from_jsonl(cls, path) -> "OfflineDataset":
        with open(path, "r", encoding="utf-8") as fh:
            lines = ((line_no, line) for line_no, line in enumerate(fh, start=1) if line.strip())
            return _read_records(path, lines, _json_record)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["assortment", "choice"])
            for items, choice in self.records:
                writer.writerow([";".join(str(i) for i in items), choice])

    @classmethod
    def from_csv(cls, path) -> "OfflineDataset":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            return _read_records(path, ((reader.line_num, row) for row in reader), _csv_record)


def _csr(sets) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, items) of a sequence of id sequences or of a 2-D array, one set per row."""
    if isinstance(sets, np.ndarray) and sets.ndim == 2:
        rows = np.asarray(sets, dtype=np.int64)
        return rows.shape[1] * np.arange(rows.shape[0] + 1), rows.ravel()
    sets = list(sets)
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in sets], dtype=np.int64)))
    return offsets, np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(offsets[-1]))


def _validated(offsets: np.ndarray, items: np.ndarray, n_items: int, choices=None):
    """The record of each offered id, ``items`` sorted within each record (clipped to
    0..n_items + 1), and the first bad record (or None): one offering an id outside
    1..n_items or one id twice, or, given ``choices``, whose choice is neither 0 nor
    offered."""
    owner = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    span = n_items + 2  # ids clipped to 0..n_items + 1 keep each record's keys apart
    key = owner * span + np.clip(items, 0, n_items + 1)
    if not np.all(key[1:] > key[:-1]):  # some record is out of order or repeats an id
        key = np.sort(key)
    ids = key - owner * span
    bad = [owner[(ids < 1) | (ids > n_items)], owner[1:][key[1:] == key[:-1]]]
    if choices is not None:
        offered = np.zeros(choices.size, dtype=bool)
        offered[owner[items == choices[owner]]] = True
        bad.append(np.flatnonzero((choices != 0) & ~offered))
    bad = np.concatenate(bad)
    return owner, ids, int(bad.min()) if bad.size else None


def _fits_int64(ids) -> bool:
    return -2 ** 63 <= min(ids) <= max(ids) < 2 ** 63


def _read_records(path, rows, parse) -> OfflineDataset:
    """The dataset of the numbered file ``rows``, each parsed once by ``parse``."""
    sets, choices = [], []
    for line_no, row in rows:
        try:
            ids, choice = parse(row)
            if not _fits_int64([*ids, choice]):
                raise ValueError("malformed record: an id does not fit in 64 bits")
        except ValueError as exc:
            raise DataValidationError(f"{path} line {line_no}: {exc}",
                                      record_index=len(choices)) from exc
        sets.append(ids)
        choices.append(choice)
    return OfflineDataset.from_arrays(*_csr(sets), choices)


def _fields(row: dict):
    for key in ("assortment", "choice"):
        if row.get(key) is None:
            raise ValueError(f"record has no {key!r} field")
    return row["assortment"], row["choice"]


def _json_record(line: str) -> tuple[list[int], int]:
    """A JSONL record: an object with a list of integer ids and an integer choice."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg} (column {exc.colno})") from None
    if not isinstance(row, dict):
        raise ValueError("malformed record: not a JSON object")
    items, choice = _fields(row)
    if not isinstance(items, list):
        raise ValueError(f"malformed record: assortment {items!r} is not a list")
    ids = [*items, choice]
    if set(map(type, ids)) != {int}:  # bool is an int subclass, so match exact types
        ids = [_json_id(i) for i in ids]
    return ids[:-1], ids[-1]


def _json_id(value) -> int:
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"malformed record: {value!r} is not an integer id")


def _csv_record(row: dict) -> tuple[list[int], int]:
    """A CSV record: semicolon-joined ids and a choice, one field per header column."""
    if None in row:  # csv.DictReader files the fields beyond the header under None
        raise ValueError(f"malformed record: {len(row[None])} field(s) beyond the header")
    items, choice = _fields(row)
    try:
        return list(map(int, items.split(";"))) if items.strip() else [], int(choice)
    except ValueError as exc:
        raise ValueError(f"malformed record: {exc}") from None


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
    """Exact rank-breaking counts; validates every record.

    Raises ``DataValidationError`` for the first record, in record order, that
    offers an id outside 1..n_items or a repeated id, or whose choice is
    neither 0 nor offered.
    """
    if not isinstance(dataset, OfflineDataset):
        dataset = OfflineDataset(dataset)
    offsets, items, choices = dataset.offsets, dataset.items, dataset.choices
    owner, _, bad = _validated(offsets, items, n_items, choices)
    if bad is not None:
        record = tuple(items[offsets[bad]:offsets[bad + 1]].tolist())
        try:
            message = f"choice {choices[bad]} outside S_+ of {as_assortment(record, n_items)}"
        except InvalidAssortmentError as exc:
            message = f"invalid assortment {record}: {exc}"
        raise DataValidationError(f"record {bad}: {message}", record_index=bad)

    wins = np.bincount(choices[choices > 0] - 1, minlength=n_items)
    duels = np.bincount(items[choices[owner] == 0] - 1, minlength=n_items) + wins
    offered = np.bincount(items - 1, minlength=n_items)
    return RankBreakingCounts(wins=wins, duels=duels, offered=offered, n=dataset.n)


@dataclass(frozen=True)
class RankBreakingEstimate:
    """Point estimates and lower confidence bounds for the attractions.

    ``p_hat`` is NaN where the item was never part of a duel; the matching
    ``v_hat`` is 0 there and capped at ``v_cap`` (always ``DEFAULT_V_CAP``)
    where ``p_hat`` hits 1.
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


def point_and_lcb(counts: RankBreakingCounts, delta: float) -> RankBreakingEstimate:
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
    ph, m = p_hat[seen], duels[seen]
    v_hat[seen] = np.where(ph >= 1.0, DEFAULT_V_CAP, ph / (1.0 - np.where(ph >= 1.0, 0.0, ph)))

    p_lcb = np.zeros(wins.shape)
    penalty = np.sqrt(2.0 * ph * (1.0 - ph) * log_term / m) + log_term / m
    p_lcb[seen] = np.maximum(0.0, ph - penalty)
    v_lcb = p_lcb / (1.0 - p_lcb)
    return RankBreakingEstimate(
        wins=counts.wins.copy(), duels=counts.duels.copy(), offered=counts.offered.copy(),
        p_hat=p_hat, v_hat=v_hat, p_lcb=p_lcb, v_lcb=v_lcb, delta=delta, v_cap=DEFAULT_V_CAP,
    )


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
