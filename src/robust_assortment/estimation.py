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
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .base import DataValidationError, InvalidAssortmentError
from .model import _ascending, as_assortment

#: Cap applied to the plug-in attraction when the win-rate estimate is 1.
DEFAULT_V_CAP = 1e9

#: One record of ``to_jsonl``: ``str`` of a list of Python ints is its JSON.
_JSONL_LINE = '{"assortment": %s, "choice": %d}\n'
#: JSON integers of at most this many digits fit in 64 bits whatever their value.
_MAX_DIGITS = 18
#: The lone surrogates that ``surrogateescape`` decoding leaves for bytes that are not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class OfflineDataset:
    """Offline (offered assortment, observed choice) records in CSR form.

    Record i offered ``items[offsets[i]:offsets[i + 1]]``, in the order it was
    given, and chose ``choices[i]`` (0 means no purchase).  The three arrays
    are read-only int64; ``records`` rebuilds the (ids, choice) pairs on demand.
    So the rank-breaking counts are a function of the dataset, and
    ``rank_breaking`` keeps them here, one per catalogue size.
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
        """The dataset of copies of these CSR arrays, after a check of their shapes."""
        return cls._owned(*[np.array(a) for a in (offsets, items, choices)])

    @classmethod
    def _owned(cls, offsets, items, choices, counts=None) -> "OfflineDataset":
        """``from_arrays`` of arrays no one else holds, kept as they are when int64;
        ``counts``, if given, maps catalogue sizes to the records' ``rank_breaking``
        counts, which the dataset then keeps as its own."""
        dataset = cls.__new__(cls)
        dataset._store(offsets, items, choices)
        dataset._counts.update(counts or {})
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
        self.offsets, self.items, self.choices = arrays = [np.asarray(a, np.int64) for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        self._counts: dict[int, RankBreakingCounts] = {}

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
        flat, bounds = self.items.tolist(), self.offsets.tolist()
        text = "".join([_JSONL_LINE % (flat[a:b], c)
                        for a, b, c in zip(bounds, bounds[1:], self.choices.tolist())])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def from_jsonl(cls, path) -> "OfflineDataset":
        """The dataset of a JSON-lines file: in one pass over the whole file when
        it is in the form ``to_jsonl`` writes, else one line at a time."""
        with open(path, "rb") as fh:
            dataset = _canonical_jsonl(fh.read())
        if dataset is None:
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                lines = ((line_no, line) for line_no, line in enumerate(fh, start=1)
                         if line.strip())
                dataset = _read_records(path, lines, _json_record)
        return dataset

    @classmethod
    def from_csv(cls, path) -> "OfflineDataset":
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                _check_utf8(",".join(reader.fieldnames or ()))
            except ValueError as exc:
                raise DataValidationError(f"{path} line 1: {exc}", record_index=0) from None
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
    """(chosen, ids, bad): given ``choices``, the choice of the record of each offered
    id (else None); ``items`` sorted within each record (clipped to 0..n_items + 1);
    and the first bad record (or None): one offering an id outside 1..n_items or one
    id twice, or, given ``choices``, whose choice is neither 0 nor offered.

    Records that are strictly ascending, with ids in range and each nonzero choice
    among its record's ids, pass in a few linear passes; any others take the key
    sort, which also finds the first bad record in record order.
    """
    sizes = np.diff(offsets)
    chosen = None if choices is None else np.repeat(choices, sizes)
    # distinct ids in a record match its choice at most once, so the counts agree
    # only if every nonzero choice is offered
    if (_ascending(items, offsets)
            and (not items.size or 1 <= items.min() <= items.max() <= n_items)
            and (choices is None
                 or np.count_nonzero(items == chosen) == np.count_nonzero(choices))):
        return chosen, items, None
    owner = np.repeat(np.arange(offsets.size - 1), sizes)
    span = n_items + 2  # ids clipped to 0..n_items + 1 keep each record's keys apart
    key = np.sort(owner * span + np.clip(items, 0, n_items + 1))
    ids = key - owner * span
    bad = [owner[(ids < 1) | (ids > n_items)], owner[1:][key[1:] == key[:-1]]]
    if choices is not None:
        offered = np.zeros(choices.size, dtype=bool)
        offered[owner[items == chosen]] = True
        bad.append(np.flatnonzero((choices != 0) & ~offered))
    return chosen, ids, min((int(b.min()) for b in bad if b.size), default=None)


def _canonical_jsonl(data: bytes) -> OfflineDataset | None:
    """The dataset of ``data`` if it is exactly in the form ``to_jsonl`` writes, else None.

    That form is one ``{"assortment": [a, b], "choice": c}`` line per record,
    with ", " separators and a final newline, and ids that are JSON integers
    (``-?(0|[1-9][0-9]*)``) of at most ``_MAX_DIGITS`` digits.  Tokens are the
    runs of digits and '-', and a line's token count gives its record's size.
    Deleting the tokens must leave each record's template: the line
    ``to_jsonl`` writes for that many zeros, with the zeros deleted.  A line's
    last token must sit between ' ' and '}', the choice's slot, and each other
    one between '[' or ' ' and ',' or ']', which in a template happens only at
    its slots for an item; so every slot holds exactly one token.
    """
    if not data:
        return OfflineDataset._owned([0], [], [])
    tokens = _canonical_tokens(np.frombuffer(data, dtype=np.uint8))
    if tokens is None:
        return None
    values, last, counts = tokens
    return OfflineDataset._owned(np.concatenate(([0], np.cumsum(counts - 1))),
                                 values[~last], values[last])


def _canonical_tokens(buf: np.ndarray):
    """(values, last, counts) of the tokens of a file in ``to_jsonl``'s form:
    each token's value, whether it ends its line, and the tokens per line; or
    None if the bytes ``buf`` are in any other form.

    Temporaries stay near a few bytes per file byte: the token mask is freed
    once read, and the one int64 array of token positions moves in place.
    """
    if buf[0] != ord("{") or buf[-1] != ord("\n"):
        return None
    token = buf - np.uint8(ord("0")) < 10
    token |= buf == ord("-")
    skeleton = buf[~token].tobytes()
    at = np.flatnonzero(token[1:] > token[:-1])  # token starts, less one
    del token
    before = buf[at]
    at += 1
    # tokens per line
    counts = np.diff(np.searchsorted(at, np.flatnonzero(buf == ord("\n"))), prepend=0)
    if counts.min() < 1:
        return None
    sizes = (counts - 1).tolist()
    templates = {s: (_JSONL_LINE % ([0] * s, 0)).replace("0", "").encode() for s in set(sizes)}
    neg = buf[at] == ord("-")
    at += neg
    digit = buf[at] - np.uint8(ord("0"))
    more = digit < 10
    if (skeleton != b"".join([templates[s] for s in sizes])
            or not more.all()  # a digit follows each leading '-'
            or np.any((digit == 0) & (buf[at + 1] - np.uint8(ord("0")) < 10))  # leading zero
            or not ((before == ord("[")) | (before == ord(" "))).all()):
        return None

    values = np.zeros(at.size, dtype=np.int64)
    for _ in range(_MAX_DIGITS):  # Horner's rule, one digit of each token at a time
        np.multiply(values, 10, out=values, where=more)
        np.add(values, digit, out=values, where=more)
        at += more
        digit = buf[at] - np.uint8(ord("0"))
        more &= digit < 10
        if not more.any():
            break
    else:
        return None  # a digit beyond the last that fits
    after = buf[at]  # the byte after each token's digits, so a '-' inside one is refused
    last = np.zeros(at.size, dtype=bool)  # each record's last token is its choice
    last[np.cumsum(counts) - 1] = True
    if (not np.array_equal(after == ord("}"), last)
            or not ((after == ord(",")) | (after == ord("]")) | last).all()):
        return None
    np.negative(values, out=values, where=neg)
    return values, last, counts


def _check_utf8(text: str) -> None:
    if not text.isascii() and (bad := _UNDECODABLE.search(text)):
        raise ValueError(f"malformed record: byte {ord(bad.group()) - 0xdc00:#04x} is not UTF-8")


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
    return OfflineDataset._owned(*_csr(sets), choices)


def _fields(row: dict):
    for key in ("assortment", "choice"):
        if row.get(key) is None:
            raise ValueError(f"record has no {key!r} field")
    return row["assortment"], row["choice"]


def _json_record(line: str) -> tuple[list[int], int]:
    """A JSONL record: an object with a list of integer ids and an integer choice."""
    _check_utf8(line)
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
    for text in row.values():
        _check_utf8(text or "")
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
    """Per-item pairwise-comparison counts from a single pass over the data.

    The arrays are read-only: one dataset's counts are shared by every learner
    that reads them.
    """

    wins: np.ndarray        # times the item was chosen
    duels: np.ndarray       # times the choice was the item or nothing, item offered
    offered: np.ndarray     # times the item appeared in the offered assortment
    n: int

    def __post_init__(self):
        for a in (self.wins, self.duels, self.offered):
            a.flags.writeable = False


def rank_breaking(dataset, n_items: int) -> RankBreakingCounts:
    """Exact rank-breaking counts; validates every record.

    An ``OfflineDataset`` is counted once per ``n_items`` and keeps its counts
    (``generate_dataset``'s come counted for their model's ``n_items``); any
    other sequence of records is converted and counted on each call.
    Raises ``DataValidationError`` for the first record, in record order, that
    offers an id outside 1..n_items or a repeated id, or whose choice is
    neither 0 nor offered.
    """
    if not isinstance(dataset, OfflineDataset):
        dataset = OfflineDataset(dataset)
    if n_items not in dataset._counts:
        dataset._counts[n_items] = _count(dataset, n_items)
    return dataset._counts[n_items]


def _count(dataset: OfflineDataset, n_items: int) -> RankBreakingCounts:
    """``rank_breaking`` of a dataset that has no counts for ``n_items`` yet."""
    offsets, items, choices = dataset.offsets, dataset.items, dataset.choices
    chosen, _, bad = _validated(offsets, items, n_items, choices)
    if bad is not None:
        record = tuple(items[offsets[bad]:offsets[bad + 1]].tolist())
        try:
            message = f"choice {choices[bad]} outside S_+ of {as_assortment(record, n_items)}"
        except InvalidAssortmentError as exc:
            message = f"invalid assortment {record}: {exc}"
        raise DataValidationError(f"record {bad}: {message}", record_index=bad)

    return _tally(items, choices, items[chosen == 0], n_items)


def _tally(items: np.ndarray, choices: np.ndarray, declined: np.ndarray,
           n_items: int) -> RankBreakingCounts:
    """The rank-breaking counts of valid records that offer the ids ``items`` and
    choose ``choices``, where ``declined`` holds the ids offered by the records
    that chose no purchase.  Every id lies in 0..n_items, so slot i of each
    count is item i (0: no purchase)."""
    wins = np.bincount(choices, minlength=n_items + 1)[1:]
    duels = np.bincount(declined, minlength=n_items + 1)[1:] + wins
    offered = np.bincount(items, minlength=n_items + 1)[1:]
    return RankBreakingCounts(wins=wins, duels=duels, offered=offered, n=choices.size)


@dataclass(frozen=True)
class RankBreakingEstimate:
    """Point estimates and lower confidence bounds for the attractions.

    ``p_hat`` is NaN where the item was never part of a duel; the matching
    ``v_hat`` is 0 there and capped at ``DEFAULT_V_CAP`` where ``p_hat`` hits 1.
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
        p_hat=p_hat, v_hat=v_hat, p_lcb=p_lcb, v_lcb=v_lcb, delta=delta,
    )
