"""Per-item dwell-time profiles and per-user click timestamps.

Profiles come from one statistics pass over the training log's columns
(``build_profiles``) or from a saved store (``ProfileStore.load``), and the
labeling pass only reads them, so labels depend on nothing but the log, the
stats and the store.  An event's own click is part of the profiles it is
labeled against (the simplest two-pass semantics).

Store format 4 is a header ``<4sIdIII`` (magic ``VRPF``, version, eps,
switch threshold, item count, user count) followed by little-endian arrays,
each sized by what came before it:

- u16 token byte lengths, of the items and then the users, each sorted;
- the UTF-8 token bytes;
- u64 record count of each item;
- u32 click count of each user;
- f64 sorted dwell values of the exact items;
- u32 entry count of each sketch item;
- GK entries (f64 value, u64 g, u64 delta) of the sketch items;
- u64 sorted click timestamps of the users, each below 2^63 as a log's are;

then the little-endian CRC-32 (``zlib.crc32``) of every byte before it.
An item is in sketch mode exactly when its record count is above the switch
threshold; its GK values ascend and its g values sum to its record count.
The arrays must end where the checksum starts, so a cut or extended store is
rejected, and the checksum rejects any other changed byte (and all but about
2^-32 of larger changes) before a value is read; values are stored in full
f64, so a reloaded store answers every query exactly as the saved one did.  Equal inputs give equal bytes.
Version 3 had no checksum; version 2 had length-prefixed records and no
record count; version 1 stored the values as f32.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .events import TIMESTAMP_LIMIT, EventTable, distinct_ids
from .quantiles import DEFAULT_EPS, DEFAULT_SWITCH_THRESHOLD, QuantileEstimator

WEEK_SECONDS = 7 * 86400

STORE_MAGIC = b"VRPF"
STORE_VERSION = 4

_HEADER = struct.Struct("<4sIdIII")
_CRC = struct.Struct("<I")
_GK_ENTRY = np.dtype([("value", "<f8"), ("g", "<u8"), ("delta", "<u8")])


class NoProfileDataError(ValueError):
    """Queried a profile with no records."""


@dataclass(slots=True)
class ItemDwellProfile:
    """Dwell-time quantile state for one item."""

    item_id: str
    estimator: QuantileEstimator

    @property
    def n_records(self) -> int:
        return self.estimator.n

    def p10(self) -> float:
        """Nearest-rank 10th percentile of this item's dwell records."""
        if self.n_records < 1:
            raise NoProfileDataError(f"item {self.item_id} has no dwell records")
        return self.estimator.query(0.10)


class ProfileStore:
    """All item and user profiles for one training window.

    ``items`` maps item tokens to profiles.  The users are three arrays laid
    out as in the file: ``user_ids`` (sorted tokens), ``user_clicks`` (each
    one's click count) and ``user_stamps`` (int64, each one's ascending click
    timestamps, user after user).  ``eps`` must lie in (0, 1), and
    ``switch_threshold`` in 1 .. 2^32 - 1 (a u32 in the header).
    """

    def __init__(
        self,
        eps: float = DEFAULT_EPS,
        switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
    ):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 1 <= switch_threshold < 2**32:
            raise ValueError(f"switch_threshold must be in 1 .. 2^32 - 1, got {switch_threshold}")
        self.eps = eps
        self.switch_threshold = switch_threshold
        self.items: dict[str, ItemDwellProfile] = {}
        self.user_ids: tuple[str, ...] = ()
        self.user_clicks = self.user_stamps = np.zeros(0, np.int64)

    def _fill(
        self,
        tokens: Sequence[str],
        counts: np.ndarray,
        values: np.ndarray,
        sketches: Iterable[QuantileEstimator],
        clicks: np.ndarray,
        stamps: np.ndarray,
    ) -> "ProfileStore":
        """This empty store filled from arrays laid out as the format's:
        ``tokens`` (the sorted item tokens, then the sorted user tokens),
        each item's record count, the exact items' ascending values item
        after item, the sketch items' estimators in token order, each user's
        click count, and the users' ascending stamps user after user."""
        counts = counts.tolist()
        exact = _runs(values.tolist(), [n for n in counts if n <= self.switch_threshold])
        sketches = iter(sketches)
        for token, n in zip(tokens, counts):
            if n > self.switch_threshold:
                estimator = next(sketches)
            else:
                estimator = QuantileEstimator(eps=self.eps, switch_threshold=self.switch_threshold)
                estimator._exact = next(exact)
            self.items[token] = ItemDwellProfile(token, estimator)
        self.user_ids, self.user_clicks, self.user_stamps = tuple(tokens[len(counts) :]), clicks, stamps
        return self

    def to_bytes(self) -> bytes:
        item_ids = sorted(self.items)
        items = [self.items[token] for token in item_ids]
        tokens = [token.encode("utf-8") for token in (*item_ids, *self.user_ids)]
        if max(map(len, tokens), default=0) > 0xFFFF:
            raise ValueError("an id is longer than the store's limit of 65,535 UTF-8 bytes")
        exact = [p.estimator._exact for p in items if p.estimator.mode == "exact"]
        sketches = [p.estimator._as_sketch() for p in items if p.estimator.mode == "sketch"]
        arrays = [
            np.array([len(t) for t in tokens], "<u2"),
            np.frombuffer(b"".join(tokens), "u1"),
            np.array([p.n_records for p in items], "<u8"),
            np.asarray(self.user_clicks, "<u4"),
            np.array(list(chain.from_iterable(exact)), "<f8"),
            np.array([len(s.entries) for s in sketches], "<u4"),
            np.fromiter(chain.from_iterable(s.entries for s in sketches), _GK_ENTRY),
            np.asarray(self.user_stamps, "<u8"),
        ]
        header = _HEADER.pack(
            STORE_MAGIC, STORE_VERSION, self.eps, self.switch_threshold, len(items), len(self.user_ids)
        )
        body = header + b"".join(a.tobytes() for a in arrays)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProfileStore":
        """Profile store from its bytes; a cut, extended or corrupt buffer raises ValueError."""
        if data[:4] != STORE_MAGIC:
            raise ValueError("not a profile store (bad magic)")
        try:
            _, version, eps, switch_threshold, n_items, n_users = _HEADER.unpack_from(data)
        except struct.error as err:
            raise ValueError(f"truncated or corrupt profile store: {err}") from None
        if version != STORE_VERSION:
            raise ValueError(f"unsupported profile store version {version}")
        body, offset = data[: -_CRC.size], _HEADER.size

        def take(dtype, count) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(body, dtype, int(count), offset)
            offset += array.nbytes
            return array

        try:
            store = cls(eps=eps, switch_threshold=switch_threshold)
            token_lens = take("<u2", n_items + n_users)
            token_bytes = take("u1", token_lens.sum()).tobytes()
            counts = take("<u8", n_items)
            clicks = take("<u4", n_users)
            sketchy = counts > switch_threshold
            values = take("<f8", counts[~sketchy].sum())
            sizes = take("<u4", sketchy.sum())
            entries = take(_GK_ENTRY, sizes.sum())
            stamps = take("<u8", clicks.sum())
            if offset != len(body):
                raise ValueError(f"{len(body) - offset} trailing bytes")
            if zlib.crc32(body) != _CRC.unpack_from(data, offset)[0]:
                raise ValueError("checksum mismatch")
            _check_ascending(values, counts[~sketchy], "dwell values")
            _check_ascending(stamps, clicks, "click timestamps")
            if (stamps >= TIMESTAMP_LIMIT).any():
                raise ValueError("click timestamp past 2^63 - 1")
            if not sizes.all():
                raise ValueError("sketch item with no GK entries")
            _check_ascending(entries["value"], sizes, "GK values")
            starts = (np.cumsum(sizes) - sizes).astype(np.intp)
            if (np.add.reduceat(entries["g"], starts) != counts[sketchy]).any():
                raise ValueError("GK gaps do not sum to the record count")
            tokens = [t.decode("utf-8") for t in _runs(token_bytes, token_lens.tolist())]
            if any(a >= b for a, b in zip(tokens[n_items:], tokens[n_items + 1 :])):
                raise ValueError("user ids out of order")
        except (ValueError, OverflowError) as err:
            raise ValueError(f"truncated or corrupt profile store: {err}") from None

        entries = list(zip(*(entries[name].tolist() for name in _GK_ENTRY.names)))
        sketches = []
        for n, run in zip(counts[sketchy].tolist(), _runs(entries, sizes.tolist())):
            estimator = QuantileEstimator(eps=eps, switch_threshold=switch_threshold)
            # An empty estimator's sketch has the budget it would keep.
            estimator._to_sketch()
            estimator._sketch.n, estimator._sketch.entries = n, run
            sketches.append(estimator)
        return store._fill(tokens, counts, values, sketches, clicks, stamps.view("<i8"))

    def save(self, path: str) -> None:
        from ._fileio import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "ProfileStore":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


def _runs(seq: Sequence, sizes: Iterable[int]) -> Iterator[Sequence]:
    """``seq`` cut into consecutive slices of ``sizes`` elements."""
    start = 0
    for n in sizes:
        yield seq[start : start + n]
        start += n


def _check_ascending(values: np.ndarray, counts: np.ndarray, what: str) -> None:
    """Raise ValueError unless each run of ``counts`` consecutive values ascends."""
    falls = ~(values[1:] >= values[:-1])
    starts = np.cumsum(counts)[:-1]
    falls[starts[(starts > 0) & (starts < len(values))] - 1] = False
    if falls.any():
        raise ValueError(f"{what} out of order")


def build_profiles(
    table: EventTable,
    eps: float = DEFAULT_EPS,
    switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
) -> ProfileStore:
    """Single statistics pass over a log's columns.

    Only clicks leave a trace, and a click with negative dwell time or a
    timestamp below 1 raises ValueError.  Exact items' values and users'
    stamps come out of stable sorts, so equal values keep file order, as one
    ``insort`` per click would leave them.  A sketch item's estimator takes
    its values in file order, because a GK summary depends on the order
    values arrive in.
    """
    store = ProfileStore(eps=eps, switch_threshold=switch_threshold)
    clicked = table.clicked
    dwell, stamps = table.dwell_time_s[clicked], table.timestamp[clicked]
    if not (dwell >= 0).all():
        raise ValueError("a click's dwell time must be >= 0")
    if not (stamps > 0).all():
        raise ValueError("a click's timestamp must be positive")
    item_tokens, item = distinct_ids(table.item_vocab, table.item[clicked])
    user_tokens, user = distinct_ids(table.user_vocab, table.user[clicked])
    counts = np.bincount(item, minlength=len(item_tokens))
    sketchy = counts > switch_threshold
    by_item = np.lexsort((dwell, item))
    values = dwell[by_item][~sketchy[item[by_item]]]
    rows = np.flatnonzero(sketchy[item])
    in_file_order = dwell[rows[np.argsort(item[rows], kind="stable")]].tolist()
    sketches = []
    for run in _runs(in_file_order, counts[sketchy].tolist()):
        estimator = QuantileEstimator(eps=eps, switch_threshold=switch_threshold)
        for value in run:
            estimator.observe(value)
        sketches.append(estimator)
    clicks = np.bincount(user, minlength=len(user_tokens))
    by_user = np.lexsort((stamps, user))
    return store._fill(item_tokens + user_tokens, counts, values, sketches, clicks, stamps[by_user])
