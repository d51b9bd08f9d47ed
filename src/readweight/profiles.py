"""Per-item dwell-time profiles and per-user sliding-week click windows.

Profiles are built in one pass over the training log and frozen before the
labeling pass, so labeling is a pure function of immutable state.  An
event's own click is part of the profiles it is labeled against (the
simplest two-pass semantics); ``p10(exclude=...)`` supports the
exclude-self sensitivity variant for exact-mode items.

Store format 3 is a header ``<4sIdIII`` (magic ``VRPF``, version, eps,
switch threshold, item count, user count) followed by little-endian arrays,
each sized by what came before it:

- u16 token byte lengths, of the items and then the users, each sorted;
- the UTF-8 token bytes;
- u64 record count of each item;
- u32 click count of each user;
- f64 sorted dwell values of the exact items;
- u32 entry count of each sketch item;
- GK entries (f64 value, u64 g, u64 delta) of the sketch items;
- u64 sorted click timestamps of the users.

An item is in sketch mode exactly when its record count is above the switch
threshold; its GK values ascend and its g values sum to its record count.
The arrays must end at the end of the buffer, so a cut or extended store is
rejected; values are stored in full f64, so a reloaded store answers every
query exactly as the saved one did.  Equal inputs give equal bytes.
Version 2 had length-prefixed records and no record count; version 1
stored the values as f32.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .events import EventTable, InteractionEvent
from .quantiles import DEFAULT_EPS, DEFAULT_SWITCH_THRESHOLD, QuantileEstimator, nearest_rank

WEEK_SECONDS = 7 * 86400

STORE_MAGIC = b"VRPF"
STORE_VERSION = 3

_HEADER = struct.Struct("<4sIdIII")
_GK_ENTRY = np.dtype([("value", "<f8"), ("g", "<u8"), ("delta", "<u8")])


class NoProfileDataError(ValueError):
    """Queried a profile with no records."""


class FrozenProfileError(RuntimeError):
    """Attempted to mutate a frozen profile store."""


@dataclass(slots=True)
class ItemDwellProfile:
    """Dwell-time quantile state for one item."""

    item_id: str
    estimator: QuantileEstimator

    @property
    def n_records(self) -> int:
        return self.estimator.n

    def observe(self, dwell_time_s: float) -> None:
        self.estimator.observe(dwell_time_s)

    def p10(self, exclude: float | None = None) -> float:
        """Nearest-rank 10th percentile of this item's dwell records.

        ``exclude`` drops one occurrence of that value first (exact mode
        only; a single record is below the sketch's rank resolution, so
        sketch mode ignores it).
        """
        if self.n_records < 1:
            raise NoProfileDataError(f"item {self.item_id} has no dwell records")
        values = self.estimator._exact
        if exclude is not None and values is not None:
            i = bisect_left(values, exclude)
            if i < len(values) and values[i] == exclude:
                if len(values) == 1:
                    raise NoProfileDataError(f"item {self.item_id} has no other dwell records")
                # Ranks at or past the dropped value shift up by one.
                k = nearest_rank(0.10, len(values) - 1) - 1
                return values[k + 1] if k >= i else values[k]
        return self.estimator.query(0.10)


@dataclass(slots=True)
class UserActivityProfile:
    """Click timestamps of one user, queried over a trailing 7-day window.

    Expiry is applied at query time: a query at time ``at`` only sees clicks
    in ``(at - WEEK_SECONDS, at]``, so out-of-order queries stay correct.
    """

    user_id: str
    click_timestamps: list[int] = field(default_factory=list)

    def record_click(self, ts: int) -> None:
        if ts <= 0:
            raise ValueError(f"timestamp must be positive, got {ts}")
        insort(self.click_timestamps, ts)

    def window_size(self, at: int) -> int:
        """Number of clicks in (at - WEEK_SECONDS, at]."""
        lo = bisect_right(self.click_timestamps, at - WEEK_SECONDS)
        hi = bisect_right(self.click_timestamps, at)
        return hi - lo


class ProfileStore:
    """All item and user profiles for one training window."""

    def __init__(
        self,
        eps: float = DEFAULT_EPS,
        switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
    ):
        self.eps = eps
        self.switch_threshold = switch_threshold
        self.items: dict[str, ItemDwellProfile] = {}
        self.users: dict[str, UserActivityProfile] = {}
        self.frozen = False

    def _check_mutable(self) -> None:
        if self.frozen:
            raise FrozenProfileError("profile store is frozen")

    def item(self, item_id: str) -> ItemDwellProfile | None:
        return self.items.get(item_id)

    def user(self, user_id: str) -> UserActivityProfile | None:
        return self.users.get(user_id)

    def observe_event(self, event: InteractionEvent) -> None:
        """Fold one event into the store; only clicks leave a trace."""
        self._check_mutable()
        if event.clicked:
            self._observe_click(event.user_id, event.item_id, event.timestamp, event.dwell_time_s)

    def _observe_click(self, user_id: str, item_id: str, timestamp: int, dwell_time_s: float) -> None:
        profile = self.items.get(item_id)
        if profile is None:
            profile = ItemDwellProfile(
                item_id,
                QuantileEstimator(eps=self.eps, switch_threshold=self.switch_threshold),
            )
            self.items[item_id] = profile
        profile.observe(dwell_time_s)
        user = self.users.get(user_id)
        if user is None:
            user = UserActivityProfile(user_id)
            self.users[user_id] = user
        user.record_click(timestamp)

    def freeze(self) -> "ProfileStore":
        self.frozen = True
        return self

    def to_bytes(self) -> bytes:
        item_ids, user_ids = sorted(self.items), sorted(self.users)
        items = [self.items[token] for token in item_ids]
        users = [self.users[token] for token in user_ids]
        tokens = [token.encode("utf-8") for token in item_ids + user_ids]
        exact = [p.estimator._exact for p in items if p.estimator.mode == "exact"]
        sketches = [p.estimator._as_sketch() for p in items if p.estimator.mode == "sketch"]
        arrays = [
            np.array([len(t) for t in tokens], "<u2"),
            np.frombuffer(b"".join(tokens), "u1"),
            np.array([p.n_records for p in items], "<u8"),
            np.array([len(p.click_timestamps) for p in users], "<u4"),
            np.array(list(chain.from_iterable(exact)), "<f8"),
            np.array([len(s.entries) for s in sketches], "<u4"),
            np.fromiter(chain.from_iterable(s.entries for s in sketches), _GK_ENTRY),
            np.array(list(chain.from_iterable(p.click_timestamps for p in users)), "<u8"),
        ]
        header = _HEADER.pack(
            STORE_MAGIC, STORE_VERSION, self.eps, self.switch_threshold, len(items), len(users)
        )
        return header + b"".join(a.tobytes() for a in arrays)

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
        offset = _HEADER.size

        def take(dtype, count) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(data, dtype, int(count), offset)
            offset += array.nbytes
            return array

        try:
            token_lens = take("<u2", n_items + n_users)
            token_bytes = take("u1", token_lens.sum()).tobytes()
            counts = take("<u8", n_items)
            clicks = take("<u4", n_users)
            sketchy = counts > switch_threshold
            values = take("<f8", counts[~sketchy].sum())
            sizes = take("<u4", sketchy.sum())
            entries = take(_GK_ENTRY, sizes.sum())
            stamps = take("<u8", clicks.sum())
            if offset != len(data):
                raise ValueError(f"{len(data) - offset} trailing bytes")
            _check_ascending(values, counts[~sketchy], "dwell values")
            _check_ascending(stamps, clicks, "click timestamps")
            if not sizes.all():
                raise ValueError("sketch item with no GK entries")
            _check_ascending(entries["value"], sizes, "GK values")
            starts = (np.cumsum(sizes) - sizes).astype(np.intp)
            if (np.add.reduceat(entries["g"], starts) != counts[sketchy]).any():
                raise ValueError("GK gaps do not sum to the record count")
            ends = np.cumsum(token_lens).tolist()
            tokens = [token_bytes[a:b].decode("utf-8") for a, b in zip([0] + ends, ends)]
        except (ValueError, OverflowError) as err:
            raise ValueError(f"truncated or corrupt profile store: {err}") from None

        store = cls(eps=eps, switch_threshold=switch_threshold)
        values, sizes = values.tolist(), iter(sizes.tolist())
        entries = list(zip(*(entries[name].tolist() for name in _GK_ENTRY.names)))
        v = e = 0
        for token, n, sketch in zip(tokens, counts.tolist(), sketchy.tolist()):
            estimator = QuantileEstimator(eps=eps, switch_threshold=switch_threshold)
            if sketch:
                # An empty estimator's sketch has the budget it would keep.
                estimator._to_sketch()
                gk, end = estimator._sketch, e + next(sizes)
                gk.n, gk.entries, e = n, entries[e:end], end
            else:
                estimator._exact = values[v : v + n]
                v += n
            store.items[token] = ItemDwellProfile(token, estimator)
        stamps, s = stamps.tolist(), 0
        for token, n in zip(tokens[n_items:], clicks.tolist()):
            store.users[token] = UserActivityProfile(token, stamps[s : s + n])
            s += n
        return store.freeze()

    def save(self, path: str) -> None:
        from ._fileio import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "ProfileStore":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


def _check_ascending(values: np.ndarray, counts: np.ndarray, what: str) -> None:
    """Raise ValueError unless each run of ``counts`` consecutive values ascends."""
    falls = ~(values[1:] >= values[:-1])
    starts = np.cumsum(counts)[:-1]
    falls[starts[(starts > 0) & (starts < len(values))] - 1] = False
    if falls.any():
        raise ValueError(f"{what} out of order")


def build_profiles(
    events: Iterable[InteractionEvent],
    eps: float = DEFAULT_EPS,
    switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
) -> ProfileStore:
    """Single statistics pass over a log; returns a frozen store.

    Takes an EventTable or any iterable of events.  Only clicks leave a
    trace, and each item's estimator sees its dwell times in file order, so
    the store equals one fed ``observe_event`` row by row.
    """
    table = EventTable.of(events)
    store = ProfileStore(eps=eps, switch_threshold=switch_threshold)
    users, items = table.user_id, table.item_id
    stamps, dwell = table.timestamp.tolist(), table.dwell_time_s.tolist()
    for i in np.flatnonzero(table.clicked).tolist():
        store._observe_click(users[i], items[i], stamps[i], dwell[i])
    return store.freeze()
