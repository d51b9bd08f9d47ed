"""Per-item dwell-time profiles and per-user sliding-week click windows.

Profiles are built in one pass over the training log and frozen before the
labeling pass, so labeling is a pure function of immutable state.  An
event's own click is part of the profiles it is labeled against (the
simplest two-pass semantics); ``p10(exclude=...)`` supports the
exclude-self sensitivity variant for exact-mode items.

Store format (magic ``VRPF``): version u32, then length-prefixed records,
each ``u32 payload_len`` followed by ``u8 type`` (1 item, 2 user),
``u16 token_len + token``, and a type-specific body.  Item bodies carry the
record count and the serialized estimator (sorted little-endian f64 values
in exact mode, f64 entry values in sketch mode, so a reloaded store answers
every query exactly as the saved one did); user bodies carry sorted u64
click timestamps.  Records are written sorted by (type, token) so equal
inputs give equal bytes.  Version 2 widened the stored values from f32.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .events import EventTable, InteractionEvent
from .quantiles import DEFAULT_EPS, DEFAULT_SWITCH_THRESHOLD, QuantileEstimator, nearest_rank

WEEK_SECONDS = 7 * 86400

STORE_MAGIC = b"VRPF"
STORE_VERSION = 2

_RECORD_ITEM = 1
_RECORD_USER = 2


class NoProfileDataError(ValueError):
    """Queried a profile with no records."""


class FrozenProfileError(RuntimeError):
    """Attempted to mutate a frozen profile store."""


@dataclass(slots=True)
class ItemDwellProfile:
    """Dwell-time quantile state for one item."""

    item_id: str
    estimator: QuantileEstimator
    n_records: int = 0

    def observe(self, dwell_time_s: float) -> None:
        if dwell_time_s < 0:
            raise ValueError(f"negative dwell time {dwell_time_s}")
        self.estimator.observe(dwell_time_s)
        self.n_records += 1

    def p10(self, exclude: float | None = None) -> float:
        """Nearest-rank 10th percentile of this item's dwell records.

        ``exclude`` drops one occurrence of that value first (exact mode
        only; a single record is below the sketch's rank resolution, so
        sketch mode ignores it).
        """
        if self.n_records < 1:
            raise NoProfileDataError(f"item {self.item_id} has no dwell records")
        if exclude is not None and self.estimator.mode == "exact":
            values = sorted(self.estimator._exact)  # small by construction
            i = bisect_left(values, exclude)
            if i < len(values) and values[i] == exclude:
                del values[i]
            if not values:
                raise NoProfileDataError(f"item {self.item_id} has no other dwell records")
            return values[nearest_rank(0.10, len(values)) - 1]
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
        parts = [STORE_MAGIC, struct.pack("<I", STORE_VERSION)]
        for item_id in sorted(self.items):
            profile = self.items[item_id]
            token = item_id.encode("utf-8")
            body = (
                struct.pack("<BH", _RECORD_ITEM, len(token))
                + token
                + struct.pack("<Q", profile.n_records)
                + profile.estimator.to_bytes()
            )
            parts.append(struct.pack("<I", len(body)))
            parts.append(body)
        for user_id in sorted(self.users):
            profile = self.users[user_id]
            token = user_id.encode("utf-8")
            stamps = profile.click_timestamps
            body = (
                struct.pack("<BH", _RECORD_USER, len(token))
                + token
                + struct.pack("<I", len(stamps))
                + struct.pack(f"<{len(stamps)}Q", *stamps)
            )
            parts.append(struct.pack("<I", len(body)))
            parts.append(body)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProfileStore":
        """Profile store from its bytes; a short or corrupt buffer raises ValueError."""
        try:
            if data[:4] != STORE_MAGIC:
                raise ValueError("not a profile store (bad magic)")
            (version,) = struct.unpack_from("<I", data, 4)
            if version != STORE_VERSION:
                raise ValueError(f"unsupported profile store version {version}")
            store = cls()
            offset = 8
            while offset < len(data):
                (length,) = struct.unpack_from("<I", data, offset)
                offset += 4
                end = offset + length
                rec_type, token_len = struct.unpack_from("<BH", data, offset)
                pos = offset + 3
                token = data[pos : pos + token_len].decode("utf-8")
                pos += token_len
                if rec_type == _RECORD_ITEM:
                    (n_records,) = struct.unpack_from("<Q", data, pos)
                    pos += 8
                    estimator, pos = QuantileEstimator.from_bytes(data, pos)
                    store.items[token] = ItemDwellProfile(token, estimator, int(n_records))
                    store.eps = estimator.eps
                    store.switch_threshold = estimator.switch_threshold
                elif rec_type == _RECORD_USER:
                    (count,) = struct.unpack_from("<I", data, pos)
                    pos += 4
                    stamps = list(struct.unpack_from(f"<{count}Q", data, pos))
                    pos += 8 * count
                    store.users[token] = UserActivityProfile(token, stamps)
                else:
                    raise ValueError(f"unknown profile record type {rec_type}")
                if pos != end:
                    raise ValueError("corrupt profile record length")
                offset = end
            store.freeze()
            return store
        except (struct.error, IndexError) as err:
            raise ValueError(f"truncated or corrupt profile store: {err}") from None

    def save(self, path: str) -> None:
        from ._fileio import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "ProfileStore":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


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
