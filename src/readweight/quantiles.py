"""Quantile estimation for per-item dwell-time histories.

Small histories are kept exactly; past a switch threshold the estimator
converts itself into a Greenwald-Khanna rank summary: one list of
``(value, g, delta)`` entries with worst-case rank error ``eps * n``.
Merging two summaries keeps each side's entries as they are, so a merged
entry's rank may also be off by one band of the other side: the merged rank
error is at most ``eps * n + 2 * eps * max(n_a, n_b)``.  All quantiles use
the nearest-rank definition: the value at 1-based sorted index ceil(p * n).

The sketch is deterministic (no randomized compaction), which keeps profile
stores byte-stable across runs.
"""

from __future__ import annotations

import math
from bisect import insort
from operator import itemgetter

DEFAULT_EPS = 0.01
DEFAULT_SWITCH_THRESHOLD = 4096

Entry = tuple[float, int, int]


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index for quantile p of n records."""
    if n < 1:
        raise ValueError("nearest_rank needs at least one record")
    return min(max(int(math.ceil(p * n)), 1), n)


class GKSummary:
    """Greenwald-Khanna quantile summary.

    ``entries`` is a list of (value, g, delta) tuples with values ascending;
    g is the rank gap to the previous entry and delta the extra rank slack,
    so entry i covers true ranks [sum(g_1..g_i), sum(g_1..g_i) + delta_i].
    The maintenance invariant g_i + delta_i <= max(floor(2 * eps * n), 1)
    makes rank queries accurate to eps * n.  Incoming values are buffered
    and folded in sorted batches.
    """

    __slots__ = ("eps", "n", "entries", "_buffer")

    def __init__(self, eps: float = DEFAULT_EPS):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self.n = 0
        self.entries: list[Entry] = []
        self._buffer: list[float] = []

    def add(self, value: float) -> None:
        self._buffer.append(value)
        if len(self._buffer) >= max(int(1.0 / self.eps), 16):
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch = sorted(self._buffer)
        self._buffer = []
        held = self.entries
        self.n += len(batch)
        # Interior values take the loosest slack the invariant allows;
        # a value that lands first or last stays exact (delta 0).
        cap = max(int(2 * self.eps * self.n) - 1, 0)
        entries = _merged(held, [(v, 1, cap) for v in batch])
        if not held or batch[0] < held[0][0]:
            entries[0] = (batch[0], 1, 0)
        if not held or batch[-1] >= held[-1][0]:
            entries[-1] = (batch[-1], 1, 0)
        self.entries = entries
        self._compress()

    def _compress(self) -> None:
        entries = self.entries
        if len(entries) < 3:
            return
        threshold = int(2 * self.eps * self.n)
        # Right-to-left sweep, never touching the first or last entry.
        out = [entries[-1]]
        for entry in entries[-2:0:-1]:
            value, g, delta = out[-1]
            if entry[1] + g + delta <= threshold:
                out[-1] = (value, entry[1] + g, delta)
            else:
                out.append(entry)
        out.append(entries[0])
        out.reverse()
        self.entries = out

    def query(self, p: float) -> float:
        if self.n == 0 and not self._buffer:
            raise ValueError("cannot query an empty summary")
        self._flush()
        if p <= self.eps:
            return self.entries[0][0]
        if p >= 1.0 - self.eps:
            return self.entries[-1][0]
        rank = nearest_rank(p, self.n)
        slack = self.eps * self.n
        rmin = 0
        for value, g, delta in self.entries:
            rmin += g
            if rmin + delta - slack <= rank <= rmin + slack:
                return value
        return self.entries[-1][0]

    def merge(self, other: "GKSummary") -> "GKSummary":
        """Combine two summaries; on equal values ``self``'s entries come first."""
        self._flush()
        other._flush()
        merged = GKSummary(eps=self.eps)
        merged.n = self.n + other.n
        merged.entries = _merged(self.entries, other.entries)
        merged._compress()
        return merged


def _merged(a: list[Entry], b: list[Entry]) -> list[Entry]:
    """Two ascending entry lists as one; on equal values ``a``'s come first."""
    return sorted(a + b, key=itemgetter(0))


class QuantileEstimator:
    """Exact-until-large quantile state for one item's dwell history.

    Exact-mode values are kept ascending, so a query indexes them directly.
    """

    __slots__ = ("eps", "switch_threshold", "_exact", "_sketch")

    def __init__(
        self,
        eps: float = DEFAULT_EPS,
        switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
    ):
        if switch_threshold < 1:
            raise ValueError("switch_threshold must be >= 1")
        self.eps = eps
        self.switch_threshold = switch_threshold
        self._exact: list[float] | None = []
        self._sketch: GKSummary | None = None

    @property
    def mode(self) -> str:
        return "exact" if self._exact is not None else "sketch"

    @property
    def n(self) -> int:
        if self._exact is not None:
            return len(self._exact)
        assert self._sketch is not None
        return self._sketch.n + len(self._sketch._buffer)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative value {value}")
        if self._exact is not None:
            insort(self._exact, value)
            if len(self._exact) > self.switch_threshold:
                self._to_sketch()
        else:
            assert self._sketch is not None
            self._sketch.add(value)

    def _to_sketch(self) -> None:
        self._sketch = self._as_sketch()
        self._exact = None

    def query(self, p: float) -> float:
        if self.n == 0:
            raise ValueError("cannot query an empty estimator")
        if self._exact is not None:
            return self._exact[nearest_rank(p, len(self._exact)) - 1]
        assert self._sketch is not None
        return self._sketch.query(p)

    def merge(self, other: "QuantileEstimator") -> "QuantileEstimator":
        """Combined estimator; exact+exact stays exact unless it crosses the
        switch threshold, any sketch side forces sketch mode."""
        merged = QuantileEstimator(eps=self.eps, switch_threshold=self.switch_threshold)
        if self._exact is not None and other._exact is not None:
            merged._exact = sorted(self._exact + other._exact)
            if len(merged._exact) > merged.switch_threshold:
                merged._to_sketch()
            return merged
        merged._exact = None
        merged._sketch = self._as_sketch().merge(other._as_sketch())
        return merged

    def _as_sketch(self) -> GKSummary:
        """The flushed summary; in exact mode, a new one of the values."""
        if self._sketch is not None:
            self._sketch._flush()
            return self._sketch
        # Maintain the summary at half the advertised budget: queries then
        # sit well inside the eps contract and merges inside 2 * eps.
        sketch = GKSummary(eps=self.eps / 2)
        # Sorted feed keeps the summary deterministic for a given multiset.
        for value in self._exact or []:
            sketch.add(value)
        sketch._flush()
        return sketch
