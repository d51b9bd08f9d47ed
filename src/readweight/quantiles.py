"""Quantile estimation for per-item dwell-time histories.

Small histories are kept exactly; past a switch threshold the estimator
converts itself into a Greenwald-Khanna rank summary with worst-case rank
error ``eps * n``.  Merging two summaries keeps each side's tuples, so the
merged rank error is bounded by the sum of the two budgets (2 * eps for
equal budgets).  All quantiles use the nearest-rank definition: the value at
1-based sorted index ceil(p * n).

The sketch is deterministic (no randomized compaction), which keeps profile
stores byte-stable across runs.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterable

DEFAULT_EPS = 0.01
DEFAULT_SWITCH_THRESHOLD = 4096


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index for quantile p of n records."""
    if n < 1:
        raise ValueError("nearest_rank needs at least one record")
    return min(max(int(math.ceil(p * n)), 1), n)


class GKSummary:
    """Greenwald-Khanna quantile summary.

    Entries are (value, g, delta) with values ascending; g is the rank gap to
    the previous entry and delta the extra rank slack, so entry i covers true
    ranks [sum(g_1..g_i), sum(g_1..g_i) + delta_i].  The maintenance
    invariant g_i + delta_i <= floor(2 * eps * n) makes rank queries accurate
    to eps * n.  Incoming values are buffered and folded in sorted batches.
    """

    __slots__ = ("eps", "n", "_values", "_g", "_delta", "_buffer")

    def __init__(self, eps: float = DEFAULT_EPS):
        if not 0 < eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self.n = 0
        self._values: list[float] = []
        self._g: list[int] = []
        self._delta: list[int] = []
        self._buffer: list[float] = []

    def add(self, value: float) -> None:
        self._buffer.append(value)
        if len(self._buffer) >= max(int(1.0 / self.eps), 16):
            self._flush()

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch = sorted(self._buffer)
        self._buffer = []
        new_n = self.n + len(batch)
        cap = max(int(2 * self.eps * new_n) - 1, 0)

        values, gs, deltas = self._values, self._g, self._delta
        out_v: list[float] = []
        out_g: list[int] = []
        out_d: list[int] = []
        i = j = 0
        while i < len(values) or j < len(batch):
            if j >= len(batch) or (i < len(values) and values[i] <= batch[j]):
                out_v.append(values[i])
                out_g.append(gs[i])
                out_d.append(deltas[i])
                i += 1
            else:
                v = batch[j]
                # Extremes stay exact (delta 0); interior values take the
                # loosest slack the invariant allows.
                first = not out_v
                last = i >= len(values) and j == len(batch) - 1
                out_v.append(v)
                out_g.append(1)
                out_d.append(0 if (first or last) else cap)
                j += 1
        self._values, self._g, self._delta = out_v, out_g, out_d
        self.n = new_n
        self._compress()

    def _compress(self) -> None:
        if len(self._values) < 3:
            return
        threshold = int(2 * self.eps * self.n)
        values, gs, deltas = self._values, self._g, self._delta
        # Right-to-left sweep, never touching the first or last entry.
        out_v = [values[-1]]
        out_g = [gs[-1]]
        out_d = [deltas[-1]]
        for i in range(len(values) - 2, 0, -1):
            if gs[i] + out_g[-1] + out_d[-1] <= threshold:
                out_g[-1] += gs[i]
            else:
                out_v.append(values[i])
                out_g.append(gs[i])
                out_d.append(deltas[i])
        out_v.append(values[0])
        out_g.append(gs[0])
        out_d.append(deltas[0])
        out_v.reverse()
        out_g.reverse()
        out_d.reverse()
        self._values, self._g, self._delta = out_v, out_g, out_d

    def query(self, p: float) -> float:
        if self.n == 0 and not self._buffer:
            raise ValueError("cannot query an empty summary")
        self._flush()
        if p <= self.eps:
            return self._values[0]
        if p >= 1.0 - self.eps:
            return self._values[-1]
        rank = nearest_rank(p, self.n)
        slack = self.eps * self.n
        rmin = 0
        for value, g, delta in zip(self._values, self._g, self._delta):
            rmin += g
            rmax = rmin + delta
            if rmax - slack <= rank <= rmin + slack:
                return value
        return self._values[-1]

    def merge(self, other: "GKSummary") -> "GKSummary":
        """Combine two summaries; rank error grows to the sum of budgets."""
        self._flush()
        other._flush()
        merged = GKSummary(eps=self.eps)
        merged.n = self.n + other.n
        a_v, a_g, a_d = self._values, self._g, self._delta
        b_v, b_g, b_d = other._values, other._g, other._delta
        out_v: list[float] = []
        out_g: list[int] = []
        out_d: list[int] = []
        i = j = 0
        while i < len(a_v) or j < len(b_v):
            if j >= len(b_v) or (i < len(a_v) and a_v[i] <= b_v[j]):
                out_v.append(a_v[i])
                out_g.append(a_g[i])
                out_d.append(a_d[i])
                i += 1
            else:
                out_v.append(b_v[j])
                out_g.append(b_g[j])
                out_d.append(b_d[j])
                j += 1
        merged._values, merged._g, merged._delta = out_v, out_g, out_d
        merged._compress()
        return merged


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
        sketch.extend(self._exact or [])
        sketch._flush()
        return sketch
