"""Gaussian fit of log dwell time over clicked events, and the derived
valid-read thresholds.

The lower threshold ``x_l = exp(mu - sigma)`` is the shared valid-read cut;
the upper threshold ``x_h = exp(mu + sigma)`` anchors the saturation of the
normalized dwell-time curve.  Sigma uses the population convention
(divisor n) so the degenerate all-equal case gives exactly sigma = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .events import EventTable, InteractionEvent


class InsufficientDataError(ValueError):
    """Fewer usable samples than the operation needs."""


@dataclass(frozen=True, slots=True)
class DwellStats:
    """Fitted moments of ln T and the thresholds they imply."""

    mu: float
    sigma: float
    n: int
    x_l: float
    x_h: float

    def to_json(self) -> str:
        return json.dumps(
            {"mu": self.mu, "sigma": self.sigma, "n": self.n, "x_l": self.x_l, "x_h": self.x_h},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DwellStats":
        doc = json.loads(text)
        try:
            return cls(
                mu=float(doc["mu"]),
                sigma=float(doc["sigma"]),
                n=int(doc["n"]),
                x_l=float(doc["x_l"]),
                x_h=float(doc["x_h"]),
            )
        except (KeyError, TypeError) as err:
            raise ValueError(f"stats JSON lacks a numeric field: {err}") from err

    @classmethod
    def from_moments(cls, mu: float, sigma: float, n: int) -> "DwellStats":
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        return cls(mu=mu, sigma=sigma, n=n, x_l=math.exp(mu - sigma), x_h=math.exp(mu + sigma))


@dataclass(slots=True)
class StatsAccumulator:
    """Mergeable running moments of ln T.

    Merging accumulators over disjoint shards and finalizing reproduces the
    single-pass fit (sums are exact in the merge; mu/sigma agree to float
    rounding).
    """

    n: int = 0
    sum_lnT: float = 0.0
    sum_lnT_sq: float = 0.0

    def observe(self, dwell_time_s: float) -> None:
        if dwell_time_s <= 0:
            raise ValueError(f"dwell time must be > 0 to take its log, got {dwell_time_s}")
        x = math.log(dwell_time_s)
        self.n += 1
        self.sum_lnT += x
        self.sum_lnT_sq += x * x

    def observe_event(self, event: InteractionEvent) -> bool:
        """Feed one event; only clicks with positive dwell count. Returns
        whether the event was used."""
        if event.clicked and event.dwell_time_s > 0:
            self.observe(event.dwell_time_s)
            return True
        return False

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        return StatsAccumulator(
            n=self.n + other.n,
            sum_lnT=self.sum_lnT + other.sum_lnT,
            sum_lnT_sq=self.sum_lnT_sq + other.sum_lnT_sq,
        )

    def finalize(self) -> DwellStats:
        if self.n < 2:
            raise InsufficientDataError(
                f"need at least 2 clicked events with positive dwell time, got {self.n}"
            )
        mu = self.sum_lnT / self.n
        variance = self.sum_lnT_sq / self.n - mu * mu
        sigma = math.sqrt(max(variance, 0.0))
        return DwellStats.from_moments(mu=mu, sigma=sigma, n=self.n)


def _usable_dwell(events: Iterable[InteractionEvent]) -> list[float]:
    """Dwell times of the clicked rows with positive dwell, in file order."""
    table = EventTable.of(events)
    dwell = table.dwell_time_s
    return dwell[table.clicked & (dwell > 0)].tolist()


def fit_log_normal(events: Iterable[InteractionEvent]) -> DwellStats:
    """Fit mu/sigma of ln T over clicked events with positive dwell time.

    Unclicked events and zero-dwell clicks are ignored.  Raises
    InsufficientDataError below 2 usable samples.  Takes an EventTable or
    any iterable of events; the sums run in file order.
    """
    acc = StatsAccumulator()
    for dwell in _usable_dwell(events):
        acc.observe(dwell)
    return acc.finalize()


def histogram_lnT(
    events: Iterable[InteractionEvent], n_bins: int
) -> list[tuple[float, int]]:
    """Histogram of ln T over clicked positive-dwell events.

    Returns (bin_center, count) pairs; the counts sum to the number of usable
    events.  Empty input gives an empty histogram.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    values = np.array(list(map(math.log, _usable_dwell(events))), dtype=np.float64)
    if values.size == 0:
        return []
    counts, edges = np.histogram(values, bins=n_bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return [(float(c), int(k)) for c, k in zip(centers, counts)]


def histogram_csv(histogram: Sequence[tuple[float, int]]) -> str:
    """Render a histogram as the ``bin_center,count`` report."""
    lines = ["bin_center,count"]
    for center, count in histogram:
        lines.append(f"{center!r},{count}")
    return "\n".join(lines) + "\n"
