"""Gaussian fit of log dwell time over clicked events, and the derived
valid-read thresholds.

The lower threshold ``x_l = exp(mu - sigma)`` is the shared valid-read cut;
the upper threshold ``x_h = exp(mu + sigma)`` anchors the saturation of the
normalized dwell-time curve.  Sigma uses the population convention
(divisor n) so the degenerate all-equal case gives exactly sigma = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import EventTable


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

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.sigma, self.x_l, self.x_h))) or self.sigma < 0:
            raise ValueError(f"stats need finite mu, sigma, x_l and x_h, and sigma >= 0; got {self}")

    @classmethod
    def from_doc(cls, doc) -> "DwellStats":
        try:
            return cls(float(doc["mu"]), float(doc["sigma"]), int(doc["n"]), float(doc["x_l"]), float(doc["x_h"]))
        except (KeyError, TypeError, OverflowError) as err:
            raise ValueError(f"stats JSON needs numeric mu, sigma, n, x_l and x_h: {err}") from err

    @classmethod
    def from_moments(cls, mu: float, sigma: float, n: int) -> "DwellStats":
        return cls(mu=mu, sigma=sigma, n=n, x_l=math.exp(mu - sigma), x_h=math.exp(mu + sigma))


def _log_dwell(table: EventTable) -> np.ndarray:
    """``math.log`` of the clicked rows' positive dwell times, in file order."""
    dwell = table.dwell_time_s
    usable = dwell[table.clicked & (dwell > 0)].tolist()
    return np.fromiter(map(math.log, usable), dtype=np.float64, count=len(usable))


def fit_log_normal(table: EventTable) -> DwellStats:
    """Fit mu/sigma of ln T over clicked rows with positive dwell time.

    Unclicked rows and zero-dwell clicks are ignored.  Raises
    InsufficientDataError below 2 usable samples.  Both sums run left to
    right in file order (``np.cumsum``, not the pairwise ``np.sum``), so the
    fit is the same bits as adding one click at a time.
    """
    x = _log_dwell(table)
    n = len(x)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 clicked events with positive dwell time, got {n}")
    mu = float(np.cumsum(x)[-1]) / n
    variance = float(np.cumsum(x * x)[-1]) / n - mu * mu
    return DwellStats.from_moments(mu=mu, sigma=math.sqrt(max(variance, 0.0)), n=n)


def histogram_lnT(table: EventTable, n_bins: int) -> list[tuple[float, int]]:
    """Histogram of ln T over clicked positive-dwell rows.

    Returns (bin_center, count) pairs; the counts sum to the number of usable
    rows.  A table with none gives an empty histogram.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    values = _log_dwell(table)
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
