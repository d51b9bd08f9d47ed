"""Offline evaluation: valid-read AUC, relative improvement over a
baseline, and the dwell-time migration surface.

AUC is the Mann-Whitney statistic (probability a random positive outranks a
random negative, ties worth 0.5), computed by sort-and-midrank in
O(n log n); it matches the quadratic pairwise count exactly.  RelaImpr
measures improvement above the random-AUC floor:

    relaimpr = (auc - 0.5) / (base_auc - 0.5) - 1

The migration report compares two logs cell by cell over user activeness
levels (1..7, 7 most active) crossed with within-level dwell-time deciles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .events import EventTable
from .profiles import WEEK_SECONDS

N_LEVELS = 7
N_DECILES = 10
NA = "NA"


class UndefinedAucError(ValueError):
    """AUC needs at least one positive and one negative."""


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    # Midranks: tied scores share the average of their 1-based rank range.
    # The tie groups are ``np.unique``'s (NaNs sort last, as one group); the
    # rank sum adds half-integers far below 2^52, so it is exact in any order.
    order = np.argsort(scores, kind="stable")
    ranked, hits = scores[order], pos[order]
    del order  # so the sort's 8 bytes a row do not live through the rest
    new = np.ones(len(ranked), bool)
    new[1:] = ranked[1:] != ranked[:-1]
    new[np.searchsorted(ranked, np.nan) + 1 :] = False
    start = np.flatnonzero(new)  # ranks before each tie group
    midrank = start + (np.diff(start, append=len(new)) + 1) / 2.0
    rank_sum = float(np.add.reduceat(hits, start, dtype=np.float64) @ midrank)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def relaimpr(auc_value: float, base_auc: float) -> float:
    """Relative improvement above the 0.5 random floor."""
    if base_auc <= 0.5:
        raise ValueError(f"baseline AUC must exceed 0.5, got {base_auc}")
    if auc_value < 0.5:
        raise ValueError(f"AUC below 0.5 ({auc_value}); RelaImpr undefined")
    return (auc_value - 0.5) / (base_auc - 0.5) - 1.0


@dataclass(frozen=True, slots=True)
class EvalReport:
    auc: float
    n_pos: int
    n_neg: int
    base_auc: float | None = None
    relaimpr: float | None = None

    @classmethod
    def build(
        cls, scores: Sequence[float], labels: Sequence[int], base_auc: float | None = None
    ) -> "EvalReport":
        labels_arr = np.asarray(labels)
        value = auc(scores, labels)
        rel = relaimpr(value, base_auc) if base_auc is not None else None
        return cls(
            auc=value,
            n_pos=int((labels_arr == 1).sum()),
            n_neg=int((labels_arr != 1).sum()),
            base_auc=base_auc,
            relaimpr=rel,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def equal_frequency_boundaries(counts: Iterable[int]) -> tuple[int, ...]:
    """Septile boundaries of weekly click counts: nearest-rank cuts, forced
    strictly ascending and >= 1 so zero-click users always land at level 1."""
    values = sorted(counts)
    if len(values) < N_LEVELS:
        raise ValueError(f"need at least {N_LEVELS} users to cut {N_LEVELS} levels")
    n = len(values)
    raw = [values[min(math.ceil(j * n / N_LEVELS), n) - 1] for j in range(1, N_LEVELS)]
    boundaries: list[int] = []
    for value in raw:
        bumped = max(int(value), 1)
        if boundaries and bumped <= boundaries[-1]:
            bumped = boundaries[-1] + 1
        boundaries.append(bumped)
    return tuple(boundaries)


def row_levels(table: EventTable, boundaries: Sequence[int] | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each row's user activeness level, and the boundaries it was cut at.

    A user's level is 1 plus the number of boundaries at or below their
    clicks in the trailing 7-day window ending at the log's last timestamp,
    so a user seen only as impressions is at level 1.  Boundaries default
    to the equal-frequency septiles of those counts and must ascend
    strictly.  An empty table has no users, so it has no default
    boundaries.
    """
    users, row_user = np.unique(table.user, return_inverse=True)
    horizon = table.timestamp.max(initial=0)
    in_week = table.clicked & (table.timestamp > horizon - WEEK_SECONDS) & (table.timestamp <= horizon)
    counts = np.bincount(row_user[in_week], minlength=len(users))
    if boundaries is None:
        boundaries = equal_frequency_boundaries(counts.tolist())
    bounds = tuple(boundaries)
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be strictly ascending")
    return (1 + np.searchsorted(np.asarray(bounds), counts, side="right"))[row_user], bounds


@dataclass(frozen=True, slots=True)
class MigrationCell:
    activeness_level: int
    dt_decile: int
    mean_dt_baseline: float | None
    mean_dt_treatment: float | None

    @property
    def delta(self) -> float | None:
        if self.mean_dt_baseline is None or self.mean_dt_treatment is None:
            return None
        return self.mean_dt_treatment - self.mean_dt_baseline


def _mean(chunk: np.ndarray) -> float:
    """Mean of ``chunk``, summed left to right as the builtin ``sum`` does
    before Python 3.12 (3.12 compensates); ``+ 0.0`` gives an all ``-0.0``
    chunk ``sum``'s ``0.0``."""
    return (float(np.cumsum(chunk)[-1]) + 0.0) / len(chunk)


def _level_means(table: EventTable, levels: np.ndarray, n_levels: int) -> list[list[float | None]]:
    """Per activeness level, the per-decile mean dwell time of one arm."""
    clicked = table.clicked
    row_level = levels[clicked]
    dwell = table.dwell_time_s[clicked]
    means = []
    for level in range(1, n_levels + 1):
        dwells = np.sort(dwell[row_level == level], kind="stable")
        m = len(dwells)
        cuts = [min(math.ceil(d * m / N_DECILES), m) for d in range(N_DECILES + 1)]
        means.append([_mean(dwells[lo:hi]) if hi > lo else None for lo, hi in zip(cuts, cuts[1:])])
    return means


def migration_report(
    baseline: EventTable, treatment: EventTable, boundaries: Sequence[int] | None = None
) -> list[MigrationCell]:
    """Dwell-time change per (activeness level x within-level DT decile).

    Levels come from each arm's own weekly click counts (``row_levels``);
    decile cuts are nearest-rank and computed within each arm.  Boundaries
    default to equal-frequency septiles of the baseline arm.  Cells are
    ordered level-major, decile-minor; empty cells carry missing means.
    """
    if not baseline.clicked.any() or not treatment.clicked.any():
        raise ValueError("both logs must contain clicks")
    base_levels, bounds = row_levels(baseline, boundaries)
    treat_levels, _ = row_levels(treatment, bounds)
    n_levels = len(bounds) + 1
    base_means = _level_means(baseline, base_levels, n_levels)
    treat_means = _level_means(treatment, treat_levels, n_levels)
    return [
        MigrationCell(level, d, base_means[level - 1][d - 1], treat_means[level - 1][d - 1])
        for level in range(1, n_levels + 1)
        for d in range(1, N_DECILES + 1)
    ]


def migration_csv(cells: Sequence[MigrationCell]) -> str:
    def fmt(x: float | None) -> str:
        return NA if x is None else repr(x)

    lines = ["level,decile,mean_base,mean_treat,delta"]
    for cell in cells:
        lines.append(
            f"{cell.activeness_level},{cell.dt_decile},"
            f"{fmt(cell.mean_dt_baseline)},{fmt(cell.mean_dt_treatment)},{fmt(cell.delta)}"
        )
    return "\n".join(lines) + "\n"
