from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight.evaluation import (
    EvalReport,
    MigrationCell,
    UndefinedAucError,
    auc,
    equal_frequency_boundaries,
    migration_csv,
    migration_report,
    relaimpr,
    row_levels,
)

from readweight.events import EventTable

from conftest import activeness_level, event_table, make_event, random_events, row_ids, traced_transient, weekly_click_counts

DAY = 86400


def brute_force_auc(scores, labels) -> float:
    """Quadratic pairwise oracle: wins plus half-ties over all pos-neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """For distinct scores: each positive beats the negatives ranked below it."""
    order = np.argsort(scores)
    below = np.cumsum(~labels[order])
    n_pos = int(labels.sum())
    return float(below[labels[order]].sum()) / (n_pos * (len(labels) - n_pos))


class TestAuc:
    def test_two_pair_example(self):
        assert auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAucError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedAucError):
            auc([0.1, 0.2], [0, 0])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0, 2.0]),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=120,
        )
    )
    @settings(max_examples=200)
    def test_matches_brute_force_exactly(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        if not (0 < sum(labels) < len(labels)):
            return
        assert auc(scores, labels) == brute_force_auc(scores, labels)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 0.5, 2.0, math.inf, math.nan, math.nan]),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=120,
        )
    )
    @settings(max_examples=200)
    def test_nans_rank_last_as_one_tie_group(self, pairs):
        """NaNs rank above every number and tie with each other, as one
        ``np.unique`` group; -0.0 ties 0.0."""
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        if not (0 < sum(labels) < len(labels)):
            return
        keys = [(1, 0.0) if math.isnan(s) else (0, s) for s in scores]
        assert auc(scores, labels) == brute_force_auc(keys, labels)

    def test_transient_bytes_per_row(self, rng):
        """One stable sort and per-group sums: distinct scores, the worst
        case, hold at most 50 bytes a row beyond the inputs."""
        n = 200_000
        scores, labels = rng.random(n), rng.random(n) < 0.3
        value = auc(scores, labels)
        assert value == brute_force_rank_auc(scores, labels)
        per_row = traced_transient(lambda: auc(scores, labels)) / n
        assert per_row <= 50, per_row

    def test_invariant_under_increasing_transform(self, rng):
        scores = rng.normal(size=500)
        scores[::7] = scores[::3][: len(scores[::7])]  # plant some ties
        labels = (rng.random(500) < 0.4).astype(int)
        base = auc(scores, labels)
        assert auc(3.0 * scores + 11.0, labels) == base
        assert auc(np.exp(scores / 4.0), labels) == base


class TestRelaImpr:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.7849, 0.0139), (0.7932, 0.0434), (0.7968, 0.0562)],
    )
    def test_published_table(self, value, expected):
        assert relaimpr(value, 0.7810) == pytest.approx(expected, abs=1e-4)

    def test_self_comparison_is_zero(self):
        assert relaimpr(0.77, 0.77) == 0.0

    def test_base_at_random_rejected(self):
        with pytest.raises(ValueError):
            relaimpr(0.7, 0.5)
        with pytest.raises(ValueError):
            relaimpr(0.7, 0.49)
        with pytest.raises(ValueError):
            relaimpr(0.7, 1.01)

    def test_report_build(self):
        report = EvalReport.build([0.9, 0.2, 0.8], [1, 0, 1], base_auc=0.75)
        assert report.auc == 1.0
        assert report.relaimpr == pytest.approx(1.0, abs=1e-12)
        assert report.n_pos == 2 and report.n_neg == 1
        assert '"auc"' in json.dumps(asdict(report))


def table_with_week_clicks(counts) -> EventTable:
    """User ``u{k}`` with one impression and ``counts[k]`` clicks, all
    inside the week that ends at the log's last timestamp."""
    base = 1_700_000_000
    events = []
    for k, c in enumerate(counts):
        events.append(make_event(f"u{k}", "i1", base, False, 0.0))
        events += [make_event(f"u{k}", "i1", base + j, True, 10.0) for j in range(c)]
    return event_table(events)


def user_levels(counts, boundaries) -> list[int]:
    """``row_levels`` of ``table_with_week_clicks(counts)``, one per user."""
    table = table_with_week_clicks(counts)
    levels, _ = row_levels(table, boundaries)
    by_user = dict(zip(row_ids(table)[0], levels.tolist()))
    return [by_user[f"u{k}"] for k in range(len(counts))]


class TestActiveness:
    BOUNDS = (1, 3, 6, 10, 20, 40)

    def test_zero_clicks_level_one(self):
        assert user_levels([0, 5], self.BOUNDS)[0] == 1

    def test_largest_boundary_maps_to_top(self):
        assert user_levels([40, 400], self.BOUNDS) == [7, 7]

    def test_monotone(self):
        levels = user_levels(range(60), self.BOUNDS)
        assert levels == sorted(levels)
        assert levels == [activeness_level(c, self.BOUNDS) for c in range(60)]

    def test_requires_ascending(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            row_levels(table_with_week_clicks([5]), (1, 1, 2, 3, 4, 5))

    def test_equal_frequency_septiles(self, rng):
        counts = rng.integers(0, 200, size=14_000)
        boundaries = equal_frequency_boundaries(counts.tolist())
        assert len(boundaries) == 6
        assert list(boundaries) == sorted(set(boundaries))
        levels = np.array([activeness_level(int(c), boundaries) for c in counts])
        shares = np.bincount(levels, minlength=8)[1:] / len(counts)
        assert np.abs(shares - 1 / 7).max() < 0.01

    def test_boundaries_floor_at_one(self):
        # A zero-heavy population cannot push a boundary to 0.
        counts = [0] * 50 + list(range(1, 50))
        boundaries = equal_frequency_boundaries(counts)
        assert boundaries[0] >= 1
        assert user_levels(counts, boundaries)[0] == 1


def migration_logs(shift=0.0):
    """Two-level population: light users u0..u9 (1 click), heavy u10..u19
    (30 clicks each)."""
    base_ts = 1_700_000_000
    events = []
    for u in range(10):
        events.append(make_event(f"l{u}", "i1", base_ts + u, True, 10.0 + u))
    for u in range(10):
        for k in range(30):
            events.append(
                make_event(f"h{u}", "i2", base_ts + k * 3600, True, 40.0 + u + k + shift)
            )
    return event_table(events)


class TestMigration:
    def test_identical_logs_zero_delta(self):
        events = migration_logs()
        cells = migration_report(events, events, boundaries=(1, 2, 3, 4, 5, 29))
        filled = [c for c in cells if c.delta is not None]
        assert filled
        assert all(c.delta == 0.0 for c in filled)

    def test_uniform_shift_recovered(self):
        base = migration_logs()
        treat = event_table(
            make_event(e.user_id, e.item_id, e.timestamp, e.clicked, e.dwell_time_s + 10.0)
            for e in base
        )
        cells = migration_report(base, treat, boundaries=(1, 2, 3, 4, 5, 29))
        filled = [c for c in cells if c.delta is not None]
        assert filled
        for cell in filled:
            assert cell.delta == pytest.approx(10.0, abs=1e-9)

    def test_antisymmetric_with_fixed_boundaries(self):
        base = migration_logs()
        treat = event_table(
            make_event(e.user_id, e.item_id, e.timestamp, e.clicked, e.dwell_time_s * 1.1)
            for e in base
        )
        bounds = (1, 2, 3, 4, 5, 29)
        forward = migration_report(base, treat, bounds)
        backward = migration_report(treat, base, bounds)
        for f, b in zip(forward, backward):
            if f.delta is None:
                assert b.delta is None
            else:
                assert b.delta == -f.delta

    def test_empty_cells_marked(self):
        base = migration_logs()
        cells = migration_report(base, base, boundaries=(1, 2, 3, 4, 5, 29))
        top = [c for c in cells if c.activeness_level == 7]
        middle = [c for c in cells if c.activeness_level == 4]
        assert all(c.mean_dt_baseline is not None for c in top)
        assert all(c.mean_dt_baseline is None for c in middle)
        text = migration_csv(cells)
        assert "NA" in text
        assert text.splitlines()[0] == "level,decile,mean_base,mean_treat,delta"

    def test_requires_clicks(self):
        empty = event_table([make_event(clicked=False, dwell_time_s=0.0)])
        with pytest.raises(ValueError):
            migration_report(empty, empty)

    def test_cell_ordering(self):
        events = migration_logs()
        cells = migration_report(events, events, boundaries=(1, 2, 3, 4, 5, 29))
        keys = [(c.activeness_level, c.dt_decile) for c in cells]
        assert keys == sorted(keys)
        assert len(cells) == 70

    @pytest.mark.parametrize(
        "chunk",
        [[0.1, 0.2, 0.3], [1.0, 1.0, 1e16], [1e16, 1.0, 1.0, -1e16], [-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0]],
    )
    def test_cell_means_sum_left_to_right(self, chunk):
        """A cell's mean is the left-to-right sum of its ascending dwells
        over their count, the same bits on every Python version; an all
        ``-0.0`` cell reads ``0.0``.  One level; nine times as many longer
        dwells after the chunk, so the chunk is decile 1."""
        table = event_table(make_event(timestamp=1_700_000_000 + k) for k in range(10 * len(chunk)))
        table.dwell_time_s[:] = chunk + [1e300] * (9 * len(chunk))
        cell = migration_report(table, table, boundaries=())[0]
        assert (cell.activeness_level, cell.dt_decile) == (1, 1)
        total = 0
        for t in sorted(chunk):
            total = total + t
        assert repr(cell.mean_dt_baseline) == repr(total / len(chunk))


class TestWeeklyClicks:
    def test_window_anchored_at_log_end(self):
        base_ts = 1_700_000_000
        events = [
            make_event("u1", "i1", base_ts, True, 10.0),
            make_event("u1", "i1", base_ts + 9 * DAY, True, 10.0),
            make_event("u2", "i1", base_ts + 9 * DAY, False, 0.0),
        ]
        assert weekly_click_counts(events) == {"u1": 1, "u2": 0}
        # One click in the week puts u1 at level 2; two would put it at 3.
        levels, _ = row_levels(event_table(events), (1, 2, 3, 4, 5, 6))
        assert levels.tolist() == [2, 2, 1]


def reference_migration_report(baseline, treatment, boundaries=None, n_deciles=10):
    """The per-event migration report the column code replaced: the oracle."""

    def level_means(events):
        levels = {u: activeness_level(c, boundaries) for u, c in weekly_click_counts(events).items()}
        by_level = {level: [] for level in range(1, len(boundaries) + 2)}
        for event in events:
            if event.clicked:
                by_level[levels[event.user_id]].append(event.dwell_time_s)
        means = {}
        for level, dwells in by_level.items():
            dwells.sort()
            m, prev, cells = len(dwells), 0, []
            for d in range(1, n_deciles + 1):
                hi = min(math.ceil(d * m / n_deciles), m)
                cells.append(sum(dwells[prev:hi]) / (hi - prev) if hi > prev else None)
                prev = hi
            means[level] = cells
        return means

    if boundaries is None:
        boundaries = equal_frequency_boundaries(weekly_click_counts(baseline).values())
    base, treat = level_means(baseline), level_means(treatment)
    return [
        MigrationCell(level, d, base[level][d - 1], treat[level][d - 1])
        for level in range(1, len(boundaries) + 2)
        for d in range(1, n_deciles + 1)
    ]


class TestColumnReportEqualsPerEventLoop:
    @pytest.mark.parametrize("seed", range(8))
    def test_migration_report(self, seed):
        rng = np.random.default_rng(seed)
        base = random_events(rng, int(rng.integers(200, 800)))
        treat = random_events(rng, int(rng.integers(200, 800)), n_users=50)
        bounds = None if seed % 2 else tuple(sorted(rng.choice(np.arange(1, 30), 6, replace=False).tolist()))
        expected = reference_migration_report(base, treat, bounds)
        cells = migration_report(event_table(base), event_table(treat), bounds)
        assert cells == expected
        # repr per value: the same floats bit for bit.
        assert migration_csv(cells) == migration_csv(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_levels_match_per_user_oracle(self, seed):
        rng = np.random.default_rng(seed)
        events = random_events(rng, 500)
        counts = weekly_click_counts(events)
        given = None if seed % 2 else tuple(sorted(rng.choice(np.arange(1, 30), 6, replace=False).tolist()))
        levels, bounds = row_levels(event_table(events), given)
        assert bounds == (given or equal_frequency_boundaries(counts.values()))
        assert levels.tolist() == [activeness_level(counts[e.user_id], bounds) for e in events]

    def test_unsorted_boundaries_rejected(self):
        events = event_table(random_events(np.random.default_rng(0), 100))
        with pytest.raises(ValueError, match="strictly ascending"):
            migration_report(events, events, (1, 3, 2, 4, 5, 6))
