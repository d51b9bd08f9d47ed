from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from readweight.dwell_stats import (
    DwellStats,
    InsufficientDataError,
    fit_log_normal,
    histogram_lnT,
)


from conftest import event_table, fit_per_click, make_event, random_events


def lognormal_events(n, mu, sigma, seed):
    rng = np.random.default_rng(seed)
    dwell = np.exp(mu + sigma * rng.standard_normal(n))
    return event_table(make_event(item_id=f"i{k}", dwell_time_s=float(t)) for k, t in enumerate(dwell))


class TestFit:
    def test_degenerate_all_equal(self):
        events = event_table(make_event(dwell_time_s=math.exp(2.0)) for _ in range(50))
        stats = fit_log_normal(events)
        assert stats.mu == pytest.approx(2.0, abs=1e-12)
        assert stats.sigma == pytest.approx(0.0, abs=1e-7)
        assert stats.x_l == pytest.approx(math.exp(2.0), rel=1e-6)
        assert stats.x_h == pytest.approx(stats.x_l, rel=1e-6)

    def test_recovers_seeded_lognormal(self):
        events = lognormal_events(100_000, 4.003, 1.295, seed=7)
        stats = fit_log_normal(events)
        assert stats.mu == pytest.approx(4.003, abs=0.02)
        assert stats.sigma == pytest.approx(1.295, abs=0.02)
        assert abs(stats.x_l - 15.0) < 0.5
        assert abs(stats.x_h - 200.0) < 7.0
        assert stats.n == 100_000

    def test_unclicked_and_zero_dwell_ignored(self):
        events = event_table([
            make_event(dwell_time_s=math.e),
            make_event(dwell_time_s=math.e),
            make_event(clicked=False, dwell_time_s=0.0),
            make_event(clicked=True, dwell_time_s=0.0),
        ])
        stats = fit_log_normal(events)
        assert stats.n == 2
        assert stats.mu == pytest.approx(1.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_log_normal(event_table([make_event()]))
        with pytest.raises(InsufficientDataError):
            fit_log_normal(event_table([make_event(clicked=False, dwell_time_s=0.0)] * 10))

    def test_threshold_ordering_and_product(self):
        events = lognormal_events(5000, 3.0, 0.8, seed=3)
        stats = fit_log_normal(events)
        assert stats.x_l <= math.exp(stats.mu) <= stats.x_h
        assert stats.x_l * stats.x_h == pytest.approx(math.exp(2 * stats.mu), rel=1e-9)

    def test_order_invariance(self):
        events = lognormal_events(2000, 3.5, 1.0, seed=9)
        forward = fit_log_normal(events)
        backward = fit_log_normal(events.take(np.arange(len(events))[::-1]))
        assert forward.mu == pytest.approx(backward.mu, rel=1e-12)
        assert forward.sigma == pytest.approx(backward.sigma, rel=1e-12)


class TestAccumulator:
    def test_from_moments_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            DwellStats.from_moments(mu=1.0, sigma=-0.1, n=10)

    @pytest.mark.parametrize(
        "text",
        [
            '{"mu": NaN, "sigma": 1.0, "n": 5, "x_l": NaN, "x_h": Infinity}',
            '{"mu": 1.0, "sigma": 1.0, "n": Infinity, "x_l": 1.0, "x_h": 7.0}',
        ],
    )
    def test_from_json_rejects_non_finite_fields(self, text):
        with pytest.raises(ValueError):
            DwellStats.from_doc(json.loads(text))

    def test_json_round_trip(self):
        stats = DwellStats.from_moments(mu=4.0, sigma=1.25, n=123)
        assert DwellStats.from_doc(json.loads(json.dumps(asdict(stats)))) == stats


class TestHistogram:
    def test_single_click_single_bin(self):
        hist = histogram_lnT(event_table([make_event(dwell_time_s=math.e)]), n_bins=1)
        assert len(hist) == 1
        center, count = hist[0]
        assert count == 1
        assert center == pytest.approx(1.0)

    def test_two_clicks_two_bins(self):
        events = event_table([make_event(dwell_time_s=math.e), make_event(dwell_time_s=math.e**3)])
        hist = histogram_lnT(events, n_bins=2)
        assert [count for _, count in hist] == [1, 1]
        assert hist[0][0] == pytest.approx(1.5)
        assert hist[1][0] == pytest.approx(2.5)

    def test_counts_sum_to_n(self):
        events = lognormal_events(5000, 4.0, 1.3, seed=11)
        hist = histogram_lnT(events, n_bins=37)
        assert sum(count for _, count in hist) == 5000

    def test_left_tail_fraction_matches_normal_cdf(self):
        # Mass below ln(15) for ln T ~ N(4.003, 1.295) is Phi(-1) ~ 0.159.
        events = lognormal_events(100_000, 4.003, 1.295, seed=2)
        hist = histogram_lnT(events, n_bins=400)
        below = sum(count for center, count in hist if center < math.log(15.0))
        assert 0.14 < below / 100_000 < 0.18

    def test_empty_and_invalid(self):
        assert histogram_lnT(event_table([]), n_bins=3) == []
        with pytest.raises(ValueError):
            histogram_lnT(event_table([make_event()]), n_bins=0)


class TestColumnFitEqualsPerEventLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_fit_and_histogram(self, seed):
        events = random_events(np.random.default_rng(seed), 4000)
        logs = [math.log(e.dwell_time_s) for e in events if e.clicked and e.dwell_time_s > 0]
        counts, edges = np.histogram(np.array(logs), bins=25)
        centers = ((edges[:-1] + edges[1:]) / 2.0).tolist()
        table = event_table(events)
        assert fit_log_normal(table) == fit_per_click(events)
        assert histogram_lnT(table, 25) == list(zip(centers, counts.tolist()))
