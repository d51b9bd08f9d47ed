from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight.profiles import ItemDwellProfile, ProfileStore
from readweight.quantiles import GKSummary, QuantileEstimator, nearest_rank


def rank_error(sorted_data: np.ndarray, value: float, p: float) -> float:
    """Distance (in rank fraction) between the returned value's true rank
    interval and the nearest-rank target."""
    n = len(sorted_data)
    target = nearest_rank(p, n)
    lo = int(np.searchsorted(sorted_data, value, side="left")) + 1
    hi = int(np.searchsorted(sorted_data, value, side="right"))
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


class TestNearestRank:
    def test_definition(self):
        assert nearest_rank(0.10, 10) == 1
        assert nearest_rank(0.10, 95) == 10
        assert nearest_rank(1.0, 4) == 4
        assert nearest_rank(0.0, 4) == 1


class TestExactMode:
    def test_single_record(self):
        est = QuantileEstimator()
        est.observe(7.0)
        for p in (0.0, 0.1, 0.5, 0.99, 1.0):
            assert est.query(p) == 7.0

    def test_nearest_rank_queries(self):
        est = QuantileEstimator()
        for v in range(10, 110, 10):
            est.observe(float(v))
        assert est.n == 10
        assert est.query(0.10) == 10.0
        assert est.query(0.15) == 20.0
        assert est.query(0.5) == 50.0
        assert est.query(1.0) == 100.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QuantileEstimator().observe(-1.0)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            QuantileEstimator().query(0.5)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_in_p(self, values, p1, p2):
        est = QuantileEstimator()
        for v in values:
            est.observe(v)
        lo, hi = sorted((p1, p2))
        assert est.query(lo) <= est.query(hi)

    def test_exact_merge_is_union(self, rng):
        a, b, union = QuantileEstimator(), QuantileEstimator(), QuantileEstimator()
        xs = rng.uniform(0, 50, 300)
        ys = rng.uniform(25, 100, 200)
        for v in xs:
            a.observe(float(v))
            union.observe(float(v))
        for v in ys:
            b.observe(float(v))
            union.observe(float(v))
        merged = a.merge(b)
        assert merged.mode == "exact"
        for p in np.linspace(0, 1, 21):
            assert merged.query(float(p)) == union.query(float(p))


class TestSketchMode:
    def test_switches_past_threshold(self):
        est = QuantileEstimator(switch_threshold=100)
        for v in range(100):
            est.observe(float(v))
        assert est.mode == "exact"
        est.observe(100.0)
        assert est.mode == "sketch"
        assert est.n == 101

    def test_decile_rank_error_within_eps(self, rng):
        data = rng.uniform(0, 100, 200_000)
        est = QuantileEstimator(eps=0.01, switch_threshold=4096)
        for v in data.tolist():
            est.observe(v)
        assert est.mode == "sketch"
        exact = np.sort(data)
        for d in range(1, 10):
            err = rank_error(exact, est.query(d / 10), d / 10)
            assert err <= 0.01, f"decile {d} rank error {err}"

    def test_merge_of_halves_within_double_eps(self, rng):
        data = rng.normal(50, 12, 120_000)
        a = QuantileEstimator(eps=0.01, switch_threshold=64)
        b = QuantileEstimator(eps=0.01, switch_threshold=64)
        for v in data[:60_000].tolist():
            a.observe(v)
        for v in data[60_000:].tolist():
            b.observe(v)
        merged = a.merge(b)
        assert merged.n == 120_000
        exact = np.sort(data)
        for d in range(1, 10):
            err = rank_error(exact, merged.query(d / 10), d / 10)
            assert err <= 0.02, f"decile {d} rank error {err}"

    def test_exact_with_sketch_merge(self, rng):
        data = rng.uniform(0, 1, 20_000)
        small = QuantileEstimator(eps=0.01)
        big = QuantileEstimator(eps=0.01, switch_threshold=64)
        for v in data[:3000].tolist():
            small.observe(v)
        for v in data[3000:].tolist():
            big.observe(v)
        merged = small.merge(big)
        assert merged.mode == "sketch"
        exact = np.sort(data)
        for d in range(1, 10):
            assert rank_error(exact, merged.query(d / 10), d / 10) <= 0.02

    def test_monotone_in_p_sketch(self, rng):
        est = QuantileEstimator(eps=0.02, switch_threshold=32)
        for v in rng.exponential(10, 5000).tolist():
            est.observe(v)
        qs = [est.query(p) for p in np.linspace(0, 1, 101)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


class TestSerialization:
    """Estimators are serialized as item profiles of a profile store."""

    @staticmethod
    def to_bytes(est: QuantileEstimator) -> bytes:
        store = ProfileStore(eps=est.eps, switch_threshold=est.switch_threshold)
        store.items["i"] = ItemDwellProfile("i", est)
        return store.to_bytes()

    @staticmethod
    def from_bytes(blob: bytes) -> QuantileEstimator:
        return ProfileStore.from_bytes(blob).items["i"].estimator

    def test_exact_round_trip_f32(self):
        est = QuantileEstimator()
        for v in (3.5, 1.25, 9.75):
            est.observe(v)
        blob = self.to_bytes(est)
        loaded = self.from_bytes(blob)
        assert loaded.mode == "exact"
        assert loaded.n == 3
        # Values chosen exactly representable in float32.
        for p in (0.1, 0.5, 1.0):
            assert loaded.query(p) == est.query(p)
        assert self.to_bytes(loaded) == blob

    def test_sketch_round_trip(self, rng):
        est = QuantileEstimator(eps=0.01, switch_threshold=16)
        for v in rng.uniform(0, 10, 5000).tolist():
            est.observe(v)
        blob = self.to_bytes(est)
        loaded = self.from_bytes(blob)
        assert loaded.mode == "sketch"
        assert loaded.n == est.n
        assert self.to_bytes(loaded) == blob

    def test_deterministic_bytes(self, rng):
        values = rng.uniform(0, 10, 6000).tolist()

        def build():
            est = QuantileEstimator(eps=0.01, switch_threshold=128)
            for v in values:
                est.observe(v)
            return self.to_bytes(est)

        assert build() == build()


class TestGKInvariant:
    def test_band_invariant_holds(self, rng):
        sk = GKSummary(eps=0.02)
        for v in rng.standard_normal(50_000).tolist():
            sk.add(v)
        sk._flush()
        threshold = int(2 * sk.eps * sk.n)
        interior = sk.entries[1:-1]
        assert all(g + d <= threshold for _, g, d in interior)
        assert sum(g for _, g, _ in sk.entries) == sk.n


def gk_of(eps: float, values: list[float]) -> GKSummary:
    sk = GKSummary(eps=eps)
    for v in values:
        sk.add(v)
    sk._flush()
    return sk


def check_summary(sk: GKSummary, data: list[float], rank_budget: float) -> None:
    """The GK invariants, and every decile within ``rank_budget`` ranks."""
    values = [v for v, _, _ in sk.entries]
    assert values == sorted(values)
    assert sum(g for _, g, _ in sk.entries) == sk.n == len(data)
    # While floor(2 * eps * n) is 0 no entry can meet it; exact entries (1, 0) stand.
    threshold = max(math.floor(2 * sk.eps * sk.n), 1)
    assert all(g + d <= threshold for _, g, d in sk.entries[1:-1])
    assert sk.entries[0][2] == sk.entries[-1][2] == 0
    exact = np.sort(np.array(data))
    for p in np.linspace(0, 1, 11).tolist():
        assert rank_error(exact, sk.query(p), p) * sk.n <= rank_budget + 1e-9


TIES = st.sampled_from([-0.0, 0.0, 1.0, 1.0, 2.5]) | st.floats(0, 100)


class TestGKProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0.3, 0.1, 0.05, 0.01]),
        st.lists(TIES, min_size=1, max_size=400),
        st.lists(TIES, min_size=1, max_size=400),
    )
    def test_streams_and_merges(self, eps, xs, ys):
        a, b = gk_of(eps, xs), gk_of(eps, ys)
        check_summary(a, xs, eps * len(xs))
        check_summary(b, ys, eps * len(ys))
        # A merged entry's rank is off by at most the other side's band.
        budget = eps * (len(xs) + len(ys)) + 2 * eps * max(len(xs), len(ys))
        check_summary(a.merge(b), xs + ys, budget)
        check_summary(b.merge(a), ys + xs, budget)


def signed(entries: list) -> list:
    """Entries with each value's sign, so -0.0 and 0.0 differ."""
    return [(math.copysign(1.0, v), v, g, d) for v, g, d in entries]


class TestGKTieOrder:
    """Literal entries of tiny tie-heavy summaries: on equal values, entries
    already held (or the left side's in a merge) come first."""

    A = [2.0, 1.0, 2.0, 0.0, -0.0, 1.0, 2.0, 2.0] * 5
    B = [-0.0, 2.0, 0.0, 1.0] * 6

    def test_stream(self):
        assert signed(gk_of(0.25, self.A).entries) == signed(
            [(0.0, 1, 0), (1.0, 13, 7), (1.0, 4, 15), (1.0, 1, 19), (1.0, 1, 19), (2.0, 20, 0)]
        )
        assert signed(gk_of(0.25, self.B).entries) == signed(
            [(-0.0, 1, 0), (-0.0, 2, 7), (0.0, 5, 7), (-0.0, 1, 11), (0.0, 1, 11),
             (-0.0, 1, 11), (0.0, 1, 11), (2.0, 12, 0)]
        )
        # A batch minimum equal to the held first value lands second.
        assert signed(gk_of(0.25, [-0.0] + [1.0] * 15 + [0.0, 2.0]).entries) == signed(
            [(-0.0, 1, 0), (1.0, 2, 7), (1.0, 2, 7), (1.0, 2, 7), (1.0, 2, 7), (2.0, 9, 0)]
        )
        values = [1.0] * 10 + [0.0, -0.0] * 4 + [1.0, 3.0] * 5
        assert signed(gk_of(0.1, values).entries) == signed(
            [(0.0, 1, 0), (0.0, 2, 2), (-0.0, 3, 2), (0.0, 1, 4), (1.0, 3, 2), (1.0, 3, 2),
             (1.0, 5, 0), (1.0, 1, 4), (1.0, 1, 4), (1.0, 1, 4), (1.0, 1, 4), (1.0, 1, 4),
             (3.0, 5, 0)]
        )

    def test_merge(self):
        a, b = gk_of(0.25, self.A), gk_of(0.25, self.B)
        assert signed(a.merge(b).entries) == signed(
            [(0.0, 1, 0), (1.0, 25, 7), (1.0, 6, 19), (2.0, 32, 0)]
        )
        assert signed(b.merge(a).entries) == signed(
            [(-0.0, 1, 0), (1.0, 25, 7), (1.0, 6, 19), (2.0, 32, 0)]
        )
        d, e = gk_of(0.45, [0.0, -0.0, 5.0, 5.0]), gk_of(0.45, [-0.0, 5.0, 0.0])
        assert signed(d.entries) == signed([(0.0, 1, 0), (5.0, 3, 0)])
        assert signed(d.merge(e).entries) == signed([(0.0, 1, 0), (5.0, 6, 0)])
        assert signed(e.merge(d).entries) == signed([(-0.0, 1, 0), (5.0, 6, 0)])
