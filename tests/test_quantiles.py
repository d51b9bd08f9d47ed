from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
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
        return store.freeze().to_bytes()

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
        interior = list(zip(sk._g, sk._delta))[1:-1]
        assert all(g + d <= threshold for g, d in interior)
        assert sum(sk._g) == sk.n
