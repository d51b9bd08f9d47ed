from __future__ import annotations

import numpy as np
import pytest

from readweight.dwell_stats import fit_log_normal
from readweight.labeling import ValidReadSource, label_event, label_log
from readweight.profiles import (
    FrozenProfileError,
    ItemDwellProfile,
    NoProfileDataError,
    ProfileStore,
    UserActivityProfile,
    build_profiles,
)
from readweight.quantiles import DEFAULT_SWITCH_THRESHOLD, QuantileEstimator
from readweight.simulate import SimConfig, generate

from readweight.events import EventTable

from conftest import make_event, random_events
from test_labeling import STATS15

DAY = 86400


def item_profile(**kwargs) -> ItemDwellProfile:
    return ItemDwellProfile("i1", QuantileEstimator(**kwargs))


class TestItemProfile:
    def test_single_record(self):
        profile = item_profile()
        profile.observe(7.0)
        assert profile.n_records == 1
        for p in (0.05, 0.5, 1.0):
            assert profile.estimator.query(p) == 7.0
        assert profile.p10() == 7.0

    def test_ten_records(self):
        profile = item_profile()
        for v in range(10, 110, 10):
            profile.observe(float(v))
        assert profile.n_records == 10
        assert profile.p10() == 10.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            item_profile().observe(-0.5)

    def test_empty_p10_errors(self):
        with pytest.raises(NoProfileDataError):
            item_profile().p10()

    def test_uniform_p10_near_ten(self, rng):
        profile = item_profile(switch_threshold=4096)
        for v in rng.uniform(0, 100, 200_000).tolist():
            profile.observe(v)
        assert profile.p10() == pytest.approx(10.0, abs=0.5)

    def test_exclude_self_shifts_rank(self):
        profile = item_profile()
        for v in range(10, 110, 10):
            profile.observe(float(v))
        # Without 10.0 the remaining 9 records put P10 at index ceil(0.9)=1.
        assert profile.p10(exclude=10.0) == 20.0
        # Excluding a value not present changes nothing.
        assert profile.p10(exclude=55.0) == 10.0


class TestUserProfile:
    def test_first_click(self):
        user = UserActivityProfile("u1")
        user.record_click(1000)
        assert user.window_size(1000) == 1

    def test_ten_clicks_one_day(self):
        user = UserActivityProfile("u1")
        base = 1_700_000_000
        for k in range(10):
            user.record_click(base + k * 3600)
        assert user.window_size(base + DAY) == 10

    def test_seven_day_expiry(self):
        user = UserActivityProfile("u1")
        day0 = 1_700_000_000
        day8 = day0 + 8 * DAY
        user.record_click(day0)
        user.record_click(day8)
        assert user.window_size(day8) == 1

    def test_zero_clicks_is_light(self):
        event = make_event(timestamp=123456, dwell_time_s=8.0)
        label = label_event(event, STATS15, None, UserActivityProfile("u1"))
        assert label.source is ValidReadSource.T2

    def test_monotone_in_window_count(self):
        base = 1_700_000_000
        previous = True
        for n in range(0, 12):
            user = UserActivityProfile("u1")
            for k in range(n):
                user.record_click(base + k)
            event = make_event(timestamp=base + 50, dwell_time_s=8.0)
            light = label_event(event, STATS15, None, user).source is ValidReadSource.T2
            assert not (light and not previous), "lightness regained as clicks grew"
            previous = light

    def test_out_of_order_queries_stay_correct(self):
        user = UserActivityProfile("u1")
        day0 = 1_700_000_000
        user.record_click(day0)
        user.record_click(day0 + 9 * DAY)
        # Late query first, then an earlier one; both see their own windows.
        assert user.window_size(day0 + 9 * DAY) == 1
        assert user.window_size(day0 + DAY) == 1


class TestStore:
    def build_store(self):
        base = 1_700_000_000
        events = [
            make_event("u1", "i1", base, True, 30.0),
            make_event("u1", "i1", base + 10, True, 10.0),
            make_event("u2", "i1", base + 20, True, 20.0),
            make_event("u2", "i2", base + 30, True, 3.0),
            make_event("u3", "i2", base + 40, False, 0.0),
        ]
        return build_profiles(events), events

    def test_only_clicks_recorded(self):
        store, _ = self.build_store()
        assert set(store.items) == {"i1", "i2"}
        assert set(store.users) == {"u1", "u2"}
        assert store.items["i1"].n_records == 3
        assert store.items["i2"].n_records == 1
        assert store.users["u1"].window_size(1_700_000_100) == 2

    def test_frozen_store_rejects_writes(self):
        store, events = self.build_store()
        with pytest.raises(FrozenProfileError):
            store.observe_event(events[0])

    def test_round_trip(self, tmp_path):
        store, _ = self.build_store()
        path = tmp_path / "profiles.bin"
        store.save(str(path))
        loaded = ProfileStore.load(str(path))
        assert set(loaded.items) == set(store.items)
        assert set(loaded.users) == set(store.users)
        assert loaded.items["i1"].n_records == 3
        assert loaded.items["i1"].p10() == store.items["i1"].p10()
        assert loaded.users["u2"].click_timestamps == store.users["u2"].click_timestamps
        assert loaded.frozen

    def test_bytes_deterministic(self):
        a, _ = self.build_store()
        b, _ = self.build_store()
        assert a.to_bytes() == b.to_bytes()

    def test_sketchy_item_round_trip(self, tmp_path, rng):
        store = ProfileStore(eps=0.01, switch_threshold=256)
        base = 1_700_000_000
        for k, v in enumerate(rng.uniform(0, 100, 2000).tolist()):
            store.observe_event(make_event("u1", "hot", base + k, True, v))
        store.freeze()
        assert store.items["hot"].estimator.mode == "sketch"
        path = tmp_path / "profiles.bin"
        store.save(str(path))
        loaded = ProfileStore.load(str(path))
        assert loaded.items["hot"].estimator.mode == "sketch"
        assert loaded.items["hot"].p10() == store.items["hot"].p10()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            ProfileStore.from_bytes(b"XXXX" + b"\x00" * 8)

    def test_every_prefix_loads_or_raises_value_error(self):
        """A cut-off file (an exact item, a sketch item and users) either
        parses, when the cut falls between records, or raises ValueError."""
        store = ProfileStore(eps=0.05, switch_threshold=8)
        base = 1_700_000_000
        for k in range(12):
            store.observe_event(make_event(f"u{k % 3}", "hot", base + k, True, 10.0 + k))
        store.observe_event(make_event("u0", "cold", base + 20, True, 5.0))
        data = store.freeze().to_bytes()
        assert store.items["hot"].estimator.mode == "sketch"
        parsed = 0
        for cut in range(len(data)):
            try:
                ProfileStore.from_bytes(data[:cut])
                parsed += 1
            except ValueError:
                pass
        # The parseable prefixes end after the header or after a whole
        # record (the last record's end is the full buffer, not a prefix).
        assert parsed == len(store.items) + len(store.users)


class TestColumnBuildEqualsPerEventLoop:
    @pytest.mark.parametrize("switch_threshold", [16, DEFAULT_SWITCH_THRESHOLD])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bytes_as_observe_event(self, seed, switch_threshold):
        events = random_events(np.random.default_rng(seed), 3000, n_users=30, n_items=6)
        reference = ProfileStore(switch_threshold=switch_threshold)
        for event in events:
            reference.observe_event(event)
        expected = reference.freeze().to_bytes()
        modes = {p.estimator.mode for p in reference.items.values()}
        assert modes == ({"sketch"} if switch_threshold == 16 else {"exact"})
        for log in (events, EventTable.of(events)):
            store = build_profiles(log, switch_threshold=switch_threshold)
            assert store.frozen and store.to_bytes() == expected


class TestLabelsSurviveStoreRoundTrip:
    """Labels against a saved-and-reloaded store equal in-memory ones."""

    @pytest.mark.parametrize(
        "cfg, switch_threshold",
        [
            # Every item past a 64-record switch: GK sketch mode.
            (
                SimConfig(
                    n_users=60,
                    n_items=8,
                    impressions_per_level=(1, 1, 1, 1, 1, 1, 100),
                    activeness_mix=(0, 0, 0, 0, 0, 0, 1),
                    seed=1,
                ),
                64,
            ),
            # Default switch: every item in exact mode.
            (SimConfig(n_users=400, n_items=60, seed=7), DEFAULT_SWITCH_THRESHOLD),
        ],
    )
    def test_in_memory_and_reloaded_labels_agree(self, cfg, switch_threshold):
        events, _ = generate(cfg)
        stats = fit_log_normal(events)
        store = build_profiles(events, switch_threshold=switch_threshold)
        reloaded = ProfileStore.from_bytes(store.to_bytes())
        in_memory = [(l.kind, l.source) for _, l in label_log(events, stats, store)]
        from_disk = [(l.kind, l.source) for _, l in label_log(events, stats, reloaded)]
        assert from_disk == in_memory
