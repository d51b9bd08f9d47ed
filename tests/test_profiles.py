from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight.dwell_stats import fit_log_normal
from readweight.labeling import ValidReadSource, label_log
from readweight.profiles import (
    ItemDwellProfile,
    NoProfileDataError,
    ProfileStore,
    WEEK_SECONDS,
    build_profiles,
)
from readweight.quantiles import DEFAULT_SWITCH_THRESHOLD, QuantileEstimator
from readweight.simulate import SimConfig, generate

from conftest import (
    assert_same_columns,
    event_table,
    label_one,
    make_event,
    profiles_per_click,
    random_events,
    users_of,
    week_clicks,
    with_users,
)
from test_labeling import STATS15

DAY = 86400


def item_profile(records=(), **kwargs) -> ItemDwellProfile:
    estimator = QuantileEstimator(**kwargs)
    for r in records:
        estimator.observe(r)
    return ItemDwellProfile("i1", estimator)


class TestItemProfile:
    def test_single_record(self):
        profile = item_profile([7.0])
        assert profile.n_records == 1
        for p in (0.05, 0.5, 1.0):
            assert profile.estimator.query(p) == 7.0
        assert profile.p10() == 7.0

    def test_ten_records(self):
        profile = item_profile([float(v) for v in range(10, 110, 10)])
        assert profile.n_records == 10
        assert profile.p10() == 10.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_profiles(event_table([make_event(dwell_time_s=-0.5)]))

    def test_empty_p10_errors(self):
        with pytest.raises(NoProfileDataError):
            item_profile().p10()

    def test_uniform_p10_near_ten(self, rng):
        profile = item_profile(rng.uniform(0, 100, 200_000).tolist(), switch_threshold=4096)
        assert profile.p10() == pytest.approx(10.0, abs=0.5)


def user_week_clicks(stamps: list[int], *ats: int) -> list[int]:
    """``label_log``'s count of ``stamps`` in the trailing week of each of
    ``ats``, as one user's clicks."""
    store = with_users(ProfileStore(), {"u1": stamps})
    probes = [make_event("u1", "i1", at, True, 8.0) for at in ats]
    return week_clicks(store, STATS15, probes, len(stamps) + 1)


class TestUserProfile:
    def test_first_click(self):
        assert user_week_clicks([1000], 1000) == [1]

    def test_ten_clicks_one_day(self):
        base = 1_700_000_000
        assert user_week_clicks([base + k * 3600 for k in range(10)], base + DAY) == [10]

    def test_seven_day_expiry(self):
        day0 = 1_700_000_000
        day8 = day0 + 8 * DAY
        assert user_week_clicks([day0, day8], day8) == [1]

    def test_zero_clicks_is_light(self):
        event = make_event(timestamp=123456, dwell_time_s=8.0)
        label = label_one(event, STATS15, None, [])
        assert label.source is ValidReadSource.T2

    def test_monotone_in_window_count(self):
        base = 1_700_000_000
        previous = True
        for n in range(0, 12):
            event = make_event(timestamp=base + 50, dwell_time_s=8.0)
            light = label_one(event, STATS15, None, [base + k for k in range(n)]).source is ValidReadSource.T2
            assert not (light and not previous), "lightness regained as clicks grew"
            previous = light

    def test_out_of_order_queries_stay_correct(self):
        day0 = 1_700_000_000
        # Late query first, then an earlier one; both see their own windows.
        assert user_week_clicks([day0, day0 + 9 * DAY], day0 + 9 * DAY, day0 + DAY) == [1, 1]


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
        return build_profiles(event_table(events)), events

    def test_only_clicks_recorded(self):
        store, _ = self.build_store()
        assert set(store.items) == {"i1", "i2"}
        assert store.user_ids == ("u1", "u2")
        assert store.items["i1"].n_records == 3
        assert store.items["i2"].n_records == 1
        assert users_of(store)["u1"] == [1_700_000_000, 1_700_000_010]
        assert user_week_clicks(users_of(store)["u1"], 1_700_000_100) == [2]

    def test_id_length_limit_is_in_utf8_bytes(self):
        """Token lengths are u16: an id of 65,535 UTF-8 bytes round-trips,
        and one of 65,536 (32,768 two-byte characters) raises ValueError."""
        at_limit = "u" * 65_535
        store = build_profiles(event_table([make_event(at_limit, "é" * 100)]))
        assert users_of(ProfileStore.from_bytes(store.to_bytes())) == {at_limit: [1_700_000_000]}
        past = build_profiles(event_table([make_event("u1", "é" * 32_768)]))
        with pytest.raises(ValueError, match="65,535"):
            past.to_bytes()

    def test_round_trip(self, tmp_path):
        store, _ = self.build_store()
        path = tmp_path / "profiles.bin"
        store.save(str(path))
        loaded = ProfileStore.load(str(path))
        assert set(loaded.items) == set(store.items)
        assert loaded.user_ids == store.user_ids
        item = loaded.items["i1"]
        assert item.estimator.mode == "exact" and item.n_records == 3
        for p in (0.1, 0.5, 1.0):
            assert item.estimator.query(p) == store.items["i1"].estimator.query(p)
        assert users_of(loaded)["u2"] == users_of(store)["u2"]
        assert loaded.to_bytes() == path.read_bytes()

    def test_bytes_deterministic(self, rng):
        a, _ = self.build_store()
        b, _ = self.build_store()
        assert a.to_bytes() == b.to_bytes()
        values = rng.uniform(0, 10, 6000).tolist()

        def sketchy():
            events = [make_event("u1", "hot", 1_700_000_000 + k, True, v) for k, v in enumerate(values)]
            return build_profiles(event_table(events), eps=0.01, switch_threshold=128).to_bytes()

        assert sketchy() == sketchy()

    def test_sketchy_item_round_trip(self, tmp_path, rng):
        base = 1_700_000_000
        values = rng.uniform(0, 100, 2000).tolist()
        events = [make_event("u1", "hot", base + k, True, v) for k, v in enumerate(values)]
        store = build_profiles(event_table(events), eps=0.01, switch_threshold=256)
        assert store.items["hot"].estimator.mode == "sketch"
        path = tmp_path / "profiles.bin"
        store.save(str(path))
        loaded = ProfileStore.load(str(path))
        assert loaded.items["hot"].estimator.mode == "sketch"
        assert loaded.items["hot"].n_records == 2000
        assert loaded.items["hot"].p10() == store.items["hot"].p10()
        assert loaded.to_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "settings",
        [{"eps": 0.0}, {"eps": 1.0}, {"eps": 2.0}, {"eps": float("nan")},
         {"switch_threshold": 0}, {"switch_threshold": -5}, {"switch_threshold": 2**32}],
    )
    def test_out_of_range_settings_rejected(self, settings):
        with pytest.raises(ValueError):
            ProfileStore(**settings)
        with pytest.raises(ValueError):
            build_profiles(event_table([make_event()]), **settings)

    def test_out_of_range_header_rejected(self):
        """A header eps outside (0, 1) fails to load behind a matching checksum."""
        body = bytearray(small_store().to_bytes()[:-4])
        struct.pack_into("<d", body, 8, 2.0)
        with pytest.raises(ValueError, match="eps must be in"):
            ProfileStore.from_bytes(sealed(bytes(body)))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            ProfileStore.from_bytes(b"XXXX" + b"\x00" * 8)

    def test_other_version_rejected(self):
        data = bytearray(small_store().to_bytes())
        struct.pack_into("<I", data, 4, 2)
        with pytest.raises(ValueError, match="version 2"):
            ProfileStore.from_bytes(bytes(data))

    def test_every_strict_prefix_raises_value_error(self):
        """A cut-off file (an exact item, a sketch item and users) never
        parses, wherever the cut falls."""
        data = small_store().to_bytes()
        parsed = 0
        for cut in range(len(data)):
            try:
                ProfileStore.from_bytes(data[:cut])
                parsed += 1
            except ValueError:
                pass
        assert parsed == 0

    def test_appended_byte_raises_value_error(self):
        data = small_store().to_bytes()
        for extra in (b"\x00", b"\x01", b"\xff"):
            with pytest.raises(ValueError, match="trailing"):
                ProfileStore.from_bytes(data + extra)

    def test_descending_values_or_stamps_raise_value_error(self):
        for mangle in (
            lambda store: store.items["cold"].estimator._exact.reverse(),
            lambda store: with_users(store, {user: stamps[::-1] for user, stamps in users_of(store).items()}),
        ):
            store = small_store()
            mangle(store)
            with pytest.raises(ValueError, match="out of order"):
                ProfileStore.from_bytes(store.to_bytes())

    def test_stamp_past_int64_raises_value_error(self):
        """No log holds a stamp past 2^63 - 1, and the labeler counts stamps
        as int64."""
        body = bytearray(small_store().to_bytes()[:-4])
        # The last stamp is the last user's latest, so either value keeps the order.
        struct.pack_into("<Q", body, len(body) - 8, 2**63)
        with pytest.raises(ValueError, match="past 2\\^63"):
            ProfileStore.from_bytes(sealed(bytes(body)))
        struct.pack_into("<Q", body, len(body) - 8, 2**63 - 1)
        assert ProfileStore.from_bytes(sealed(bytes(body))).user_stamps[-1] == 2**63 - 1

    def test_user_ids_out_of_order_raise_value_error(self):
        """T2 finds a store's users by their ids' sorted order, so ids that
        do not strictly ascend fail to load behind a matching checksum."""
        body = small_store().to_bytes()[:-4]
        at = body.index(b"u0u1u2")
        for tokens in (b"u1u0u2", b"u0u0u2"):
            with pytest.raises(ValueError, match="user ids out of order"):
                ProfileStore.from_bytes(sealed(body[:at] + tokens + body[at + 6 :]))

    def test_corrupt_gk_entries_raise_value_error(self):
        def bump_g(entries):
            value, g, delta = entries[3]
            entries[3] = (value, g + 1, delta)

        def swap_value(entries):
            entries[3] = (entries[5][0], *entries[3][1:])

        for mangle, match in (
            (bump_g, "sum to the record count"),
            (swap_value, "GK values out of order"),
            (list.clear, "no GK entries"),
        ):
            store = small_store()
            mangle(store.items["hot"].estimator._as_sketch().entries)
            with pytest.raises(ValueError, match=match):
                ProfileStore.from_bytes(store.to_bytes())

    def test_bad_utf8_token_raises_value_error(self):
        body = small_store().to_bytes()[:-4]
        token = body.index(b"cold")
        with pytest.raises(ValueError, match="utf-8"):
            ProfileStore.from_bytes(sealed(body[:token] + b"\xff" + body[token + 1 :]))

    def test_every_flipped_byte_raises_value_error(self):
        """One changed byte anywhere, checksum included, never loads."""
        data = small_store().to_bytes()
        for at in range(len(data)):
            for flip in (0x01, 0x80, 0xFF):
                corrupt = bytearray(data)
                corrupt[at] ^= flip
                with pytest.raises(ValueError):
                    ProfileStore.from_bytes(bytes(corrupt))


def sealed(body: bytes) -> bytes:
    """Store bytes with a fresh checksum, so the checks after it are reached."""
    return body + struct.pack("<I", zlib.crc32(body))


def small_store() -> ProfileStore:
    """A sketch item, two exact items and three users."""
    base = 1_700_000_000
    events = [make_event(f"u{k % 3}", "hot", base + k, True, 10.0 + k) for k in range(12)] + [
        make_event("u0", "cold", base + 20, True, 5.0),
        make_event("u0", "cold", base + 21, True, 2.0),
        make_event("u1", "warm", base + 22, True, 1.0),
    ]
    store = build_profiles(event_table(events), eps=0.05, switch_threshold=8)
    assert store.items["hot"].estimator.mode == "sketch"
    return store


TOKENS = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def stores(draw) -> ProfileStore:
    """Exact and sketch items under a small switch, possibly no items or no
    users, non-ASCII tokens, tied dwell values and repeated stamps."""
    store = ProfileStore(
        eps=draw(st.sampled_from([0.01, 0.05, 0.2])), switch_threshold=draw(st.integers(1, 6))
    )
    dwell = st.sampled_from([0.0, 0.5, 3.0, 3.0, 12.25, 40.0]) | st.floats(0, 1e4)
    for token in draw(st.sets(TOKENS, max_size=5)):
        estimator = QuantileEstimator(store.eps, store.switch_threshold)
        for value in draw(st.lists(dwell, min_size=1, max_size=30)):
            estimator.observe(value)
        store.items[token] = ItemDwellProfile(token, estimator)
    stamp = st.integers(1_700_000_000, 1_700_000_000 + 3 * WEEK_SECONDS)
    users = {}
    for token in draw(st.sets(TOKENS, max_size=5)):
        stamps = draw(st.lists(stamp, max_size=12).map(lambda xs: xs + xs[:2]))
        users[token] = sorted(stamps)
    return with_users(store, users)


class TestStoreRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(stores())
    def test_bytes_and_answers_survive(self, store):
        data = store.to_bytes()
        loaded = ProfileStore.from_bytes(data)
        assert loaded.to_bytes() == data
        assert (loaded.eps, loaded.switch_threshold) == (store.eps, store.switch_threshold)
        assert loaded.items.keys() == store.items.keys() and loaded.user_ids == store.user_ids
        for token, item in store.items.items():
            again = loaded.items[token]
            assert again.estimator.mode == item.estimator.mode
            assert again.n_records == item.n_records
            assert again.p10() == item.p10()
        assert users_of(loaded) == users_of(store)


# Ties, signed zeros, subnormals, a value past 2^53, and non-ASCII ids
# (one a combining sequence that sorts apart from its composed form).
TIED_DWELL = [0.0, -0.0, 5e-324, 2.5e-308, 3.0, 3.0, 12.25, 1e16]
ODD_IDS = ["a", "é", "e\u0301", "日本", "𝔘", "z"]


def tie_heavy_events(rng, n: int) -> list:
    """A random log whose clicks tie on dwell and, per user, on stamps."""
    stamps = 1_700_000_000 + rng.integers(0, 3 * WEEK_SECONDS, 6)
    events = []
    for _ in range(n):
        clicked = bool(rng.random() < 0.8)
        dwell = TIED_DWELL[rng.integers(len(TIED_DWELL))] if clicked else 0.0
        user, item = ODD_IDS[rng.integers(len(ODD_IDS))], ODD_IDS[rng.integers(len(ODD_IDS))]
        events.append(make_event(user, item, int(stamps[rng.integers(len(stamps))]), clicked, dwell))
    return events


class TestColumnBuildEqualsPerEventLoop:
    """``build_profiles`` gives the same store bytes as the per-click build."""

    @pytest.mark.parametrize("switch_threshold", [16, DEFAULT_SWITCH_THRESHOLD])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bytes_as_observe_event(self, seed, switch_threshold):
        events = random_events(np.random.default_rng(seed), 3000, n_users=30, n_items=6)
        reference = profiles_per_click(events, switch_threshold=switch_threshold)
        expected = reference.to_bytes()
        modes = {p.estimator.mode for p in reference.items.values()}
        assert modes == ({"sketch"} if switch_threshold == 16 else {"exact"})
        store = build_profiles(event_table(events), switch_threshold=switch_threshold)
        assert store.to_bytes() == expected

    @pytest.mark.parametrize("switch_threshold", [1, 7, 30, DEFAULT_SWITCH_THRESHOLD])
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_tables(self, seed, switch_threshold):
        """Items cross the switch partway through the log at the small
        thresholds; the store bytes hold each value's sign bit, so a tie
        between -0.0 and 0.0 that lands in another order shows."""
        events = tie_heavy_events(np.random.default_rng(100 + seed), 300)
        reference = profiles_per_click(events, eps=0.05, switch_threshold=switch_threshold)
        store = build_profiles(event_table(events), eps=0.05, switch_threshold=switch_threshold)
        assert store.to_bytes() == reference.to_bytes()
        sketched = any(p.estimator.mode == "sketch" for p in reference.items.values())
        assert sketched == (switch_threshold < DEFAULT_SWITCH_THRESHOLD)


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
class TestLabelsSurviveStoreRoundTrip:
    """Labels against a saved-and-reloaded store equal in-memory ones."""

    def test_in_memory_and_reloaded_labels_agree(self, cfg, switch_threshold):
        events, _ = generate(cfg)
        stats = fit_log_normal(events)
        store = build_profiles(events, switch_threshold=switch_threshold)
        reloaded = ProfileStore.from_bytes(store.to_bytes())
        assert_same_columns(label_log(events, stats, reloaded), label_log(events, stats, store))
