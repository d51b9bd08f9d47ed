from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from readweight.dwell_stats import DwellStats
from readweight.labeling import (
    LabelKind,
    LabelingConfig,
    ValidReadLabel,
    ValidReadSource,
    composition_report,
    label_event,
    parse_labeled,
    serialize_labeled,
)
from readweight.profiles import ItemDwellProfile, UserActivityProfile
from readweight.quantiles import QuantileEstimator

from conftest import make_event


def stats_with_xl(x_l: float, sigma: float = 1.3) -> DwellStats:
    # Pin x_l exactly so boundary-equality cases are bit-precise.
    mu = math.log(x_l) + sigma
    return DwellStats(mu=mu, sigma=sigma, n=1000, x_l=x_l, x_h=math.exp(mu + sigma))


def item_with_records(records) -> ItemDwellProfile:
    profile = ItemDwellProfile("i1", QuantileEstimator())
    for r in records:
        profile.observe(r)
    return profile


def user_with_clicks(n: int, at: int = 1_700_000_000) -> UserActivityProfile:
    user = UserActivityProfile("u1")
    for k in range(n):
        user.record_click(at - k * 3600)
    return user


STATS15 = stats_with_xl(15.0)
HEAVY = user_with_clicks(10)
LIGHT3 = user_with_clicks(3)


class TestLabelEvent:
    def test_t1_long_dwell(self):
        label = label_event(make_event(dwell_time_s=20.0), STATS15, None, HEAVY)
        assert label.kind is LabelKind.VALID_READ
        assert label.source is ValidReadSource.T1

    def test_noise_floor(self):
        label = label_event(
            make_event(dwell_time_s=4.0), STATS15, item_with_records([1.0]), LIGHT3
        )
        assert label.kind is LabelKind.NOISE_CLICK
        assert label.source is None

    def test_t2_light_user(self):
        label = label_event(make_event(dwell_time_s=8.0), STATS15, None, LIGHT3)
        assert label.kind is LabelKind.VALID_READ
        assert label.source is ValidReadSource.T2
        # Light means fewer than 7 clicks in the trailing week: 6 is, 7 is not.
        six = label_event(make_event(dwell_time_s=8.0), STATS15, None, user_with_clicks(6))
        assert six.source is ValidReadSource.T2
        seven = label_event(make_event(dwell_time_s=8.0), STATS15, None, user_with_clicks(7))
        assert seven.kind is LabelKind.INVALID_CLICK

    def test_t3_item_quantile(self):
        item = item_with_records([6.0] * 10)
        label = label_event(make_event(dwell_time_s=8.0), STATS15, item, HEAVY)
        assert label.kind is LabelKind.VALID_READ
        assert label.source is ValidReadSource.T3

    def test_invalid_click(self):
        item = item_with_records([9.0] * 10)
        label = label_event(make_event(dwell_time_s=8.0), STATS15, item, HEAVY)
        assert label.kind is LabelKind.INVALID_CLICK

    def test_not_clicked(self):
        label = label_event(make_event(clicked=False, dwell_time_s=0.0), STATS15, None, None)
        assert label.kind is LabelKind.NOT_CLICKED


class TestDecisionEdges:
    def test_priority_t1_beats_t2(self):
        label = label_event(make_event(dwell_time_s=20.0), STATS15, None, LIGHT3)
        assert label.source is ValidReadSource.T1

    def test_boundary_equality_fails_rules(self):
        # T == x_l is not "longer than" x_l; T == P10 is not longer either.
        high_item = item_with_records([20.0] * 10)
        label = label_event(make_event(dwell_time_s=15.0), STATS15, high_item, HEAVY)
        assert label.kind is LabelKind.INVALID_CLICK
        item = item_with_records([8.0] * 10)
        label = label_event(make_event(dwell_time_s=8.0), STATS15, item, HEAVY)
        assert label.kind is LabelKind.INVALID_CLICK

    def test_exact_noise_floor_is_not_noise(self):
        label = label_event(make_event(dwell_time_s=5.0), STATS15, None, LIGHT3)
        assert label.kind is LabelKind.VALID_READ
        assert label.source is ValidReadSource.T2

    def test_missing_user_profile_counts_as_light(self):
        label = label_event(make_event(dwell_time_s=8.0), STATS15, None, None)
        assert label.source is ValidReadSource.T2

    def test_missing_item_profile_skips_t3(self):
        label = label_event(make_event(dwell_time_s=8.0), STATS15, None, HEAVY)
        assert label.kind is LabelKind.INVALID_CLICK

    def test_min_records_t3_gate(self):
        item = item_with_records([6.0] * 3)
        cfg = LabelingConfig(min_records_t3=5)
        label = label_event(make_event(dwell_time_s=8.0), STATS15, item, HEAVY, cfg)
        assert label.kind is LabelKind.INVALID_CLICK

    def test_exclude_self_variant(self):
        # 11 records: P10 sits at the 2nd smallest (the event's own 8.0), so
        # the strict comparison fails; dropping the event's record moves P10
        # down to 5.5 and T3 fires.
        item = item_with_records([5.5, 8.0] + [8.1] * 9)
        event = make_event(dwell_time_s=8.0)
        with_self = label_event(event, STATS15, item, HEAVY)
        assert with_self.kind is LabelKind.INVALID_CLICK
        excl = label_event(event, STATS15, item, HEAVY, LabelingConfig(t3_exclude_self=True))
        assert excl.source is ValidReadSource.T3

    def test_raising_xl_never_adds_t1(self):
        events = [make_event(dwell_time_s=t) for t in (5.5, 9.0, 14.0, 16.0, 20.0, 30.0, 80.0)]
        counts = []
        for x_l in (5.0, 10.0, 15.0, 25.0, 50.0):
            stats = stats_with_xl(x_l)
            labels = [label_event(e, stats, None, HEAVY) for e in events]
            counts.append(sum(1 for l in labels if l.source is ValidReadSource.T1))
        assert counts == sorted(counts, reverse=True)

    @given(st.floats(min_value=0, max_value=500), st.integers(min_value=0, max_value=12))
    def test_pure_function(self, dwell, clicks):
        event = make_event(dwell_time_s=dwell)
        user = user_with_clicks(clicks)
        a = label_event(event, STATS15, None, user)
        b = label_event(event, STATS15, None, user)
        assert a == b
        if a.kind is LabelKind.VALID_READ:
            assert a.dwell_time_s >= 5.0
        if dwell > STATS15.x_l and dwell >= 5.0:
            assert a.source is ValidReadSource.T1


class TestLabelType:
    def test_source_requires_valid_read(self):
        with pytest.raises(ValueError):
            ValidReadLabel(LabelKind.INVALID_CLICK, ValidReadSource.T1, 9.0)
        with pytest.raises(ValueError):
            ValidReadLabel(LabelKind.VALID_READ, None, 9.0)

    def test_valid_read_respects_floor(self):
        with pytest.raises(ValueError):
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1, 3.0)


class TestComposition:
    def test_counting(self):
        labels = [
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1, 20.0),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1, 25.0),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T2, 8.0),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T3, 9.0),
        ]
        report = composition_report(labels)
        assert report["valid_read_source_fractions"] == {"T1": 0.5, "T2": 0.25, "T3": 0.25}
        assert report["counts"]["ValidRead"] == 4

    def test_zero_valid_reads(self):
        labels = [
            ValidReadLabel(LabelKind.NOT_CLICKED, None, 0.0),
            ValidReadLabel(LabelKind.NOISE_CLICK, None, 2.0),
        ]
        report = composition_report(labels)
        assert report["valid_read_source_fractions"] == {}
        assert report["counts"]["NotClicked"] == 1
        assert report["n_events"] == 2

    def test_fractions_sum_to_one(self):
        labels = [
            ValidReadLabel(LabelKind.VALID_READ, src, 10.0)
            for src in (ValidReadSource.T1, ValidReadSource.T2, ValidReadSource.T3)
        ] * 7
        report = composition_report(labels)
        assert sum(report["valid_read_source_fractions"].values()) == pytest.approx(1.0, abs=1e-12)


class TestLabeledFormat:
    def test_round_trip(self):
        event = make_event(dwell_time_s=20.0)
        label = ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1, 20.0)
        line = serialize_labeled(event, label)
        parsed_event, parsed_label = parse_labeled(line)
        assert parsed_event == event
        assert parsed_label == label

    def test_round_trip_without_source(self):
        event = make_event(clicked=False, dwell_time_s=0.0)
        label = ValidReadLabel(LabelKind.NOT_CLICKED, None, 0.0)
        line = serialize_labeled(event, label)
        assert line.endswith(",NotClicked,")
        assert parse_labeled(line)[1] == label
