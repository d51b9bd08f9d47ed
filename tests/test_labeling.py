from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight import labeling as labeling_module
from readweight.dwell_stats import DwellStats
from readweight.events import InteractionEvent, LogFormatError
from readweight.labeling import (
    LABELED_HEADER,
    LabeledLog,
    LabelKind,
    LabelingConfig,
    ValidReadLabel,
    ValidReadSource,
    composition_report,
    label_event,
    label_log,
    parse_labeled,
    read_labeled_log,
    serialize_labeled,
)
from readweight.profiles import WEEK_SECONDS, ItemDwellProfile, UserActivityProfile, build_profiles
from readweight.quantiles import QuantileEstimator

from conftest import assert_same_events, make_event, read_labeled_lines


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

    def test_raising_xl_never_adds_t1(self):
        events = [make_event(dwell_time_s=t) for t in (5.5, 9.0, 14.0, 16.0, 20.0, 30.0, 80.0)]
        counts = []
        for x_l in (5.0, 10.0, 15.0, 25.0, 50.0):
            stats = stats_with_xl(x_l)
            labels = [label_event(e, stats, None, HEAVY) for e in events]
            counts.append(sum(1 for l in labels if l.source is ValidReadSource.T1))
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize(
        "past_edge, expected",
        [(0, (LabelKind.VALID_READ, ValidReadSource.T2)), (1, (LabelKind.INVALID_CLICK, None))],
    )
    def test_trailing_week_excludes_its_left_edge(self, past_edge, expected):
        """The week is (ts - WEEK_SECONDS, ts]: clicks stamped exactly a
        week before an event leave its user light; a second later they count."""
        ts = 1_700_000_000
        cfg = LabelingConfig()
        history = [
            make_event("u1", f"i{k}", ts - WEEK_SECONDS + past_edge, True, 8.0)
            for k in range(cfg.light_user_max_clicks)
        ]
        store = build_profiles(history)
        [(_, label)] = label_log([make_event("u1", "i-new", ts, True, 8.0)], STATS15, store, cfg)
        assert (label.kind, label.source) == expected

    @given(st.floats(min_value=0, max_value=500), st.integers(min_value=0, max_value=12))
    def test_pure_function(self, dwell, clicks):
        event = make_event(dwell_time_s=dwell)
        user = user_with_clicks(clicks)
        a = label_event(event, STATS15, None, user)
        b = label_event(event, STATS15, None, user)
        assert a == b
        if a.kind is LabelKind.VALID_READ:
            assert dwell >= 5.0
        if dwell > STATS15.x_l and dwell >= 5.0:
            assert a.source is ValidReadSource.T1


class TestLabelType:
    def test_source_requires_valid_read(self):
        with pytest.raises(ValueError):
            ValidReadLabel(LabelKind.INVALID_CLICK, ValidReadSource.T1)
        with pytest.raises(ValueError):
            ValidReadLabel(LabelKind.VALID_READ, None)

    def test_floor_comes_from_the_config(self):
        # The label holds no floor of its own: label_event applies cfg's.
        event = make_event(dwell_time_s=4.0)
        low = label_event(event, STATS15, None, None, LabelingConfig(noise_floor_s=3.0))
        assert (low.kind, low.source) == (LabelKind.VALID_READ, ValidReadSource.T2)
        assert label_event(event, STATS15, None, None).kind is LabelKind.NOISE_CLICK


def paper_labels(
    history: list[InteractionEvent],
    log: list[InteractionEvent],
    x_l: float,
    cfg: LabelingConfig,
    eps: float,
    switch_threshold: int,
) -> list[tuple[LabelKind, ValidReadSource | None]]:
    """The paper's rules, by brute force, for each event of ``log`` against
    the clicks of ``history``.

    T1: dwell > x_l.  T2: the user has fewer than ``light_user_max_clicks``
    clicks in (ts - week, ts].  T3: dwell > the item's P10, the nearest-rank
    10th percentile of its sorted click dwells, or the GK sketch's answer
    once the item has more clicks than ``switch_threshold``.  Clicks under
    the noise floor are noise whatever the rules say.
    """
    clicks = [e for e in history if e.clicked]
    p10 = {}
    for item in {e.item_id for e in clicks}:
        dwells = [e.dwell_time_s for e in clicks if e.item_id == item]
        if len(dwells) > switch_threshold:
            sketch = QuantileEstimator(eps=eps, switch_threshold=switch_threshold)
            for dwell in dwells:
                sketch.observe(dwell)
            p10[item] = sketch.query(0.10)
        else:
            p10[item] = sorted(dwells)[math.ceil(0.10 * len(dwells)) - 1]
    labels = []
    for e in log:
        t = e.dwell_time_s
        in_week = sum(
            c.user_id == e.user_id and e.timestamp - WEEK_SECONDS < c.timestamp <= e.timestamp
            for c in clicks
        )
        if not e.clicked:
            labels.append((LabelKind.NOT_CLICKED, None))
        elif t < cfg.noise_floor_s:
            labels.append((LabelKind.NOISE_CLICK, None))
        elif t > x_l:
            labels.append((LabelKind.VALID_READ, ValidReadSource.T1))
        elif in_week < cfg.light_user_max_clicks:
            labels.append((LabelKind.VALID_READ, ValidReadSource.T2))
        elif e.item_id in p10 and t > p10[e.item_id]:
            labels.append((LabelKind.VALID_READ, ValidReadSource.T3))
        else:
            labels.append((LabelKind.INVALID_CLICK, None))
    return labels


# Few ids, so users pass the light-user count and items pass the switch;
# dwell values and week offsets that tie with each other and with the
# thresholds drawn below.
TIED_DWELLS = [0.0, 4.0, 5.0, 8.0, 12.5, 15.0, 20.0, 60.0]
WEEK_EDGES = [0, 1, WEEK_SECONDS - 1, WEEK_SECONDS, WEEK_SECONDS + 1, 2 * WEEK_SECONDS]


def events_over(users: list[str], items: list[str]):
    def event(user, item, offset, clicked, dwell):
        return make_event(user, item, 1_700_000_000 + offset, clicked, dwell if clicked else 0.0)

    return st.builds(
        event,
        st.sampled_from(users),
        st.sampled_from(items),
        st.sampled_from(WEEK_EDGES) | st.integers(0, 3 * WEEK_SECONDS),
        st.booleans(),
        st.sampled_from(TIED_DWELLS) | st.floats(0, 100),
    )


class TestLabelLogMatchesPaperRules:
    @settings(max_examples=200, deadline=None)
    @given(
        history=st.lists(events_over(["u0", "u1", "u2"], ["i0", "i1", "i2"]), min_size=10, max_size=40),
        unseen=st.lists(events_over(["u0", "u-new"], ["i0", "i-new"]), max_size=8),
        x_l=st.sampled_from([8.0, 15.0, 20.0]),
        noise_floor=st.sampled_from([0.0, 4.0, 5.0, 8.0]),
        light=st.sampled_from([1, 2, 4, 7]),
        eps=st.sampled_from([0.05, 0.2]),
        switch_threshold=st.sampled_from([1, 2, 5, 4096]),
    )
    def test_label_log_equals_brute_force(
        self, history, unseen, x_l, noise_floor, light, eps, switch_threshold
    ):
        """``label_log`` against a built store labels each event of the log
        it was built from, and of events with ids the store does not hold,
        as the paper's three rules do."""
        store = build_profiles(history, eps=eps, switch_threshold=switch_threshold)
        cfg = LabelingConfig(noise_floor_s=noise_floor, light_user_max_clicks=light)
        log = history + unseen
        pairs = list(label_log(log, stats_with_xl(x_l), store, cfg))
        assert [event for event, _ in pairs] == log
        expected = paper_labels(history, log, x_l, cfg, eps, switch_threshold)
        assert [(label.kind, label.source) for _, label in pairs] == expected


def log_of(labels: list[ValidReadLabel]) -> LabeledLog:
    """Each label on an unclicked row if it is NotClicked, else on a 20 s click."""
    unclicked = make_event(clicked=False, dwell_time_s=0.0)
    return LabeledLog.from_pairs(
        (unclicked if l.kind is LabelKind.NOT_CLICKED else make_event(), l) for l in labels
    )


class TestComposition:
    def test_counting(self):
        labels = [
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T2),
            ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T3),
        ]
        report = composition_report(log_of(labels))
        assert report["valid_read_source_fractions"] == {"T1": 0.5, "T2": 0.25, "T3": 0.25}
        assert report["counts"]["ValidRead"] == 4

    def test_zero_valid_reads(self):
        labels = [
            ValidReadLabel(LabelKind.NOT_CLICKED, None),
            ValidReadLabel(LabelKind.NOISE_CLICK, None),
        ]
        report = composition_report(log_of(labels))
        assert report["valid_read_source_fractions"] == {}
        assert report["counts"]["NotClicked"] == 1
        assert report["n_events"] == 2

    def test_fractions_sum_to_one(self):
        labels = [
            ValidReadLabel(LabelKind.VALID_READ, src)
            for src in (ValidReadSource.T1, ValidReadSource.T2, ValidReadSource.T3)
        ] * 7
        report = composition_report(log_of(labels))
        assert sum(report["valid_read_source_fractions"].values()) == pytest.approx(1.0, abs=1e-12)


class TestLabeledFormat:
    def test_round_trip(self):
        event = make_event(dwell_time_s=20.0)
        label = ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1)
        line = serialize_labeled(event, label)
        parsed_event, parsed_label = parse_labeled(line)
        assert parsed_event == event
        assert parsed_label == label

    def test_round_trip_without_source(self):
        event = make_event(clicked=False, dwell_time_s=0.0)
        label = ValidReadLabel(LabelKind.NOT_CLICKED, None)
        line = serialize_labeled(event, label)
        assert line.endswith(",NotClicked,")
        assert parse_labeled(line)[1] == label


def assert_same_columns(a: LabeledLog, b: LabeledLog) -> None:
    assert_same_events(a.events, b.events)
    for name in ("kind", "source"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def random_labeled_lines(rng, n: int) -> list[str]:
    """Valid labeled rows with awkward but legal ids and numbers."""
    ids = ["u1", "i1", " padded ", "é", "a\x00b", "x y", "\u2028", "1"]
    lines = []
    for _ in range(n):
        clicked = bool(rng.random() < 0.6)
        if clicked:
            kind = [LabelKind.NOISE_CLICK, LabelKind.INVALID_CLICK, LabelKind.VALID_READ][rng.integers(3)]
            dwell = float(rng.choice([0.0, 4.0, 5.0, rng.exponential(30.0), 1e-300]))
        else:
            kind, dwell = LabelKind.NOT_CLICKED, float(rng.choice([0.0, -0.0]))
        source = ValidReadSource(f"T{rng.integers(1, 4)}") if kind is LabelKind.VALID_READ else None
        event = make_event(
            user_id=ids[rng.integers(len(ids))] + "u",
            item_id="i" + ids[rng.integers(len(ids))],
            timestamp=int(rng.integers(1, 2**62)),
            clicked=clicked,
            dwell_time_s=dwell,
        )
        lines.append(serialize_labeled(event, ValidReadLabel(kind, source)))
    return lines


COLUMNS = {"user_id": 0, "timestamp": 2, "clicked": 3, "dwell": 4, "kind": 5, "source": 6}


def first_row(**values):
    """A corruption that sets fields of the first row, by column name."""

    def corrupt(rows):
        fields = rows[0].split(",")
        for name, value in values.items():
            fields[COLUMNS[name]] = value
        return "\n".join([",".join(fields), *rows[1:]]) + "\n"

    return corrupt


# Each corruption maps the rows (header excluded) to a file's text.
CORRUPTIONS = {
    "none": lambda rows: LABELED_HEADER + "\n" + "\n".join(rows) + "\n",
    "no header, no final newline": lambda rows: "\n".join(rows),
    "crlf": lambda rows: LABELED_HEADER + "\r\n" + "\r\n".join(rows) + "\r\n",
    "bare cr mid-line": lambda rows: "\n".join([rows[0].replace(",", "\r,", 1), *rows[1:]]) + "\n",
    "missing field": lambda rows: "\n".join([rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]]) + "\n",
    "extra field": lambda rows: "\n".join([rows[0] + ",", *rows[1:]]) + "\n",
    # Eight fields then six: the fields in file order are those of a valid log.
    "shifted fields": lambda rows: "\n".join(
        [rows[0] + "," + rows[1].split(",", 1)[0], rows[1].split(",", 1)[1], *rows[2:]]
    ) + "\n",
    "blank line": lambda rows: "\n".join([rows[0], "", *rows[1:]]) + "\n",
    "whitespace line": lambda rows: "\n".join([rows[0], " \t", *rows[1:]]) + "\n",
    "repeated header": lambda rows: "\n".join([LABELED_HEADER, rows[0], LABELED_HEADER, *rows[1:]]) + "\n",
    "padded header": lambda rows: " " + LABELED_HEADER + " \n" + "\n".join(rows) + "\n",
    "two final newlines": lambda rows: "\n".join(rows) + "\n\n",
    "empty file": lambda rows: "",
    "header only": lambda rows: LABELED_HEADER + "\n",
    "empty user id": first_row(user_id=""),
    "bad kind": first_row(kind="Bogus"),
    "bad source": first_row(source="T4"),
    "clicked 2": first_row(clicked="2"),
    "clicked padded": first_row(clicked=" 1"),
    "timestamp 0": first_row(timestamp="0"),
    "timestamp past int64": first_row(timestamp=str(2**63)),
    "timestamp hex": first_row(timestamp="0x10"),
    # A kind that contradicts clicked, each way, and a source off a valid read.
    "NotClicked on a click": first_row(clicked="1", kind="NotClicked", source=""),
    "NoiseClick unclicked": first_row(clicked="0", dwell="0.0", kind="NoiseClick", source=""),
    "source on InvalidClick": first_row(clicked="1", kind="InvalidClick", source="T1"),
    "ValidRead without source": first_row(clicked="1", kind="ValidRead", source=""),
    "dwell on unclicked row": first_row(clicked="0", dwell="3.0", kind="NotClicked", source=""),
}
# Numbers as int() and float() read them, legal or not: both readers must agree.
for text in (" 12", "1_0", "+5", "12 ", "\u0661\u0662"):
    CORRUPTIONS[f"timestamp {text!r}"] = first_row(timestamp=text)
for text in ("nan", "inf", "-inf", "1e400", " 7.5", "1_0.5", "+5", "-1", "-0.0", "0x1p3"):
    CORRUPTIONS[f"dwell {text!r}"] = first_row(clicked="1", dwell=text, kind="InvalidClick", source="")


class TestColumnarReader:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_fast_path_agrees_with_per_line_reader(self, tmp_path, monkeypatch, corruption):
        parsed = []

        def counting_parse_labeled(*args):
            parsed.append(args)
            return parse_labeled(*args)

        monkeypatch.setattr(labeling_module, "parse_labeled", counting_parse_labeled)
        rng = np.random.default_rng(sorted(CORRUPTIONS).index(corruption))
        path = tmp_path / "labeled.csv"
        for trial in range(20):
            text = CORRUPTIONS[corruption](random_labeled_lines(rng, int(rng.integers(3, 40))))
            path.write_text(text, encoding="utf-8", newline="")
            parsed.clear()
            try:
                reference = LabeledLog.from_pairs(read_labeled_lines(path))
            except LogFormatError as err:
                with pytest.raises(LogFormatError) as raised:
                    read_labeled_log(path)
                assert str(raised.value) == str(err) and str(err).startswith("line ")
                # Only the line at fault goes through parse_labeled.
                assert len(parsed) == 1
                continue
            assert_same_columns(read_labeled_log(path), reference)
            assert parsed == []

    def test_round_trips_through_pairs(self, tmp_path, rng):
        lines = random_labeled_lines(rng, 50)
        path = tmp_path / "labeled.csv"
        path.write_text(LABELED_HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
        log = read_labeled_log(path)
        pairs = list(log)
        assert [serialize_labeled(e, l) for e, l in pairs] == lines
        assert_same_columns(LabeledLog.from_pairs(pairs), log)
        assert log.valid_read.tolist() == [l.kind is LabelKind.VALID_READ for _, l in pairs]

    def test_text_and_composition_match_per_row_oracle(self, tmp_path, rng):
        for n in (0, 1, 60):
            lines = random_labeled_lines(rng, n)
            text = LABELED_HEADER + "\n" + "".join(line + "\n" for line in lines)
            path = tmp_path / "labeled.csv"
            path.write_text(text, encoding="utf-8")
            log = read_labeled_log(path)
            assert log.to_text() == text
            labels = [label for _, label in log]
            report = composition_report(log)
            assert report["n_events"] == n
            for kind in LabelKind:
                assert report["counts"][kind.value] == sum(l.kind is kind for l in labels)
            for source in ValidReadSource:
                count = sum(l.source is source for l in labels)
                assert report["valid_read_source_counts"][source.value] == count

    @pytest.mark.parametrize(
        "row, message",
        [
            ("u1,i1,1700000000,1,9.0,Bogus,", "line 3: 'Bogus' is not a valid LabelKind"),
            ("u1,i1,1700000000,1,9.0,ValidRead,T9", "line 3: 'T9' is not a valid ValidReadSource"),
            ("u1,i1,1700000000,1,9.0,InvalidClick,T1", "line 3: source must be present"),
            ("u1,i1,1700000000,1,9.0,NotClicked,", "line 3: label NotClicked contradicts clicked=1"),
            ("u1,i1,1700000000,0,0.0,InvalidClick,", "line 3: label InvalidClick contradicts clicked=0"),
            ("u1,i1,1700000000,1,9.0", "line 3: expected 5 comma-separated fields, got 3"),
            ("u1", "line 3: not a labeled event line"),
        ],
    )
    def test_per_line_errors_name_the_line(self, tmp_path, row, message):
        good = "u1,i1,1700000000,0,0.0,NotClicked,"
        path = tmp_path / "labeled.csv"
        path.write_text("\n".join([LABELED_HEADER, good, row, good]) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="^" + message.replace("(", "\\(")):
            read_labeled_log(path)
