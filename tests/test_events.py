from __future__ import annotations

import tempfile
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight import events as events_module
from readweight.events import (
    HEADER_MODES,
    LOG_HEADER,
    BadLineBudgetExceeded,
    EventTable,
    IdCoder,
    InteractionEvent,
    LogFormatError,
    ScanCounts,
    parse_event,
    read_log,
    spans,
    write_log,
)
from readweight.dwell_stats import fit_log_normal
from readweight.evaluation import row_levels
from readweight.labeling import LABELED_HEADER, LabeledLog, label_log, read_labeled_log
from readweight.profiles import build_profiles
from readweight.simulate import SimConfig, generate
from readweight.training import FeatureSpace

from conftest import (
    SPAN_EDGES,
    assert_coded,
    assert_same_columns,
    assert_same_events,
    edge_table,
    event_table,
    iter_log,
    labeled_of,
    log_text,
    make_event,
    read_labeled_lines,
    row_ids,
    serialize_event,
    traced_transient,
)


class TestParse:
    def test_clicked_row(self):
        event = parse_event("u1,i9,1700000000,1,42.0")
        assert event == InteractionEvent("u1", "i9", 1700000000, True, 42.0)

    def test_unclicked_row(self):
        event = parse_event("u1,i9,1700000000,0,0")
        assert event.clicked is False
        assert event.dwell_time_s == 0.0

    def test_dwell_without_click_rejected(self):
        with pytest.raises(LogFormatError, match="unclicked"):
            parse_event("u1,i9,1700000000,0,12")

    @pytest.mark.parametrize(
        "line,match",
        [
            ("u1,i9,1700000000,1", "5 comma-separated fields"),
            ("u1,i9,1700000000,1,abc", "non-numeric dwell"),
            ("u1,i9,1700000000,1,-3", "finite and >= 0"),
            ("u1,i9,1700000000,1,nan", "finite and >= 0"),
            ("u1,i9,1700000000,1,inf", "finite and >= 0"),
            ("u1,i9,xx,1,1.0", "non-integer timestamp"),
            ("u1,i9,0,1,1.0", "timestamp must be positive"),
            ("u1,i9,1700000000,2,1.0", "clicked must be 0 or 1"),
            (",i9,1700000000,1,1.0", "empty user_id"),
            ("u1,i9,9223372036854775808,1,1.0", "does not fit int64"),
        ],
    )
    def test_rejections(self, line, match):
        with pytest.raises(LogFormatError, match=match):
            parse_event(line)

    def test_largest_int64_timestamp_accepted(self):
        assert parse_event(f"u1,i9,{2**63 - 1},1,1.0").timestamp == 2**63 - 1

    def test_line_number_in_error(self):
        with pytest.raises(LogFormatError, match="line 17"):
            parse_event("bad", line_number=17)


token = st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=12)
events_strategy = st.builds(
    InteractionEvent,
    user_id=token,
    item_id=token,
    timestamp=st.integers(min_value=1, max_value=2**40),
    clicked=st.just(True),
    dwell_time_s=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
) | st.builds(
    InteractionEvent,
    user_id=token,
    item_id=token,
    timestamp=st.integers(min_value=1, max_value=2**40),
    clicked=st.just(False),
    dwell_time_s=st.just(0.0),
)


class TestRoundTrip:
    @given(events_strategy)
    def test_serialize_parse_identity(self, event):
        assert parse_event(serialize_event(event)) == event

    @given(events_strategy)
    def test_canonical_line_fixpoint(self, event):
        line = serialize_event(event)
        assert serialize_event(parse_event(line)) == line


class TestScanLog:
    def _write(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_three_valid_lines(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write(log, [serialize_event(make_event(item_id=f"i{k}")) for k in range(3)])
        events, counts = read_log(log)
        assert len(events) == 3
        assert counts.total == 3
        assert counts.skipped == 0

    def test_bad_line_within_budget(self, tmp_path):
        log = tmp_path / "log.csv"
        lines = [serialize_event(make_event(item_id=f"i{k}")) for k in range(4)]
        lines.insert(2, "garbage,line")
        self._write(log, lines)
        events, counts = read_log(log, bad_line_budget=10)
        assert len(events) == 4
        assert counts.skipped == 1

    def test_strict_by_default(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write(log, ["garbage"])
        with pytest.raises(BadLineBudgetExceeded):
            read_log(log)

    def test_negative_budget_rejected(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write(log, [serialize_event(make_event())])
        with pytest.raises(ValueError, match="bad_line_budget must be >= 0, got -1"):
            read_log(log, bad_line_budget=-1)

    def test_empty_file(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("", encoding="utf-8")
        events, counts = read_log(log)
        assert list(events) == []
        assert counts.total == 0

    def test_header_modes(self, tmp_path):
        log = tmp_path / "log.csv"
        body = serialize_event(make_event())
        self._write(log, ["user_id,item_id,timestamp,clicked,dwell_time_s", body])
        assert len(read_log(log, header="auto")[0]) == 1
        assert len(read_log(log, header="present")[0]) == 1
        with pytest.raises(BadLineBudgetExceeded):
            read_log(log, header="absent")

    def test_auto_header_skips_only_the_exact_header(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write(log, ["user_id7,i1,1700000000,1,12.0", "u2,i1,1700000001,1,13.0"])
        events, counts = read_log(log)
        assert [e.user_id for e in events] == ["user_id7", "u2"]
        assert (counts.total, counts.skipped) == (2, 0)
        assert [e.user_id for e in iter_log(log)] == ["user_id7", "u2"]
        self._write(log, [" " + LOG_HEADER + " ", "u2,i1,1700000001,1,13.0"])
        assert [e.user_id for e in read_log(log)[0]] == ["u2"]

    def test_concatenation_equals_stream_concat(self, tmp_path):
        a_events = [make_event(user_id=f"a{k}", dwell_time_s=k + 1.0) for k in range(5)]
        b_events = [make_event(user_id=f"b{k}", dwell_time_s=k + 2.0) for k in range(7)]
        log_a, log_b, log_ab = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "ab.csv"
        write_log(log_a, event_table(a_events))
        write_log(log_b, event_table(b_events))
        log_ab.write_text(
            log_a.read_text(encoding="utf-8") + log_b.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert list(read_log(log_ab)[0]) == list(read_log(log_a)[0]) + list(read_log(log_b)[0])

    def test_iterator_counts_populate(self, tmp_path):
        log = tmp_path / "log.csv"
        self._write(log, [serialize_event(make_event())] * 2)
        counts = ScanCounts()
        assert sum(1 for _ in iter_log(log, counts=counts)) == 2
        assert counts.total == 2


def random_log_lines(rng, n: int) -> list[str]:
    """Valid log rows with awkward but legal ids and extreme numbers."""
    ids = ["u1", " padded ", "é", "a\x00b", "x y", " ", "\x85", "1"]
    dwells = [4.0, 1e-300, 5e-324, 1.7976931348623157e308, float(rng.exponential(30.0))]
    lines = []
    for _ in range(n):
        clicked = bool(rng.random() < 0.6)
        dwell = dwells[rng.integers(len(dwells))] if clicked else [0.0, -0.0][rng.integers(2)]
        timestamp = [1, 2**63 - 1, int(rng.integers(1, 2**62))][rng.integers(3)]
        user, item = ids[rng.integers(len(ids))] + "u", "i" + ids[rng.integers(len(ids))]
        lines.append(serialize_event(InteractionEvent(user, item, timestamp, clicked, dwell)))
    return lines


def replace_field(column: int, text: str, clicked: str | None = None):
    """A corruption that puts ``text`` in one column of the second row."""

    def corrupt(rows):
        fields = rows[1].split(",")
        fields[column] = text
        if clicked is not None:
            fields[3] = clicked
        return "\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n"

    return corrupt


EVENT_CORRUPTIONS = {
    "none": lambda rows: "\n".join(rows) + "\n",
    "no final newline": lambda rows: "\n".join(rows),
    "header": lambda rows: LOG_HEADER + "\n" + "\n".join(rows) + "\n",
    "padded header": lambda rows: " " + LOG_HEADER + "\t\n" + "\n".join(rows) + "\n",
    "header mid-file": lambda rows: "\n".join([rows[0], LOG_HEADER, *rows[1:]]) + "\n",
    "header twice": lambda rows: "\n".join([LOG_HEADER, LOG_HEADER, *rows]) + "\n",
    "user_id-prefixed first row": lambda rows: "\n".join(["user_id7" + rows[0], *rows[1:]]) + "\n",
    "crlf": lambda rows: LOG_HEADER + "\r\n" + "\r\n".join(rows) + "\r\n",
    "bare cr line ends": lambda rows: "\r".join(rows) + "\r",
    "bare cr mid-line": lambda rows: "\n".join([rows[0].replace(",", "\r,", 1), *rows[1:]]) + "\n",
    "blank line": lambda rows: "\n".join([rows[0], "", *rows[1:]]) + "\n",
    "whitespace line": lambda rows: "\n".join([rows[0], " \t", *rows[1:]]) + "\n",
    "two final newlines": lambda rows: "\n".join(rows) + "\n\n",
    "empty file": lambda rows: "",
    "header only": lambda rows: LOG_HEADER + "\n",
    "missing field": lambda rows: "\n".join([rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]]) + "\n",
    "extra field": lambda rows: "\n".join([rows[0] + ",", *rows[1:]]) + "\n",
    # Four fields then six: the fields in file order are those of a valid log.
    "four then six fields": lambda rows: "\n".join(
        [rows[0].rsplit(",", 1)[0], rows[0].rsplit(",", 1)[1] + "," + rows[1], *rows[2:]]
    ) + "\n",
    "two bad lines": lambda rows: "\n".join([rows[0], "garbage", *rows[1:], "u,i,1,2,0"]) + "\n",
    "empty user id": replace_field(0, ""),
    "empty item id": replace_field(1, ""),
    "clicked 2": replace_field(3, "2"),
    "clicked padded": replace_field(3, " 1"),
    "dwell on unclicked row": replace_field(4, "3.0", clicked="0"),
}
for text in ("0", "-1", str(2**63), str(-(2**63) - 1), "+5", "1_0", " 12", "12 ", "١٢", "0x10", "1.0", ""):
    EVENT_CORRUPTIONS[f"timestamp {text!r}"] = replace_field(2, text)
for text in ("nan", "inf", "-inf", "1e400", " 7.5", "1_0.5", "+5", "-1", "-0.0", "0x1p3", ""):
    EVENT_CORRUPTIONS[f"dwell {text!r}"] = replace_field(4, text, clicked="1")


class TestColumnarEventReader:
    """``read_log`` against the per-line ``iter_log``."""

    @pytest.mark.parametrize("corruption", sorted(EVENT_CORRUPTIONS))
    def test_fast_path_agrees_with_per_line_reader(self, tmp_path, monkeypatch, corruption):
        parsed = []

        def counting_parse_event(*args):
            parsed.append(args)
            return parse_event(*args)

        monkeypatch.setattr(events_module, "parse_event", counting_parse_event)
        rng = np.random.default_rng(sorted(EVENT_CORRUPTIONS).index(corruption))
        path = tmp_path / "log.csv"
        for trial in range(6):
            text = EVENT_CORRUPTIONS[corruption](random_log_lines(rng, int(rng.integers(3, 30))))
            path.write_text(text, encoding="utf-8", newline="")
            for header in HEADER_MODES:
                for budget in (0, 1, 2):
                    counts = ScanCounts()
                    parsed.clear()
                    try:
                        expected = list(iter_log(path, header=header, bad_line_budget=budget, counts=counts))
                    except LogFormatError as err:
                        with pytest.raises(type(err)) as raised:
                            read_log(path, header=header, bad_line_budget=budget)
                        assert str(raised.value) == str(err) and str(err).startswith("line ")
                        # Only the line at fault goes through parse_event.
                        assert len(parsed) == 1, (header, budget)
                        continue
                    table, got = read_log(path, header=header, bad_line_budget=budget)
                    assert parsed == [], (header, budget)
                    assert_same_events(table, event_table(expected))
                    assert (got.total, got.skipped) == (counts.total, counts.skipped)
                    assert list(table) == expected
                    if corruption == "two bad lines" and budget == 2:
                        assert got.skipped == 2

    def test_columns_and_dtypes(self, tmp_path, rng):
        lines = random_log_lines(rng, 40)
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table, counts = read_log(path)
        assert (len(table), counts.total, counts.skipped) == (40, 40, 0)
        assert_coded(table)
        assert table.timestamp.dtype == np.int64
        assert table.clicked.dtype == bool
        assert table.dwell_time_s.dtype == np.float64
        assert [serialize_event(e) for e in table] == lines
        order = rng.permutation(40)
        assert [serialize_event(e) for e in table.take(order)] == [lines[i] for i in order]
        assert len(table.take(order[:0])) == 0

    def test_unknown_header_mode(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("u1,i1,1700000000,1,12.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown header mode"):
            read_log(path, header="sometimes")


# Lines for logs that cross block boundaries.  The long row is longer than
# any of the small blocks below; every kind of line both readers must handle
# is here: rows, blank lines, misshapen lines and rows with bad values.
_LONG_ID = "u" * 60
EVENT_LINES = [
    "u1,i1,1700000000,1,12.5", "u22,i7,1700000123,0,0.0", "uu,i3,1700000999,1,300.0",
    f"{_LONG_ID},i2,1700000001,1,7.25", "", " \t",
    "garbage", "u1,i1,1700000000,1", "u1,i1,1700000000,1,2.0,extra",
    "u1,i1,0,1,3.0", "u1,i1,1700000000,2,0.0", "u1,i1,1700000000,1,nan",
    ",i1,1700000000,0,0.0", "u1,i1,1700000000,0,3.0",
]
LABELED_LINES = [
    "u1,i1,1700000000,1,12.5,ValidRead,T1", "u22,i7,1700000123,0,0.0,NotClicked,",
    "uu,i3,1700000999,1,300.0,InvalidClick,", f"{_LONG_ID},i2,1700000001,1,2.5,NoiseClick,",
    "", " \t", LABELED_HEADER, " " + LABELED_HEADER + "\t",
    "garbage", "u1,i1,1700000000,1,12.5", "u1,i1,1700000000,1,12.5,ValidRead,",
    "u1,i1,1700000000,1,12.5,Bogus,", "u1,i1,1700000000,0,0.0,ValidRead,T2",
    "u1,i1,0,1,3.0,InvalidClick,",
]


def log_texts(lines: list[str], header: str):
    """Log texts from ``lines``: an optional line-1 header, rows mostly
    good, LF or CRLF line ends, with or without a final newline."""
    good = st.sampled_from(lines[:4])
    return st.builds(
        lambda first, rows, newline, final: newline.join(first + rows) + (newline if final else ""),
        st.sampled_from([[], [header], [" " + header + "\t"]]),
        st.lists(st.one_of(good, good, st.sampled_from(lines)), max_size=24),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )


def read_in_blocks(read, path: Path, block_chars: int):
    """What ``read(path)`` returns or raises with blocks of ``block_chars``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events_module, "BLOCK_CHARS", block_chars)
        try:
            return read(path)
        except LogFormatError as err:
            return type(err), str(err), err.line_number


def event_columns(table: EventTable) -> tuple:
    assert_coded(table)
    return (
        *row_ids(table), table.timestamp.tolist(), table.clicked.tolist(),
        table.dwell_time_s.tobytes(), table.timestamp.dtype, table.clicked.dtype, table.dwell_time_s.dtype,
    )


class TestBlockReads:
    """A read in small blocks, with lines cut at every place, gives the same
    columns and counts, or the same error, as a read in one block."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=log_texts(EVENT_LINES, LOG_HEADER),
        block=st.integers(1, 40),
        header=st.sampled_from(HEADER_MODES),
        budget=st.integers(0, 3),
    )
    def test_read_log(self, text, block, header, budget):
        def read(path):
            table, counts = read_log(path, header=header, bad_line_budget=budget)
            return event_columns(table), (counts.total, counts.skipped)

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "log.csv"
            path.write_text(text, encoding="utf-8", newline="")
            small = read_in_blocks(read, path, block)
            assert small == read_in_blocks(read, path, 1 << 30)
            counts = ScanCounts()
            try:
                oracle = list(iter_log(path, header=header, bad_line_budget=budget, counts=counts))
            except LogFormatError as err:
                assert small == (type(err), str(err), err.line_number)
            else:
                assert small == (event_columns(event_table(oracle)), (counts.total, counts.skipped))

    @settings(max_examples=300, deadline=None)
    @given(text=log_texts(LABELED_LINES, LABELED_HEADER), block=st.integers(1, 40))
    def test_read_labeled_log(self, text, block):
        def labeled_columns(log):
            return event_columns(log.events), log.kind.tolist(), log.source.tolist(), log.kind.dtype

        def read(path):
            return labeled_columns(read_labeled_log(path))

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "labeled.csv"
            path.write_text(text, encoding="utf-8", newline="")
            small = read_in_blocks(read, path, block)
            assert small == read_in_blocks(read, path, 1 << 30)
            try:
                oracle = read_labeled_lines(path)
            except LogFormatError as err:
                assert small == (LogFormatError, str(err), err.line_number)
            else:
                reference = labeled_of(oracle)
                assert small == labeled_columns(reference)

    def test_error_past_the_first_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events_module, "BLOCK_CHARS", 64)
        path = tmp_path / "log.csv"
        lines = [serialize_event(make_event(timestamp=1_700_000_000 + i)) for i in range(50)]
        lines[37] = "u1,i1,1700000000,2,0.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError) as raised:
            read_log(path)
        assert raised.value.line_number == 38
        assert str(raised.value).startswith("line 38: bad-line budget 0 exceeded: line 38: clicked must be 0 or 1")

    def test_zero_byte_file_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        for header in HEADER_MODES:
            table, counts = read_log(path, header=header)
            assert (len(table), counts.total, counts.skipped) == (0, 0, 0)
            assert_same_events(table, event_table([]))
        log = read_labeled_log(path)
        assert len(log) == 0
        assert_same_events(log.events, event_table([]))
        assert log.kind.dtype == log.source.dtype == np.int8


def read_log_transients(tmp_path) -> dict[int, int]:
    """``read_log``'s traced transient on random logs of 20k and 80k rows."""
    rng = np.random.default_rng(3)
    transient = {}
    for n in (20_000, 80_000):
        clicked = rng.random(n) < 0.3
        dwell = np.where(clicked, np.round(rng.exponential(30.0, n), 2), 0.0)
        rows = zip(rng.integers(0, 5000, n).tolist(), rng.integers(0, 800, n).tolist(),
                   rng.integers(0, 10**6, n).tolist(), clicked.tolist(), dwell.tolist())
        path = tmp_path / f"{n}.csv"
        path.write_text("".join(f"u{u},i{i},{1_700_000_000 + t},{int(c)},{d!r}\n" for u, i, t, c, d in rows))
        transient[n] = traced_transient(lambda: read_log(path))
    return transient


def test_read_log_transient_memory_is_one_block(tmp_path, monkeypatch):
    """A 4x longer log needs no more than 1.5x the working memory: a read's
    peak is its columns plus one block, not a copy of the whole text.  At
    2^18 chars the block outweighs the end-of-read column copy."""
    monkeypatch.setattr(events_module, "BLOCK_CHARS", 1 << 18)
    transient = read_log_transients(tmp_path)
    assert transient[80_000] <= 1.5 * transient[20_000], transient


def test_read_log_transient_memory_at_the_default_block(tmp_path):
    """At the default block a read holds about 1 MB at 20k rows, and each
    added row costs what the end-of-read column copy does (about 34 B)."""
    transient = read_log_transients(tmp_path)
    assert transient[20_000] <= 1_500_000, transient
    assert transient[80_000] - transient[20_000] <= 40 * 60_000, transient


# Ids that sort and compare in every way a coded table must keep apart:
# non-ASCII, a trailing NUL, case, and one id a prefix of another.
TRICKY_IDS = ["a", "a\x00", "A", "é", "É", "日本", "ß", "SS", "ss", "u 1", "\x00", "ab"]


class TestCodedTable:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(TRICKY_IDS), st.sampled_from(TRICKY_IDS),
                st.integers(1, 2**63 - 1), st.booleans(), st.floats(0.0, 1e6, allow_subnormal=True),
            ),
            max_size=40,
        )
    )
    def test_write_read_write_keeps_the_bytes(self, rows):
        """Non-ASCII, trailing-NUL and case-only ids survive write, read and
        write byte for byte, and the read's vocabularies are its distinct
        ids in ``sorted()`` order."""
        table = event_table(InteractionEvent(u, i, t, c, d if c else 0.0) for u, i, t, c, d in rows)
        assert_coded(table)
        with tempfile.TemporaryDirectory() as root:
            first, second = Path(root) / "first.csv", Path(root) / "second.csv"
            write_log(first, table)
            back, counts = read_log(first)
            write_log(second, back)
            assert first.read_bytes() == second.read_bytes()
        assert (counts.total, counts.skipped) == (len(rows), 0)
        assert_same_events(back, table)
        assert back.user_vocab == tuple(sorted({u for u, *_ in rows}))
        assert back.item_vocab == tuple(sorted({i for _, i, *_ in rows}))

    def test_stages_ignore_ids_beyond_the_rows(self, tmp_path):
        """A ``take`` keeps the whole vocabulary; every stage that reads
        ids gives the same result as on the same rows read back from a file,
        whose vocabularies hold only their ids."""
        events, _ = generate(SimConfig(n_users=300, n_items=60, seed=21))
        stats, store = fit_log_normal(events), build_profiles(events, switch_threshold=16)
        rows = np.sort(np.random.default_rng(21).choice(len(events), len(events) // 3, replace=False))
        subset = events.take(rows)
        write_log(tmp_path / "subset.csv", subset)
        read_back, _ = read_log(tmp_path / "subset.csv")
        assert len(read_back.user_vocab) < len(subset.user_vocab)
        assert_same_events(subset, read_back)
        assert FeatureSpace.of(subset) == FeatureSpace.of(read_back)
        space = FeatureSpace.of(events)
        assert np.array_equal(space.encode(subset), space.encode(read_back))
        assert build_profiles(subset).to_bytes() == build_profiles(read_back).to_bytes()
        (levels, bounds), (levels_back, bounds_back) = row_levels(subset), row_levels(read_back)
        assert np.array_equal(levels, levels_back) and bounds == bounds_back
        assert_same_columns(label_log(subset, stats, store), label_log(read_back, stats, store))

    def test_ids_decode_across_lookup_spans(self):
        """``ids(span)`` decodes the rows of one span; over ``spans(n)``
        every row decodes, on both sides of each span's end."""
        n = 2**18 + 3
        coder = IdCoder()
        users, items = coder.code([f"u{k % 1009}" for k in range(n)], [f"i{k % 7}" for k in range(n)])
        table = coder.table([EventTable(users, items, np.ones(n, np.int64), np.zeros(n, bool), np.zeros(n))])
        user_spans, item_spans = zip(*(table.ids(span) for span in spans(n)))
        assert (list(chain.from_iterable(user_spans)), list(chain.from_iterable(item_spans))) == row_ids(table)
        assert row_ids(table)[0][2**16 - 1 : 2**16 + 1] == [f"u{(2**16 - 1) % 1009}", f"u{2**16 % 1009}"]
        assert table.ids(slice(2**16 - 1, 2**16 + 1)) == ([f"u{(2**16 - 1) % 1009}", f"u{2**16 % 1009}"], ["i1", "i2"])

    def test_read_keeps_at_most_40_bytes_a_row(self, tmp_path):
        """At size S a read keeps its five columns, about 25 bytes a row,
        and one copy of each distinct id, not one str per row."""
        events, _ = generate(SimConfig(n_users=2000, n_items=300, seed=0))
        write_log(tmp_path / "log.csv", events)
        tracemalloc.start()
        try:
            table, _ = read_log(tmp_path / "log.csv")
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == len(events) > 40_000
        assert kept / len(table) <= 40, kept / len(table)


class TestSpans:
    """Rows leave a table 2^16 at a time; what leaves matches the
    per-row formatter and the columns on both sides of a span's end."""

    @pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 5])
    def test_spans_tile_the_rows(self, n):
        bounds = [(span.start, span.stop) for span in spans(n)]
        assert [start for start, _ in bounds] == list(range(0, n, 2**16))
        assert [stop for _, stop in bounds] == [min(start + 2**16, n) for start, _ in bounds]

    @pytest.mark.parametrize("n", SPAN_EDGES)
    def test_write_log_matches_per_row_oracle(self, tmp_path, n):
        """Non-ASCII ids, ids only the vocabularies hold, -0.0 on unclicked
        rows, subnormal and large dwell: the same bytes as ``LOG_LINE``."""
        table = edge_table(n, np.random.default_rng(n))
        assert "zz-unheld-user" in table.user_vocab and "zz-unheld-item" in table.item_vocab
        assert write_log(tmp_path / "log.csv", table) == n
        assert (tmp_path / "log.csv").read_bytes() == log_text(table).encode("utf-8")
        (tmp_path / "log.csv").write_bytes((LOG_HEADER + "\n" + log_text(table)).encode("utf-8"))
        read_back, _ = read_log(tmp_path / "log.csv")
        assert_same_events(read_back, table)

    @pytest.mark.parametrize("n", SPAN_EDGES)
    def test_iteration_matches_the_columns(self, n):
        table = edge_table(n, np.random.default_rng(n))
        rows = [(e.user_id, e.item_id, e.timestamp, e.clicked, repr(e.dwell_time_s)) for e in table]
        columns = (table.timestamp.tolist(), table.clicked.tolist(), list(map(repr, table.dwell_time_s.tolist())))
        assert rows == list(zip(*row_ids(table), *columns))
