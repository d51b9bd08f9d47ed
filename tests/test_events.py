from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readweight import events as events_module
from readweight.events import (
    HEADER_MODES,
    LOG_HEADER,
    BadLineBudgetExceeded,
    EventTable,
    InteractionEvent,
    LogFormatError,
    ScanCounts,
    parse_event,
    read_log,
    serialize_event,
    write_log,
)

from conftest import assert_same_events, iter_log, make_event


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
        write_log(log_a, a_events)
        write_log(log_b, b_events)
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
                    assert_same_events(table, EventTable.of(expected))
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
        assert isinstance(table.user_id, list) and isinstance(table.item_id, list)
        assert table.timestamp.dtype == np.int64
        assert table.clicked.dtype == bool
        assert table.dwell_time_s.dtype == np.float64
        assert [serialize_event(e) for e in table] == lines
        assert EventTable.of(table) is table

    def test_unknown_header_mode(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("u1,i1,1700000000,1,12.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown header mode"):
            read_log(path, header="sometimes")
