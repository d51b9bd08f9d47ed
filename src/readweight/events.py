"""Interaction log parsing, validation, and streaming.

The on-disk format is flat delimited text, one impression per line:

    user_id,item_id,timestamp,clicked,dwell_time_s

`clicked` is 0 or 1; `dwell_time_s` is decimal seconds with a `.` separator
and must be 0 whenever `clicked` is 0.  A header line is tolerated when the
caller asks for it (or in "auto" mode, where a first line that is exactly
``LOG_HEADER`` once stripped is skipped).

In memory a log is one ``EventTable``: parallel columns, not one object per
row.  ``read_log`` splits the whole file once into columns; ``iter_log``
parses line by line and is the reference the column reader must agree with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from ._fileio import atomic_write_text

LOG_COLUMNS = ("user_id", "item_id", "timestamp", "clicked", "dwell_time_s")
LOG_HEADER = ",".join(LOG_COLUMNS)
_TIMESTAMP_LIMIT = 2**63


class LogFormatError(ValueError):
    """A line in an interaction log violates the schema."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class BadLineBudgetExceeded(LogFormatError):
    """More malformed lines than the scan was configured to skip."""


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One impression row: who saw what, when, and for how long."""

    user_id: str
    item_id: str
    timestamp: int
    clicked: bool
    dwell_time_s: float


def parse_event(record: str, line_number: int | None = None) -> InteractionEvent:
    """Parse one log line into a validated event.

    Raises LogFormatError (tagged with ``line_number`` when given) on a wrong
    field count, non-numeric fields, negative dwell time, a timestamp that is
    not positive or does not fit int64, or positive dwell time on an
    unclicked row.
    """
    fields = record.rstrip("\n").split(",")
    if len(fields) != 5:
        raise LogFormatError(
            f"expected 5 comma-separated fields, got {len(fields)}", line_number
        )
    user_id, item_id, ts_text, clicked_text, dwell_text = fields
    if not user_id or not item_id:
        raise LogFormatError("empty user_id or item_id", line_number)
    try:
        timestamp = int(ts_text)
    except ValueError:
        raise LogFormatError(f"non-integer timestamp {ts_text!r}", line_number) from None
    if timestamp <= 0:
        raise LogFormatError(f"timestamp must be positive, got {timestamp}", line_number)
    if timestamp >= _TIMESTAMP_LIMIT:
        raise LogFormatError(f"timestamp {timestamp} does not fit int64", line_number)
    if clicked_text not in ("0", "1"):
        raise LogFormatError(f"clicked must be 0 or 1, got {clicked_text!r}", line_number)
    clicked = clicked_text == "1"
    try:
        dwell = float(dwell_text)
    except ValueError:
        raise LogFormatError(f"non-numeric dwell time {dwell_text!r}", line_number) from None
    if not 0.0 <= dwell < float("inf"):
        raise LogFormatError(f"dwell time must be finite and >= 0, got {dwell_text!r}", line_number)
    if not clicked and dwell > 0.0:
        raise LogFormatError(
            f"dwell time {dwell_text} on an unclicked row", line_number
        )
    return InteractionEvent(user_id, item_id, timestamp, clicked, dwell)


# The canonical log line: timestamps as plain integers, clicked as 0/1, dwell
# time via ``repr(float)`` (the shortest decimal that round-trips).
_LOG_LINE = "{},{},{},{:d},{!r}"


def serialize_event(event: InteractionEvent) -> str:
    """Render an event as its canonical log line (no trailing newline);
    ``parse_event`` of the result reproduces the event exactly."""
    return _LOG_LINE.format(
        event.user_id, event.item_id, event.timestamp, event.clicked, event.dwell_time_s
    )


@dataclass(frozen=True, slots=True, eq=False)
class EventTable:
    """A log as parallel columns, row i across all of them, in file order.

    ``user_id``/``item_id`` are id lists; ``timestamp`` is int64,
    ``clicked`` bool and ``dwell_time_s`` float64.  Iterating yields the
    rows as InteractionEvents.
    """

    user_id: list[str]
    item_id: list[str]
    timestamp: np.ndarray
    clicked: np.ndarray
    dwell_time_s: np.ndarray

    def __len__(self) -> int:
        return len(self.user_id)

    def __iter__(self) -> Iterator[InteractionEvent]:
        return map(
            InteractionEvent,
            self.user_id,
            self.item_id,
            self.timestamp.tolist(),
            self.clicked.tolist(),
            self.dwell_time_s.tolist(),
        )

    @classmethod
    def of(cls, events: Iterable[InteractionEvent]) -> "EventTable":
        """``events`` itself if it is a table, else its rows as columns."""
        if isinstance(events, EventTable):
            return events
        events = list(events)
        n = len(events)
        return cls(
            [e.user_id for e in events],
            [e.item_id for e in events],
            np.fromiter((e.timestamp for e in events), dtype=np.int64, count=n),
            np.fromiter((e.clicked for e in events), dtype=bool, count=n),
            np.fromiter((e.dwell_time_s for e in events), dtype=np.float64, count=n),
        )


def split_columns(
    text: str, width: int, is_header: Callable[[str], bool]
) -> tuple[EventTable, list[str]] | None:
    """Split a log's text once into columns; None unless every row is plain.

    Rows are lines of ``width`` comma-separated fields whose first five are
    an event.  A first line that ``is_header`` accepts and one trailing
    newline are dropped.  Every other line must be a row ``parse_event``
    accepts on its first five fields; a blank line, a wrong field count or
    any value ``parse_event`` rejects returns None, and the caller falls
    back to a per-line reader.  Numbers go through the same ``int``/``float``
    calls as ``parse_event``, so the values are the same bit for bit.
    Returns the event columns and the flat field list (row-major), from
    which the caller takes any further columns.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines and is_header(lines[0]):
        del lines[0]
    # An empty list gives an empty set, so an empty log falls back too.
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    n = len(lines)
    fields = ",".join(lines).split(",")
    users, items, clicked_text = fields[0::width], fields[1::width], fields[3::width]
    if not (all(users) and all(items)) or not set(clicked_text) <= {"0", "1"}:
        return None
    try:
        # int64 overflow (a timestamp of 2**63 or more) raises OverflowError.
        timestamp = np.fromiter(map(int, fields[2::width]), dtype=np.int64, count=n)
        dwell = np.fromiter(map(float, fields[4::width]), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        return None
    clicked = np.fromiter(map("1".__eq__, clicked_text), dtype=bool, count=n)
    ok = (timestamp > 0) & (dwell >= 0.0) & (dwell < np.inf) & (clicked | (dwell == 0.0))
    if not ok.all():
        return None
    return EventTable(users, items, timestamp, clicked, dwell), fields


@dataclass(slots=True)
class ScanCounts:
    """Tally kept alongside a log scan."""

    total: int = 0
    skipped: int = 0


_HEADER_RULES: dict[str, Callable[[str], bool]] = {
    "auto": lambda line: line.strip() == LOG_HEADER,
    "present": lambda line: True,
    "absent": lambda line: False,
}
HEADER_MODES = tuple(_HEADER_RULES)


def _header_rule(header: str) -> Callable[[str], bool]:
    """Whether a first line is skipped, under one of the header modes."""
    if header not in _HEADER_RULES:
        raise ValueError(f"unknown header mode {header!r}")
    return _HEADER_RULES[header]


def iter_log(
    path: str | os.PathLike[str],
    *,
    header: str = "auto",
    bad_line_budget: int = 0,
    counts: ScanCounts | None = None,
) -> Iterator[InteractionEvent]:
    """Stream events from a log file in file order, one line at a time.

    ``header`` is one of "auto" (skip a first line that is exactly
    ``LOG_HEADER`` once stripped), "present" (always skip one line), or
    "absent".  Blank lines are skipped.  Up to ``bad_line_budget`` malformed
    lines are counted and skipped; the next one raises
    BadLineBudgetExceeded.  ``counts`` (if given) ends up holding the number
    of parsed and skipped lines.
    """
    is_header = _header_rule(header)
    if counts is None:
        counts = ScanCounts()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line_number == 1 and is_header(line):
                continue
            if not line.strip():
                continue
            try:
                event = parse_event(line, line_number)
            except LogFormatError as err:
                counts.skipped += 1
                if counts.skipped > bad_line_budget:
                    raise BadLineBudgetExceeded(
                        f"bad-line budget {bad_line_budget} exceeded: {err}", line_number
                    ) from err
                continue
            counts.total += 1
            yield event


def read_log(
    path: str | os.PathLike[str],
    *,
    header: str = "auto",
    bad_line_budget: int = 0,
) -> tuple[EventTable, ScanCounts]:
    """Read a whole log as columns; returns (table, counts).

    The file is split once and checked column by column; if anything is off
    (a blank line, a bad line, a header out of place), ``iter_log`` reads it
    again, so a file gives exactly the rows and counts ``iter_log`` gives,
    and a bad file raises ``iter_log``'s error for the line at fault.
    """
    is_header = _header_rule(header)
    with open(path, "r", encoding="utf-8") as handle:
        split = split_columns(handle.read(), len(LOG_COLUMNS), is_header)
    if split is not None:
        table = split[0]
        return table, ScanCounts(total=len(table))
    counts = ScanCounts()
    table = EventTable.of(iter_log(path, header=header, bad_line_budget=bad_line_budget, counts=counts))
    return table, counts


def write_log(
    path: str | os.PathLike[str],
    events: Iterable[InteractionEvent],
    *,
    header: bool = False,
) -> int:
    """Write a table or any iterable of events as canonical log lines,
    atomically; returns the number of rows written."""
    table = EventTable.of(events)
    lines = map(
        (_LOG_LINE + "\n").format,
        table.user_id, table.item_id,
        table.timestamp.tolist(), table.clicked.tolist(), table.dwell_time_s.tolist(),
    )
    atomic_write_text(path, (LOG_HEADER + "\n" if header else "") + "".join(lines))
    return len(table)
