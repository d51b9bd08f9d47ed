"""Interaction log parsing, validation, and streaming.

The on-disk format is flat delimited text, one impression per line:

    user_id,item_id,timestamp,clicked,dwell_time_s

`clicked` is 0 or 1; `dwell_time_s` is decimal seconds with a `.` separator
and must be 0 whenever `clicked` is 0.  A header line is tolerated when the
caller asks for it (or in "auto" mode, where a first line that is exactly
``LOG_HEADER`` once stripped is skipped).

In memory a log is one ``EventTable``: parallel columns, not one object per
row.  ``read_log`` splits the whole file once into columns and checks every
line with masks; ``parse_event`` runs only on the line it reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress, repeat
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


def _parse_column(texts: list[str], parse: Callable[[str], object], dtype, bad: np.ndarray) -> np.ndarray:
    """``parse`` of each text, as a ``dtype`` array.  A text that ``parse``
    rejects, or whose value ``dtype`` cannot hold, reads as 0 and is marked
    in ``bad``; the column goes value by value only when one does."""
    try:
        return np.fromiter(map(parse, texts), dtype=dtype, count=len(texts))
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(texts), dtype=dtype)
    for i, text in enumerate(texts):
        try:
            values[i] = parse(text)
        except (ValueError, OverflowError):
            bad[i] = True
    return values


_CLICKED_CODE = {"0": 0, "1": 1}


@dataclass(frozen=True, slots=True, eq=False)
class LogScan:
    """A log's text split once into rows, with every line checked.

    ``lines[i]`` is line i + 1 of the file.  ``rows`` holds the index in
    ``lines`` of each line of ``width`` comma-separated fields, ``fields``
    their fields (row-major), ``events`` the columns of their first five
    fields, and ``bad`` marks the rows ``parse_event`` rejects.
    ``misshapen`` lists the non-blank lines with another field count.
    """

    lines: list[str]
    rows: np.ndarray
    fields: list[str]
    events: EventTable
    bad: np.ndarray
    misshapen: list[int]

    @classmethod
    def of(cls, text: str, width: int, is_header: Callable[[str], bool]) -> "LogScan":
        """Scan ``text``; a first line that ``is_header`` accepts and blank
        lines are neither rows nor misshapen.  Numbers go through the same
        ``int``/``float`` calls as ``parse_event``, so the values are the
        same bit for bit.
        """
        lines = text.split("\n")
        if is_header(lines[0]):
            # Blanked before the field split: a header row would fail every
            # number column's batch conversion.
            lines[0] = ""
        commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.int64, count=len(lines))
        shaped = commas == width - 1
        rows = np.flatnonzero(shaped)
        misshapen = [i for i in np.flatnonzero(~shaped).tolist() if lines[i].strip()]
        n = len(rows)
        fields = ",".join(compress(lines, shaped)).split(",") if n else []
        users, items = fields[0::width], fields[1::width]
        bad = np.zeros(n, dtype=bool)
        if not (all(users) and all(items)):
            bad |= ~(np.fromiter(map(bool, users), bool, n) & np.fromiter(map(bool, items), bool, n))
        clicked_code = np.fromiter(map(_CLICKED_CODE.get, fields[3::width], repeat(2)), np.int8, n)
        clicked = clicked_code == 1
        timestamp = _parse_column(fields[2::width], int, np.int64, bad)
        dwell = _parse_column(fields[4::width], float, np.float64, bad)
        bad |= (clicked_code > 1) | (timestamp <= 0) | ~((dwell >= 0.0) & (dwell < np.inf))
        bad |= ~clicked & (dwell > 0.0)
        return cls(lines, rows, fields, EventTable(users, items, timestamp, clicked, dwell), bad, misshapen)

    def bad_lines(self, bad: np.ndarray) -> list[int]:
        """Indices into ``lines``, in file order, of the misshapen lines and
        of the rows ``bad`` marks."""
        return sorted(self.misshapen + self.rows[bad].tolist())

    def error(self, index: int, parse: Callable[[str, int], object]) -> LogFormatError:
        """The LogFormatError that ``parse`` raises for ``lines[index]``."""
        try:
            parse(self.lines[index], index + 1)
        except LogFormatError as err:
            return err
        raise RuntimeError(f"line {index + 1}: the column checks reject a line {parse.__name__} accepts")

    def kept(self, keep: np.ndarray) -> EventTable:
        """The event columns of the rows ``keep`` marks."""
        events = self.events
        if keep.all():
            return events
        return EventTable(
            list(compress(events.user_id, keep)),
            list(compress(events.item_id, keep)),
            events.timestamp[keep],
            events.clicked[keep],
            events.dwell_time_s[keep],
        )


def read_log(
    path: str | os.PathLike[str],
    *,
    header: str = "auto",
    bad_line_budget: int = 0,
) -> tuple[EventTable, ScanCounts]:
    """Read a whole log as columns; returns (table, counts).

    ``header`` is one of "auto" (skip a first line that is exactly
    ``LOG_HEADER`` once stripped), "present" (always skip one line), or
    "absent".  Blank lines are skipped.  Up to ``bad_line_budget`` lines
    that ``parse_event`` rejects are counted and skipped; the next one
    raises BadLineBudgetExceeded, wrapping ``parse_event``'s error for it.
    """
    is_header = _header_rule(header)
    if bad_line_budget < 0:
        raise ValueError(f"bad_line_budget must be >= 0, got {bad_line_budget}")
    with open(path, "r", encoding="utf-8") as handle:
        scan = LogScan.of(handle.read(), len(LOG_COLUMNS), is_header)
    at_fault = scan.bad_lines(scan.bad)
    if len(at_fault) > bad_line_budget:
        err = scan.error(at_fault[bad_line_budget], parse_event)
        message = f"bad-line budget {bad_line_budget} exceeded: {err}"
        raise BadLineBudgetExceeded(message, err.line_number) from err
    table = scan.kept(~scan.bad)
    return table, ScanCounts(total=len(table), skipped=len(at_fault))


def write_log(
    path: str | os.PathLike[str],
    events: Iterable[InteractionEvent],
    *,
    header: bool = False,
) -> int:
    """Write a table or any iterable of events as canonical log lines,
    atomically; returns the number of rows written."""
    table = EventTable.of(events)
    atomic_write_text(path, (LOG_HEADER + "\n" if header else "") + log_lines(table))
    return len(table)


def log_lines(table: EventTable, *extra: list[str]) -> str:
    """A table's rows as canonical log lines, each ending in a newline; each
    of ``extra`` is a text column appended to every line after a comma."""
    return "".join(map(
        (_LOG_LINE + ",{}" * len(extra) + "\n").format,
        table.user_id, table.item_id,
        table.timestamp.tolist(), table.clicked.tolist(), table.dwell_time_s.tolist(),
        *extra,
    ))
