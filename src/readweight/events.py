"""Interaction log parsing, validation, and streaming.

The on-disk format is flat delimited text, one impression per line:

    user_id,item_id,timestamp,clicked,dwell_time_s

`clicked` is 0 or 1; `dwell_time_s` is decimal seconds with a `.` separator
and must be 0 whenever `clicked` is 0.  A line that is exactly ``LOG_HEADER``
once stripped is skipped wherever it appears, like a blank line.

In memory a log is one ``EventTable``: parallel columns, not one object per
row, whose ids are int32 codes into sorted vocabularies (``IdCoder`` makes
every code).  ``read_log`` reads the file in blocks of whole lines, splits
each block into columns, codes its ids through one dict for the whole file
and checks every line with masks, so its peak memory is the columns plus one
32K-char block (``BLOCK_CHARS``) and that block's per-field strings;
``parse_event`` runs only on the line it reports.
Rows leave a table one span of 2^16 at a time (``spans``); every writer
joins one span's ``log_columns`` at a time into lines (``text_rows``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from ._fileio import atomic_write_text

LOG_COLUMNS = ("user_id", "item_id", "timestamp", "clicked", "dwell_time_s")
LOG_HEADER = ",".join(LOG_COLUMNS)
TIMESTAMP_LIMIT = 2**63
# Characters a reader takes from the file at a time; each read is cut after
# its last newline, so a block holds whole lines.  A block's scan holds about
# 18 B of per-field str objects per character, so 2^15 keeps it near 0.6 MB.
BLOCK_CHARS = 1 << 15


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
    if timestamp >= TIMESTAMP_LIMIT:
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


@dataclass(frozen=True, slots=True, eq=False)
class EventTable:
    """A log as parallel columns, row i across all of them, in file order.

    ``user``/``item`` are int32 codes into ``user_vocab``/``item_vocab``,
    each a tuple of distinct ids in ``sorted()`` order that may hold ids no
    row does; ``timestamp`` is int64, ``clicked`` bool and ``dwell_time_s``
    float64.  Only an ``IdCoder`` makes the codes, and a table it has not
    finished has empty vocabularies.  Iterating yields the rows as
    InteractionEvents, built one span of rows at a time.
    """

    user: np.ndarray
    item: np.ndarray
    timestamp: np.ndarray
    clicked: np.ndarray
    dwell_time_s: np.ndarray
    user_vocab: tuple[str, ...] = ()
    item_vocab: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self) -> Iterator[InteractionEvent]:
        for span in spans(len(self)):
            yield from map(InteractionEvent, *self.ids(span), self.timestamp[span].tolist(),
                           self.clicked[span].tolist(), self.dwell_time_s[span].tolist())

    def ids(self, span: slice) -> tuple[list[str], list[str]]:
        """The user and the item id of each row in ``span``."""
        return (list(map(self.user_vocab.__getitem__, self.user[span].tolist())),
                list(map(self.item_vocab.__getitem__, self.item[span].tolist())))

    def take(self, rows: np.ndarray) -> "EventTable":
        """The rows at the indices ``rows``, in that order, over the same vocabularies."""
        return replace(self, **{name: getattr(self, name)[rows] for name, _ in _COLUMNS})


_COLUMNS = (("user", np.int32), ("item", np.int32), ("timestamp", np.int64), ("clicked", bool),
            ("dwell_time_s", np.float64))


class IdCoder:
    """The one place ids become codes.  ``code`` codes id columns through one
    dict per column that lasts across calls, each id as the place among all
    the ids of its column where this coder first saw it; ``table`` re-codes
    into ``sorted()`` vocabularies, so codes do not depend on id order."""

    def __init__(self) -> None:
        self.index: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.seen = [0, 0]

    def code(self, *columns: list[str]) -> list[np.ndarray]:
        """The codes of a user and an item id column."""
        codes = [np.fromiter(map(index.setdefault, ids, count(seen)), np.int32, len(ids))
                 for index, ids, seen in zip(self.index, columns, self.seen)]
        self.seen = [seen + len(ids) for seen, ids in zip(self.seen, columns)]
        return codes

    def table(self, blocks: list[EventTable]) -> EventTable:
        """The rows of ``blocks``, whose codes this coder gave, one block
        after another, as one table over the sorted vocabularies."""
        columns = [concat_arrays([getattr(b, name) for b in blocks], dtype) for name, dtype in _COLUMNS]
        vocabs = []
        for at, index in enumerate(self.index):
            vocab = sorted(index)
            rank = np.empty(self.seen[at], np.int32)
            rank[np.fromiter(map(index.__getitem__, vocab), np.intp, len(vocab))] = np.arange(len(vocab))
            columns[at] = rank[columns[at]]
            vocabs.append(tuple(vocab))
        return EventTable(*columns, *vocabs)


def distinct_ids(vocab: tuple[str, ...], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids that ``codes`` hold, in ``sorted()`` order, and each code's index among them."""
    held, inverse = np.unique(codes, return_inverse=True)
    return list(map(vocab.__getitem__, held.tolist())), inverse


def concat_arrays(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """``arrays`` end to end, as ``dtype``; an empty array when there are none."""
    return np.concatenate([np.empty(0, dtype), *arrays])


@dataclass(slots=True)
class ScanCounts:
    """Tally kept alongside a log scan."""

    total: int = 0
    skipped: int = 0


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


def _blocks(path: str | os.PathLike[str]) -> Iterator[str]:
    """The text of ``path`` in blocks of whole lines, each about
    ``BLOCK_CHARS`` long, in file order.  Joined with newlines, the blocks
    are the whole text; a line longer than a block is one block, and a
    zero-byte file has none."""
    with open(path, "r", encoding="utf-8") as handle:
        pending: list[str] = []
        while chunk := handle.read(BLOCK_CHARS):
            cut = chunk.rfind("\n")
            if cut < 0:
                pending.append(chunk)
                continue
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending = [chunk[cut + 1 :]]
    if tail := "".join(pending):
        yield tail


@dataclass(frozen=True, slots=True, eq=False)
class LogScan:
    """A log's text split once into rows, with every line checked.

    ``lines[i]`` is line ``offset`` + i + 1 of the file, blank if it is the
    format's header once stripped.  ``rows`` holds
    the index in ``lines`` of each line of ``width`` comma-separated
    fields, ``fields`` their fields (row-major), ``events`` the columns of
    their first five fields, their ids coded but not finished by the
    reader's IdCoder, and ``bad`` marks the rows ``parse_event`` rejects.
    ``misshapen`` lists the non-blank lines with another field count.
    """

    lines: list[str]
    rows: np.ndarray
    fields: list[str]
    events: EventTable
    bad: np.ndarray
    misshapen: list[int]
    offset: int

    @classmethod
    def of(cls, text: str, width: int, header: str, offset: int, coder: IdCoder) -> "LogScan":
        """Scan ``text``, which starts at line ``offset`` + 1 of its file, with
        ``header`` as the format's header.  Numbers go through the same
        ``int``/``float`` calls as ``parse_event``, so the values are the same
        bit for bit.
        """
        lines = text.split("\n")
        if header in text:
            # Blanked before the field split: a header row would fail every
            # number column's batch conversion.
            lines = ["" if line.strip() == header else line for line in lines]
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
        events = EventTable(*coder.code(users, items), timestamp, clicked, dwell)
        return cls(lines, rows, fields, events, bad, misshapen, offset)

    @classmethod
    def blocks(cls, path: str | os.PathLike[str], width: int, header: str, coder: IdCoder) -> Iterator["LogScan"]:
        """The scans of ``path``'s blocks of whole lines, in file order, all
        coded by ``coder`` and all with ``header`` as the format's header."""
        offset = 0
        for text in _blocks(path):
            yield cls.of(text, width, header, offset, coder)
            offset += text.count("\n") + 1

    def bad_lines(self, bad: np.ndarray) -> list[int]:
        """Indices into ``lines``, in file order, of the misshapen lines and
        of the rows ``bad`` marks."""
        return sorted(self.misshapen + self.rows[bad].tolist())

    def error(self, index: int, parse: Callable[[str, int], object]) -> LogFormatError:
        """The LogFormatError that ``parse`` raises for ``lines[index]``."""
        line_number = self.offset + index + 1
        try:
            parse(self.lines[index], line_number)
        except LogFormatError as err:
            return err
        raise RuntimeError(f"line {line_number}: the column checks reject a line {parse.__name__} accepts")


def read_log(path: str | os.PathLike[str], *, bad_line_budget: int = 0) -> tuple[EventTable, ScanCounts]:
    """Read a whole log as columns, one block of lines at a time; returns
    (table, counts).

    Blank lines and lines that are exactly ``LOG_HEADER`` once stripped are
    skipped wherever they appear.  Up to ``bad_line_budget`` lines that
    ``parse_event`` rejects are counted and skipped; the next one raises
    BadLineBudgetExceeded, wrapping ``parse_event``'s error for it.
    """
    if bad_line_budget < 0:
        raise ValueError(f"bad_line_budget must be >= 0, got {bad_line_budget}")
    counts = ScanCounts()
    coder = IdCoder()

    def good_rows(scan: LogScan) -> EventTable:
        """The rows of one block that parse; its bad lines count against
        the budget."""
        at_fault = scan.bad_lines(scan.bad)
        if counts.skipped + len(at_fault) > bad_line_budget:
            err = scan.error(at_fault[bad_line_budget - counts.skipped], parse_event)
            message = f"bad-line budget {bad_line_budget} exceeded: {err}"
            raise BadLineBudgetExceeded(message, err.line_number) from err
        counts.skipped += len(at_fault)
        return scan.events.take(np.flatnonzero(~scan.bad)) if at_fault else scan.events

    # ``map`` holds no block's scan past its call, so one is alive at a time.
    table = coder.table(list(map(good_rows, LogScan.blocks(path, len(LOG_COLUMNS), LOG_HEADER, coder))))
    counts.total = len(table)
    return table, counts


def write_log(path: str | os.PathLike[str], table: EventTable) -> int:
    """Write a table as canonical log lines, without a header, atomically;
    returns the number of rows written."""
    atomic_write_text(path, text_rows(len(table), partial(log_columns, table), ""))
    return len(table)


def spans(n: int) -> Iterator[slice]:
    """Rows 0..n-1 as consecutive slices of 2^16 rows, the last one shorter."""
    return (slice(at, min(at + 2**16, n)) for at in range(0, n, 2**16))


def log_columns(table: EventTable, span: slice) -> list[Iterable[str]]:
    """The canonical log text of the rows in ``span``, column by column:
    timestamps as integers, clicked as 0/1, dwell via ``repr`` (the shortest
    decimal that round-trips), so ``parse_event`` reproduces each row."""
    return [*table.ids(span), map(str, table.timestamp[span].tolist()),
            map("01".__getitem__, table.clicked[span].tolist()), map(repr, table.dwell_time_s[span].tolist())]


def text_rows(n: int, columns: Callable[[slice], list[Iterable[str]]], head: str) -> str:
    """``head``, then rows 0..n-1 as lines, span by span: each row's fields
    from ``columns(span)`` joined by commas, each line ending in a newline."""
    return "".join([head, *("\n".join(map(",".join, zip(*columns(span)))) + "\n" for span in spans(n))])
