"""Classify events into NotClicked / NoiseClick / InvalidClick / ValidRead.

A click is a valid read when any of three rules fires, checked in priority
order:

  T1  dwell time strictly longer than the global threshold x_l,
  T2  the user clicked fewer than 7 items in the trailing week,
  T3  dwell time strictly longer than the item's historical P10.

Clicks under the noise floor (5 seconds unless configured) are wiped before
any rule applies.  ``label_log`` applies the rules to a log's columns as
masks.  A row's label depends only on that row, the fitted stats and the
profile store, which nothing changes once it is built or loaded, so shards
can be labeled independently.

A labeled log on disk is read back as one ``LabeledLog``: parallel columns,
not one object per row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .dwell_stats import DwellStats
from .events import LOG_COLUMNS, EventTable, IdCoder, InteractionEvent, LogFormatError, LogScan, concat_arrays
from .events import distinct_ids, log_columns, parse_event, spans, text_rows
from .profiles import WEEK_SECONDS, ProfileStore

NOISE_FLOOR_S = 5.0
LIGHT_USER_MAX_CLICKS = 7


class LabelKind(str, Enum):
    NOT_CLICKED = "NotClicked"
    NOISE_CLICK = "NoiseClick"
    INVALID_CLICK = "InvalidClick"
    VALID_READ = "ValidRead"


class ValidReadSource(str, Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"


@dataclass(frozen=True, slots=True)
class ValidReadLabel:
    kind: LabelKind
    source: ValidReadSource | None

    def __post_init__(self):
        # The noise floor is a labeling setting (``LabelingConfig``), so a
        # label on its own can only check what any labeled file shows.
        if (self.kind is LabelKind.VALID_READ) != (self.source is not None):
            raise ValueError("source must be present exactly when kind is ValidRead")


@dataclass(frozen=True, slots=True)
class LabelingConfig:
    noise_floor_s: float = NOISE_FLOOR_S
    light_user_max_clicks: int = LIGHT_USER_MAX_CLICKS


LABELED_COLUMNS = (*LOG_COLUMNS, "label", "source")
LABELED_HEADER = ",".join(LABELED_COLUMNS)
_WIDTH, _LABEL_AT, _SOURCE_AT = len(LABELED_COLUMNS), LABELED_COLUMNS.index("label"), LABELED_COLUMNS.index("source")

# Column codes: ``kind`` indexes LABEL_KINDS, ``source`` indexes
# LABEL_SOURCES (0 is "no source").
LABEL_KINDS = tuple(LabelKind)
LABEL_SOURCES = (None, *ValidReadSource)
_KIND_CODE = {kind.value: code for code, kind in enumerate(LABEL_KINDS)}
_SOURCE_CODE = {"": 0, **{source.value: code for code, source in enumerate(LABEL_SOURCES) if source}}
_KIND_TEXT, _SOURCE_TEXT = np.array(list(_KIND_CODE), object), np.array(list(_SOURCE_CODE), object)
_NOT_CLICKED = _KIND_CODE[LabelKind.NOT_CLICKED.value]
_VALID_READ = _KIND_CODE[LabelKind.VALID_READ.value]
# The six labels a row can carry, built once, by their (kind, source) codes.
_LABELS = {(k, s): ValidReadLabel(kind, source) for k, kind in enumerate(LABEL_KINDS)
           for s, source in enumerate(LABEL_SOURCES) if (kind is LabelKind.VALID_READ) == (source is not None)}


@dataclass(frozen=True, slots=True, eq=False)
class LabeledLog:
    """A labeled log as parallel columns, row i across all of them.

    ``events`` holds the event columns; ``kind`` and ``source`` are int8
    codes into LABEL_KINDS and LABEL_SOURCES.  Iterating yields the rows as
    (InteractionEvent, ValidReadLabel) pairs a span at a time, each label one
    of the six built once; a row whose codes no label has raises ValueError.
    """

    events: EventTable
    kind: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[InteractionEvent, ValidReadLabel]]:
        known = np.logical_or.reduce([(self.kind == kind) & (self.source == source) for kind, source in _LABELS])
        if not known.all():
            raise ValueError(f"row {int(np.argmin(known))}'s kind and source codes are no label's")
        labels = (map(_LABELS.__getitem__, zip(self.kind[span].tolist(), self.source[span].tolist()))
                  for span in spans(len(self)))
        return zip(self.events, chain.from_iterable(labels))

    @property
    def valid_read(self) -> np.ndarray:
        return self.kind == _VALID_READ

    def take(self, rows: np.ndarray) -> "LabeledLog":
        """The rows at the indices ``rows``, in that order."""
        return LabeledLog(self.events.take(rows), self.kind[rows], self.source[rows])

    @classmethod
    def from_labels(cls, events: EventTable, labels: list[ValidReadLabel]) -> "LabeledLog":
        """``events`` with one label per row, in row order."""
        # Kinds and sources are str enums, so they look up their own codes.
        return cls(
            events,
            np.fromiter((_KIND_CODE[l.kind] for l in labels), dtype=np.int8, count=len(labels)),
            np.fromiter((_SOURCE_CODE[l.source or ""] for l in labels), dtype=np.int8, count=len(labels)),
        )

    def to_text(self) -> str:
        """The log as labeled-log text: the header, then each row's event
        line plus ``,label,source``, formatted from the columns span by span."""
        return text_rows(len(self), lambda span: [
            *log_columns(self.events, span), _KIND_TEXT[self.kind[span]], _SOURCE_TEXT[self.source[span]],
        ], LABELED_HEADER + "\n")


def label_log(
    events: EventTable,
    stats: DwellStats,
    store: ProfileStore,
    cfg: LabelingConfig = LabelingConfig(),
) -> LabeledLog:
    """Label every row of ``events`` against the fitted statistics and the
    profile store, with one mask per rule.

    A click under ``cfg.noise_floor_s`` is a NoiseClick whatever the rules
    say.  T2 counts the user's stored clicks in ``(ts - WEEK_SECONDS, ts]``;
    a user the store lacks has none (light).  T3 looks up each distinct
    item's P10 once; an item the store lacks, or one with no records, never
    passes T3.  Both threshold comparisons are strict: dwell equal to x_l or
    to the item P10 fails the rule.
    """
    clicked, dwell = events.clicked, events.dwell_time_s
    noise = clicked & (dwell < cfg.noise_floor_s)
    t1 = clicked & ~noise & (dwell > stats.x_l)
    rest = np.flatnonzero(clicked & ~noise & ~t1)
    candidates = events.take(rest)
    light = _week_clicks(store, candidates) < cfg.light_user_max_clicks
    heavy = candidates.take(np.flatnonzero(~light))
    tokens, item = distinct_ids(heavy.item_vocab, heavy.item)
    # NaN fails every comparison, so an item without a P10 never passes T3.
    profiles = map(store.items.get, tokens)
    p10 = np.array([p.p10() if p is not None and p.n_records else np.nan for p in profiles])
    source = np.zeros(len(events), np.int8)
    source[t1] = _SOURCE_CODE[ValidReadSource.T1]
    source[rest[light]] = _SOURCE_CODE[ValidReadSource.T2]
    source[rest[~light][heavy.dwell_time_s > p10[item]]] = _SOURCE_CODE[ValidReadSource.T3]
    kind = np.full(len(events), _NOT_CLICKED, np.int8)
    kind[clicked] = _KIND_CODE[LabelKind.INVALID_CLICK]
    kind[noise] = _KIND_CODE[LabelKind.NOISE_CLICK]
    kind[source > 0] = _VALID_READ
    return LabeledLog(events, kind, source)


def _week_clicks(store: ProfileStore, table: EventTable) -> np.ndarray:
    """For each row (user, ts) of ``table``, how many of the user's stamps in
    ``store`` lie in ``(ts - WEEK_SECONDS, ts]``; a user the store lacks has none.

    Each stamp and bound is ranked among all of them, so (the user's place in
    ``store.user_ids``, rank) is one int64 key that ascends with the stamps and
    cannot overflow; a user the store lacks takes the place after the last,
    which ``None`` holds.  Each count is two ``searchsorted`` calls."""
    tokens, user = distinct_ids(table.user_vocab, table.user)
    tokens, ids = np.array(tokens, object), np.array((*store.user_ids, None), object)
    at = np.searchsorted(ids[:-1], tokens)
    at[ids[at] != tokens] = len(ids) - 1
    stamps = store.user_stamps
    values, rank = np.unique(np.concatenate([stamps, table.timestamp - WEEK_SECONDS, table.timestamp]), return_inverse=True)
    keys = np.repeat(np.arange(len(ids) - 1), store.user_clicks) * len(values) + rank[: len(stamps)]
    lo, hi = at[user] * len(values) + rank[len(stamps) :].reshape(2, -1)
    return np.searchsorted(keys, hi, "right") - np.searchsorted(keys, lo, "right")


def composition_report(log: LabeledLog) -> dict:
    """Counts per kind/source plus fractions of valid reads per source.

    Fractions are over valid reads only and sum to 1 when any exist; with
    zero valid reads the fraction map is empty but counts remain.
    """
    counts = dict(zip(_KIND_CODE, np.bincount(log.kind, minlength=len(LABEL_KINDS)).tolist()))
    sources = np.bincount(log.source, minlength=len(LABEL_SOURCES)).tolist()
    source_counts = dict(zip(list(_SOURCE_CODE)[1:], sources[1:]))
    n_valid = counts[LabelKind.VALID_READ.value]
    fractions = (
        {name: count / n_valid for name, count in source_counts.items()} if n_valid else {}
    )
    return {
        "counts": counts,
        "valid_read_source_counts": source_counts,
        "valid_read_source_fractions": fractions,
        "n_events": len(log),
    }


def parse_labeled(line: str, line_number: int | None = None) -> tuple[InteractionEvent, ValidReadLabel]:
    """Parse one labeled-log line; every error is a LogFormatError naming
    ``line_number``.

    On top of ``parse_event``'s checks: the label kind and source must be
    known, a source must be present exactly on a ValidRead, the kind must be
    NotClicked exactly on an unclicked row.
    """
    parts = line.rstrip("\n").rsplit(",", 2)
    if len(parts) != 3:
        raise LogFormatError("not a labeled event line", line_number)
    event = parse_event(parts[0], line_number)
    try:
        kind = LabelKind(parts[1])
        source = ValidReadSource(parts[2]) if parts[2] else None
        label = ValidReadLabel(kind, source)
    except ValueError as err:
        raise LogFormatError(str(err), line_number) from None
    if (kind is LabelKind.NOT_CLICKED) == event.clicked:
        raise LogFormatError(
            f"label {kind.value} contradicts clicked={int(event.clicked)}", line_number
        )
    return event, label


def _codes(table: dict[str, int], texts: list[str]) -> np.ndarray:
    return np.fromiter(map(table.get, texts, repeat(-1)), dtype=np.int8, count=len(texts))


def _is_header(line: str) -> bool:
    return line.strip() == LABELED_HEADER


def read_labeled_log(path: str | os.PathLike[str]) -> LabeledLog:
    """Read a labeled log as columns.

    The file is read in blocks of whole lines and every line checked column
    by column.  Blank lines and header lines are skipped wherever they
    appear, and there is no bad-line budget: a line ``parse_labeled``
    rejects fails the read with that call's LogFormatError, for the first
    such line.
    """
    coder = IdCoder()
    # ``map`` holds no block's scan past its call, so one is alive at a time.
    logs = list(map(_labeled_rows, LogScan.blocks(path, _WIDTH, _is_header, coder)))
    return LabeledLog(
        coder.table([log.events for log in logs]),
        concat_arrays([log.kind for log in logs], np.int8),
        concat_arrays([log.source for log in logs], np.int8),
    )


def _labeled_rows(scan: LogScan) -> LabeledLog:
    """The labeled rows of one block; raises for its first bad line."""
    kind = _codes(_KIND_CODE, scan.fields[_LABEL_AT::_WIDTH])
    source = _codes(_SOURCE_CODE, scan.fields[_SOURCE_AT::_WIDTH])
    skip = scan.bad | (kind < 0) | (source < 0) | ((kind == _VALID_READ) != (source > 0))
    skip |= (kind == _NOT_CLICKED) == scan.events.clicked
    # A header after line 1 fails the event checks, and is skipped.
    bad = skip.copy()
    bad[[i for i in np.flatnonzero(skip).tolist() if _is_header(scan.lines[scan.rows[i]])]] = False
    at_fault = scan.bad_lines(bad)
    if len(at_fault):
        raise scan.error(at_fault[0], parse_labeled)
    log = LabeledLog(scan.events, kind, source)
    return log.take(np.flatnonzero(~skip)) if skip.any() else log
