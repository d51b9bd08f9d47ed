"""Classify events into NotClicked / NoiseClick / InvalidClick / ValidRead.

A click is a valid read when any of three rules fires, checked in priority
order:

  T1  dwell time strictly longer than the global threshold x_l,
  T2  the user clicked fewer than 7 items in the trailing week,
  T3  dwell time strictly longer than the item's historical P10.

Clicks under the noise floor (5 seconds unless configured) are wiped before
any rule applies.  Labeling is a pure function of the event, the fitted
stats, and the frozen profiles, so shards can be labeled independently.

A labeled log on disk is read back as one ``LabeledLog``: parallel columns,
not one object per row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .dwell_stats import DwellStats
from .events import (
    EventTable,
    InteractionEvent,
    LogFormatError,
    LogScan,
    log_lines,
    parse_event,
    serialize_event,
)
from .profiles import ItemDwellProfile, ProfileStore, UserActivityProfile

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


def label_event(
    event: InteractionEvent,
    stats: DwellStats,
    item: ItemDwellProfile | None,
    user: UserActivityProfile | None,
    cfg: LabelingConfig = LabelingConfig(),
) -> ValidReadLabel:
    """Label one event against frozen statistics and profiles.

    A click under ``cfg.noise_floor_s`` is a NoiseClick whatever the rules
    say.  A missing item profile makes T3 non-matching; a missing user
    profile counts as zero clicks (light user).  Both threshold comparisons
    are strict: dwell equal to x_l or to the item P10 fails the rule.
    """
    if not event.clicked:
        return ValidReadLabel(LabelKind.NOT_CLICKED, None)
    dwell = event.dwell_time_s
    if dwell < cfg.noise_floor_s:
        return ValidReadLabel(LabelKind.NOISE_CLICK, None)
    if dwell > stats.x_l:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1)
    in_window = user.window_size(event.timestamp) if user is not None else 0
    if in_window < cfg.light_user_max_clicks:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T2)
    if item is not None and item.n_records and dwell > item.p10():
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T3)
    return ValidReadLabel(LabelKind.INVALID_CLICK, None)


def label_log(
    events: Iterable[InteractionEvent],
    stats: DwellStats,
    store: ProfileStore,
    cfg: LabelingConfig = LabelingConfig(),
) -> Iterator[tuple[InteractionEvent, ValidReadLabel]]:
    """Label a stream of events against one frozen store, in input order."""
    for event in events:
        yield event, label_event(
            event, stats, store.item(event.item_id), store.user(event.user_id), cfg
        )


# Labeled-log lines are the event columns plus `label,source`.
LABELED_HEADER = "user_id,item_id,timestamp,clicked,dwell_time_s,label,source"

# Column codes: ``kind`` indexes LABEL_KINDS, ``source`` indexes
# LABEL_SOURCES (0 is "no source").
LABEL_KINDS = tuple(LabelKind)
LABEL_SOURCES = (None, *ValidReadSource)
_KIND_CODE = {kind.value: code for code, kind in enumerate(LABEL_KINDS)}
_SOURCE_CODE = {"": 0, **{source.value: code for code, source in enumerate(LABEL_SOURCES) if source}}
_NOT_CLICKED = _KIND_CODE[LabelKind.NOT_CLICKED.value]
_VALID_READ = _KIND_CODE[LabelKind.VALID_READ.value]


@dataclass(frozen=True, slots=True, eq=False)
class LabeledLog:
    """A labeled log as parallel columns, row i across all of them.

    ``events`` holds the event columns; ``kind`` and ``source`` are int8
    codes into LABEL_KINDS and LABEL_SOURCES.  Iterating yields the rows as
    (InteractionEvent, ValidReadLabel) pairs.
    """

    events: EventTable
    kind: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[InteractionEvent, ValidReadLabel]]:
        for event, kind, source in zip(self.events, self.kind.tolist(), self.source.tolist()):
            yield event, ValidReadLabel(LABEL_KINDS[kind], LABEL_SOURCES[source])

    @property
    def valid_read(self) -> np.ndarray:
        return self.kind == _VALID_READ

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[InteractionEvent, ValidReadLabel]]) -> "LabeledLog":
        """Columns of (event, label) pairs, such as ``label_log`` yields."""
        pairs = list(pairs)
        n = len(pairs)
        labels = [label for _, label in pairs]
        # Kinds and sources are str enums, so they look up their own codes.
        return cls(
            EventTable.of(event for event, _ in pairs),
            np.fromiter((_KIND_CODE[l.kind] for l in labels), dtype=np.int8, count=n),
            np.fromiter((_SOURCE_CODE[l.source or ""] for l in labels), dtype=np.int8, count=n),
        )

    def to_text(self) -> str:
        """The log as labeled-log text: the header, then each row as
        ``serialize_labeled`` writes it, formatted from the columns."""
        kind = np.array(list(_KIND_CODE))[self.kind].tolist()
        source = np.array(list(_SOURCE_CODE))[self.source].tolist()
        return LABELED_HEADER + "\n" + log_lines(self.events, kind, source)


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


def serialize_labeled(event: InteractionEvent, label: ValidReadLabel) -> str:
    source = label.source.value if label.source is not None else ""
    return f"{serialize_event(event)},{label.kind.value},{source}"


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

    The file is split once and every line checked column by column.  Blank
    lines and header lines are skipped wherever they appear, and there is
    no bad-line budget: a line ``parse_labeled`` rejects fails the read with
    that call's LogFormatError, for the first such line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        scan = LogScan.of(handle.read(), 7, _is_header)
    kind = _codes(_KIND_CODE, scan.fields[5::7])
    source = _codes(_SOURCE_CODE, scan.fields[6::7])
    skip = scan.bad | (kind < 0) | (source < 0) | ((kind == _VALID_READ) != (source > 0))
    skip |= (kind == _NOT_CLICKED) == scan.events.clicked
    # A header after line 1 fails the event checks, and is skipped.
    bad = skip.copy()
    bad[[i for i in np.flatnonzero(skip).tolist() if _is_header(scan.lines[scan.rows[i]])]] = False
    at_fault = scan.bad_lines(bad)
    if len(at_fault):
        raise scan.error(at_fault[0], parse_labeled)
    keep = ~skip
    return LabeledLog(scan.kept(keep), kind[keep], source[keep])
