"""Classify events into NotClicked / NoiseClick / InvalidClick / ValidRead.

A click is a valid read when any of three rules fires, checked in priority
order:

  T1  dwell time strictly longer than the global threshold x_l,
  T2  the user clicked fewer than 7 items in the trailing week,
  T3  dwell time strictly longer than the item's historical P10.

Clicks under the 5-second noise floor are wiped before any rule applies.
Labeling is a pure function of the event, the fitted stats, and the frozen
profiles, so shards can be labeled independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .dwell_stats import DwellStats
from .events import InteractionEvent, parse_event, serialize_event
from .profiles import ItemDwellProfile, NoProfileDataError, ProfileStore, UserActivityProfile

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
    dwell_time_s: float

    def __post_init__(self):
        if (self.kind is LabelKind.VALID_READ) != (self.source is not None):
            raise ValueError("source must be present exactly when kind is ValidRead")
        if self.kind is LabelKind.VALID_READ and self.dwell_time_s < NOISE_FLOOR_S:
            raise ValueError("a valid read cannot sit under the noise floor")


@dataclass(frozen=True, slots=True)
class LabelingConfig:
    noise_floor_s: float = NOISE_FLOOR_S
    light_user_max_clicks: int = LIGHT_USER_MAX_CLICKS
    min_records_t3: int = 1
    t3_exclude_self: bool = False


def label_event(
    event: InteractionEvent,
    stats: DwellStats,
    item: ItemDwellProfile | None,
    user: UserActivityProfile | None,
    cfg: LabelingConfig = LabelingConfig(),
) -> ValidReadLabel:
    """Label one event against frozen statistics and profiles.

    A missing item profile makes T3 non-matching; a missing user profile
    counts as zero clicks (light user).  Both threshold comparisons are
    strict: dwell equal to x_l or to the item P10 fails the rule.
    """
    if not event.clicked:
        return ValidReadLabel(LabelKind.NOT_CLICKED, None, event.dwell_time_s)
    dwell = event.dwell_time_s
    if dwell < cfg.noise_floor_s:
        return ValidReadLabel(LabelKind.NOISE_CLICK, None, dwell)
    if dwell > stats.x_l:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1, dwell)
    in_window = user.window_size(event.timestamp) if user is not None else 0
    if in_window < cfg.light_user_max_clicks:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T2, dwell)
    if item is not None and item.n_records >= cfg.min_records_t3:
        try:
            p10 = item.p10(exclude=dwell if cfg.t3_exclude_self else None)
        except NoProfileDataError:
            p10 = None
        if p10 is not None and dwell > p10:
            return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T3, dwell)
    return ValidReadLabel(LabelKind.INVALID_CLICK, None, dwell)


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


def composition_report(labels: Iterable[ValidReadLabel]) -> dict:
    """Counts per kind/source plus fractions of valid reads per source.

    Fractions are over valid reads only and sum to 1 when any exist; with
    zero valid reads the fraction map is empty but counts remain.
    """
    counts = {kind.value: 0 for kind in LabelKind}
    source_counts = {source.value: 0 for source in ValidReadSource}
    for label in labels:
        counts[label.kind.value] += 1
        if label.source is not None:
            source_counts[label.source.value] += 1
    n_valid = counts[LabelKind.VALID_READ.value]
    fractions = (
        {name: count / n_valid for name, count in source_counts.items()} if n_valid else {}
    )
    return {
        "counts": counts,
        "valid_read_source_counts": source_counts,
        "valid_read_source_fractions": fractions,
        "n_events": sum(counts.values()),
    }


# Labeled-log lines are the event columns plus `label,source`.
LABELED_HEADER = "user_id,item_id,timestamp,clicked,dwell_time_s,label,source"


def serialize_labeled(event: InteractionEvent, label: ValidReadLabel) -> str:
    source = label.source.value if label.source is not None else ""
    return f"{serialize_event(event)},{label.kind.value},{source}"


def parse_labeled(line: str, line_number: int | None = None) -> tuple[InteractionEvent, ValidReadLabel]:
    parts = line.rstrip("\n").rsplit(",", 2)
    if len(parts) != 3:
        raise ValueError(f"line {line_number}: not a labeled event line")
    event = parse_event(parts[0], line_number)
    kind = LabelKind(parts[1])
    source = ValidReadSource(parts[2]) if parts[2] else None
    return event, ValidReadLabel(kind, source, event.dwell_time_s)


def read_labeled_log(path: str) -> list[tuple[InteractionEvent, ValidReadLabel]]:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped == LABELED_HEADER:
                continue
            rows.append(parse_labeled(line, line_number))
    return rows
