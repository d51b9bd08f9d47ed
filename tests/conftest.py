from __future__ import annotations

import os
from typing import Iterator

import numpy as np
import pytest

from readweight.events import (
    BadLineBudgetExceeded,
    EventTable,
    InteractionEvent,
    LogFormatError,
    ScanCounts,
    _header_rule,
    parse_event,
)
from readweight.labeling import LABELED_HEADER, ValidReadLabel, parse_labeled


def make_event(
    user_id="u1",
    item_id="i1",
    timestamp=1_700_000_000,
    clicked=True,
    dwell_time_s=20.0,
) -> InteractionEvent:
    return InteractionEvent(user_id, item_id, timestamp, clicked, dwell_time_s)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_same_events(a: EventTable, b: EventTable) -> None:
    """Equal columns of equal dtypes; floats bit for bit, signed zeros included."""
    assert a.user_id == b.user_id and a.item_id == b.item_id
    for name in ("timestamp", "clicked", "dwell_time_s"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.dwell_time_s.tobytes() == b.dwell_time_s.tobytes()


def random_events(rng, n: int, n_users: int = 40, n_items: int = 15) -> list[InteractionEvent]:
    """A random log in file order over three weeks: skewed user activity,
    repeated ids, and tied, zero and signed-zero dwell times."""
    events = []
    for _ in range(n):
        clicked = bool(rng.random() < 0.6)
        if clicked:
            options = [0.0, -0.0, round(float(rng.exponential(30.0)), 1), float(rng.lognormal(3.0, 1.0))]
            dwell = options[rng.integers(len(options))]
        else:
            dwell = 0.0
        user = int(n_users * rng.random() ** 3)
        timestamp = 1_700_000_000 + int(rng.integers(21 * 86400))
        events.append(InteractionEvent(f"u{user}", f"i{rng.integers(n_items)}", timestamp, clicked, dwell))
    return events


# The per-line readers: one ``parse_event`` or ``parse_labeled`` call per
# line.  ``read_log`` and ``read_labeled_log`` must agree with them on rows,
# counts and error text.


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


def read_labeled_lines(path: str | os.PathLike[str]) -> list[tuple[InteractionEvent, ValidReadLabel]]:
    """The per-line reader: one ``parse_labeled`` call per line.

    Blank lines and header lines are skipped wherever they appear.  This is
    the reference ``read_labeled_log`` must agree with, and the reader that
    names the first bad line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped == LABELED_HEADER:
                continue
            rows.append(parse_labeled(line, line_number))
    return rows
