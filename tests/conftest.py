from __future__ import annotations

import numpy as np
import pytest

from readweight.events import EventTable, InteractionEvent


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
