from __future__ import annotations

import math
import os
import tracemalloc
from bisect import bisect_right, insort
from typing import Iterable, Iterator

import numpy as np
import pytest

from readweight.events import (
    BadLineBudgetExceeded,
    EventTable,
    IdCoder,
    InteractionEvent,
    LogFormatError,
    ScanCounts,
    _header_rule,
    parse_event,
)
from readweight.dwell_stats import DwellStats, InsufficientDataError
from readweight.labeling import (
    LABEL_KINDS,
    LABEL_SOURCES,
    LABELED_HEADER,
    LabeledLog,
    LabelKind,
    LabelingConfig,
    ValidReadLabel,
    ValidReadSource,
    label_log,
    parse_labeled,
)
from readweight.profiles import WEEK_SECONDS, ItemDwellProfile, ProfileStore
from readweight.quantiles import DEFAULT_EPS, DEFAULT_SWITCH_THRESHOLD, QuantileEstimator
from readweight.simulate import DAY_SECONDS, SIDECAR_HEADER, Sidecar, SimConfig


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


# Tables and labeled logs built from per-row objects, one row at a time.


def event_table(events: Iterable[InteractionEvent]) -> EventTable:
    """The rows of ``events`` as columns, coded through one ``IdCoder``."""
    events = list(events)
    n = len(events)
    coder = IdCoder()
    return coder.table([EventTable(
        *coder.code([e.user_id for e in events], [e.item_id for e in events]),
        np.fromiter((e.timestamp for e in events), dtype=np.int64, count=n),
        np.fromiter((e.clicked for e in events), dtype=bool, count=n),
        np.fromiter((e.dwell_time_s for e in events), dtype=np.float64, count=n),
    )])


def labeled_of(pairs: Iterable[tuple[InteractionEvent, ValidReadLabel]]) -> LabeledLog:
    """Columns of (event, label) pairs, each label's codes its kind's and
    its source's places in LABEL_KINDS and LABEL_SOURCES."""
    pairs = list(pairs)
    n = len(pairs)
    return LabeledLog(
        event_table(event for event, _ in pairs),
        np.fromiter((LABEL_KINDS.index(label.kind) for _, label in pairs), dtype=np.int8, count=n),
        np.fromiter((LABEL_SOURCES.index(label.source) for _, label in pairs), dtype=np.int8, count=n),
    )


def table_of_ids(users: list[str], items: list[str]) -> EventTable:
    """A table whose rows hold these user and item ids."""
    return event_table(make_event(user, item) for user, item in zip(users, items, strict=True))


# A store's users as a dict of per-user stamp lists, and back.


def with_users(store: ProfileStore, users: dict[str, list[int]]) -> ProfileStore:
    """``store`` holding ``users``, each with its stamps in the order given,
    in the store's arrays: ids sorted, counts, stamps user after user."""
    ids = sorted(users)
    store.user_ids = tuple(ids)
    store.user_clicks = np.array([len(users[token]) for token in ids], np.int64)
    store.user_stamps = np.array([at for token in ids for at in users[token]], np.int64)
    return store


def users_of(store: ProfileStore) -> dict[str, list[int]]:
    """Each of the store's users' stamps, by user id."""
    ends = np.cumsum(store.user_clicks).tolist()
    clicks = store.user_clicks.tolist()
    return {token: store.user_stamps[end - n : end].tolist() for token, n, end in zip(store.user_ids, clicks, ends)}


def row_ids(table: EventTable) -> tuple[list[str], list[str]]:
    """Each row's user id and item id, decoded through the vocabularies."""
    return [table.user_vocab[c] for c in table.user.tolist()], [table.item_vocab[c] for c in table.item.tolist()]


def assert_coded(table: EventTable) -> None:
    """int32 codes into vocabularies of distinct ids in ``sorted()`` order."""
    for codes, vocab in ((table.user, table.user_vocab), (table.item, table.item_vocab)):
        assert codes.dtype == np.int32 and isinstance(vocab, tuple)
        assert list(vocab) == sorted(set(vocab))
        assert len(codes) == 0 or 0 <= codes.min() <= codes.max() < len(vocab)


def assert_same_events(a: EventTable, b: EventTable) -> None:
    """Equal rows: the same ids, whatever ids the vocabularies hold beyond
    the rows', and equal columns of equal dtypes; floats bit for bit, signed
    zeros included."""
    assert_coded(a)
    assert_coded(b)
    assert row_ids(a) == row_ids(b)
    for name in ("timestamp", "clicked", "dwell_time_s"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.dwell_time_s.tobytes() == b.dwell_time_s.tobytes()


def traced_transient(fn) -> int:
    """Bytes ``fn()`` held at its peak beyond what it still holds on return
    (its result), under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()  # held, so that ``current`` counts it
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


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


# One row as text, the way the column writers must render it.


def serialize_event(event: InteractionEvent) -> str:
    """An event as its canonical log line (no trailing newline)."""
    return f"{event.user_id},{event.item_id},{event.timestamp},{int(event.clicked)},{event.dwell_time_s!r}"


def serialize_labeled(event: InteractionEvent, label: ValidReadLabel) -> str:
    """An (event, label) pair as its labeled-log line (no trailing newline)."""
    source = label.source.value if label.source is not None else ""
    return f"{serialize_event(event)},{label.kind.value},{source}"


# The per-row writers: one format call per row, over whole columns.
# ``write_log``, ``LabeledLog.to_text`` and ``sidecar_csv`` must give their
# text byte for byte.
LOG_LINE = "{},{},{},{:d},{!r}"
SIDECAR_LINE = "{},{},{},{:d},{!r},{},{},{!r}\n"
# Row counts on both sides of a 2^16-row span's end.
SPAN_EDGES = (0, 1, 2**16 - 1, 2**16, 2**16 + 1)


def log_text(table: EventTable, *extra: list[str]) -> str:
    """A table's rows as ``LOG_LINE``s, each ending in a newline; each of
    ``extra`` is a text column appended to every line after a comma."""
    return "".join(map(
        (LOG_LINE + ",{}" * len(extra) + "\n").format,
        *row_ids(table), table.timestamp.tolist(), table.clicked.tolist(), table.dwell_time_s.tolist(), *extra,
    ))


def labeled_text(log: LabeledLog) -> str:
    """A labeled log's text: the header, then each row's ``LOG_LINE`` plus its kind and source."""
    kinds = [LABEL_KINDS[k].value for k in log.kind.tolist()]
    sources = [LABEL_SOURCES[s].value if s else "" for s in log.source.tolist()]
    return LABELED_HEADER + "\n" + log_text(log.events, kinds, sources)


def sidecar_text(events: EventTable, sidecar: Sidecar) -> str:
    """A sidecar's CSV: the header, then one ``SIDECAR_LINE`` per row."""
    return SIDECAR_HEADER + "\n" + "".join(map(
        SIDECAR_LINE.format,
        *row_ids(events), events.timestamp.tolist(), events.clicked.tolist(), sidecar.affinity.tolist(),
        sidecar.user_level.tolist(), sidecar.item_class, sidecar.vr_propensity.tolist(),
    ))


# Floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, and the exponents at which ``repr`` switches notation.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e15 + 0.5, 12.5)


def edge_table(n: int, rng) -> EventTable:
    """``n`` rows with non-ASCII ids, over vocabularies that also hold ids no
    row does; unclicked rows' dwell is 0.0 or -0.0, clicked rows' any of
    ``EDGE_FLOATS`` or a random one."""
    clicked = rng.random(n) < 0.5
    dwell = np.where(rng.random(n) < 0.5, np.array(EDGE_FLOATS)[rng.integers(len(EDGE_FLOATS), size=n)],
                     rng.lognormal(3.0, 2.0, n))
    dwell[~clicked] = np.where(rng.random((~clicked).sum()) < 0.5, 0.0, -0.0)
    users = [("u", "ü", "用户", "u\u00e9")[k % 4] + str(k) for k in rng.integers(500, size=n).tolist()]
    items = [("i", "é", "项目")[k % 3] + str(k) for k in rng.integers(90, size=n).tolist()]
    coder = IdCoder()
    # The last row's ids are held by the vocabularies alone once it is dropped.
    codes = coder.code([*users, "zz-unheld-user"], [*items, "zz-unheld-item"])
    stamps = rng.integers(1, 2**63 - 1, size=n + 1)
    table = coder.table([EventTable(*codes, stamps, np.append(clicked, True), np.append(dwell, 1.0))])
    return table.take(np.arange(n))


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


# The per-click statistics pass: one step per click, in file order.
# ``fit_log_normal`` and ``build_profiles`` must give the same bits.


def fit_per_click(events: Iterable[InteractionEvent]) -> DwellStats:
    """Running sums of ln T and (ln T)^2 over the clicks with positive dwell."""
    n, sum_lnT, sum_lnT_sq = 0, 0.0, 0.0
    for event in events:
        if event.clicked and event.dwell_time_s > 0:
            x = math.log(event.dwell_time_s)
            n += 1
            sum_lnT += x
            sum_lnT_sq += x * x
    if n < 2:
        raise InsufficientDataError(f"need at least 2 clicked events with positive dwell time, got {n}")
    mu = sum_lnT / n
    return DwellStats.from_moments(mu=mu, sigma=math.sqrt(max(sum_lnT_sq / n - mu * mu, 0.0)), n=n)


def profiles_per_click(
    events: Iterable[InteractionEvent],
    eps: float = DEFAULT_EPS,
    switch_threshold: int = DEFAULT_SWITCH_THRESHOLD,
) -> ProfileStore:
    """Each click's dwell into its item's estimator and its stamp into its
    user's stamps with ``insort``, so equal values land in file order."""
    store = ProfileStore(eps=eps, switch_threshold=switch_threshold)
    users: dict[str, list[int]] = {}
    for event in events:
        if not event.clicked:
            continue
        item = store.items.get(event.item_id)
        if item is None:
            item = ItemDwellProfile(event.item_id, QuantileEstimator(eps, switch_threshold))
            store.items[event.item_id] = item
        item.estimator.observe(event.dwell_time_s)
        insort(users.setdefault(event.user_id, []), event.timestamp)
    return with_users(store, users)


# The per-row labeler: one call per event, the rules in priority order.
# ``label_log`` must give every row the label this gives it.


def label_event(
    event: InteractionEvent,
    stats: DwellStats,
    item: ItemDwellProfile | None,
    stamps: list[int] | None,
    cfg: LabelingConfig = LabelingConfig(),
) -> ValidReadLabel:
    """Label one event against the fitted statistics, its item's profile and
    its user's ascending click stamps.

    A missing item profile makes T3 non-matching; missing stamps count as
    zero clicks (light user).  T2 counts the stamps in (ts - week, ts].
    """
    if not event.clicked:
        return ValidReadLabel(LabelKind.NOT_CLICKED, None)
    dwell = event.dwell_time_s
    if dwell < cfg.noise_floor_s:
        return ValidReadLabel(LabelKind.NOISE_CLICK, None)
    if dwell > stats.x_l:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T1)
    stamps = stamps or []
    in_window = bisect_right(stamps, event.timestamp) - bisect_right(stamps, event.timestamp - WEEK_SECONDS)
    if in_window < cfg.light_user_max_clicks:
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T2)
    if item is not None and item.n_records and dwell > item.p10():
        return ValidReadLabel(LabelKind.VALID_READ, ValidReadSource.T3)
    return ValidReadLabel(LabelKind.INVALID_CLICK, None)


def label_rows(
    events: Iterable[InteractionEvent],
    stats: DwellStats,
    store: ProfileStore,
    cfg: LabelingConfig = LabelingConfig(),
) -> LabeledLog:
    """``label_event`` on each event against its profiles in ``store``."""
    users = users_of(store)
    return labeled_of(
        (e, label_event(e, stats, store.items.get(e.item_id), users.get(e.user_id), cfg))
        for e in events
    )


def label_one(
    event: InteractionEvent,
    stats: DwellStats,
    item: ItemDwellProfile | None,
    stamps: list[int] | None,
    cfg: LabelingConfig = LabelingConfig(),
) -> ValidReadLabel:
    """``label_log`` on a one-row table, against a store that holds only
    ``item`` (as the event's item) and ``stamps`` (as its user's clicks),
    each left out when None: ``label_event``'s arguments."""
    store = ProfileStore()
    if item is not None:
        store.items[event.item_id] = item
    if stamps is not None:
        with_users(store, {event.user_id: stamps})
    [(_, label)] = label_log(event_table([event]), stats, store, cfg)
    return label


def week_clicks(
    store: ProfileStore, stats: DwellStats, events: list[InteractionEvent], most: int
) -> list[int]:
    """How many clicks ``label_log`` counts in each event's trailing week,
    capped at ``most``, read off its labels: with the floor at 0, a click
    that fails T1 is T2 exactly while the light-user bound is above it."""
    table = event_table(events)
    t2 = LABEL_SOURCES.index(ValidReadSource.T2)
    heavy = [
        label_log(table, stats, store, LabelingConfig(noise_floor_s=0.0, light_user_max_clicks=bound)).source != t2
        for bound in range(1, most + 1)
    ]
    return np.sum(heavy, axis=0).tolist()


def assert_same_columns(a: LabeledLog, b: LabeledLog) -> None:
    """Equal events, and equal kind and source codes on every row."""
    assert_same_events(a.events, b.events)
    for name in ("kind", "source"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


# The per-user activeness path: one weekly count per user, then one level per
# count.  ``evaluation.row_levels`` must give every row its user's level.


def weekly_click_counts(events: Iterable[InteractionEvent]) -> dict[str, int]:
    """Clicks per user, in order of first appearance, in the trailing 7-day
    window ending at the log's last timestamp; impression-only users count 0."""
    events = list(events)
    if not events:
        return {}
    horizon = max(e.timestamp for e in events)
    counts: dict[str, int] = {}
    for event in events:
        counts.setdefault(event.user_id, 0)
        if event.clicked and horizon - WEEK_SECONDS < event.timestamp <= horizon:
            counts[event.user_id] += 1
    return counts


def activeness_level(user_week_clicks: int, boundaries) -> int:
    """1 + number of boundaries at or below the click count; level 7 (with
    six boundaries) is the most active band."""
    bounds = list(boundaries)
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be strictly ascending")
    return 1 + sum(1 for b in bounds if b <= user_week_clicks)


# Closed-form and quadrature oracles of the organic simulator: the mean click
# rate and the light-user fraction a ``SimConfig`` implies.


def _gauss_hermite_mean(f, sd: float, n_nodes: int = 120) -> float:
    """E[f(sd * Z)] for Z ~ N(0,1) by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    density_norm = math.sqrt(2.0 * math.pi)
    return float(np.sum(weights * f(sd * nodes)) / density_norm)


def _chi2_mean(h, k: int, n_nodes: int = 96) -> float:
    """E[h(Q)] for Q ~ chi-square with k degrees of freedom, via
    Gauss-Laguerre after substituting q = 2t."""
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    vals = np.asarray([h(2.0 * t) for t in nodes])
    return float(np.sum(weights * vals * nodes ** (k / 2.0 - 1.0)) / math.gamma(k / 2.0))


def _mean_click_prob_given_radius2(cfg: SimConfig, q: float) -> float:
    """Mean click probability of a user whose latent squared norm is
    user_scale^2 * q; the item side integrates out to one Gaussian."""
    var = cfg.item_scale**2 * cfg.user_scale**2 * q + cfg.bait_click_coef**2
    sd = math.sqrt(var)
    return _gauss_hermite_mean(lambda x: 1.0 / (1.0 + np.exp(-(cfg.click_bias + x))), sd)


def analytic_click_rate(cfg: SimConfig) -> float:
    """Population mean click probability by nested quadrature over the
    latent distribution (user radius x 1-D Gaussian projection)."""
    return _chi2_mean(lambda q: _mean_click_prob_given_radius2(cfg, q), cfg.latent_dim)


def _binom_cdf(k_max: int, n: int, p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    total = 0.0
    for j in range(0, min(k_max, n) + 1):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return min(total, 1.0)


def analytic_light_user_fraction(cfg: SimConfig, max_clicks: int = 7) -> float:
    """Probability a user has fewer than ``max_clicks`` clicks in the
    trailing week, implied by the activeness mix and the click model.

    Conditional on the user's latent radius the weekly click count is
    Binomial(impressions, p * week_fraction); the radius integrates out by
    quadrature and the mix weights the per-level counts.
    """
    week_frac = min(1.0, WEEK_SECONDS / (cfg.span_days * DAY_SECONDS))
    total = 0.0
    for mix, n_imp in zip(cfg.activeness_mix, cfg.impressions_per_level):
        if mix == 0.0:
            continue
        prob = _chi2_mean(
            lambda q: _binom_cdf(
                max_clicks - 1, n_imp, _mean_click_prob_given_radius2(cfg, q) * week_frac
            ),
            cfg.latent_dim,
        )
        total += mix * prob
    return total
