"""Synthetic interaction logs with planted structure.

Three generators cover the pipeline's oracle needs:

* ``generate`` — an organic simulator: users carry an activeness level that
  sets their impression volume, clicks follow a logistic affinity model
  over latent user/item vectors, and dwell time given a click is log-normal
  with its mean shifted by the same affinity (so dwell carries real signal)
  and optionally depressed by a per-item "bait" factor that inflates clicks
  while shortening reads.
* ``generate_rule_mix`` — a corpus whose valid reads split across the three
  labeling rules in exact, pre-computed proportions (the corpus ships the
  dwell statistics it was planted against).
* ``generate_migration_pair`` — a baseline log plus a treatment copy where
  low-activeness users' short reads are lengthened by a smooth monotone
  map, leaving per-cell migration deltas that are exactly recoverable.

Everything is deterministic given the config seed.  Logs start at
``START_TS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dwell_stats import DwellStats
from .events import LOG_COLUMNS, TIMESTAMP_LIMIT, EventTable, IdCoder, distinct_ids, log_columns, spans, text_rows
from .evaluation import row_levels
from .labeling import LIGHT_USER_MAX_CLICKS
from .ndt import logistic

DAY_SECONDS = 86400
START_TS = 1_700_000_000
# The dwell time a click must exceed to count in ``Sidecar.vr_propensity``.
VALID_READ_REF_S = 15.0


@dataclass(frozen=True, slots=True)
class ItemClass:
    """One item length class and its dwell-time law (parameters of ln T)."""

    name: str
    prob: float
    ln_dt_mean: float
    ln_dt_std: float

    def __post_init__(self):
        if not self.name or any(c in self.name for c in ",\n\r"):
            raise ValueError(f"class name {self.name!r} must be one sidecar cell: non-empty, no comma or line break")
        if self.ln_dt_std < 0:
            raise ValueError(f"class {self.name}: ln_dt_std must be >= 0")


@dataclass(frozen=True, slots=True)
class SimConfig:
    n_users: int = 1000
    n_items: int = 300
    activeness_mix: tuple[float, ...] = (0.30, 0.20, 0.15, 0.12, 0.10, 0.08, 0.05)
    impressions_per_level: tuple[int, ...] = (4, 8, 14, 24, 40, 70, 120)
    latent_dim: int = 4
    user_scale: float = 1.0
    item_scale: float = 0.5
    click_bias: float = -1.5
    affinity_dt_coef: float = 0.0
    bait_click_coef: float = 0.0
    bait_dt_coef: float = 0.0
    item_classes: tuple[ItemClass, ...] = (
        ItemClass("short", 0.3, 3.0, 1.0),
        ItemClass("medium", 0.5, 4.0, 1.2),
        ItemClass("long", 0.2, 5.0, 1.0),
    )
    span_days: int = 14
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1:
            raise ValueError("need at least one user and one item")
        if len(self.activeness_mix) != len(self.impressions_per_level):
            raise ValueError("activeness mix and impression counts must align")
        if abs(sum(self.activeness_mix) - 1.0) > 1e-9:
            raise ValueError("activeness mix must sum to 1")
        if abs(sum(c.prob for c in self.item_classes) - 1.0) > 1e-9:
            raise ValueError("item class probabilities must sum to 1")
        if len({c.name for c in self.item_classes}) != len(self.item_classes):
            raise ValueError("item class names must differ")
        if self.span_days < 1 or self.latent_dim < 1:
            raise ValueError("span_days and latent_dim must be >= 1")
        if START_TS + self.span_days * DAY_SECONDS > TIMESTAMP_LIMIT:
            raise ValueError(f"span_days {self.span_days} puts timestamps past int64")


@dataclass(frozen=True, slots=True, eq=False)
class Sidecar:
    """A generated log's ground truth as columns, row i for row i of its
    EventTable: the click affinity (f64), the user's activeness level
    (1-based int), the item's class name and the valid-read propensity
    P(T > VALID_READ_REF_S | click) (f64)."""

    affinity: np.ndarray
    user_level: np.ndarray
    item_class: list[str]
    vr_propensity: np.ndarray


SIDECAR_HEADER = ",".join((*LOG_COLUMNS[:4], "affinity", "user_level", "item_class", "vr_propensity"))


def sidecar_csv(events: EventTable, sidecar: Sidecar) -> str:
    """The sidecar as CSV, keyed by the log's user, item, timestamp and click."""
    return text_rows(len(events), lambda span: [
        *log_columns(events, span)[:4], map(repr, sidecar.affinity[span].tolist()),
        map(str, sidecar.user_level[span].tolist()), sidecar.item_class[span],
        map(repr, sidecar.vr_propensity[span].tolist()),
    ], SIDECAR_HEADER + "\n")


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf, otypes=[float])(x / math.sqrt(2.0)))


def generate(cfg: SimConfig) -> tuple[EventTable, Sidecar]:
    """Draw one log and, row for row, its ground truth; byte-identical for
    equal configs.

    Draw order is fixed: user levels, user latents, item latents, item bait,
    item classes, then per-impression item choices, timestamps, click coins,
    and dwell noise.
    """
    rng = np.random.default_rng(cfg.seed)
    n_levels = len(cfg.activeness_mix)
    levels = rng.choice(n_levels, size=cfg.n_users, p=np.asarray(cfg.activeness_mix))
    user_vecs = rng.standard_normal((cfg.n_users, cfg.latent_dim)) * cfg.user_scale
    item_vecs = rng.standard_normal((cfg.n_items, cfg.latent_dim)) * cfg.item_scale
    bait = rng.standard_normal(cfg.n_items)
    class_probs = np.asarray([c.prob for c in cfg.item_classes])
    item_class = rng.choice(len(cfg.item_classes), size=cfg.n_items, p=class_probs)

    imp_counts = np.asarray(cfg.impressions_per_level)[levels]
    total = int(imp_counts.sum())
    user_idx = np.repeat(np.arange(cfg.n_users), imp_counts)
    item_idx = rng.integers(0, cfg.n_items, size=total)
    timestamps = START_TS + rng.integers(0, cfg.span_days * DAY_SECONDS, size=total)
    coins, noise = rng.random(total), rng.standard_normal(total)
    # A span's propensity and dwell overwrite its coins and noise, once read.
    propensity, dwell = coins, noise

    item_ln_mean = np.asarray([c.ln_dt_mean for c in cfg.item_classes])[item_class]
    item_ln_std = np.asarray([c.ln_dt_std for c in cfg.item_classes])[item_class]
    affinity, clicked = np.empty(total), np.empty(total, bool)
    # Row by row, a span at a time, so no per-row temporary outlives its span.
    for span in spans(total):
        item = item_idx[span]
        np.einsum("ij,ij->i", user_vecs[user_idx[span]], item_vecs[item], out=affinity[span])
        logit = cfg.click_bias + affinity[span] + cfg.bait_click_coef * bait[item]
        clicked[span] = coins[span] < logistic(logit)
        ln_std = item_ln_std[item]
        with np.errstate(over="ignore", invalid="ignore"):
            ln_mean = item_ln_mean[item] + cfg.affinity_dt_coef * affinity[span] - cfg.bait_dt_coef * bait[item]
            dwell[span] = np.where(clicked[span], np.exp(ln_mean + ln_std * noise[span]), 0.0)
        if not np.isfinite(dwell[span]).all():
            raise ValueError("a drawn dwell time is not finite: the dwell law overflows float64")
        z = (math.log(VALID_READ_REF_S) - ln_mean) / np.where(ln_std > 0, ln_std, 1.0)
        step = (ln_mean > math.log(VALID_READ_REF_S)).astype(np.float64)
        propensity[span] = np.where(ln_std > 0, 1.0 - _norm_cdf(z), step)

    class_names = [c.name for c in cfg.item_classes]
    coder = IdCoder()
    users, items = coder.code([f"u{u:06d}" for u in range(cfg.n_users)], [f"i{i:06d}" for i in range(cfg.n_items)])
    events = coder.table([EventTable(users[user_idx], items[item_idx], timestamps, clicked, dwell)])
    sidecar = Sidecar(
        affinity=affinity,
        user_level=(levels + 1)[user_idx],
        item_class=list(map(class_names.__getitem__, item_class[item_idx].tolist())),
        vr_propensity=propensity,
    )
    return events, sidecar


# -- planted rule-mix corpus -------------------------------------------------


# The planted corpus's shape: its stats (x_l, sigma of ln T), clicks per
# user (light users stay under the labeler's LIGHT_USER_MAX_CLICKS a week),
# events per T3 item, and a span inside one week window.
RULE_MIX_X_L = 15.0
RULE_MIX_SIGMA = 1.295
LIGHT_CLICKS_PER_USER = LIGHT_USER_MAX_CLICKS - 1
HEAVY_CLICKS_PER_USER = 40
T3_RECORDS_PER_ITEM = 20
RULE_MIX_SPAN_S = 3 * DAY_SECONDS


@dataclass(frozen=True, slots=True)
class RuleMixConfig:
    n_valid_reads: int = 20000
    mix: tuple[float, float, float] = (0.8, 0.1, 0.1)
    noise_frac: float = 0.05
    unclicked_frac: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError("rule mix must sum to 1")
        if round(self.mix[0] * self.n_valid_reads) < LIGHT_USER_MAX_CLICKS:
            raise ValueError(f"rule mix needs at least {LIGHT_USER_MAX_CLICKS} T1 events to warm the heavy pool")


@dataclass(slots=True)
class RuleMixCorpus:
    events: EventTable
    stats: DwellStats
    analytic_mix: dict[str, float]
    analytic_counts: dict[str, int]


def generate_rule_mix(cfg: RuleMixConfig) -> RuleMixCorpus:
    """Corpus whose valid reads split across T1/T2/T3 in known proportions.

    All events sit inside one 7-day window, so a user's in-window click
    count is just their total clicks: "heavy" users carry enough clicks to
    never be light, "light" users carry fewer than LIGHT_USER_MAX_CLICKS.
    Each T3 item holds exactly its own planted events, so with nearest-rank
    P10 and a strict comparison, exactly ceil(0.1 * k) of its k events fail
    the rule and become invalid clicks; the analytic mix accounts for that
    exactly.  The returned stats are the ones the corpus was planted against
    (fitting stats from this corpus would not reproduce them; threshold
    recovery is the organic generator's job).
    """
    rng = np.random.default_rng(cfg.seed)
    mu = math.log(RULE_MIX_X_L) + RULE_MIX_SIGMA
    stats = DwellStats.from_moments(mu=mu, sigma=RULE_MIX_SIGMA, n=cfg.n_valid_reads)

    k = T3_RECORDS_PER_ITEM
    fails_per_item = math.ceil(0.1 * k)
    eff_per_item = k - fails_per_item
    n1 = round(cfg.mix[0] * cfg.n_valid_reads)
    n2 = round(cfg.mix[1] * cfg.n_valid_reads)
    m_items = round((cfg.n_valid_reads - n1 - n2) / eff_per_item)
    n3_planted = m_items * k
    n3_eff = m_items * eff_per_item
    n_vr = n1 + n2 + n3_eff
    n_noise = round(cfg.noise_frac * cfg.n_valid_reads)
    n_unclicked = round(cfg.unclicked_frac * cfg.n_valid_reads)

    # The light-user window looks backward from each event, so a heavy user
    # must already hold LIGHT_USER_MAX_CLICKS clicks when their first
    # rule-bearing event lands.  That many warm-up clicks per heavy user sit
    # at the span start; they carry T1-band dwell times and count toward the
    # planted T1 total.
    n_heavy_clicks = n1 + n3_planted + n_noise
    n_heavy = max(1, min(n_heavy_clicks // HEAVY_CLICKS_PER_USER, n1 // LIGHT_USER_MAX_CLICKS))
    n_light = max(1, math.ceil(n2 / LIGHT_CLICKS_PER_USER)) if n2 else 0
    n_generic = max(1, (n1 + n2 + n_noise) // 50)
    coder = IdCoder()
    heavy, generic = coder.code([f"h{j:06d}" for j in range(n_heavy)], [f"g{j:06d}" for j in range(n_generic)])
    light, t3_item = coder.code([f"l{j:06d}" for j in range(n_light)], [f"t{j:06d}" for j in range(m_items)])

    # Five parts, in row and draw order: T1, T2, T3 planted, noise, unclicked.
    # Heavy users are dealt round-robin on through T1, T3 and noise, generic
    # items on through T1, T2 and noise, and both again from the first for
    # the unclicked part; the warm-up clicks are the first T1 rows.
    j1, j2, j3, jn, ju = map(np.arange, (n1, n2, n3_planted, n_noise, n_unclicked))
    user = np.concatenate([
        heavy[j1 % n_heavy], light[j2 // LIGHT_CLICKS_PER_USER], heavy[(n1 + j3) % n_heavy],
        heavy[(n1 + n3_planted + jn) % n_heavy], heavy[ju % n_heavy],
    ])
    item = np.concatenate([
        generic[j1 % n_generic], generic[(n1 + j2) % n_generic], t3_item[j3 // k],
        generic[(n1 + n2 + jn) % n_generic], generic[ju % n_generic],
    ])
    dwell = np.concatenate([
        rng.uniform(RULE_MIX_X_L + 1.0, 300.0, n1), rng.uniform(5.5, RULE_MIX_X_L - 1.0, n2),
        rng.uniform(5.5, RULE_MIX_X_L - 1.0, n3_planted), rng.uniform(0.5, 4.5, n_noise), np.zeros(n_unclicked),
    ])
    n = len(user)
    row = np.arange(n)
    drawn_ts = START_TS + rng.integers(0, RULE_MIX_SPAN_S, size=n)
    order = rng.permutation(n)
    timestamp = np.where(row < LIGHT_USER_MAX_CLICKS * n_heavy, START_TS, drawn_ts)
    clicked = row < n - n_unclicked
    events = coder.table([EventTable(user[order], item[order], timestamp[order], clicked[order], dwell[order])])

    analytic_counts = {
        "T1": n1,
        "T2": n2,
        "T3": n3_eff,
        "InvalidClick": m_items * fails_per_item,
        "NoiseClick": n_noise,
        "NotClicked": n_unclicked,
    }
    analytic_mix = {
        "T1": n1 / n_vr,
        "T2": n2 / n_vr,
        "T3": n3_eff / n_vr,
    }
    return RuleMixCorpus(events=events, stats=stats, analytic_mix=analytic_mix, analytic_counts=analytic_counts)


# -- planted migration pair --------------------------------------------------


@dataclass(slots=True)
class MigrationPair:
    baseline: EventTable
    treatment: EventTable
    boundaries: tuple[int, ...]
    lifted_users: set[str]


def short_read_lift(dwell_s: float, shift_s: float, scale_s: float) -> float:
    """Monotone lengthening of short reads: T + shift * exp(-T / scale).

    Strictly increasing whenever shift < scale, so sorted order (and hence
    decile membership by rank) is preserved.
    """
    return dwell_s + shift_s * math.exp(-dwell_s / scale_s)


# The default planted lift: ``short_read_lift``'s shift and scale, seconds.
DEFAULT_SHIFT_S = 8.0
DEFAULT_SHIFT_SCALE_S = 40.0


def check_lift(shift_s: float = DEFAULT_SHIFT_S, shift_scale_s: float = DEFAULT_SHIFT_SCALE_S) -> None:
    """Raise ValueError unless shift_s < shift_scale_s, which keeps
    ``short_read_lift`` increasing."""
    if shift_s >= shift_scale_s:
        raise ValueError("shift must stay below the scale to keep the lift monotone")


def generate_migration_pair(
    cfg: SimConfig,
    shift_s: float = DEFAULT_SHIFT_S,
    shift_scale_s: float = DEFAULT_SHIFT_SCALE_S,
    max_level: int = 3,
) -> MigrationPair:
    """Baseline log plus a treatment where users at activeness levels
    1..max_level read short items longer."""
    check_lift(shift_s, shift_scale_s)
    baseline, _ = generate(cfg)
    levels, boundaries = row_levels(baseline)
    is_lifted = levels <= max_level
    # The treatment shares the baseline's columns but dwell, which it copies
    # and lifts row by row through the scalar map (math.exp, for its bits).
    rows = np.flatnonzero(baseline.clicked & is_lifted)
    dwell = baseline.dwell_time_s.copy()
    dwell[rows] = [short_read_lift(t, shift_s, shift_scale_s) for t in dwell[rows].tolist()]
    treatment = replace(baseline, dwell_time_s=dwell)
    return MigrationPair(
        baseline=baseline,
        treatment=treatment,
        boundaries=boundaries,
        lifted_users=set(distinct_ids(baseline.user_vocab, baseline.user[is_lifted])[0]),
    )
