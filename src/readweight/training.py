"""Deterministic mini-batch training of the two-tower model.

Four objectives cover the ablation grid:

  single_ctr  y = clicked, weighted tower idle (all weights zero)
  ctr_logdt   y = clicked, weighted tower uses log dwell time
  vr_logdt    y = valid read, weighted tower uses log dwell time
  vr_ndt      y = valid read, weighted tower uses normalized dwell time

Log dwell time is ln(1 + T) so unclicked rows (T = 0) are well defined in
literal negative mode.

The optimizer is Adam (``B1, B2, EPS`` = 0.9, 0.999, 1e-8).  Training runs on float64
master weights with float64 moments; the network is cast to float32 once,
after the last step, and that float32 network is what ``train`` returns and
a checkpoint stores.  The MLP takes the textbook dense step.  An embedding
table is stepped only on the rows a batch reads: each row records the last
step that updated it, and before a batch's forward pass its rows are
brought up to date in closed form.  A row with no gradient for k steps
follows dense Adam exactly (m <- B1^k m, v <- B2^k v, and the parameter
moves by m / sqrt(v) times a sum of per-step factors), except that EPS is
left out of those skipped steps.  Every row is caught up once more after
the last step, so the result tracks dense Adam to about 1e-5 relative while
a step costs O(batch), not O(vocabulary).  Given the same config and seed,
two runs produce byte-identical checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .events import EventTable, distinct_ids
from .labeling import LabeledLog
from .model import ModelConfig, MtlNetwork, PackedBatch, SlotSpec
from .ndt import NEG_MODES, NdtParams, ndt, tower_weights

OBJECTIVES = ("single_ctr", "ctr_logdt", "vr_logdt", "vr_ndt")
# Rows the final catch-up brings up to date at a time, so its temporaries
# scale with this, not with the table.
CATCH_UP_ROWS = 1024
# Adam's moment decays and the floor under its step's denominator.
B1, B2, EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite."""


@dataclass(frozen=True, slots=True)
class TrainConfig:
    objective: str = "vr_ndt"
    neg_mode: str = "unit"
    batch_size: int = 512
    learning_rate: float = 1e-3
    epochs: int = 3
    seed: int = 0
    embedding_dim: int = 16
    bottom_dim: int = 64
    tower_dims: tuple[int, int] = (64, 32)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.neg_mode not in NEG_MODES:
            raise ValueError(f"neg_mode must be one of {NEG_MODES}, got {self.neg_mode!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@dataclass(frozen=True, slots=True)
class FeatureSpace:
    """Token vocabularies shared by training and scoring; index 0 is OOV."""

    user_vocab: tuple[str, ...]
    item_vocab: tuple[str, ...]

    @classmethod
    def of(cls, events: EventTable) -> "FeatureSpace":
        """The sorted distinct user and item ids of ``events``' rows."""
        users, _ = distinct_ids(events.user_vocab, events.user)
        items, _ = distinct_ids(events.item_vocab, events.item)
        return cls(tuple(users), tuple(items))

    def encode(self, events: EventTable) -> np.ndarray:
        """(n, 2) int32 token indices of ``events``' rows, 0 for an unseen id;
        each id in the table's vocabularies is looked up once, in dicts built per call."""

        def codes(vocab: tuple[str, ...], ids: tuple[str, ...], rows: np.ndarray) -> np.ndarray:
            index = dict(zip(vocab, range(1, len(vocab) + 1)))
            return np.fromiter(map(index.get, ids, repeat(0)), dtype=np.int32, count=len(ids))[rows]

        return np.stack([codes(self.user_vocab, events.user_vocab, events.user),
                         codes(self.item_vocab, events.item_vocab, events.item)], axis=1)

    def slots(self) -> tuple[SlotSpec, SlotSpec]:
        return (
            SlotSpec("user_id", len(self.user_vocab) + 1),
            SlotSpec("item_id", len(self.item_vocab) + 1),
        )


def pack_instances(
    log: LabeledLog, space: FeatureSpace, y: np.ndarray | None = None, w: np.ndarray | None = None
) -> PackedBatch:
    """The batch of ``log``'s rows under ``space``, with labels ``y`` and
    weights ``w`` (float64, zeros when omitted)."""
    n = len(log)
    idx = space.encode(log.events)
    return PackedBatch(idx, np.zeros(n) if y is None else y, np.zeros(n) if w is None else w)


def build_instances(
    log: LabeledLog,
    params: NdtParams,
    cfg: TrainConfig,
    space: FeatureSpace | None = None,
) -> tuple[PackedBatch, FeatureSpace]:
    """Map a labeled log to a training batch under the configured objective.

    Positives are clicks (ctr objectives) or valid reads (vr objectives);
    the weighted tower's weight is the objective's dwell transform for
    positives and, for negatives, 1.0 in unit mode or the same transform in
    literal mode (``ndt.tower_weights``).  Without ``space`` the vocabulary
    is the log's own.
    """
    if space is None:
        space = FeatureSpace.of(log.events)
    y = log.events.clicked if cfg.objective in ("single_ctr", "ctr_logdt") else log.valid_read
    if cfg.objective == "single_ctr":
        w = np.zeros(len(log))
    else:
        dwell = log.events.dwell_time_s
        transformed = np.log1p(dwell) if cfg.objective.endswith("logdt") else ndt(dwell, params)
        w = tower_weights(y, transformed, cfg.neg_mode)
    return pack_instances(log, space, y.astype(np.float64), w), space


@dataclass(slots=True)
class EpochLoss:
    epoch: int
    l_v: float
    l_w: float

    @property
    def l(self) -> float:
        return self.l_v + self.l_w


@dataclass(slots=True)
class TrainResult:
    network: MtlNetwork
    trace: list[EpochLoss]
    space: FeatureSpace
    config: TrainConfig


class Adam:
    """Adam over float64 parameters, updated in place; state in float64.

    Parameters named in ``row_sparse`` take gradients as ``(rows, values)``
    pairs and are stepped only on those rows.  The caller runs
    ``catch_up`` on the rows a batch reads before computing its gradient,
    and once over every row before reading the result; see the module
    docstring for the semantics.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float, row_sparse: Iterable[str] = ()):
        if any(v.dtype != np.float64 for v in params.values()):
            raise TypeError("Adam updates float64 master weights in place")
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(v.shape, dtype=np.float64) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape, dtype=np.float64) for k, v in params.items()}
        self.last = {k: np.zeros(params[k].shape[0], dtype=np.int64) for k in row_sparse}
        # A row skipped since step t0 has moved by m / sqrt(v) times
        # sum_{j=1..k} c_{t0+j} r^j, with r = B1 / sqrt(B2) < 1 and
        # c_s = lr sqrt(1 - B2^s) / (1 - B1^s).  _recent[k] holds that sum
        # for a gap of k <= horizon steps, ending now; terms past the
        # horizon are below 1e-18 of the first, so _settled[t0] freezes the
        # sum for gaps longer than the horizon.  Every term is positive:
        # nothing cancels.
        r = B1 / math.sqrt(B2)
        self.horizon = max(1, math.ceil(math.log(1e-18) / math.log(r))) if self.last else 0
        self._r_powers = r ** np.arange(1, self.horizon + 1)
        self._recent = np.zeros(self.horizon + 1)
        self._settled = np.zeros(64)

    def catch_up(self, params: dict[str, np.ndarray], rows: dict[str, np.ndarray] | None = None) -> None:
        """Apply the steps that row-sparse rows skipped since their last update.

        ``rows`` maps each row-sparse parameter to the rows about to be
        read; None brings every row up to date, ``CATCH_UP_ROWS`` rows at a
        time.  The update is row by row, so the chunks give the same bits.
        """
        for name, last in self.last.items():
            n = last.size
            chunks = [rows[name]] if rows is not None else (
                np.arange(at, min(at + CATCH_UP_ROWS, n)) for at in range(0, n, CATCH_UP_ROWS)
            )
            for idx in chunks:
                idx = idx[last[idx] < self.t]
                if idx.size == 0:
                    continue
                t0 = last[idx]
                gap = self.t - t0
                moved = self._recent[np.minimum(gap, self.horizon)]
                beyond = gap > self.horizon
                moved[beyond] = self._settled[t0[beyond]]
                m = self.m[name][idx]
                v = self.v[name][idx]
                ratio = np.divide(m, np.sqrt(v), out=np.zeros_like(m), where=v > 0)
                params[name][idx] -= ratio * moved[:, None]
                self.m[name][idx] = m * np.power(B1, gap)[:, None]
                self.v[name][idx] = v * np.power(B2, gap)[:, None]
                last[idx] = self.t

    def step(self, params: dict[str, np.ndarray], grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - B1**self.t
        bc2 = 1.0 - B2**self.t
        for name, grad in grads.items():
            # A dense tensor's gradient covers all of its rows.
            rows, grad = grad if name in self.last else (slice(None), grad)
            m = B1 * self.m[name][rows] + (1.0 - B1) * grad
            v = B2 * self.v[name][rows] + (1.0 - B2) * np.square(grad)
            self.m[name][rows] = m
            self.v[name][rows] = v
            params[name][rows] -= (self.lr / bc1) * m / (np.sqrt(v / bc2) + EPS)
            if name in self.last:
                self.last[name][rows] = self.t
        if self.last:
            c = self.lr * math.sqrt(bc2) / bc1
            self._recent[1:] = self._recent[:-1] + c * self._r_powers
            settled = self.t - self.horizon
            if settled >= 0:
                if settled >= self._settled.size:
                    self._settled = np.concatenate([self._settled, np.zeros(self._settled.size)])
                self._settled[settled] = self._recent[self.horizon]


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Visit order of instances for one epoch; a pure function of (seed, epoch)."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def train(cfg: TrainConfig, batch: PackedBatch, space: FeatureSpace) -> TrainResult:
    """Run fixed-epoch training on ``batch``; deterministic given cfg.seed.

    Every row needs y in {0, 1} and w >= 0 (NaN fails).  The loss trace
    records per-instance mean losses per epoch.  Non-finite loss aborts
    with TrainingDivergedError.  The returned network is the float32 cast
    of the float64 master weights.
    """
    if len(batch) == 0:
        raise ValueError("cannot train on an empty instance set")
    bad = ~((batch.y == 0) | (batch.y == 1)) | ~(batch.w >= 0)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"row {row}: y must be 0 or 1 and w >= 0, got y={batch.y[row]}, w={batch.w[row]}"
        )
    config = ModelConfig(
        slots=space.slots(),
        embedding_dim=cfg.embedding_dim,
        bottom_dim=cfg.bottom_dim,
        tower_dims=cfg.tower_dims,
        seed=cfg.seed,
    )
    net = MtlNetwork(config).astype(np.float64)
    tables = [f"emb.{slot.name}" for slot in config.slots]
    optimizer = Adam(net.params, lr=cfg.learning_rate, row_sparse=tables)
    n = len(batch)
    trace: list[EpochLoss] = []
    for epoch in range(cfg.epochs):
        order = epoch_order(cfg.seed, epoch, n)
        epoch_lv = 0.0
        epoch_lw = 0.0
        for start in range(0, n, cfg.batch_size):
            step = batch.take(order[start : start + cfg.batch_size])
            optimizer.catch_up(
                net.params, {name: np.unique(step.idx[:, col]) for col, name in enumerate(tables)}
            )
            # Non-finite values surface as the divergence error below.
            with np.errstate(over="ignore", invalid="ignore"):
                (l_v, l_w, l_total), grads = net.backward(step)
            if not math.isfinite(l_total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}: "
                    f"L_v={l_v}, L_w={l_w}"
                )
            optimizer.step(net.params, grads)
            epoch_lv += l_v
            epoch_lw += l_w
        trace.append(EpochLoss(epoch=epoch, l_v=epoch_lv / n, l_w=epoch_lw / n))
    optimizer.catch_up(net.params)
    return TrainResult(network=net.astype(np.float32), trace=trace, space=space, config=cfg)


def trace_csv(trace: Sequence[EpochLoss]) -> str:
    lines = ["epoch,L_v,L_w,L"]
    for row in trace:
        lines.append(f"{row.epoch},{row.l_v!r},{row.l_w!r},{row.l!r}")
    return "\n".join(lines) + "\n"


def checkpoint_extra_config(result: TrainResult) -> dict:
    cfg = result.config
    return {
        "objective": cfg.objective,
        "neg_mode": cfg.neg_mode,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "train_seed": cfg.seed,
        "user_vocab": list(result.space.user_vocab),
        "item_vocab": list(result.space.item_vocab),
    }


def space_from_checkpoint(doc: dict) -> FeatureSpace:
    """The vocabularies of a checkpoint's config ``doc``, whose slots they must fit."""
    try:
        space = FeatureSpace(tuple(doc["user_vocab"]), tuple(doc["item_vocab"]))
        slots = tuple(SlotSpec(slot["name"], int(slot["cardinality"])) for slot in doc["slots"])
    except (KeyError, TypeError) as err:
        raise ValueError(f"checkpoint lacks its vocabularies: {err}") from err
    if space.slots() != slots:
        raise ValueError(f"checkpoint vocabularies do not fit its slots: {space.slots()} against {slots}")
    return space


def score_events(net: MtlNetwork, space: FeatureSpace, log: LabeledLog) -> np.ndarray:
    """Ranking scores P + P' for every row of ``log``."""
    return net.score_batch(pack_instances(log, space))
