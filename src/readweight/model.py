"""Shared-bottom network with two 3-layer MLP towers.

Tower ``v`` predicts the probability P of a valid read; tower ``w`` is the
weighted twin producing P'.  Both consume the same shared-bottom output, and
the ranking score is P + P'.  The joint loss is the sum of an unweighted and
a per-instance-weighted binary cross entropy:

    L_v = -sum_pos log P  - sum_neg log(1 - P)
    L_w = -sum_pos w log P' - sum_neg w log(1 - P')
    L   = L_v + L_w

Parameters are float64 arrays holding float32 values (each drawn as float32
and upcast as it is drawn; ``train`` rounds its result), and a checkpoint
stores raw float32 tensors, so save/load is bit-exact.  All arithmetic runs
in float64, which keeps finite-difference gradient checks meaningful.

``backward`` runs the shared bottom once, then one tower at a time, holding
x0, hb and that tower's post-ReLU activations and probability: 193 float64
(1.5 KB) a row at the default dims.  It takes each ReLU's mask from its
output, which is positive exactly where its input is (NaN in neither), so
the gradients keep their bits.  It returns each embedding table's gradient row-sparse, as
the batch's distinct rows and their gradient rows, so its cost follows the
batch, not the vocabulary; the caller finds those rows once
(``PackedBatch.distinct``), and ``train`` catches the same rows up in Adam
before the pass.  ``score_batch`` runs the forward pass over
SCORE_CHUNK_ROWS rows at a time, keeping only ``hb`` and the layer being
computed, so scoring holds part of one chunk's activations whatever the
batch size.

Checkpoint format (magic ``VRMT``): version u32, u32 JSON config length +
config JSON (dims, slots with vocabularies, seed), u32 tensor count, then
per tensor, in ``param_shapes`` order (a record off it is rejected): u32
name length + name, u32 rank, u32 dims, row-major little-endian float32
data.  The config's ``dense_dim`` key is always 0; another value is rejected.
A non-finite weight is neither written nor read.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .ndt import logistic

PROB_CLAMP = 1e-7
# Rows per forward pass when scoring; its activations take about 1.3 KB a row.
# A power of two keeps each row at the offset within the BLAS kernels' row
# blocks that it has in one whole-batch pass, so the scores match that pass
# bit for bit (a 333-row chunk moved some by 1 ulp).
SCORE_CHUNK_ROWS = 1024

CHECKPOINT_MAGIC = b"VRMT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True, slots=True)
class SlotSpec:
    """One categorical feature slot; index 0 is reserved for out-of-vocab."""

    name: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError(f"slot {self.name} needs cardinality >= 1")


@dataclass(frozen=True, slots=True)
class ModelConfig:
    slots: tuple[SlotSpec, ...]
    embedding_dim: int
    bottom_dim: int
    tower_dims: tuple[int, int]
    seed: int


@dataclass(slots=True)
class PackedBatch:
    """Column layout of a batch: token indices, labels, weights."""

    idx: np.ndarray  # (n, n_slots) int32
    y: np.ndarray  # (n,) float64 in {0, 1}
    w: np.ndarray  # (n,) float64

    def __len__(self) -> int:
        return self.idx.shape[0]

    def take(self, rows: np.ndarray | slice) -> "PackedBatch":
        return PackedBatch(self.idx[rows], self.y[rows], self.w[rows])

    def distinct(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per slot, the distinct token indices, ascending, and each row's
        position among them (``np.unique`` with ``return_inverse``)."""
        return [np.unique(column, return_inverse=True) for column in self.idx.T]


def _dense_relu(x: np.ndarray, params: dict[str, np.ndarray], layer: str) -> np.ndarray:
    """``max(x @ W + b, 0)`` of ``layer``; the bias and the ReLU apply in place."""
    h = x @ params[f"{layer}.W"]
    h += params[f"{layer}.b"]
    return np.maximum(h, 0.0, out=h)


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"tensor {name} holds a non-finite value")


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A tensor record's bytes before its data: name length, name, rank, dims."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded), encoded, len(shape), *shape)


class MtlNetwork:
    """Parameter container plus forward/backward passes."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        params = self._init_params(config) if params is None else params
        # A float64 array is kept as it is (Adam updates it in place); float32 upcasts exactly.
        self.params = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
        expected = self.param_shapes(config)
        if {name: np.shape(value) for name, value in self.params.items()} != expected:
            raise ValueError(f"parameters do not have the configuration's shapes {expected}")

    @staticmethod
    def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in checkpoint order: one (cardinality, embedding_dim)
        table per slot, then each layer's (fan in, fan out) W and its b."""
        d_bot, (d1, d2) = config.bottom_dim, config.tower_dims
        shapes = {f"emb.{slot.name}": (slot.cardinality, config.embedding_dim) for slot in config.slots}
        layers = [("bottom", len(config.slots) * config.embedding_dim, d_bot)]
        for tower in ("tower_v", "tower_w"):
            layers += [(f"{tower}.1", d_bot, d1), (f"{tower}.2", d1, d2), (f"{tower}.3", d2, 1)]
        for layer, fan_in, fan_out in layers:
            shapes[f"{layer}.W"], shapes[f"{layer}.b"] = (fan_in, fan_out), (fan_out,)
        return shapes

    @staticmethod
    def _init_params(config: ModelConfig) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(config.seed)
        shapes = MtlNetwork.param_shapes(config)
        params: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            # Biases share their layer's uniform law: a layer whose inputs die
            # then sits off the rectifier kink instead of exactly on it.
            fan_in, fan_out = shapes[name[:-1] + "W"] if name.endswith(".b") else shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-s, s, size=shape).astype(np.float32).astype(np.float64)
        return params

    def _bottom(self, batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
        """x0, the batch's embedding rows side by side, and the shared bottom's
        output hb; an index outside its slot raises IndexError."""
        embedded = []
        for col, slot in enumerate(self.config.slots):
            column = batch.idx[:, col]
            if column.min(initial=0) < 0 or column.max(initial=0) >= slot.cardinality:
                raise IndexError(f"token index out of range for slot {slot.name} (cardinality {slot.cardinality})")
            embedded.append(self.params[f"emb.{slot.name}"][column])
        x0 = np.concatenate(embedded, axis=1)
        return x0, _dense_relu(x0, self.params, "bottom")

    def _tower(self, hb: np.ndarray, tower: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``tower``'s two post-ReLU activations and its probability."""
        p = self.params
        h1 = _dense_relu(hb, p, f"{tower}.1")
        h2 = _dense_relu(h1, p, f"{tower}.2")
        z3 = h2 @ p[f"{tower}.3.W"] + p[f"{tower}.3.b"]
        return h1, h2, logistic(z3[:, 0])

    def forward_batch(self, batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities (P, P') for every row; shared bottom runs once."""
        hb = self._bottom(batch)[1]
        return self._tower(hb, "tower_v")[2], self._tower(hb, "tower_w")[2]

    def score_batch(self, batch: PackedBatch) -> np.ndarray:
        """Ranking scores P + P' for every row, SCORE_CHUNK_ROWS rows at a time."""
        scores = np.empty(len(batch))
        for start in range(0, len(batch), SCORE_CHUNK_ROWS):
            p, pw = self.forward_batch(batch.take(slice(start, start + SCORE_CHUNK_ROWS)))
            np.add(p, pw, out=scores[start : start + SCORE_CHUNK_ROWS])
        return scores

    def backward(
        self, batch: PackedBatch, *, distinct: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[tuple[float, float, float], dict]:
        """Analytic gradient of L over every parameter.

        ``distinct`` is ``batch.distinct()``.  Returns ((L_v, L_w, L), grads),
        the losses summed over the batch with probabilities clamped.  Dense
        parameters get a float64 array of their own shape.  An embedding table
        gets a row-sparse pair ``(rows, values)``: the slot's distinct rows from
        ``distinct`` and their ``(len(rows), embedding_dim)`` gradient; every
        other row's gradient is zero.  The shared-bottom and embedding gradients
        accumulate both towers' contributions.
        """
        x0, hb = self._bottom(batch)
        y = batch.y
        p = self.params
        grads: dict = {}
        losses = []
        dzb = np.zeros_like(hb)  # d L / d hb, masked to d L / d zb below
        for tower, scale in (("tower_v", None), ("tower_w", batch.w)):
            h1, h2, prob = self._tower(hb, tower)
            clamped = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
            log_lik = y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)
            dz3 = prob - y
            if scale is not None:
                log_lik *= scale
                dz3 *= scale
            losses.append(-float(np.sum(log_lik)))
            grads[f"{tower}.3.W"] = h2.T @ dz3[:, None]
            grads[f"{tower}.3.b"] = np.array([dz3.sum()])
            dz2 = dz3[:, None] @ p[f"{tower}.3.W"].T
            dz2 *= h2 > 0
            grads[f"{tower}.2.W"] = h1.T @ dz2
            grads[f"{tower}.2.b"] = dz2.sum(axis=0)
            dz1 = dz2 @ p[f"{tower}.2.W"].T
            dz1 *= h1 > 0
            grads[f"{tower}.1.W"] = hb.T @ dz1
            grads[f"{tower}.1.b"] = dz1.sum(axis=0)
            dzb += dz1 @ p[f"{tower}.1.W"].T
            del h1, h2, prob, clamped, log_lik, dz3, dz2, dz1  # before the next tower runs

        dzb *= hb > 0
        grads["bottom.W"] = x0.T @ dzb
        grads["bottom.b"] = dzb.sum(axis=0)
        dx0 = dzb @ p["bottom.W"].T
        d_emb = self.config.embedding_dim
        for col, (slot, (rows, inverse)) in enumerate(zip(self.config.slots, distinct)):
            values = np.zeros((rows.size, d_emb))
            np.add.at(values, inverse, dx0[:, col * d_emb : (col + 1) * d_emb])
            grads[f"emb.{slot.name}"] = (rows, values)
        l_v, l_w = losses
        return (l_v, l_w, l_v + l_w), grads

    # -- checkpoint io ----------------------------------------------------

    def config_doc(self, extra: dict | None = None) -> dict:
        doc = {
            "slots": [{"name": s.name, "cardinality": s.cardinality} for s in self.config.slots],
            "dense_dim": 0,
            "embedding_dim": self.config.embedding_dim,
            "bottom_dim": self.config.bottom_dim,
            "tower_dims": list(self.config.tower_dims),
            "seed": self.config.seed,
        }
        if extra:
            doc.update(extra)
        return doc

    @np.errstate(over="ignore")
    def to_bytes(self, extra_config: dict | None = None) -> bytes:
        """The checkpoint's bytes; a weight that is not finite as float32
        (an overflowing cast included) raises ValueError naming its tensor."""
        config_blob = json.dumps(self.config_doc(extra_config), sort_keys=True).encode("utf-8")
        shapes = self.param_shapes(self.config)
        parts = [
            CHECKPOINT_MAGIC,
            struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<I", len(config_blob)),
            config_blob,
            struct.pack("<I", len(shapes)),
        ]
        for name, shape in shapes.items():
            values = np.ascontiguousarray(self.params[name], dtype="<f4")
            _check_finite(name, values)
            parts.append(_record_head(name, shape))
            parts.append(values.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["MtlNetwork", dict]:
        """Checkpoint from its bytes; a cut, extended or corrupt buffer, or a
        non-finite weight, raises ValueError."""
        try:
            if data[:4] != CHECKPOINT_MAGIC:
                raise ValueError("not a model checkpoint (bad magic)")
            (version,) = struct.unpack_from("<I", data, 4)
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            (config_len,) = struct.unpack_from("<I", data, 8)
            offset = 12
            doc = json.loads(data[offset : offset + config_len].decode("utf-8"))
            offset += config_len
            if int(doc["dense_dim"]) != 0:
                raise ValueError(f"dense features are not supported (dense_dim {doc['dense_dim']})")
            config = ModelConfig(
                slots=tuple(SlotSpec(s["name"], int(s["cardinality"])) for s in doc["slots"]),
                embedding_dim=int(doc["embedding_dim"]),
                bottom_dim=int(doc["bottom_dim"]),
                tower_dims=tuple(doc["tower_dims"]),
                seed=int(doc["seed"]),
            )
            shapes = cls.param_shapes(config)
            (n_tensors,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if n_tensors != len(shapes):
                raise ValueError(f"{n_tensors} tensors, but the configuration has {len(shapes)} shapes")
            params: dict[str, np.ndarray] = {}
            for name, shape in shapes.items():
                head = _record_head(name, shape)
                if data[offset : offset + len(head)] != head:
                    raise ValueError(f"tensor record does not match {name} in the configuration's shapes {shapes}")
                offset += len(head)
                count = int(np.prod(shape))
                params[name] = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(shape)
                _check_finite(name, params[name])
                offset += 4 * count
            if offset != len(data):
                raise ValueError(f"truncated or corrupt checkpoint: {len(data) - offset} trailing bytes")
            return cls(config, params), doc
        except (struct.error, IndexError, KeyError, TypeError, OverflowError) as err:
            raise ValueError(f"truncated or corrupt checkpoint: {err}") from None

    def save(self, path: str, extra_config: dict | None = None) -> None:
        from ._fileio import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes(extra_config))

    @classmethod
    def load(cls, path: str) -> tuple["MtlNetwork", dict]:
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())
