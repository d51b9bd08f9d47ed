"""Shared-bottom network with two 3-layer MLP towers.

Tower ``v`` predicts the probability P of a valid read; tower ``w`` is the
weighted twin producing P'.  Both consume the same shared-bottom output, and
the ranking score is P + P'.  The joint loss is the sum of an unweighted and
a per-instance-weighted binary cross entropy:

    L_v = -sum_pos log P  - sum_neg log(1 - P)
    L_w = -sum_pos w log P' - sum_neg w log(1 - P')
    L   = L_v + L_w

Parameters are initialised and checkpointed as float32 (the checkpoint
stores raw float32 tensors, so save/load is bit-exact); training keeps a
float64 copy (see ``training``).  All arithmetic runs in float64, which
keeps finite-difference gradient checks meaningful.

The forward pass keeps only what ``backward`` reads: x0, the post-ReLU
activations and the two probabilities, 290 float64 (2.3 KB) a row at the
default dims.  ``backward`` takes each ReLU's mask from its output, which
is positive exactly where its input is (NaN in neither), so the gradients
keep their bits.  It returns each embedding table's gradient row-sparse, as
the batch's distinct rows and their gradient rows, so its cost follows the
batch, not the vocabulary.  ``score_batch`` runs the forward pass over
SCORE_CHUNK_ROWS rows at a time, keeping only ``hb`` and the layer being
computed, so scoring holds part of one chunk's activations whatever the
batch size.

Checkpoint format (magic ``VRMT``): version u32, u32 JSON config length +
config JSON (dims, slots with vocabularies, seed), u32 tensor count, then
per tensor: u32 name length + name, u32 rank, u32 dims, row-major
little-endian float32 data.  The config's ``dense_dim`` is always 0 (version
1 keeps the key); a checkpoint with any other value is rejected.
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


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


def _dense_relu(x: np.ndarray, params: dict[str, np.ndarray], layer: str) -> np.ndarray:
    """``max(x @ W + b, 0)`` of ``layer``; the bias and the ReLU apply in place."""
    h = x @ _f64(params[f"{layer}.W"])
    h += _f64(params[f"{layer}.b"])
    return np.maximum(h, 0.0, out=h)


class MtlNetwork:
    """Parameter container plus forward/backward passes."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = params if params is not None else self._init_params(config)
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
            params[name] = rng.uniform(-s, s, size=shape).astype(np.float32)
        return params

    def astype(self, dtype) -> "MtlNetwork":
        return MtlNetwork(self.config, {k: v.astype(dtype) for k, v in self.params.items()})

    def _check_indices(self, idx: np.ndarray) -> None:
        for col, slot in enumerate(self.config.slots):
            column = idx[:, col]
            if column.min(initial=0) < 0 or column.max(initial=0) >= slot.cardinality:
                raise IndexError(
                    f"token index out of range for slot {slot.name} "
                    f"(cardinality {slot.cardinality})"
                )

    def _forward_arrays(self, batch: PackedBatch, keep: bool = True) -> dict[str, np.ndarray]:
        """The layers' outputs by name, as ``backward`` reads them; unless
        ``keep``, only ``hb`` and the probabilities, each tower layer's
        input dropped once its output exists."""
        self._check_indices(batch.idx)
        p = self.params
        x0 = np.concatenate(
            [_f64(p[f"emb.{slot.name}"][batch.idx[:, col]]) for col, slot in enumerate(self.config.slots)],
            axis=1,
        )
        cache: dict[str, np.ndarray] = {"x0": x0} if keep else {}
        hb = cache["hb"] = _dense_relu(x0, p, "bottom")
        del x0
        for tower in ("tower_v", "tower_w"):
            h = hb
            for layer in (1, 2):
                h = _dense_relu(h, p, f"{tower}.{layer}")
                if keep:
                    cache[f"{tower}.h{layer}"] = h
            z3 = h @ _f64(p[f"{tower}.3.W"]) + _f64(p[f"{tower}.3.b"])
            cache[f"{tower}.prob"] = logistic(z3[:, 0])
        return cache

    def forward_batch(self, batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities (P, P') for every row; shared bottom runs once."""
        cache = self._forward_arrays(batch, keep=False)
        return cache["tower_v.prob"], cache["tower_w.prob"]

    def score_batch(self, batch: PackedBatch) -> np.ndarray:
        """Ranking scores P + P' for every row, SCORE_CHUNK_ROWS rows at a time."""
        scores = np.empty(len(batch))
        for start in range(0, len(batch), SCORE_CHUNK_ROWS):
            p, pw = self.forward_batch(batch.take(slice(start, start + SCORE_CHUNK_ROWS)))
            np.add(p, pw, out=scores[start : start + SCORE_CHUNK_ROWS])
        return scores

    def backward(self, batch: PackedBatch) -> tuple[tuple[float, float, float], dict]:
        """Analytic gradient of L over every parameter.

        Returns ((L_v, L_w, L), grads), the losses summed over the batch
        with probabilities clamped.  Dense parameters get a float64
        array of their own shape.  An embedding table gets a row-sparse pair
        ``(rows, values)``: the distinct rows the batch reads, ascending, and
        their ``(len(rows), embedding_dim)`` gradient; every other row's
        gradient is zero.  The shared-bottom and embedding gradients
        accumulate both towers' contributions.
        """
        cache = self._forward_arrays(batch)
        y, w = batch.y, batch.w
        pv, pw = (np.clip(cache[f"{tower}.prob"], PROB_CLAMP, 1.0 - PROB_CLAMP) for tower in ("tower_v", "tower_w"))
        l_v = -float(np.sum(y * np.log(pv) + (1.0 - y) * np.log(1.0 - pv)))
        l_w = -float(np.sum(w * (y * np.log(pw) + (1.0 - y) * np.log(1.0 - pw))))
        p = self.params
        grads: dict = {}

        dzb = np.zeros_like(cache["hb"])  # d L / d hb, masked to d L / d zb below
        for tower, scale in (("tower_v", None), ("tower_w", batch.w)):
            dz3 = cache[f"{tower}.prob"] - batch.y
            if scale is not None:
                dz3 *= scale
            h1, h2 = cache[f"{tower}.h1"], cache[f"{tower}.h2"]
            grads[f"{tower}.3.W"] = h2.T @ dz3[:, None]
            grads[f"{tower}.3.b"] = np.array([dz3.sum()])
            dz2 = dz3[:, None] @ _f64(p[f"{tower}.3.W"]).T
            dz2 *= h2 > 0
            grads[f"{tower}.2.W"] = h1.T @ dz2
            grads[f"{tower}.2.b"] = dz2.sum(axis=0)
            dz1 = dz2 @ _f64(p[f"{tower}.2.W"]).T
            dz1 *= h1 > 0
            grads[f"{tower}.1.W"] = cache["hb"].T @ dz1
            grads[f"{tower}.1.b"] = dz1.sum(axis=0)
            dzb += dz1 @ _f64(p[f"{tower}.1.W"]).T

        dzb *= cache["hb"] > 0
        grads["bottom.W"] = cache["x0"].T @ dzb
        grads["bottom.b"] = dzb.sum(axis=0)
        dx0 = dzb @ _f64(p["bottom.W"]).T
        d_emb = self.config.embedding_dim
        for col, slot in enumerate(self.config.slots):
            rows, inverse = np.unique(batch.idx[:, col], return_inverse=True)
            values = np.zeros((rows.size, d_emb))
            np.add.at(values, inverse, dx0[:, col * d_emb : (col + 1) * d_emb])
            grads[f"emb.{slot.name}"] = (rows, values)
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

    def to_bytes(self, extra_config: dict | None = None) -> bytes:
        config_blob = json.dumps(self.config_doc(extra_config), sort_keys=True).encode("utf-8")
        names = list(self.param_shapes(self.config))
        parts = [
            CHECKPOINT_MAGIC,
            struct.pack("<I", CHECKPOINT_VERSION),
            struct.pack("<I", len(config_blob)),
            config_blob,
            struct.pack("<I", len(names)),
        ]
        for name in names:
            tensor = np.ascontiguousarray(self.params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<I", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<I", tensor.ndim))
            parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            parts.append(tensor.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["MtlNetwork", dict]:
        """Checkpoint from its bytes; a cut, extended or corrupt buffer raises ValueError."""
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
            (n_tensors,) = struct.unpack_from("<I", data, offset)
            offset += 4
            params: dict[str, np.ndarray] = {}
            for _ in range(n_tensors):
                (name_len,) = struct.unpack_from("<I", data, offset)
                offset += 4
                name = data[offset : offset + name_len].decode("utf-8")
                offset += name_len
                (rank,) = struct.unpack_from("<I", data, offset)
                offset += 4
                shape = struct.unpack_from(f"<{rank}I", data, offset)
                offset += 4 * rank
                count = int(np.prod(shape)) if rank else 1
                tensor = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(shape)
                offset += 4 * count
                params[name] = tensor.copy()
            if offset != len(data):
                raise ValueError(f"truncated or corrupt checkpoint: {len(data) - offset} trailing bytes")
            return cls(config, params), doc
        except (struct.error, IndexError, KeyError, TypeError) as err:
            raise ValueError(f"truncated or corrupt checkpoint: {err}") from None

    def save(self, path: str, extra_config: dict | None = None) -> None:
        from ._fileio import atomic_write_bytes

        atomic_write_bytes(path, self.to_bytes(extra_config))

    @classmethod
    def load(cls, path: str) -> tuple["MtlNetwork", dict]:
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())
