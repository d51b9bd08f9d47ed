from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from readweight.model import SCORE_CHUNK_ROWS, ModelConfig, MtlNetwork, PackedBatch, SlotSpec
from readweight.training import TrainConfig

from conftest import traced_transient

TINY_CONFIG = ModelConfig(
    slots=(SlotSpec("user_id", 2), SlotSpec("item_id", 2)),
    embedding_dim=3,
    bottom_dim=4,
    tower_dims=(4, 4),
    seed=42,
)


def batch_of(idx, y=None, w=None) -> PackedBatch:
    """A batch from token-index rows; labels and weights default to zero."""
    idx = np.asarray(idx, dtype=np.int32).reshape(len(idx), -1)
    n = idx.shape[0]
    return PackedBatch(
        idx,
        np.zeros(n) if y is None else np.asarray(y, dtype=np.float64),
        np.zeros(n) if w is None else np.asarray(w, dtype=np.float64),
    )


def tiny_batch():
    return batch_of([(0, 1), (1, 0), (1, 1), (0, 0)], [1, 0, 1, 0], [0.4155, 1.0, 2.7726, 0.3])


def loss(net: MtlNetwork, batch: PackedBatch) -> tuple[float, float, float]:
    """(L_v, L_w, L) as training reads them, from ``backward``."""
    return net.backward(batch)[0]


def forward_one(net: MtlNetwork, slots) -> tuple[float, float]:
    p, pw = net.forward_batch(batch_of([slots]))
    return float(p[0]), float(pw[0])


def score_one(net: MtlNetwork, slots) -> float:
    return float(net.score_batch(batch_of([slots]))[0])


def zero_net(config=TINY_CONFIG) -> MtlNetwork:
    net = MtlNetwork(config)
    for name in net.params:
        net.params[name] = np.zeros_like(net.params[name])
    return net


def fd_gradient_check(net: MtlNetwork, batch, h=1e-4, tol=1e-4) -> float:
    """Central finite differences on a float64 clone of every parameter.

    Returns the worst relative mismatch; a floor keeps near-zero entries
    from inflating the ratio beyond finite-difference noise.  Row-sparse
    embedding gradients are scattered into a dense array first.
    """
    net64 = net.astype(np.float64)
    _, grads = net64.backward(batch)
    worst = 0.0
    for name, param in net64.params.items():
        flat = param.reshape(-1)
        grad = grads[name]
        if isinstance(grad, tuple):
            rows, values = grad
            grad = np.zeros_like(param)
            grad[rows] = values
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            _, _, up = loss(net64, batch)
            flat[idx] = keep - h
            _, _, down = loss(net64, batch)
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            an = grad_flat[idx]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
            worst = max(worst, err)
            assert err <= tol, f"{name}[{idx}]: fd={fd!r} analytic={an!r}"
    return worst


class TestForward:
    def test_zero_net_outputs_half(self):
        net = zero_net()
        p, pw = forward_one(net, (0, 1))
        assert p == 0.5
        assert pw == 0.5
        assert score_one(net, (1, 1)) == 1.0

    def test_fixed_seed_golden(self):
        config = ModelConfig(
            slots=(SlotSpec("user_id", 5), SlotSpec("item_id", 7)),
            embedding_dim=4,
            bottom_dim=8,
            tower_dims=(8, 6),
            seed=123,
        )
        net = MtlNetwork(config)
        p, pw = forward_one(net, (2, 3))
        # First run under seed 123 is the oracle; frozen bit-exact.
        assert p == 0.3224345153177954
        assert pw == 0.3197492066336404
        assert score_one(net, (2, 3)) == 0.6421837219514358
        p2, pw2 = forward_one(net, (4, 6))
        assert p2 == 0.3296983384231679
        assert pw2 == 0.29918584518355

    def test_unused_zero_slot_is_inert(self):
        net = MtlNetwork(TINY_CONFIG)
        net.params["emb.item_id"] = np.zeros_like(net.params["emb.item_id"])
        assert forward_one(net, (1, 0)) == forward_one(net, (1, 1))

    def test_index_out_of_range(self):
        net = MtlNetwork(TINY_CONFIG)
        with pytest.raises(IndexError):
            forward_one(net, (0, 5))

    def test_probabilities_in_unit_interval(self):
        net = MtlNetwork(TINY_CONFIG)
        p, pw = net.forward_batch(tiny_batch())
        assert ((p > 0) & (p < 1)).all()
        assert ((pw > 0) & (pw < 1)).all()


def random_batch(rng, net: MtlNetwork, n: int) -> PackedBatch:
    columns = [rng.integers(0, slot.cardinality, n) for slot in net.config.slots]
    return batch_of(np.stack(columns, axis=1))


class TestScoring:
    DIMS = TrainConfig()  # training's default dims
    SCORING_NET = MtlNetwork(ModelConfig(
        (SlotSpec("user_id", 400), SlotSpec("item_id", 90)), DIMS.embedding_dim, DIMS.bottom_dim, DIMS.tower_dims, seed=8
    ))

    def test_chunks_match_one_forward_pass(self, rng):
        n = 5003
        assert SCORE_CHUNK_ROWS < n and n % SCORE_CHUNK_ROWS != 0  # a boundary and a short last chunk
        batch = random_batch(rng, self.SCORING_NET, n)
        p, pw = self.SCORING_NET.forward_batch(batch)
        scores = self.SCORING_NET.score_batch(batch)
        assert scores.shape == (n,) and scores.dtype == np.float64
        assert np.array_equal(scores, p + pw)
        empty = PackedBatch(np.zeros((0, 2), dtype=np.int32), np.zeros(0), np.zeros(0))
        assert self.SCORING_NET.score_batch(empty).shape == (0,)

    def test_peak_memory_is_one_chunk(self, rng):
        """Scoring memory past the 8-byte-per-row output does not grow with the batch."""
        extra = []
        for n in (20_000, 80_000):
            batch = random_batch(rng, self.SCORING_NET, n)
            tracemalloc.start()
            try:
                self.SCORING_NET.score_batch(batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - 8 * n)
        assert abs(extra[1] - extra[0]) < 1e6, extra
        assert max(extra) < 16e6, extra


class TestActivationMemory:
    """Bytes a row costs at a pass's peak beyond its result, at the default
    dims.  The forward pass keeps x0, the post-ReLU activations and the two
    probabilities, 290 float64 a row.  The bounds sit below what a cache
    that also keeps the pre-activations (548 float64 a row) costs: about
    7.2 KB a row in ``backward`` and 4.7 KB in scoring."""

    NET = TestScoring.SCORING_NET

    def test_backward_transient_per_row(self, rng):
        net = self.NET.astype(np.float64)  # training's master weights
        n = 512
        batch = batch_of(random_batch(rng, net, n).idx, rng.integers(0, 2, n), rng.uniform(0, 3, n))
        net.backward(batch)
        per_row = traced_transient(lambda: net.backward(batch)) / n
        assert per_row < 4500, per_row

    def test_score_chunk_transient_per_row(self, rng):
        n = SCORE_CHUNK_ROWS
        batch = random_batch(rng, self.NET, n)
        self.NET.score_batch(batch)
        per_row = traced_transient(lambda: self.NET.score_batch(batch)) / n
        assert per_row < 1600, per_row


class TestLoss:
    def test_hand_arithmetic_example(self):
        net = zero_net()
        batch = batch_of([(0, 0), (1, 1)], [1, 0], [0.4155, 1.0])
        l_v, l_w, l = loss(net, batch)
        assert l_v == pytest.approx(1.3863, abs=1e-4)
        assert l_w == pytest.approx(0.9811, abs=1e-4)
        assert l == pytest.approx(2.3674, abs=1e-4)

    def test_perfect_fit_limit(self):
        net = zero_net()
        net.params["tower_v.3.b"] = np.array([30.0], dtype=np.float32)
        net.params["tower_w.3.b"] = np.array([30.0], dtype=np.float32)
        batch = batch_of([(0, 0)] * 4, [1] * 4, [1.0] * 4)
        _, _, l = loss(net, batch)
        assert l < 1e-6

    def test_weight_linearity(self):
        net = MtlNetwork(TINY_CONFIG)
        batch = tiny_batch()
        l_v1, l_w1, _ = loss(net, batch)
        doubled = batch_of(
            [(0, 1), (1, 0), (1, 1), (0, 0)], [1, 0, 1, 0], [2 * 0.4155, 2 * 1.0, 2 * 2.7726, 2 * 0.3]
        )
        l_v2, l_w2, _ = loss(net, doubled)
        assert l_v2 == l_v1
        assert l_w2 == pytest.approx(2 * l_w1, rel=1e-12)

    def test_weight_one_degenerates_to_bce(self):
        net = MtlNetwork(TINY_CONFIG)
        batch = batch_of([(i % 2, (i + 1) % 2) for i in range(6)], [i % 2 for i in range(6)], [1.0] * 6)
        _, l_w, _ = loss(net, batch)
        _, pw = net.forward_batch(batch)
        manual = -float(
            np.sum(batch.y * np.log(pw) + (1 - batch.y) * np.log(1 - pw))
        )
        assert l_w == pytest.approx(manual, rel=1e-12)


class TestBackward:
    def test_output_bias_gradient_single_positive(self):
        net = zero_net()
        batch = batch_of([(0, 0)], [1], [1.0])
        _, grads = net.backward(batch)
        assert grads["tower_v.3.b"][0] == pytest.approx(-0.5, abs=1e-12)

    def test_gradcheck_mixed_batch(self):
        net = MtlNetwork(TINY_CONFIG)
        worst = fd_gradient_check(net, tiny_batch())
        assert worst <= 1e-4

    def test_gradcheck_single_slot(self, rng):
        config = ModelConfig(
            slots=(SlotSpec("user_id", 3),),
            embedding_dim=3,
            bottom_dim=4,
            tower_dims=(4, 3),
            seed=7,
        )
        net = MtlNetwork(config)
        batch = batch_of(
            rng.integers(3, size=6), rng.integers(2, size=6), rng.uniform(0.1, 2.0, size=6)
        )
        fd_gradient_check(net, batch)

    def test_embedding_gradients_are_row_sparse(self):
        config = ModelConfig(
            slots=(SlotSpec("user_id", 50), SlotSpec("item_id", 40)),
            embedding_dim=3,
            bottom_dim=4,
            tower_dims=(4, 4),
            seed=3,
        )
        net = MtlNetwork(config)
        batch = batch_of([(7, 3), (2, 3), (7, 9)], [1, 0, 1], [0.5, 1.0, 2.0])
        _, grads = net.backward(batch)
        users, user_values = grads["emb.user_id"]
        items, item_values = grads["emb.item_id"]
        assert users.tolist() == [2, 7]
        assert items.tolist() == [3, 9]
        assert user_values.shape == (2, 3)
        assert item_values.shape == (2, 3)

    def test_zero_weight_batch_leaves_tower_w_still(self):
        net = MtlNetwork(TINY_CONFIG)
        batch = batch_of([(0, 1), (1, 0)], [0, 0], [0.0, 0.0])
        _, grads = net.backward(batch)
        for name, grad in grads.items():
            if name.startswith("tower_w"):
                assert not grad.any(), name
            if name.startswith("tower_v"):
                assert grad.any() or "b" in name


class TestCheckpoint:
    def test_round_trip_bytes(self):
        net = MtlNetwork(TINY_CONFIG)
        blob = net.to_bytes({"objective": "vr_ndt"})
        loaded, doc = MtlNetwork.from_bytes(blob)
        assert doc["objective"] == "vr_ndt"
        assert loaded.to_bytes({"objective": "vr_ndt"}) == blob

    def test_scores_bit_exact_after_round_trip(self, tmp_path, rng):
        net = MtlNetwork(TINY_CONFIG)
        path = tmp_path / "model.ckpt"
        net.save(str(path))
        loaded, _ = MtlNetwork.load(str(path))
        batch = batch_of(rng.integers(2, size=(100, 2)))
        assert np.array_equal(loaded.score_batch(batch), net.score_batch(batch))

    def test_nonzero_dense_dim_rejected(self):
        blob = MtlNetwork(TINY_CONFIG).to_bytes({"dense_dim": 2})
        with pytest.raises(ValueError, match="dense"):
            MtlNetwork.from_bytes(blob)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            MtlNetwork.from_bytes(b"NOPE" + b"\x00" * 16)

    def test_every_short_prefix_raises_value_error(self):
        blob = MtlNetwork(TINY_CONFIG).to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                MtlNetwork.from_bytes(blob[:cut])

    def test_trailing_bytes_raise_value_error(self):
        blob = MtlNetwork(TINY_CONFIG).to_bytes()
        for extra in (b"\x00", b"garbage"):
            with pytest.raises(ValueError, match="trailing bytes"):
                MtlNetwork.from_bytes(blob + extra)
