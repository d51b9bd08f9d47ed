from __future__ import annotations

import math

import numpy as np
import pytest

from readweight.labeling import LabeledLog, LabelKind, ValidReadLabel, ValidReadSource
from readweight.model import MtlNetwork, PackedBatch
from readweight.ndt import ndt, paper_default_params
from readweight.training import (
    Adam,
    FeatureSpace,
    TrainConfig,
    TrainingDivergedError,
    build_instances,
    checkpoint_extra_config,
    epoch_order,
    pack_instances,
    score_events,
    space_from_checkpoint,
    trace_csv,
    train,
)

from conftest import make_event

PARAMS = paper_default_params()


def labeled(kind, source, clicked, dwell, user="u1", item="i1"):
    event = make_event(user_id=user, item_id=item, clicked=clicked, dwell_time_s=dwell)
    return event, ValidReadLabel(kind, source)


VALID15 = labeled(LabelKind.VALID_READ, ValidReadSource.T1, True, 15.0)
INVALID8 = labeled(LabelKind.INVALID_CLICK, None, True, 8.0)
NOISE3 = labeled(LabelKind.NOISE_CLICK, None, True, 3.0)
UNCLICKED = labeled(LabelKind.NOT_CLICKED, None, False, 0.0)


def log_of(*rows):
    return LabeledLog.from_pairs(rows)


class TestBuildInstances:
    def test_vr_ndt_positive(self):
        batch, _ = build_instances(log_of(VALID15), PARAMS, TrainConfig(objective="vr_ndt"))
        assert batch.y[0] == 1
        assert batch.w[0] == pytest.approx(0.4155, abs=1e-3)

    def test_vr_ndt_negative_unit(self):
        batch, _ = build_instances(log_of(INVALID8), PARAMS, TrainConfig(objective="vr_ndt"))
        assert batch.y[0] == 0
        assert batch.w[0] == 1.0

    def test_vr_logdt_positive(self):
        batch, _ = build_instances(log_of(VALID15), PARAMS, TrainConfig(objective="vr_logdt"))
        assert batch.w[0] == pytest.approx(math.log(16.0), rel=1e-12)

    def test_literal_mode_zeroes_unclicked(self):
        cfg = TrainConfig(objective="vr_ndt", neg_mode="literal")
        batch, _ = build_instances(log_of(UNCLICKED, NOISE3), PARAMS, cfg)
        assert batch.w[0] == pytest.approx(0.0, abs=1e-12)
        assert 0 < batch.w[1] < 0.1

    def test_ctr_objectives_use_clicks(self):
        for objective in ("single_ctr", "ctr_logdt"):
            cfg = TrainConfig(objective=objective)
            batch, _ = build_instances(log_of(INVALID8, UNCLICKED), PARAMS, cfg)
            assert batch.y.tolist() == [1, 0]

    def test_single_ctr_disables_weighted_tower(self):
        batch, _ = build_instances(log_of(VALID15, UNCLICKED), PARAMS, TrainConfig(objective="single_ctr"))
        assert batch.w.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("neg_mode", ["unit", "literal"])
    def test_weights_follow_the_ndt_rule(self, rng, neg_mode):
        """Valid reads weigh ndt(T); negatives weigh 1.0 in unit mode and
        ndt(T) in literal mode."""
        kinds = [
            (LabelKind.VALID_READ, ValidReadSource.T2, True),
            (LabelKind.INVALID_CLICK, None, True),
            (LabelKind.NOISE_CLICK, None, True),
            (LabelKind.NOT_CLICKED, None, False),
        ]
        rows = []
        for k in range(200):
            kind, source, clicked = kinds[k % 4]
            dwell = 5.0 + float(rng.exponential(40.0)) if clicked else 0.0
            rows.append(labeled(kind, source, clicked, dwell))
        cfg = TrainConfig(objective="vr_ndt", neg_mode=neg_mode)
        batch, _ = build_instances(log_of(*rows), PARAMS, cfg)
        for (event, label), w in zip(rows, batch.w, strict=True):
            positive = label.kind is LabelKind.VALID_READ
            expected = ndt(event.dwell_time_s, PARAMS) if positive or neg_mode == "literal" else 1.0
            assert abs(w - expected) <= 1e-12

    def test_vocabulary_is_sorted_and_shared(self):
        rows = [
            labeled(LabelKind.VALID_READ, ValidReadSource.T1, True, 20.0, user="zz", item="b"),
            labeled(LabelKind.NOT_CLICKED, None, False, 0.0, user="aa", item="a"),
        ]
        batch, space = build_instances(log_of(*rows), PARAMS, TrainConfig())
        assert space.user_vocab == ("aa", "zz")
        assert space.item_vocab == ("a", "b")
        assert batch.idx.tolist() == [[2, 2], [1, 1]]
        assert space.encode(["zz", "unknown"], ["a", "a"]).tolist() == [[2, 1], [0, 1]]

    def test_encode_matches_dict_lookup(self, rng):
        vocab = ["a", "a\x00", "b", "ab", "\x00", "é", "u000001"]
        space = FeatureSpace(tuple(sorted(vocab[:5])), tuple(sorted(vocab[2:])))
        pool = vocab + ["", "a\x00\x00", "zz", "b\x00"]
        users = [pool[k] for k in rng.integers(len(pool), size=300)]
        items = [pool[k] for k in rng.integers(len(pool), size=300)]
        user_index = {u: i + 1 for i, u in enumerate(space.user_vocab)}
        item_index = {t: i + 1 for i, t in enumerate(space.item_vocab)}
        idx = space.encode(users, items)
        assert idx.dtype == np.int32 and idx.shape == (300, 2)
        assert idx[:, 0].tolist() == [user_index.get(u, 0) for u in users]
        assert idx[:, 1].tolist() == [item_index.get(t, 0) for t in items]
        # A trailing NUL makes a different id, never the same token.
        pair = space.encode(["a", "a\x00"], ["b", "b\x00"])
        assert pair.tolist() == [[user_index["a"], item_index["b"]], [user_index["a\x00"], 0]]
        assert user_index["a"] != user_index["a\x00"]
        empty = FeatureSpace((), ())
        assert empty.encode(users, items).tolist() == [[0, 0]] * 300
        assert empty.encode([], []).shape == (0, 2)


def toy_rows(n_per_class=40):
    """Linearly separable toy: user A always valid-reads item x, user B never."""
    rows = []
    for k in range(n_per_class):
        rows.append(labeled(LabelKind.VALID_READ, ValidReadSource.T1, True, 30.0, "A", "x"))
        rows.append(labeled(LabelKind.NOT_CLICKED, None, False, 0.0, "B", "y"))
    return log_of(*rows)


class TestTrain:
    def test_loss_shrinks_on_separable_toy(self):
        cfg = TrainConfig(objective="vr_ndt", epochs=40, batch_size=16, learning_rate=0.01, seed=1)
        batch, space = build_instances(toy_rows(), PARAMS, cfg)
        result = train(cfg, batch, space)
        assert result.trace[-1].l_v < 0.1 * result.trace[0].l_v

    def test_deterministic_checkpoints(self):
        cfg = TrainConfig(objective="vr_ndt", epochs=2, batch_size=8, seed=9)
        batch, space = build_instances(toy_rows(10), PARAMS, cfg)
        a = train(cfg, batch, space)
        b = train(cfg, batch, space)
        extra_a = checkpoint_extra_config(a)
        extra_b = checkpoint_extra_config(b)
        assert a.network.to_bytes(extra_a) == b.network.to_bytes(extra_b)

    def test_single_ctr_keeps_tower_w_at_init(self):
        cfg = TrainConfig(objective="single_ctr", epochs=3, batch_size=8, seed=5)
        batch, space = build_instances(toy_rows(10), PARAMS, cfg)
        result = train(cfg, batch, space)
        fresh = MtlNetwork(result.network.config)
        for name in fresh.params:
            if name.startswith("tower_w"):
                assert np.array_equal(result.network.params[name], fresh.params[name]), name
            elif name.startswith("tower_v"):
                assert not np.array_equal(result.network.params[name], fresh.params[name]), name

    def test_checkpoint_scores_survive_round_trip(self, tmp_path, rng):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2)
        batch, space = build_instances(toy_rows(10), PARAMS, cfg)
        result = train(cfg, batch, space)
        path = tmp_path / "model.ckpt"
        result.network.save(str(path), checkpoint_extra_config(result))
        loaded, doc = MtlNetwork.load(str(path))
        loaded_space = space_from_checkpoint(doc)
        log = log_of(
            *(
                labeled(LabelKind.INVALID_CLICK, None, True, 20.0, rng.choice(["A", "B", "C"]), rng.choice(["x", "y"]))
                for _ in range(100)
            )
        )
        original = score_events(result.network, space, log)
        reloaded = score_events(loaded, loaded_space, log)
        assert np.array_equal(original, reloaded)

    def test_shuffle_is_pure_function_of_seed_epoch(self):
        a = epoch_order(7, 3, 1000)
        b = epoch_order(7, 3, 1000)
        c = epoch_order(7, 4, 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_divergence_aborts(self):
        cfg = TrainConfig(epochs=1, batch_size=4)
        batch, space = build_instances(toy_rows(4), PARAMS, cfg)
        bad = PackedBatch(batch.idx, batch.y, np.full(len(batch), math.inf))
        with pytest.raises(TrainingDivergedError):
            train(cfg, bad, space)

    def test_empty_instances_rejected(self):
        space = FeatureSpace((), ())
        with pytest.raises(ValueError):
            train(TrainConfig(), pack_instances(log_of(), space), space)

    @pytest.mark.parametrize("y, w", [(2.0, 1.0), (1.0, -1.0), (0.0, math.nan)])
    def test_bad_rows_rejected(self, y, w):
        cfg = TrainConfig(epochs=1, batch_size=4)
        batch, space = build_instances(toy_rows(4), PARAMS, cfg)
        batch.y[5] = y
        batch.w[5] = w
        with pytest.raises(ValueError, match="row 5"):
            train(cfg, batch, space)

    def test_trace_csv(self):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        batch, space = build_instances(toy_rows(5), PARAMS, cfg)
        result = train(cfg, batch, space)
        text = trace_csv(result.trace)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,L_v,L_w,L"
        assert len(lines) == 3
        assert lines[1].startswith("0,")


def dense_adam_reference(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam over float64 arrays: every row takes every step."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g * g
            m_hat = m[name] / (1 - b1**t)
            v_hat = v[name] / (1 - b2**t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


class TestRowSparseAdam:
    STEPS = 800

    def schedule(self, rng, n_rows):
        """Rows touched per step: never (0-9), often (10-29), rarely
        (30-49), and a few on gaps longer than the catch-up horizon."""
        p_touch = np.zeros(n_rows)
        p_touch[10:30] = 0.5
        p_touch[30:50] = 0.02
        pinned = {50: (1, 800), 51: (5, 450), 52: (3,), 53: (2, 399, 798), 54: (600,)}
        steps = []
        for t in range(1, self.STEPS + 1):
            touched = rng.random(n_rows) < p_touch
            for row, at in pinned.items():
                touched[row] = t in at
            steps.append(np.flatnonzero(touched))
        return steps

    def test_matches_dense_adam(self, rng):
        n_rows, dim, lr = 60, 4, 0.01
        start = {"emb": rng.normal(size=(n_rows, dim)), "dense": rng.normal(size=(5, 3))}
        params = {k: v.copy() for k, v in start.items()}
        opt = Adam(params, lr=lr, row_sparse=["emb"])
        assert self.STEPS > opt.horizon + 100
        dense_grads = []
        for rows in self.schedule(rng, n_rows):
            # Gradient scales span three decades, as embedding rows do.
            values = rng.normal(size=(rows.size, dim)) * np.exp(rng.uniform(-3, 3, (rows.size, 1)))
            g_dense = rng.normal(size=(5, 3))
            full = np.zeros((n_rows, dim))
            full[rows] = values
            dense_grads.append({"emb": full, "dense": g_dense})
            opt.catch_up(params, {"emb": rows})
            opt.step(params, {"emb": (rows, values), "dense": g_dense})
        opt.catch_up(params)
        assert (opt.last["emb"] == self.STEPS).all()

        reference = dense_adam_reference(start, dense_grads, lr)
        np.testing.assert_array_equal(params["emb"][:10], start["emb"][:10])
        for name in ("emb", "dense"):
            moved = np.abs(reference[name] - start[name]).max()
            assert moved > 0.1, name
            gap = np.abs(params[name] - reference[name]) / np.maximum(np.abs(reference[name]), 1.0)
            assert gap.max() <= 1e-5, (name, gap.max())

    def test_catch_up_state_matches_dense_mid_run(self, rng):
        """Rows read by a batch are exactly where dense Adam has them."""
        n_rows, dim, lr = 60, 4, 0.01
        start = {"emb": rng.normal(size=(n_rows, dim))}
        params = {"emb": start["emb"].copy()}
        opt = Adam(params, lr=lr, row_sparse=["emb"])
        ref = start["emb"].copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        worst = 0.0
        for t, rows in enumerate(self.schedule(rng, n_rows), start=1):
            opt.catch_up(params, {"emb": rows})
            scale = np.maximum(np.abs(ref[rows]), 1.0)
            worst = max(worst, float((np.abs(params["emb"][rows] - ref[rows]) / scale).max(initial=0.0)))
            values = rng.normal(size=(rows.size, dim))
            opt.step(params, {"emb": (rows, values)})
            g = np.zeros_like(ref)
            g[rows] = values
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert worst <= 1e-5

    def test_rejects_float32_parameters(self):
        with pytest.raises(TypeError):
            Adam({"w": np.zeros(3, dtype=np.float32)}, lr=0.1)


class TestConfigValidation:
    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="dwell_only")

    def test_unknown_neg_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(neg_mode="half")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
