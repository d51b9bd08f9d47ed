from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from readweight.dwell_stats import fit_log_normal
from readweight.evaluation import row_levels
from readweight.events import write_log
from readweight.labeling import composition_report, label_log
from readweight.profiles import build_profiles
from readweight.simulate import (
    SIDECAR_HEADER,
    ItemClass,
    RuleMixConfig,
    Sidecar,
    SimConfig,
    generate,
    generate_migration_pair,
    generate_rule_mix,
    _norm_cdf,
    short_read_lift,
    sidecar_csv,
)

from conftest import (
    EDGE_FLOATS,
    SPAN_EDGES,
    analytic_click_rate,
    analytic_light_user_fraction,
    assert_same_events,
    edge_table,
    row_ids,
    serialize_event,
    sidecar_text,
    traced_transient,
    weekly_click_counts,
)

SINGLE_CLASS = (ItemClass("only", 1.0, 4.003, 1.295),)


def test_norm_cdf_takes_empty_input():
    x = np.array([-3.0, -0.5, 0.0, 0.7, 4.0])
    assert _norm_cdf(x).tolist() == [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()]
    empty = _norm_cdf(np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64


class TestOrganicGenerator:
    def test_deterministic(self):
        cfg = SimConfig(n_users=200, n_items=60, seed=5)
        a, sa = generate(cfg)
        b, sb = generate(cfg)
        assert_same_events(a, b)
        assert sidecar_csv(a, sa) == sidecar_csv(b, sb)

    def test_different_seeds_differ(self):
        a, _ = generate(SimConfig(n_users=50, n_items=20, seed=1))
        b, _ = generate(SimConfig(n_users=50, n_items=20, seed=2))
        assert [serialize_event(e) for e in a] != [serialize_event(e) for e in b]

    def test_zero_click_probability(self):
        cfg = SimConfig(n_users=100, n_items=30, click_bias=-math.inf, seed=3)
        events, _ = generate(cfg)
        assert len(events)
        assert not events.clicked.any()
        assert (events.dwell_time_s == 0.0).all()

    def test_stats_recover_configured_class(self):
        cfg = SimConfig(
            n_users=5000,
            n_items=400,
            click_bias=math.inf,
            item_classes=SINGLE_CLASS,
            affinity_dt_coef=0.0,
            seed=11,
        )
        events, _ = generate(cfg)
        clicks = int(events.clicked.sum())
        assert clicks > 100_000
        stats = fit_log_normal(events)
        assert stats.mu == pytest.approx(4.003, abs=0.02)
        assert stats.sigma == pytest.approx(1.295, abs=0.02)

    def test_click_rate_matches_quadrature(self):
        cfg = SimConfig(
            n_users=43_000,
            n_items=2500,
            latent_dim=4,
            user_scale=1.0,
            item_scale=0.5,
            click_bias=-1.5,
            seed=77,
        )
        events, _ = generate(cfg)
        assert len(events) > 950_000
        empirical = int(events.clicked.sum()) / len(events)
        assert empirical == pytest.approx(analytic_click_rate(cfg), abs=0.01)

    def test_light_user_fraction_matches_mix(self):
        cfg = SimConfig(n_users=12_000, n_items=2500, item_scale=0.5, click_bias=-1.5, seed=77)
        events, _ = generate(cfg)
        # Level 1 under the one boundary 7: fewer than 7 clicks in the week.
        levels, _ = row_levels(events, (7,))
        user_level = dict(zip(row_ids(events)[0], levels.tolist()))
        empirical = sum(1 for level in user_level.values() if level == 1) / len(user_level)
        assert empirical == pytest.approx(analytic_light_user_fraction(cfg), abs=0.01)

    def test_per_class_ln_dt_mean(self):
        classes = (
            ItemClass("short", 0.5, 3.0, 0.9),
            ItemClass("long", 0.5, 5.0, 1.1),
        )
        cfg = SimConfig(
            n_users=10_000,
            n_items=600,
            click_bias=math.inf,
            affinity_dt_coef=0.0,
            item_classes=classes,
            seed=13,
        )
        events, sidecar = generate(cfg)
        item_class = np.array(sidecar.item_class)
        for cls in classes:
            values = np.log(events.dwell_time_s[events.clicked & (item_class == cls.name)])
            assert len(values) > 100_000
            assert np.mean(values) == pytest.approx(cls.ln_dt_mean, abs=0.02)

    def test_sidecar_alignment_and_propensity(self):
        cfg = SimConfig(n_users=100, n_items=40, item_classes=SINGLE_CLASS, seed=9)
        events, sidecar = generate(cfg)
        for column in (sidecar.affinity, sidecar.user_level, sidecar.item_class, sidecar.vr_propensity):
            assert len(column) == len(events)
        header, *rows = sidecar_csv(events, sidecar).splitlines()
        assert header == SIDECAR_HEADER
        for event, row in zip(events, rows):
            assert row.split(",")[:4] == serialize_event(event).split(",")[:4]
        assert ((0.0 <= sidecar.vr_propensity) & (sidecar.vr_propensity <= 1.0)).all()
        assert ((1 <= sidecar.user_level) & (sidecar.user_level <= 7)).all()
        users, _ = row_ids(events)
        level_of = dict(zip(users, sidecar.user_level.tolist()))
        assert all(level_of[u] == level for u, level in zip(users, sidecar.user_level.tolist()))
        # Single class, no affinity shift: propensity = P(lnT > ln 15).
        expected = 1 - 0.5 * (1 + math.erf((math.log(15) - 4.003) / (1.295 * math.sqrt(2))))
        assert sidecar.vr_propensity == pytest.approx(np.full(len(events), expected), abs=1e-9)

    @pytest.mark.parametrize("n", SPAN_EDGES)
    def test_sidecar_csv_matches_per_row_oracle(self, n):
        """On both sides of each span's end, with non-ASCII ids and class
        names and floats whose text is easy to get wrong."""
        rng = np.random.default_rng(n)
        floats = np.array([*EDGE_FLOATS, -1e-5, -2.5])
        sidecar = Sidecar(
            affinity=floats[rng.integers(len(floats), size=n)],
            user_level=rng.integers(1, 8, size=n),
            item_class=[("short", "länge", "长")[k] for k in rng.integers(3, size=n).tolist()],
            vr_propensity=np.where(rng.random(n) < 0.5, rng.random(n), floats[rng.integers(len(floats), size=n)]),
        )
        events = edge_table(n, rng)
        assert sidecar_csv(events, sidecar) == sidecar_text(events, sidecar)

    def test_generated_sidecar_matches_per_row_oracle(self):
        events, sidecar = generate(SimConfig(n_users=3000, n_items=200, seed=4))
        assert len(events) > 2**16
        assert sidecar_csv(events, sidecar) == sidecar_text(events, sidecar)

    def test_generate_holds_one_span_of_temporaries(self):
        """The per-row quantities are worked out a span at a time.  At
        139,192 rows, whole-column temporaries held 112 B a row beyond the
        result."""
        cfg = SimConfig(n_users=6000, n_items=600, seed=0)
        n = len(generate(cfg)[0])
        per_row = traced_transient(lambda: generate(cfg)) / n
        assert n > 2 * 2**16
        assert per_row <= 85, per_row

    def test_generate_writes_into_its_draws(self):
        """At size S, one span, that span's temporaries set the peak.  Dwell
        and propensity take the memory of the noise and coin draws the span
        has read; with arrays of their own the transient was 128 B a row."""
        cfg = SimConfig(n_users=2000, n_items=300, seed=0)
        n = len(generate(cfg)[0])
        per_row = traced_transient(lambda: generate(cfg)) / n
        assert n < 2**16
        assert per_row <= 120, per_row

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_users=0)
        with pytest.raises(ValueError):
            SimConfig(activeness_mix=(0.5, 0.5), impressions_per_level=(1, 2, 3))
        with pytest.raises(ValueError):
            SimConfig(activeness_mix=(0.5, 0.2, 0.1, 0.1, 0.05, 0.03, 0.01))


class TestRuleMixGenerator:
    def test_exact_mix_recovered_by_pipeline(self):
        cfg = RuleMixConfig(n_valid_reads=10_000, mix=(0.8, 0.1, 0.1), seed=3)
        corpus = generate_rule_mix(cfg)
        store = build_profiles(corpus.events)
        labeled = label_log(corpus.events, corpus.stats, store)
        report = composition_report(labeled)
        for source in ("T1", "T2", "T3"):
            assert report["valid_read_source_fractions"][source] == pytest.approx(
                corpus.analytic_mix[source], abs=0.01
            )
        assert report["counts"]["InvalidClick"] == corpus.analytic_counts["InvalidClick"]
        assert report["counts"]["NoiseClick"] == corpus.analytic_counts["NoiseClick"]
        assert report["counts"]["NotClicked"] == corpus.analytic_counts["NotClicked"]

    def test_alternate_mix(self):
        cfg = RuleMixConfig(n_valid_reads=6_000, mix=(0.6, 0.25, 0.15), seed=8)
        corpus = generate_rule_mix(cfg)
        store = build_profiles(corpus.events)
        labeled = label_log(corpus.events, corpus.stats, store)
        report = composition_report(labeled)
        for source in ("T1", "T2", "T3"):
            assert report["valid_read_source_fractions"][source] == pytest.approx(
                corpus.analytic_mix[source], abs=0.01
            )

    def test_deterministic(self, tmp_path):
        cfg = RuleMixConfig(n_valid_reads=2_000, seed=21)
        a = generate_rule_mix(cfg)
        b = generate_rule_mix(cfg)
        assert_same_events(a.events, b.events)
        write_log(tmp_path / "a.csv", a.events)
        write_log(tmp_path / "b.csv", b.events)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "cfg, golden",
        [
            (RuleMixConfig(), "355482582265047c6863940555be245d3e006699d69f2ec017025d1b048657e3"),
            (RuleMixConfig(seed=6), "146dd38e29e4c7d9dc07408b87f73dbd48f55dfea8f8cd702a9151ee23c2d088"),
            (RuleMixConfig(n_valid_reads=500, seed=4), "42ab2afe8eda5cccb614f3e80f9e01938dac9ef245c46f4a7a9691bda1da8b57"),
            (
                RuleMixConfig(n_valid_reads=6000, mix=(0.6, 0.25, 0.15), seed=8),
                "be7ce7d071960d97eeb41051743fe0e4570a5e7af2f6815a217a68910d68cf18",
            ),
            (
                RuleMixConfig(n_valid_reads=100, mix=(1.0, 0.0, 0.0), noise_frac=3.0, unclicked_frac=0.0, seed=1),
                "920bb9ffddbd165685822851630a4e950165086efd328a0b8209d0d1c7b295f0",
            ),
            (
                RuleMixConfig(n_valid_reads=2000, mix=(0.1, 0.9, 0.0), seed=2),
                "146684e614f1cd35cf5a2f4aacb42fccc722e45a680510429c6bb0a86655a5a5",
            ),
            (
                RuleMixConfig(n_valid_reads=70, mix=(0.1, 0.0, 0.9), seed=9),
                "3f3a9eefbab2ec3da4acb4a0f5667bf8b45b61d5fa5e61d2d8d4798f559f5b08",
            ),
        ],
        ids=["default", "seed-6", "small", "alternate-mix", "t1-and-noise", "t2-heavy", "t3-heavy"],
    )
    def test_log_matches_golden_sha256(self, tmp_path, cfg, golden):
        """sha256 of the written corpus: each part's draws, dealt to the same
        rows, at configs that empty T2, T3, noise or unclicked in turn.  The
        hashes come from x86-64 Linux with Python 3.11 and numpy 2.4."""
        write_log(tmp_path / "log.csv", generate_rule_mix(cfg).events)
        assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest() == golden

    def test_planted_stats_threshold(self):
        corpus = generate_rule_mix(RuleMixConfig(n_valid_reads=2_000, seed=2))
        assert corpus.stats.x_l == pytest.approx(15.0, rel=1e-12)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RuleMixConfig(mix=(0.5, 0.2, 0.2))


class TestMigrationPair:
    def test_lift_is_monotone(self):
        grid = np.linspace(0, 300, 4000)
        lifted = [short_read_lift(t, 8.0, 40.0) for t in grid]
        assert all(a < b for a, b in zip(lifted, lifted[1:]))
        assert short_read_lift(0.0, 8.0, 40.0) == 8.0
        assert short_read_lift(300.0, 8.0, 40.0) == pytest.approx(300.0, abs=0.01)

    def test_pair_structure(self):
        pair = generate_migration_pair(SimConfig(n_users=400, n_items=120, seed=4))
        base, treat = pair.baseline, pair.treatment
        assert len(base) == len(treat)
        assert pair.lifted_users
        assert row_ids(base) == row_ids(treat)
        assert np.array_equal(base.timestamp, treat.timestamp)
        assert np.array_equal(base.clicked, treat.clicked)
        lifted = base.clicked & np.array([u in pair.lifted_users for u in row_ids(base)[0]])
        assert lifted.any()
        assert np.array_equal(treat.dwell_time_s[~lifted], base.dwell_time_s[~lifted])
        short = lifted & (base.dwell_time_s < 300.0)
        assert (treat.dwell_time_s[short] > base.dwell_time_s[short]).all()
        # Past a few scale lengths the lift is below float resolution.
        assert (treat.dwell_time_s[lifted] >= base.dwell_time_s[lifted]).all()
        expected = [short_read_lift(t, 8.0, 40.0) for t in base.dwell_time_s[lifted].tolist()]
        assert treat.dwell_time_s[lifted].tolist() == expected

    def test_weekly_counts_unchanged(self):
        pair = generate_migration_pair(SimConfig(n_users=300, n_items=90, seed=6))
        assert weekly_click_counts(pair.baseline) == weekly_click_counts(pair.treatment)

    def test_shift_must_stay_below_scale(self):
        with pytest.raises(ValueError):
            generate_migration_pair(SimConfig(n_users=50, n_items=20, seed=1), shift_s=50, shift_scale_s=40)
