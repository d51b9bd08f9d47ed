"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[ACCEPTANCE] criterion N: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them).  Published AUC
magnitudes are reproduced arithmetically, never re-measured: the corpora
here are synthetic.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from readweight.cli import main as cli_main
from readweight.dwell_stats import fit_log_normal
from readweight.evaluation import auc, migration_report, relaimpr
from readweight.labeling import (
    LabelKind,
        ValidReadSource,
    composition_report,
    label_log,
)
from readweight.model import ModelConfig, MtlNetwork
from readweight.ndt import NdtParams, derive_scale, ndt, paper_default_params
from readweight.profiles import ItemDwellProfile, build_profiles
from readweight.quantiles import QuantileEstimator, nearest_rank
from readweight.simulate import (
    ItemClass,
    RuleMixConfig,
    SimConfig,
    generate,
    generate_migration_pair,
    generate_rule_mix,
    short_read_lift,
)
from readweight.training import FeatureSpace, TrainConfig, build_instances, score_events, train

from conftest import activeness_level, event_table, label_one, labeled_of, make_event, weekly_click_counts
from test_model import fd_gradient_check


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_ndt_constants():
    t0 = time.monotonic()
    a, b = derive_scale(15.0, 20.0, 1.575)
    params = paper_default_params()
    values = {t: float(ndt(t, params)) for t in (0.0, 15.0, 35.0)}
    elapsed = time.monotonic() - t0
    ok = (
        abs(a - 2.319) <= 1e-3
        and abs(b - 0.744) <= 1e-3
        and abs(values[0.0] - 0.0000) <= 1e-3
        and abs(values[15.0] - 0.4155) <= 1e-3
        and abs(values[35.0] - 0.9513) <= 1e-3
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"(a,b)=({a:.4f},{b:.4f}), ndt(0,15,35)=({values[0.0]:.4f},{values[15.0]:.4f},"
        f"{values[35.0]:.4f}), {elapsed:.3f}s",
    )


def test_c02_relaimpr_table():
    targets = [(0.7849, 0.0139), (0.7932, 0.0434), (0.7968, 0.0562)]
    results = [(relaimpr(value, 0.7810), expected) for value, expected in targets]
    worst = max(abs(got - expected) for got, expected in results)
    # 0.01 percentage points on the percent scale = 1e-4 on the fraction.
    report(2, worst <= 1e-4, f"worst deviation {worst:.2e} over {len(targets)} table entries")


def test_c03_threshold_recovery():
    t0 = time.monotonic()
    cfg = SimConfig(
        n_users=4400,
        n_items=500,
        click_bias=math.inf,
        affinity_dt_coef=0.0,
        item_classes=(ItemClass("only", 1.0, 4.003, 1.295),),
        seed=1903,
    )
    events, _ = generate(cfg)
    n_clicks = int(events.clicked.sum())
    stats = fit_log_normal(events)
    elapsed = time.monotonic() - t0
    ok = (
        n_clicks >= 100_000
        and 14.5 <= stats.x_l <= 15.5
        and 193.0 <= stats.x_h <= 207.0
        and elapsed < 5.0
    )
    report(
        3,
        ok,
        f"n={n_clicks}, x_l={stats.x_l:.3f} in [14.5,15.5], x_h={stats.x_h:.2f} in [193,207], "
        f"{elapsed:.2f}s",
    )


def _stats_with_xl(x_l: float, sigma: float = 1.3):
    from readweight.dwell_stats import DwellStats

    mu = math.log(x_l) + sigma
    return DwellStats(mu=mu, sigma=sigma, n=1000, x_l=x_l, x_h=math.exp(mu + sigma))


def test_c04_labeler_goldens_and_planted_mix():
    stats = _stats_with_xl(15.0)
    heavy = sorted(1_700_000_000 - k * 3600 for k in range(10))
    light = sorted(1_700_000_000 - k * 3600 for k in range(3))

    def item_with(records):
        estimator = QuantileEstimator()
        for r in records:
            estimator.observe(r)
        return ItemDwellProfile("i", estimator)

    goldens = [
        (make_event(dwell_time_s=20.0), None, heavy, LabelKind.VALID_READ, ValidReadSource.T1),
        (make_event(dwell_time_s=4.0), item_with([1.0]), light, LabelKind.NOISE_CLICK, None),
        (make_event(dwell_time_s=8.0), None, light, LabelKind.VALID_READ, ValidReadSource.T2),
        (
            make_event(dwell_time_s=8.0),
            item_with([6.0] * 10),
            heavy,
            LabelKind.VALID_READ,
            ValidReadSource.T3,
        ),
        (make_event(dwell_time_s=8.0), item_with([9.0] * 10), heavy, LabelKind.INVALID_CLICK, None),
        (make_event(clicked=False, dwell_time_s=0.0), None, None, LabelKind.NOT_CLICKED, None),
    ]
    goldens_ok = all(
        (lambda l: l.kind is kind and l.source is source)(
            label_one(event, stats, item, user)
        )
        for event, item, user, kind, source in goldens
    )

    # Planted rule mix at the 1e5-event scale through the real two-pass
    # pipeline (profiles built from the corpus, stats as planted).
    corpus = generate_rule_mix(RuleMixConfig(n_valid_reads=48_000, mix=(0.8, 0.1, 0.1), seed=4))
    store = build_profiles(corpus.events)
    rep = composition_report(label_log(corpus.events, corpus.stats, store))
    mix_dev = max(
        abs(rep["valid_read_source_fractions"][s] - corpus.analytic_mix[s])
        for s in ("T1", "T2", "T3")
    )

    t1_counts = []
    for x_l in (5.0, 10.0, 15.0, 20.0, 40.0):
        labeled = label_log(corpus.events, _stats_with_xl(x_l), store)
        t1_counts.append(composition_report(labeled)["valid_read_source_counts"]["T1"])
    monotone = all(a >= b for a, b in zip(t1_counts, t1_counts[1:]))

    ok = goldens_ok and mix_dev <= 0.01 and monotone
    report(
        4,
        ok,
        f"6 goldens {'exact' if goldens_ok else 'BROKEN'}, mix deviation {mix_dev:.4f} <= 0.01 "
        f"on {len(corpus.events)} events, T1 counts {t1_counts} non-increasing: {monotone}",
    )


def _rank_error(sorted_data: np.ndarray, value: float, p: float) -> float:
    n = len(sorted_data)
    target = nearest_rank(p, n)
    lo = int(np.searchsorted(sorted_data, value, side="left")) + 1
    hi = int(np.searchsorted(sorted_data, value, side="right"))
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


def test_c05_quantile_sketch():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    data = rng.lognormal(4.0, 1.3, 1_000_000)
    exact = np.sort(data)

    full = QuantileEstimator(eps=0.01)
    for v in data.tolist():
        full.observe(v)
    worst_full = max(_rank_error(exact, full.query(d / 10), d / 10) for d in range(1, 10))

    left = QuantileEstimator(eps=0.01)
    right = QuantileEstimator(eps=0.01)
    for v in data[:500_000].tolist():
        left.observe(v)
    for v in data[500_000:].tolist():
        right.observe(v)
    merged = left.merge(right)
    worst_merged = max(_rank_error(exact, merged.query(d / 10), d / 10) for d in range(1, 10))
    elapsed = time.monotonic() - t0
    ok = worst_full <= 0.01 and worst_merged <= 0.02 and elapsed < 30.0
    report(
        5,
        ok,
        f"single-stream worst decile rank error {worst_full:.4f} <= 0.01, merged halves "
        f"{worst_merged:.4f} <= 0.02, {elapsed:.1f}s < 30s",
    )


def test_c06_gradient_check_all_objectives():
    t0 = time.monotonic()
    params = paper_default_params()
    rows = []
    specs = [
        (LabelKind.VALID_READ, ValidReadSource.T1, True, 25.0),
        (LabelKind.VALID_READ, ValidReadSource.T2, True, 8.0),
        (LabelKind.INVALID_CLICK, None, True, 9.0),
        (LabelKind.NOISE_CLICK, None, True, 2.0),
        (LabelKind.NOT_CLICKED, None, False, 0.0),
        (LabelKind.VALID_READ, ValidReadSource.T3, True, 12.0),
    ]
    from readweight.labeling import ValidReadLabel

    users = ["a", "b", "a", "b", "a", "b"]
    items = ["x", "y", "y", "x", "y", "x"]
    for (kind, source, clicked, dwell), user, item in zip(specs, users, items):
        event = make_event(user_id=user, item_id=item, clicked=clicked, dwell_time_s=dwell)
        rows.append((event, ValidReadLabel(kind, source)))

    log = labeled_of(rows)
    space = FeatureSpace.of(log.events)
    config = ModelConfig(slots=space.slots(), embedding_dim=3, bottom_dim=4, tower_dims=(4, 4), seed=402)
    worst = 0.0
    for objective in ("single_ctr", "ctr_logdt", "vr_logdt", "vr_ndt"):
        for neg_mode in ("unit", "literal"):
            cfg = TrainConfig(objective=objective, neg_mode=neg_mode)
            batch, _ = build_instances(log, params, cfg, space)
            net = MtlNetwork(config)
            worst = max(worst, fd_gradient_check(net, batch, tol=1e-4))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(
        6,
        ok,
        f"worst relative gradient error {worst:.2e} <= 1e-4 over 4 objectives x 2 neg modes, "
        f"{elapsed:.1f}s < 60s",
    )


def test_c07_auc_oracle():
    rng = np.random.default_rng(7001)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 1001))
        if rng.random() < 0.5:
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9], size=n)
        else:
            scores = rng.normal(size=n)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        fast = auc(scores, labels)
        assert fast == brute, f"trial {trial}: {fast!r} != {brute!r}"
        checked += 1
    report(7, checked == 200, f"sort-based AUC == quadratic oracle on {checked}/200 instances")


def _run_cli(*argv) -> dict:
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    doc = json.loads(buffer.getvalue().strip().splitlines()[-1])
    assert code == 0, f"{argv}: {doc}"
    return doc


def test_c08_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        log = root / "events.csv"
        _run_cli(
            "simulate", "--mode", "organic", "--out", str(log),
            "--seed", "1903", "--users", "4300", "--items", "500",
        )
        stats = root / "stats.json"
        _run_cli("fit-stats", "--log", str(log), "--out", str(stats))
        profiles = root / "profiles.bin"
        _run_cli("build-profiles", "--log", str(log), "--out", str(profiles))
        labeled = root / "labeled.csv"
        _run_cli(
            "label", "--log", str(log), "--stats", str(stats),
            "--profiles", str(profiles), "--out", str(labeled),
        )
        params = root / "params.json"
        _run_cli("ndt-params", "--stats", str(stats), "--out", str(params))
        ckpt = root / "model.ckpt"
        _run_cli(
            "train", "--labeled", str(labeled), "--ndt-params", str(params),
            "--checkpoint", str(ckpt), "--seed", "7",
        )
        eval_json = root / "eval.json"
        _run_cli("eval", "--labeled", str(labeled), "--checkpoint", str(ckpt), "--out", str(eval_json))
        with open(log, encoding="utf-8") as handle:
            n_events = sum(1 for _ in handle)
        digests.append((ckpt.read_bytes(), eval_json.read_bytes(), n_events))
    elapsed = time.monotonic() - t0
    identical = digests[0][0] == digests[1][0] and digests[0][1] == digests[1][1]
    n_events = digests[0][2]
    finite = math.isfinite(json.loads(digests[0][1])["auc"])
    ok = identical and finite and n_events >= 100_000 and elapsed < 300.0
    report(
        8,
        ok,
        f"two runs byte-identical (checkpoint+eval): {identical}, AUC finite: {finite}, "
        f"{n_events} events, {elapsed:.0f}s < 300s",
    )


def test_c09_planted_signal_orders_objectives():
    gaps = []
    for seed in range(5):
        cfg = SimConfig(
            n_users=600,
            n_items=200,
            latent_dim=4,
            user_scale=1.0,
            item_scale=0.6,
            click_bias=-1.2,
            affinity_dt_coef=0.55,
            bait_click_coef=2.0,
            bait_dt_coef=3.0,
            item_classes=(ItemClass("only", 1.0, 3.3, 1.1),),
            activeness_mix=(0.25, 0.2, 0.15, 0.13, 0.11, 0.09, 0.07),
            impressions_per_level=(6, 12, 20, 32, 50, 80, 130),
            seed=seed,
        )
        events, _ = generate(cfg)
        stats = fit_log_normal(events)
        store = build_profiles(events)
        labeled = label_log(events, stats, store)
        params = NdtParams.solve(offset=stats.x_l, x_h=stats.x_h, precision=1e-5)
        order = np.random.default_rng([seed, 999]).permutation(len(labeled))
        cut = int(0.8 * len(labeled))
        train_log, eval_log = labeled.take(order[:cut]), labeled.take(order[cut:])
        space = FeatureSpace.of(labeled.events)
        run_auc = {}
        for objective in ("single_ctr", "vr_ndt"):
            cfg_train = TrainConfig(objective=objective, epochs=3, seed=seed)
            batch, _ = build_instances(train_log, params, cfg_train, space)
            result = train(cfg_train, batch, space)
            scores = score_events(result.network, space, eval_log)
            run_auc[objective] = auc(scores, eval_log.valid_read)
        gaps.append(run_auc["vr_ndt"] - run_auc["single_ctr"])
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.005
    report(
        9,
        ok,
        f"mean valid-read AUC gap (vr_ndt - single_ctr) {mean_gap:+.4f} >= 0.005 over 5 seeds "
        f"(per-seed {[f'{g:+.3f}' for g in gaps]})",
    )


def test_c10_migration_report():
    pair = generate_migration_pair(
        SimConfig(n_users=1500, n_items=300, seed=23), shift_s=10.0, shift_scale_s=60.0
    )
    boundaries = pair.boundaries

    identical = migration_report(pair.baseline, pair.baseline, boundaries)
    zeros_ok = all(c.delta == 0.0 for c in identical if c.delta is not None)

    shifted = event_table(
        make_event(e.user_id, e.item_id, e.timestamp, e.clicked, e.dwell_time_s + 10.0)
        if e.clicked
        else e
        for e in pair.baseline
    )
    uniform = migration_report(pair.baseline, shifted, boundaries)
    filled = [c for c in uniform if c.delta is not None]
    shift_ok = bool(filled) and all(abs(c.delta - 10.0) <= 1e-9 for c in filled)

    # Independent per-cell oracle: levels from weekly clicks, nearest-rank
    # decile split of each level's baseline dwells, expected delta = mean
    # planted lift over the cell's own members.
    counts = weekly_click_counts(pair.baseline)
    levels = {u: activeness_level(c, boundaries) for u, c in counts.items()}
    by_level: dict[int, list[float]] = {}
    for e in pair.baseline:
        if e.clicked:
            by_level.setdefault(levels[e.user_id], []).append(e.dwell_time_s)
    expected: dict[tuple[int, int], float] = {}
    for level in (1, 2, 3):
        dwells = sorted(by_level[level])
        m = len(dwells)
        prev = 0
        for d in range(1, 4):
            hi = min(math.ceil(d * m / 10), m)
            chunk = dwells[prev:hi]
            prev = hi
            lift = [short_read_lift(t, pair.shift_s, pair.shift_scale_s) - t for t in chunk]
            expected[(level, d)] = sum(lift) / len(lift)

    planted = migration_report(pair.baseline, pair.treatment, boundaries)
    cells = {(c.activeness_level, c.dt_decile): c for c in planted}
    recovered_ok = True
    details = []
    for key, want in expected.items():
        got = cells[key].delta
        recovered_ok &= got is not None and got > 0 and abs(got - want) <= 0.05 * want
        details.append(f"{key}:{got:.2f}/{want:.2f}")
    ok = zeros_ok and shift_ok and recovered_ok
    report(
        10,
        ok,
        f"identical-log zeros: {zeros_ok}, +10s uniform recovered: {shift_ok}, planted "
        f"light-user cells within 5%: {recovered_ok} ({'; '.join(details)})",
    )
