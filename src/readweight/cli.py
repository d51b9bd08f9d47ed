"""Command-line pipeline.

One executable, nine subcommands::

    readweight simulate --mode organic --out events.csv --seed 7
    readweight fit-stats --log events.csv --out stats.json
    readweight stats-report --log events.csv --bins 40 --out hist.csv
    readweight build-profiles --log events.csv --out profiles.bin
    readweight label --log events.csv --stats stats.json \
        --profiles profiles.bin --out labeled.csv --report composition.json
    readweight ndt-params --stats stats.json --out params.json
    readweight train --labeled labeled.csv --ndt-params params.json \
        --objective vr_ndt --checkpoint model.ckpt --trace losses.csv
    readweight eval --labeled labeled.csv --checkpoint model.ckpt --out eval.json
    readweight migrate-report --baseline a.csv --treatment b.csv --out cells.csv

Every command prints a single machine-readable JSON summary on stdout and
writes artifacts atomically (temp file + rename).  Exit codes: 0 success,
1 validation failure, 2 runtime failure; failures print a one-line JSON
object with a machine-parsable ``error`` reason.

A shared config file (``--config``, ``key = value`` lines, ``#`` comments)
can hold defaults for any long option; explicit flags win.  ``simulate``
rejects an explicit flag that its mode does not read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from . import FORMAT_VERSIONS, __version__
from ._fileio import atomic_write_text
from .dwell_stats import DwellStats, InsufficientDataError, fit_log_normal, histogram_csv, histogram_lnT
from .events import BadLineBudgetExceeded, LogFormatError, read_log, write_log
from .evaluation import EvalReport, migration_csv, migration_report
from .labeling import (
    LABELED_HEADER,
    LabelingConfig,
    composition_report,
    label_log,
    read_labeled_log,
    serialize_labeled,
)
from .model import MtlNetwork
from .ndt import DEFAULT_PRECISION, DEFAULT_T_MAX, NdtParams, paper_default_params
from .profiles import ProfileStore, build_profiles
from .quantiles import DEFAULT_EPS, DEFAULT_SWITCH_THRESHOLD
from .simulate import (
    ItemClass,
    RuleMixConfig,
    SimConfig,
    generate,
    generate_migration_pair,
    generate_rule_mix,
    sidecar_csv,
)
from .training import (
    TrainConfig,
    build_instances,
    checkpoint_extra_config,
    space_from_checkpoint,
    score_events,
    trace_csv,
    train,
)


class CliError(Exception):
    """Failure with a machine-parsable reason."""

    def __init__(self, reason: str, detail: str = "", exit_code: int = 1):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail
        self.exit_code = exit_code


def _require_input(path: str | None, tag: str) -> str:
    if not path:
        raise CliError(f"missing-flag:{tag}", f"--{tag} is required")
    if not os.path.exists(path):
        raise CliError(f"missing-input:{tag}", f"no such file: {path}")
    return path


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise CliError("missing-input:config", f"no such file: {path}")
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(
                    "invalid-config", f"line {line_number}: expected key = value, got {raw!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Options:
    """Flag / config-file / default resolution; flags win."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.args = args
        self.config = config
        self.read: set[str] = set()

    def get(self, name: str, cast: Callable, default):
        self.read.add(name)
        flag_value = getattr(self.args, name.replace("-", "_"), None)
        if flag_value is not None:
            return flag_value
        if name in self.config:
            raw = self.config[name]
            try:
                return cast(raw)
            except (TypeError, ValueError) as err:
                raise CliError("invalid-config", f"bad value for {name}: {raw!r} ({err})")
        return default

    def reject_unread(self) -> None:
        """Fail on a flag given on the command line that no ``get`` has read
        (config-file keys are shared defaults and may go unread)."""
        for flag, _ in _COMMAND_FLAGS[self.args.command]:
            name = flag.removeprefix("--")
            if name not in self.read and getattr(self.args, name.replace("-", "_")) is not None:
                raise CliError(f"invalid-flag:{name}", f"{flag} is not read in this mode")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_classes(text: str) -> tuple[ItemClass, ...]:
    """name:prob:ln_mean:ln_std entries separated by `;`."""
    classes = []
    for chunk in text.split(";"):
        name, prob, mean, std = chunk.split(":")
        classes.append(ItemClass(name, float(prob), float(mean), float(std)))
    return tuple(classes)


# -- handlers ---------------------------------------------------------------


def _sim_config(opts: Options, seed: int) -> SimConfig:
    """The organic simulator's config; an unset flag keeps SimConfig's default."""
    default = SimConfig()
    return SimConfig(
        n_users=opts.get("users", int, default.n_users),
        n_items=opts.get("items", int, default.n_items),
        activeness_mix=opts.get("activeness-mix", _parse_floats, default.activeness_mix),
        impressions_per_level=opts.get(
            "impressions-per-level", _parse_ints, default.impressions_per_level
        ),
        latent_dim=opts.get("latent-dim", int, default.latent_dim),
        user_scale=opts.get("user-scale", float, default.user_scale),
        item_scale=opts.get("item-scale", float, default.item_scale),
        click_bias=opts.get("click-bias", float, default.click_bias),
        affinity_dt_coef=opts.get("affinity-dt-coef", float, default.affinity_dt_coef),
        bait_click_coef=opts.get("bait-click-coef", float, default.bait_click_coef),
        bait_dt_coef=opts.get("bait-dt-coef", float, default.bait_dt_coef),
        item_classes=opts.get("classes", _parse_classes, default.item_classes),
        span_days=opts.get("span-days", int, default.span_days),
        seed=seed,
    )


def _handle_simulate(opts: Options) -> dict:
    mode = opts.get("mode", str, "organic")
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, None)
    if not out:
        raise CliError("missing-flag:out", "--out is required")
    if mode == "organic":
        cfg = _sim_config(opts, seed)
        sidecar_path = opts.get("sidecar", str, None)
        opts.reject_unread()
        events, sidecar = generate(cfg)
        write_log(out, events)
        if sidecar_path:
            atomic_write_text(sidecar_path, sidecar_csv(events, sidecar))
        return {
            "command": "simulate",
            "mode": mode,
            "seed": seed,
            "n_events": len(events),
            "n_clicks": int(events.clicked.sum()),
            "out": out,
            "sidecar": sidecar_path,
        }
    if mode == "rule-mix":
        stats_out = opts.get("stats-out", str, None)
        if not stats_out:
            raise CliError("missing-flag:stats-out", "rule-mix mode writes planted stats")
        default = RuleMixConfig()
        cfg = RuleMixConfig(
            n_valid_reads=opts.get("valid-reads", int, default.n_valid_reads),
            mix=opts.get("mix", _parse_floats, default.mix),
            noise_frac=opts.get("noise-frac", float, default.noise_frac),
            unclicked_frac=opts.get("unclicked-frac", float, default.unclicked_frac),
            seed=seed,
        )
        opts.reject_unread()
        corpus = generate_rule_mix(cfg)
        write_log(out, corpus.events)
        atomic_write_text(stats_out, corpus.stats.to_json() + "\n")
        return {
            "command": "simulate",
            "mode": mode,
            "seed": seed,
            "n_events": len(corpus.events),
            "analytic_mix": corpus.analytic_mix,
            "out": out,
            "stats_out": stats_out,
        }
    if mode == "migration":
        treatment_out = opts.get("treatment-out", str, None)
        if not treatment_out:
            raise CliError("missing-flag:treatment-out", "migration mode writes two logs")
        # An unset flag is left out, so generate_migration_pair's default applies.
        shift = {
            key: value
            for key, value in (
                ("shift_s", opts.get("shift", float, None)),
                ("shift_scale_s", opts.get("shift-scale", float, None)),
                ("max_level", opts.get("max-level", int, None)),
            )
            if value is not None
        }
        cfg = _sim_config(opts, seed)
        opts.reject_unread()
        pair = generate_migration_pair(cfg, **shift)
        write_log(out, pair.baseline)
        write_log(treatment_out, pair.treatment)
        return {
            "command": "simulate",
            "mode": mode,
            "seed": seed,
            "n_events": len(pair.baseline),
            "boundaries": list(pair.boundaries),
            "n_lifted_users": len(pair.lifted_users),
            "out": out,
            "treatment_out": treatment_out,
        }
    raise CliError("invalid-flag:mode", f"unknown simulate mode {mode!r}")


def _read_log_checked(opts: Options, flag: str = "log"):
    path = _require_input(opts.get(flag, str, None), flag)
    try:
        events, counts = read_log(
            path,
            header=opts.get("header", str, "auto"),
            bad_line_budget=opts.get("bad-line-budget", int, 0),
        )
    except BadLineBudgetExceeded as err:
        raise CliError("bad-line-budget-exceeded", str(err), exit_code=2)
    except LogFormatError as err:
        raise CliError("malformed-log", str(err), exit_code=2)
    return events, counts


def _handle_fit_stats(opts: Options) -> dict:
    events, counts = _read_log_checked(opts)
    out = opts.get("out", str, None)
    try:
        stats = fit_log_normal(events)
    except InsufficientDataError as err:
        raise CliError("insufficient-data", str(err), exit_code=2)
    if out:
        atomic_write_text(out, stats.to_json() + "\n")
    return {
        "command": "fit-stats",
        "mu": stats.mu,
        "sigma": stats.sigma,
        "n": stats.n,
        "x_l": stats.x_l,
        "x_h": stats.x_h,
        "n_events": counts.total,
        "n_skipped": counts.skipped,
        "out": out,
    }


def _handle_stats_report(opts: Options) -> dict:
    events, counts = _read_log_checked(opts)
    out = opts.get("out", str, None)
    if not out:
        raise CliError("missing-flag:out", "--out is required")
    bins = opts.get("bins", int, 40)
    histogram = histogram_lnT(events, bins)
    atomic_write_text(out, histogram_csv(histogram))
    return {
        "command": "stats-report",
        "bins": bins,
        "n_events": counts.total,
        "n_counted": sum(count for _, count in histogram),
        "out": out,
    }


def _handle_build_profiles(opts: Options) -> dict:
    events, counts = _read_log_checked(opts)
    out = opts.get("out", str, None)
    if not out:
        raise CliError("missing-flag:out", "--out is required")
    store = build_profiles(
        events,
        eps=opts.get("eps", float, DEFAULT_EPS),
        switch_threshold=opts.get("switch-threshold", int, DEFAULT_SWITCH_THRESHOLD),
    )
    store.save(out)
    return {
        "command": "build-profiles",
        "n_events": counts.total,
        "n_items": len(store.items),
        "n_users": len(store.users),
        "out": out,
    }


def _handle_label(opts: Options) -> dict:
    events, counts = _read_log_checked(opts)
    stats_path = _require_input(opts.get("stats", str, None), "stats")
    profiles_path = _require_input(opts.get("profiles", str, None), "profiles")
    out = opts.get("out", str, None)
    if not out:
        raise CliError("missing-flag:out", "--out is required")
    with open(stats_path, "r", encoding="utf-8") as handle:
        stats = DwellStats.from_json(handle.read())
    store = ProfileStore.load(profiles_path)
    default = LabelingConfig()
    cfg = LabelingConfig(
        noise_floor_s=opts.get("noise-floor", float, default.noise_floor_s),
        light_user_max_clicks=opts.get("light-max-clicks", int, default.light_user_max_clicks),
        min_records_t3=opts.get("min-records-t3", int, default.min_records_t3),
        t3_exclude_self=opts.get("t3-exclude-self", _parse_bool, default.t3_exclude_self),
    )
    labeled = list(label_log(events, stats, store, cfg))
    lines = [LABELED_HEADER]
    lines.extend(serialize_labeled(event, label) for event, label in labeled)
    atomic_write_text(out, "\n".join(lines) + "\n")
    report = composition_report(label for _, label in labeled)
    report_path = opts.get("report", str, None)
    if report_path:
        atomic_write_text(report_path, json.dumps(report, sort_keys=True) + "\n")
    return {
        "command": "label",
        "n_events": counts.total,
        "counts": report["counts"],
        "out": out,
        "report": report_path,
    }


def _handle_ndt_params(opts: Options) -> dict:
    stats_path = _require_input(opts.get("stats", str, None), "stats")
    with open(stats_path, "r", encoding="utf-8") as handle:
        stats = DwellStats.from_json(handle.read())
    precision = opts.get("precision", float, DEFAULT_PRECISION)
    t_max = opts.get("t-max", float, DEFAULT_T_MAX)
    paper = paper_default_params(precision)
    try:
        solved = NdtParams.solve(offset=stats.x_l, x_h=stats.x_h, precision=precision, t_max=t_max)
    except ValueError as err:
        raise CliError("infeasible-ndt", str(err), exit_code=2)
    doc = {
        "paper_default": json.loads(paper.to_json()),
        "solved": json.loads(solved.to_json()),
        "stats": {"x_l": stats.x_l, "x_h": stats.x_h},
    }
    out = opts.get("out", str, None)
    if out:
        atomic_write_text(out, json.dumps(doc, sort_keys=True) + "\n")
    doc["command"] = "ndt-params"
    doc["out"] = out
    return doc


def _load_ndt_params(path: str, mode: str) -> NdtParams:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if "paper_default" in doc or "solved" in doc:
        if mode not in doc:
            raise CliError("invalid-flag:params-mode", f"params file lacks mode {mode!r}")
        doc = doc[mode]
    return NdtParams.from_json(json.dumps(doc))


def _read_labeled_checked(path: str):
    try:
        log = read_labeled_log(path)
    except LogFormatError as err:
        raise CliError("malformed-log", str(err), exit_code=2)
    if not log:
        raise CliError("empty-input:labeled", "no labeled events", exit_code=2)
    return log


def _handle_train(opts: Options) -> dict:
    labeled_path = _require_input(opts.get("labeled", str, None), "labeled")
    params_path = _require_input(opts.get("ndt-params", str, None), "ndt-params")
    checkpoint_path = opts.get("checkpoint", str, None)
    if not checkpoint_path:
        raise CliError("missing-flag:checkpoint", "--checkpoint is required")
    params = _load_ndt_params(params_path, opts.get("params-mode", str, "paper_default"))
    labeled = _read_labeled_checked(labeled_path)
    default = TrainConfig()
    cfg = TrainConfig(
        objective=opts.get("objective", str, default.objective),
        neg_mode=opts.get("neg-mode", str, default.neg_mode),
        batch_size=opts.get("batch-size", int, default.batch_size),
        learning_rate=opts.get("learning-rate", float, default.learning_rate),
        epochs=opts.get("epochs", int, default.epochs),
        seed=opts.get("seed", int, default.seed),
        embedding_dim=opts.get("embedding-dim", int, default.embedding_dim),
        bottom_dim=opts.get("bottom-dim", int, default.bottom_dim),
        tower_dims=tuple(opts.get("tower-dims", _parse_ints, default.tower_dims)),
    )
    batch, space = build_instances(labeled, params, cfg)
    result = train(cfg, batch, space)
    result.network.save(checkpoint_path, checkpoint_extra_config(result))
    trace_path = opts.get("trace", str, None)
    if trace_path:
        atomic_write_text(trace_path, trace_csv(result.trace))
    final = result.trace[-1]
    return {
        "command": "train",
        "objective": cfg.objective,
        "neg_mode": cfg.neg_mode,
        "seed": cfg.seed,
        "n_instances": len(batch),
        "final_loss": {"L_v": final.l_v, "L_w": final.l_w, "L": final.l},
        "checkpoint": checkpoint_path,
        "trace": trace_path,
    }


def _handle_eval(opts: Options) -> dict:
    labeled_path = _require_input(opts.get("labeled", str, None), "labeled")
    checkpoint_path = _require_input(opts.get("checkpoint", str, None), "checkpoint")
    labeled = _read_labeled_checked(labeled_path)
    net, doc = MtlNetwork.load(checkpoint_path)
    scores = score_events(net, space_from_checkpoint(doc), labeled)
    labels = labeled.valid_read
    base_auc = opts.get("base-auc", float, None)
    try:
        report = EvalReport.build(scores, labels, base_auc)
    except ValueError as err:
        raise CliError("undefined-metric", str(err), exit_code=2)
    out = opts.get("out", str, None)
    if out:
        atomic_write_text(out, report.to_json() + "\n")
    return {
        "command": "eval",
        "auc": report.auc,
        "base_auc": report.base_auc,
        "relaimpr": report.relaimpr,
        "n_pos": report.n_pos,
        "n_neg": report.n_neg,
        "out": out,
    }


def _handle_migrate_report(opts: Options) -> dict:
    out = opts.get("out", str, None)
    if not out:
        raise CliError("missing-flag:out", "--out is required")
    baseline, _ = _read_log_checked(opts, "baseline")
    treatment, _ = _read_log_checked(opts, "treatment")
    boundaries = opts.get("boundaries", _parse_ints, None)
    try:
        cells = migration_report(baseline, treatment, boundaries)
    except ValueError as err:
        raise CliError("invalid-input", str(err), exit_code=2)
    atomic_write_text(out, migration_csv(cells))
    n_missing = sum(1 for c in cells if c.delta is None)
    return {
        "command": "migrate-report",
        "n_cells": len(cells),
        "n_missing": n_missing,
        "out": out,
    }


_HANDLERS = {
    "simulate": _handle_simulate,
    "fit-stats": _handle_fit_stats,
    "stats-report": _handle_stats_report,
    "build-profiles": _handle_build_profiles,
    "label": _handle_label,
    "ndt-params": _handle_ndt_params,
    "train": _handle_train,
    "eval": _handle_eval,
    "migrate-report": _handle_migrate_report,
}

_COMMAND_FLAGS: dict[str, list[tuple[str, dict]]] = {
    "simulate": [
        ("--mode", {"choices": ["organic", "rule-mix", "migration"]}),
        ("--out", {}),
        ("--sidecar", {}),
        ("--stats-out", {}),
        ("--treatment-out", {}),
        ("--seed", {"type": int}),
        ("--users", {"type": int}),
        ("--items", {"type": int}),
        ("--activeness-mix", {"type": _parse_floats}),
        ("--impressions-per-level", {"type": _parse_ints}),
        ("--latent-dim", {"type": int}),
        ("--user-scale", {"type": float}),
        ("--item-scale", {"type": float}),
        ("--click-bias", {"type": float}),
        ("--affinity-dt-coef", {"type": float}),
        ("--bait-click-coef", {"type": float}),
        ("--bait-dt-coef", {"type": float}),
        ("--classes", {"type": _parse_classes}),
        ("--span-days", {"type": int}),
        ("--valid-reads", {"type": int}),
        ("--mix", {"type": _parse_floats}),
        ("--noise-frac", {"type": float}),
        ("--unclicked-frac", {"type": float}),
        ("--shift", {"type": float}),
        ("--shift-scale", {"type": float}),
        ("--max-level", {"type": int}),
    ],
    "fit-stats": [
        ("--log", {}),
        ("--out", {}),
        ("--header", {"choices": ["auto", "present", "absent"]}),
        ("--bad-line-budget", {"type": int}),
    ],
    "stats-report": [
        ("--log", {}),
        ("--out", {}),
        ("--bins", {"type": int}),
        ("--header", {"choices": ["auto", "present", "absent"]}),
        ("--bad-line-budget", {"type": int}),
    ],
    "build-profiles": [
        ("--log", {}),
        ("--out", {}),
        ("--eps", {"type": float}),
        ("--switch-threshold", {"type": int}),
        ("--header", {"choices": ["auto", "present", "absent"]}),
        ("--bad-line-budget", {"type": int}),
    ],
    "label": [
        ("--log", {}),
        ("--stats", {}),
        ("--profiles", {}),
        ("--out", {}),
        ("--report", {}),
        ("--noise-floor", {"type": float}),
        ("--light-max-clicks", {"type": int}),
        ("--min-records-t3", {"type": int}),
        ("--t3-exclude-self", {"type": _parse_bool}),
        ("--header", {"choices": ["auto", "present", "absent"]}),
        ("--bad-line-budget", {"type": int}),
    ],
    "ndt-params": [
        ("--stats", {}),
        ("--out", {}),
        ("--precision", {"type": float}),
        ("--t-max", {"type": float}),
    ],
    "train": [
        ("--labeled", {}),
        ("--ndt-params", {}),
        ("--params-mode", {"choices": ["paper_default", "solved"]}),
        ("--checkpoint", {}),
        ("--trace", {}),
        ("--objective", {"choices": ["single_ctr", "ctr_logdt", "vr_logdt", "vr_ndt"]}),
        ("--neg-mode", {"choices": ["unit", "literal"]}),
        ("--batch-size", {"type": int}),
        ("--learning-rate", {"type": float}),
        ("--epochs", {"type": int}),
        ("--seed", {"type": int}),
        ("--embedding-dim", {"type": int}),
        ("--bottom-dim", {"type": int}),
        ("--tower-dims", {"type": _parse_ints}),
    ],
    "eval": [
        ("--labeled", {}),
        ("--checkpoint", {}),
        ("--out", {}),
        ("--base-auc", {"type": float}),
    ],
    "migrate-report": [
        ("--baseline", {}),
        ("--treatment", {}),
        ("--out", {}),
        ("--boundaries", {"type": _parse_ints}),
        ("--header", {"choices": ["auto", "present", "absent"]}),
        ("--bad-line-budget", {"type": int}),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readweight",
        description="Dwell-time click reweighting pipeline",
    )
    parser.add_argument(
        "--version",
        action="store_true",
        help="print artifact and file-format versions as JSON",
    )
    subparsers = parser.add_subparsers(dest="command")
    for command, flags in _COMMAND_FLAGS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", help="key = value defaults file")
        for flag, kwargs in flags:
            sub.add_argument(flag, default=None, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "version", False) and args.command is None:
        print(json.dumps({"version": __version__, "formats": FORMAT_VERSIONS}, sort_keys=True))
        return 0
    if args.command is None:
        print(json.dumps({"error": "missing-command", "detail": "see --help"}))
        return 1
    try:
        config = _load_config_file(getattr(args, "config", None))
        summary = _HANDLERS[args.command](Options(args, config))
    except CliError as err:
        print(json.dumps({"error": err.reason, "detail": err.detail}, sort_keys=True))
        return err.exit_code
    except (OSError, ValueError) as err:
        print(json.dumps({"error": "runtime-failure", "detail": str(err)}, sort_keys=True))
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
