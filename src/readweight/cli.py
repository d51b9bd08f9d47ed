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
1 validation failure (usage errors included), 2 runtime failure; failures
print a one-line JSON object with a machine-parsable ``error`` reason.

A shared config file (``--config``, ``key = value`` lines, ``#`` comments)
can hold defaults for any long option; explicit flags win.  Flag text and
config text go through the option's one parser, and an option set in
neither place keeps the library's default.  A config key that no command
declares fails with ``invalid-config``.  ``simulate`` rejects an explicit
flag that its mode does not read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, Sequence

from . import FORMAT_VERSIONS, __version__
from ._fileio import atomic_write_text
from .dwell_stats import DwellStats, InsufficientDataError, fit_log_normal, histogram_csv, histogram_lnT
from .events import HEADER_MODES, BadLineBudgetExceeded, LogFormatError, read_log, write_log
from .evaluation import EvalReport, migration_csv, migration_report
from .labeling import LabeledLog, LabelingConfig, composition_report, label_log, read_labeled_log
from .model import MtlNetwork
from .ndt import NEG_MODES, NdtParams, check_precision, paper_default_params
from .profiles import ProfileStore, build_profiles
from .simulate import (
    ItemClass,
    RuleMixConfig,
    SimConfig,
    check_lift,
    generate,
    generate_migration_pair,
    generate_rule_mix,
    sidecar_csv,
)
from .training import (
    OBJECTIVES,
    TrainConfig,
    TrainingDivergedError,
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (unknown flag or command, missing value) as a
    CliError, so it too prints one JSON line; subparsers inherit it."""

    def error(self, message: str):
        raise CliError("invalid-usage", message)


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
            key, value = (part.strip() for part in line.split("=", 1))
            if not any(key in flags for flags in _COMMAND_FLAGS.values()):
                raise CliError("invalid-config", f"line {line_number}: no command has an option {key!r}")
            values[key] = value
    return values


# Options whose keyword argument in the library is not the option's name.
_KWARGS = {
    "users": "n_users",
    "items": "n_items",
    "classes": "item_classes",
    "valid-reads": "n_valid_reads",
    "shift": "shift_s",
    "shift-scale": "shift_scale_s",
    "noise-floor": "noise_floor_s",
    "light-max-clicks": "light_user_max_clicks",
}


class Options:
    """An option's value: its flag, else the config file, else the caller's
    default.  Both texts go through the option's one parser."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.casts = _COMMAND_FLAGS[args.command]
        self.flags = {
            name: text
            for name in self.casts
            if (text := getattr(args, name.replace("-", "_"))) is not None
        }
        self.config = config
        self.read: set[str] = set()

    def get(self, name: str, default=None):
        self.read.add(name)
        if name in self.flags:
            text, reason = self.flags[name], f"invalid-flag:{name}"
        elif name in self.config:
            text, reason = self.config[name], "invalid-config"
        else:
            return default
        try:
            return self.casts[name](text)
        except (TypeError, ValueError) as err:
            raise CliError(reason, f"bad value for {name}: {text!r} ({err})")

    def given(self, *names: str) -> dict:
        """The options among ``names`` that are set, as the callee's keyword
        arguments; an unset one is left out, so the callee's default applies."""
        values = {_KWARGS.get(name, name.replace("-", "_")): self.get(name) for name in names}
        return {key: value for key, value in values.items() if value is not None}

    def build(self, make: Callable, *names: str):
        """``make`` called with ``given(*names)``.  Options that each parse
        can still be wrong together: on a ValueError from ``make``, the set
        options go back to their defaults one by one, from the last named,
        and the one whose reset lets ``make`` pass is blamed."""
        kwargs = self.given(*names)
        try:
            return make(**kwargs)
        except ValueError as err:
            detail = str(err)
        for name in reversed(names):
            if kwargs.pop(_KWARGS.get(name, name.replace("-", "_")), None) is None:
                continue
            try:
                make(**kwargs)
            except ValueError:
                continue
            raise CliError(f"invalid-flag:{name}" if name in self.flags else "invalid-config", detail)
        raise ValueError(detail)

    def required(self, name: str, detail: str = ""):
        value = self.get(name)
        if not value:
            raise CliError(f"missing-flag:{name}", detail or f"--{name} is required")
        return value

    def input(self, name: str) -> str:
        path = self.required(name)
        if not os.path.exists(path):
            raise CliError(f"missing-input:{name}", f"no such file: {path}")
        return path

    def reject_unread(self) -> None:
        """Fail on a flag given on the command line that no ``get`` has read
        (config-file keys are shared defaults and may go unread)."""
        for name in self.flags:
            if name not in self.read:
                raise CliError(f"invalid-flag:{name}", f"--{name} is not read in this mode")


def _choice(names: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"not one of {', '.join(names)}")
        return text

    return parse


def _int_from(low: int, high: int | None = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise ValueError(f"must be >= {low}" if high is None else f"must be in {low} .. {high}")
        return value

    return parse


def _float_from(low: float, above: bool = False) -> Callable[[str], float]:
    """A finite float >= ``low`` (> ``low`` when ``above``)."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if value < low or (above and value == low):
            raise ValueError(f"must be {'>' if above else '>='} {low}")
        return value

    return parse


_finite, _non_negative, _positive = _float_from(-math.inf), _float_from(0), _float_from(0, above=True)


def _open_unit(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise ValueError("must be in (0, 1)")
    return value


def _list_of(parse: Callable[[str], object], count: int | None = None) -> Callable[[str], tuple]:
    """Comma-separated values, each through ``parse``; exactly ``count`` of them when given."""

    def parse_list(text: str) -> tuple:
        values = tuple(map(parse, text.split(",")))
        if count is not None and len(values) != count:
            raise ValueError(f"need {count} comma-separated values, got {len(values)}")
        return values

    return parse_list


def _ascending_ints(text: str) -> tuple[int, ...]:
    values = _list_of(int)(text)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("must ascend strictly")
    return values


def _parse_classes(text: str) -> tuple[ItemClass, ...]:
    """name:prob:ln_mean:ln_std entries separated by `;`."""
    classes = []
    for chunk in text.split(";"):
        name, prob, mean, std = chunk.split(":")
        classes.append(ItemClass(name, _non_negative(prob), _finite(mean), _non_negative(std)))
    return tuple(classes)


# -- handlers ---------------------------------------------------------------

_SIM_OPTIONS = (
    "users", "items", "activeness-mix", "impressions-per-level", "latent-dim", "user-scale",
    "item-scale", "click-bias", "affinity-dt-coef", "bait-click-coef", "bait-dt-coef",
    "classes", "span-days", "seed",
)


def _handle_simulate(opts: Options) -> dict:
    mode = opts.get("mode", "organic")
    out = opts.required("out")
    if mode == "rule-mix":
        stats_out = opts.required("stats-out", "rule-mix mode writes planted stats")
        cfg = opts.build(RuleMixConfig, "valid-reads", "mix", "noise-frac", "unclicked-frac", "seed")
        opts.reject_unread()
        corpus = generate_rule_mix(cfg)
        write_log(out, corpus.events)
        atomic_write_text(stats_out, corpus.stats.to_json() + "\n")
        return {
            "command": "simulate",
            "mode": mode,
            "seed": cfg.seed,
            "n_events": len(corpus.events),
            "analytic_mix": corpus.analytic_mix,
            "out": out,
            "stats_out": stats_out,
        }
    if mode == "migration":
        treatment_out = opts.required("treatment-out", "migration mode writes two logs")
        shift = opts.given("shift", "shift-scale", "max-level")
        opts.build(check_lift, "shift", "shift-scale")
        cfg = opts.build(SimConfig, *_SIM_OPTIONS)
        opts.reject_unread()
        pair = generate_migration_pair(cfg, **shift)
        write_log(out, pair.baseline)
        write_log(treatment_out, pair.treatment)
        return {
            "command": "simulate",
            "mode": mode,
            "seed": cfg.seed,
            "n_events": len(pair.baseline),
            "boundaries": list(pair.boundaries),
            "n_lifted_users": len(pair.lifted_users),
            "out": out,
            "treatment_out": treatment_out,
        }
    cfg = opts.build(SimConfig, *_SIM_OPTIONS)
    sidecar_path = opts.get("sidecar")
    opts.reject_unread()
    events, sidecar = generate(cfg)
    write_log(out, events)
    if sidecar_path:
        atomic_write_text(sidecar_path, sidecar_csv(events, sidecar))
    return {
        "command": "simulate",
        "mode": mode,
        "seed": cfg.seed,
        "n_events": len(events),
        "n_clicks": int(events.clicked.sum()),
        "out": out,
        "sidecar": sidecar_path,
    }


def _read_log_checked(opts: Options, flag: str = "log"):
    path = opts.input(flag)
    try:
        return read_log(path, **opts.given("header", "bad-line-budget"))
    except BadLineBudgetExceeded as err:
        raise CliError("bad-line-budget-exceeded", str(err), exit_code=2)
    except LogFormatError as err:
        raise CliError("malformed-log", str(err), exit_code=2)


def _load_stats(path: str) -> DwellStats:
    with open(path, "r", encoding="utf-8") as handle:
        return DwellStats.from_json(handle.read())


def _handle_fit_stats(opts: Options) -> dict:
    events, counts = _read_log_checked(opts)
    out = opts.get("out")
    try:
        stats = fit_log_normal(events)
    except InsufficientDataError as err:
        raise CliError("insufficient-data", str(err), exit_code=2)
    if out:
        atomic_write_text(out, stats.to_json() + "\n")
    return {
        "command": "fit-stats",
        **asdict(stats),
        "n_events": counts.total,
        "n_skipped": counts.skipped,
        "out": out,
    }


def _handle_stats_report(opts: Options) -> dict:
    bins = opts.get("bins", 40)
    events, counts = _read_log_checked(opts)
    out = opts.required("out")
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
    settings = opts.given("eps", "switch-threshold")
    events, counts = _read_log_checked(opts)
    out = opts.required("out")
    store = build_profiles(events, **settings)
    store.save(out)
    return {
        "command": "build-profiles",
        "n_events": counts.total,
        "n_items": len(store.items),
        "n_users": len(store.user_ids),
        "out": out,
    }


def _handle_label(opts: Options) -> dict:
    cfg = opts.build(LabelingConfig, "noise-floor", "light-max-clicks")
    events, counts = _read_log_checked(opts)
    stats_path = opts.input("stats")
    profiles_path = opts.input("profiles")
    out = opts.required("out")
    stats = _load_stats(stats_path)
    store = ProfileStore.load(profiles_path)
    # Whatever yields the (event, label) pairs, the rows written are ``events``.
    labeled = LabeledLog.from_labels(events, [label for _, label in label_log(events, stats, store, cfg)])
    atomic_write_text(out, labeled.to_text())
    report = composition_report(labeled)
    report_path = opts.get("report")
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
    settings = opts.given("precision", "t-max")
    opts.build(check_precision, "precision", "t-max")
    stats = _load_stats(opts.input("stats"))
    paper = paper_default_params(**opts.given("precision"))
    try:
        solved = NdtParams.solve(offset=stats.x_l, x_h=stats.x_h, **settings)
    except ValueError as err:
        raise CliError("infeasible-ndt", str(err), exit_code=2)
    doc = {
        "paper_default": asdict(paper),
        "solved": asdict(solved),
        "stats": {"x_l": stats.x_l, "x_h": stats.x_h},
    }
    out = opts.get("out")
    if out:
        atomic_write_text(out, json.dumps(doc, sort_keys=True) + "\n")
    doc["command"] = "ndt-params"
    doc["out"] = out
    return doc


def _load_ndt_params(path: str, params_mode: str = "paper_default") -> NdtParams:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, dict) and ("paper_default" in doc or "solved" in doc):
        if params_mode not in doc:
            raise CliError("invalid-flag:params-mode", f"params file lacks mode {params_mode!r}")
        doc = doc[params_mode]
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
    labeled_path = opts.input("labeled")
    params_path = opts.input("ndt-params")
    checkpoint_path = opts.required("checkpoint")
    cfg = opts.build(
        TrainConfig,
        "objective", "neg-mode", "batch-size", "learning-rate", "epochs", "seed",
        "embedding-dim", "bottom-dim", "tower-dims",
    )
    params = _load_ndt_params(params_path, **opts.given("params-mode"))
    # Only the batch and the vocabularies, not the labeled log, live through training.
    batch, space = build_instances(_read_labeled_checked(labeled_path), params, cfg)
    try:
        result = train(cfg, batch, space)
    except TrainingDivergedError as err:
        raise CliError("training-diverged", str(err), exit_code=2)
    result.network.save(checkpoint_path, checkpoint_extra_config(result))
    trace_path = opts.get("trace")
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
    labeled_path = opts.input("labeled")
    checkpoint_path = opts.input("checkpoint")
    base_auc = opts.get("base-auc")
    labeled = _read_labeled_checked(labeled_path)
    net, doc = MtlNetwork.load(checkpoint_path)
    scores = score_events(net, space_from_checkpoint(doc), labeled)
    try:
        report = EvalReport.build(scores, labeled.valid_read, base_auc)
    except ValueError as err:
        raise CliError("undefined-metric", str(err), exit_code=2)
    out = opts.get("out")
    if out:
        atomic_write_text(out, report.to_json() + "\n")
    return {
        "command": "eval",
        **asdict(report),
        "out": out,
    }


def _handle_migrate_report(opts: Options) -> dict:
    out = opts.required("out")
    boundaries = opts.get("boundaries")
    baseline, _ = _read_log_checked(opts, "baseline")
    treatment, _ = _read_log_checked(opts, "treatment")
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

# Each command's long options, each with the one parser its flag text and
# config-file text go through.
_LOG_FLAGS = {"header": _choice(HEADER_MODES), "bad-line-budget": _int_from(0)}
MAX_BINS = 10_000
_COMMAND_FLAGS: dict[str, dict[str, Callable]] = {
    "simulate": {
        "mode": _choice(("organic", "rule-mix", "migration")),
        "out": str,
        "sidecar": str,
        "stats-out": str,
        "treatment-out": str,
        "seed": _int_from(0),
        "users": _int_from(1),
        "items": _int_from(1),
        "activeness-mix": _list_of(_non_negative),
        "impressions-per-level": _list_of(_int_from(0)),
        "latent-dim": _int_from(1),
        "user-scale": _non_negative,
        "item-scale": _non_negative,
        "click-bias": _finite,
        "affinity-dt-coef": _finite,
        "bait-click-coef": _finite,
        "bait-dt-coef": _finite,
        "classes": _parse_classes,
        "span-days": _int_from(1),
        "valid-reads": _int_from(1),
        "mix": _list_of(_non_negative, 3),
        "noise-frac": _non_negative,
        "unclicked-frac": _non_negative,
        "shift": _non_negative,
        "shift-scale": _positive,
        "max-level": _int_from(0),
    },
    "fit-stats": {"log": str, "out": str, **_LOG_FLAGS},
    "stats-report": {"log": str, "out": str, "bins": _int_from(1, MAX_BINS), **_LOG_FLAGS},
    "build-profiles": {
        "log": str, "out": str, "eps": _open_unit, "switch-threshold": _int_from(1), **_LOG_FLAGS,
    },
    "label": {
        "log": str,
        "stats": str,
        "profiles": str,
        "out": str,
        "report": str,
        "noise-floor": _non_negative,
        "light-max-clicks": _int_from(0),
        **_LOG_FLAGS,
    },
    "ndt-params": {"stats": str, "out": str, "precision": _positive, "t-max": _positive},
    "train": {
        "labeled": str,
        "ndt-params": str,
        "params-mode": _choice(("paper_default", "solved")),
        "checkpoint": str,
        "trace": str,
        "objective": _choice(OBJECTIVES),
        "neg-mode": _choice(NEG_MODES),
        "batch-size": _int_from(1),
        "learning-rate": _positive,
        "epochs": _int_from(1),
        "seed": _int_from(0),
        "embedding-dim": _int_from(1),
        "bottom-dim": _int_from(1),
        "tower-dims": _list_of(_int_from(1), 2),
    },
    "eval": {"labeled": str, "checkpoint": str, "out": str, "base-auc": _float_from(0.5, above=True)},
    "migrate-report": {
        "baseline": str,
        "treatment": str,
        "out": str,
        "boundaries": _ascending_ints,
        **_LOG_FLAGS,
    },
}


def build_parser() -> argparse.ArgumentParser:
    """argparse only collects each option's text; ``Options`` parses it."""
    parser = _Parser(prog="readweight", description="Dwell-time click reweighting pipeline")
    parser.add_argument(
        "--version",
        action="store_true",
        help="print artifact and file-format versions as JSON",
    )
    subparsers = parser.add_subparsers(dest="command")
    for command, casts in _COMMAND_FLAGS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", help="key = value defaults file")
        for name in casts:
            sub.add_argument(f"--{name}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            if args.version:
                print(json.dumps({"version": __version__, "formats": FORMAT_VERSIONS}, sort_keys=True))
                return 0
            raise CliError("missing-command", "see --help")
        summary = _HANDLERS[args.command](Options(args, _load_config_file(args.config)))
    except CliError as err:
        print(json.dumps({"error": err.reason, "detail": err.detail}, sort_keys=True))
        return err.exit_code
    except (OSError, ValueError, MemoryError) as err:
        print(json.dumps({"error": "runtime-failure", "detail": str(err)}, sort_keys=True))
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
