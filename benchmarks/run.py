"""Benchmark of the readweight CLI pipeline, end to end and layer by layer.

Run from the repository root::

    python3 benchmarks/run.py --workload wide-vocab --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the real CLI, one subprocess per command
(``python -m readweight.cli`` with ``PYTHONPATH=src``; one BLAS thread unless
``OPENBLAS_NUM_THREADS`` and friends are set), and takes each
command's wall time, CPU time and peak RSS from ``os.wait4``.  It writes the
workload's log once with ``simulate --seed <seed>`` as an untimed warm-up,
then repeats set-up (the same ``simulate``) and the pipeline for up to
``--seconds`` (at least once) and reports the median of each end-to-end metric
over the repetitions.  Set-up is timed inside every repetition, not in a block
before them, so that it samples the host under the same conditions as the
pipeline.

``--trace 1`` repeats pairs of one untraced pipeline (per-command metrics)
and one traced pipeline, where the same commands run in process through
``readweight.cli.main`` with the layers wrapped by ``tracing.instrument``.
It reports the median of each per-layer metric and writes every span to
``.benchwork/<workload>/trace.json``.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it holds the environment (git sha, Python,
numpy, BLAS and its thread setting, nproc, load average and a calibration
loop's time at start and end) and the wall-time samples behind the medians.
Metric units come from ``BENCHMARK.json``; the run fails if it cannot compute
one it declares.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
SPEC = ROOT / "BENCHMARK.json"

# Every run ends well inside the 180 s a run may take; a command still
# running at this point is killed and counted as failed.
HARD_LIMIT_S = 165.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LABEL_STAGE = ("fit-stats", "stats-report", "build-profiles", "label")
MIGRATION_CELLS = 70  # 7 activeness levels x 10 dwell-time deciles


@dataclass(frozen=True)
class Workload:
    """An organic log (``simulate --mode organic``) and the pipeline's flags."""

    users: int
    items: int
    impressions: str | None = None  # --impressions-per-level; None keeps the default
    mix: str | None = None  # --activeness-mix; None keeps the default
    epochs: int | None = None  # train --epochs; None keeps the CLI default (3)
    switch_threshold: int | None = None  # build-profiles --switch-threshold

    def simulate_flags(self, tiny: bool) -> list[str]:
        users, items = (max(self.users // 40, 60), max(self.items // 40, 2)) if tiny else (self.users, self.items)
        flags = ["--mode", "organic", "--users", str(users), "--items", str(items)]
        if self.impressions:
            flags += ["--impressions-per-level", self.impressions]
        if self.mix:
            flags += ["--activeness-mix", self.mix]
        return flags


# The "why" of each workload is in BENCHMARK.json.  Sizes keep one repetition
# (set-up and pipeline) near 5 s, so a 60 s run holds about twelve of them.
WORKLOADS = {
    # As many items as users and mostly one impression each: the vocabulary
    # stays large next to a 512-row batch while the log stays short.  After
    # one epoch the AUC still swung by 10% between seeds; after two it is
    # within 1%.
    "wide-vocab": Workload(12000, 12000, "1,1,1,1,2,2,3", epochs=2),
    # Every user sits at the top activeness level, so the log size does not
    # depend on the seed.  With 8 items the AUC moved by 7% between seeds,
    # with 32 by 2%; a 64-record switch puts each item (about 130 clicks) in
    # GK sketch mode.
    "hot-items": Workload(180, 32, "1,1,1,1,1,1,100", "0,0,0,0,0,0,1", epochs=1, switch_threshold=64),
}


@dataclass
class Outcome:
    """One CLI command: its cost and whether its output passed the checks."""

    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float | None
    summary: dict | None
    error: str | None = None


@dataclass
class Files:
    """Artifact paths of one pipeline run: ``files.<name>`` is
    ``<dir>/<name>.<suffix>``, the suffix csv unless listed below."""

    dir: Path

    def __getattr__(self, name: str) -> str:
        suffix = {"stats": "json", "params": "json", "eval": "json", "composition": "json",
                  "profiles": "bin", "ckpt": "ckpt"}.get(name, "csv")
        return str(self.dir / f"{name}.{suffix}")


def simulate_argv(wl: Workload, files: Files, seed: int, tiny: bool) -> list[str]:
    return ["simulate", *wl.simulate_flags(tiny), "--seed", str(seed), "--out", files.log]


def pipeline_argvs(wl: Workload, f: Files) -> list[list[str]]:
    train = ["--epochs", str(wl.epochs)] if wl.epochs else []
    profiles = ["--switch-threshold", str(wl.switch_threshold)] if wl.switch_threshold else []
    return [
        ["fit-stats", "--log", f.log, "--out", f.stats],
        ["stats-report", "--log", f.log, "--out", f.hist],
        ["build-profiles", "--log", f.log, "--out", f.profiles, *profiles],
        ["label", "--log", f.log, "--stats", f.stats, "--profiles", f.profiles,
         "--out", f.labeled, "--report", f.composition],
        ["ndt-params", "--stats", f.stats, "--out", f.params],
        ["train", "--labeled", f.labeled, "--ndt-params", f.params, "--checkpoint", f.ckpt, *train],
        ["eval", "--labeled", f.labeled, "--checkpoint", f.ckpt, "--out", f.eval],
        ["migrate-report", "--baseline", f.log,
         "--treatment", f.log, "--out", f.cells],
    ]


# -- output checks ----------------------------------------------------------


def parse_summary(stdout: str, command: str) -> tuple[dict | None, str | None]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None, f"expected one stdout line, got {len(lines)}"
    try:
        summary = json.loads(lines[0])
    except json.JSONDecodeError as err:
        return None, f"stdout is not JSON: {err}"
    if not isinstance(summary, dict) or summary.get("command") != command:
        return None, f"unexpected summary {lines[0][:200]}"
    return summary, None


def check_output(command: str, s: dict, files: Files, n_events: int | None) -> str | None:
    """Why a command's output is wrong, or None.  ``n_events`` is the size of
    the log the set-up wrote."""
    if command == "simulate":
        if n_events is not None and s.get("n_events") != n_events:
            return f"simulate wrote {s.get('n_events')} events, before {n_events}"
        return None if s.get("n_events", 0) > 0 else "empty log"
    if command in LABEL_STAGE and s.get("n_events") != n_events:
        return f"read {s.get('n_events')} events, the log holds {n_events}"
    if command == "label" and sum(s["counts"].values()) != n_events:
        return f"label counts sum to {sum(s['counts'].values())}, not {n_events}"
    if command == "train" and not math.isfinite(s["final_loss"]["L"]):
        return "non-finite final loss"
    if command == "eval":
        auc = s.get("auc")
        if not (isinstance(auc, float) and math.isfinite(auc) and 0.0 < auc < 1.0):
            return f"AUC {auc!r} outside (0, 1)"
        if s["n_pos"] + s["n_neg"] != n_events:
            return "eval did not score every event"
    if command == "migrate-report":
        if s.get("n_cells") != MIGRATION_CELLS:
            return f"{s.get('n_cells')} migration cells, expected {MIGRATION_CELLS}"
        rows = Path(files.cells).read_text().splitlines()[1:]
        if any(row.rsplit(",", 1)[1] not in ("0.0", "NA") for row in rows):
            return "A/A migration report has a non-zero delta"
    return None


# -- untraced commands ------------------------------------------------------


def run_untraced(argv: list[str], files: Files, deadline: float) -> Outcome:
    """Run one CLI command in a subprocess; resources come from os.wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out_path = files.dir / f"{argv[0]}.stdout"
    err_path = files.dir / f"{argv[0]}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "readweight.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env,
        )
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the command too
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(argv[0], wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, None)
    if proc.returncode != 0:
        tail = (err_path.read_text(errors="replace") + out_path.read_text(errors="replace")).strip()
        outcome.error = f"exit {proc.returncode}: {tail[-300:]}"
    else:
        outcome.summary, outcome.error = parse_summary(out_path.read_text(), argv[0])
    return outcome


# -- traced commands --------------------------------------------------------


def run_traced(argv: list[str], tracer) -> Outcome:
    """Run one CLI command in process, inside a ``cli.<command>`` span."""
    from readweight import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception:  # a crash inside the library fails this command only
        return Outcome(argv[0], time.perf_counter() - start, 0.0, None, None,
                       "crashed: " + traceback.format_exc(limit=3))
    outcome = Outcome(argv[0], time.perf_counter() - start, 0.0, None, None)
    if code != 0:
        outcome.error = f"exit {code}: {buffer.getvalue().strip()}"
    else:
        outcome.summary, outcome.error = parse_summary(buffer.getvalue(), argv[0])
    return outcome


# -- one benchmark run ------------------------------------------------------


@dataclass
class Run:
    workload: str
    wl: Workload
    seed: int
    tiny: bool
    deadline: float
    outcomes: list[Outcome] = field(default_factory=list)
    n_events: int | None = None

    def fresh_files(self, tag: str) -> Files:
        path = WORK / self.workload / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return Files(path)

    def record(self, outcome: Outcome, files: Files) -> Outcome:
        if outcome.error is None:
            outcome.error = check_output(outcome.command, outcome.summary, files, self.n_events)
        self.outcomes.append(outcome)
        if outcome.error is not None:
            print(f"FAILED {outcome.command}: {outcome.error}", file=sys.stderr)
        return outcome

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    def warm_up(self, files: Files) -> None:
        """Write the log once, untimed; later set-ups must match its size."""
        argv = simulate_argv(self.wl, files, self.seed, self.tiny)
        outcome = self.record(run_untraced(argv, files, self.deadline), files)
        if outcome.error is None:
            self.n_events = outcome.summary["n_events"]

    def untraced_pipeline(self, files: Files) -> dict[str, Outcome] | None:
        """Set-up (``simulate``) and the pipeline, each command timed."""
        rep = {}
        for argv in [simulate_argv(self.wl, files, self.seed, self.tiny), *pipeline_argvs(self.wl, files)]:
            outcome = self.record(run_untraced(argv, files, self.deadline), files)
            if outcome.error is not None:
                return None
            rep[argv[0]] = outcome
        return rep

    def traced_pipeline(self, files: Files, tracer):
        from tracing import instrument

        rep = {}
        with instrument(tracer) as stats:
            for argv in [simulate_argv(self.wl, files, self.seed, self.tiny), *pipeline_argvs(self.wl, files)]:
                outcome = self.record(run_traced(argv, tracer), files)
                if outcome.error is not None:
                    return None, stats
                rep[argv[0]] = outcome
        return rep, stats


def end_to_end(reps: list[dict[str, Outcome]]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for rep in reps:
        per_rep = {
            "setup_s": rep["simulate"].wall_s,
            "pipeline_s": sum(o.wall_s for c, o in rep.items() if c != "simulate"),
            "label_stage_s": sum(rep[c].wall_s for c in LABEL_STAGE),
            "train_s": rep["train"].wall_s,
            "eval_s": rep["eval"].wall_s,
            "migrate_report_s": rep["migrate-report"].wall_s,
            "peak_rss_mb": max(o.rss_mb for c, o in rep.items() if c != "simulate"),
            "eval_auc": rep["eval"].summary["auc"],
        }
        for name, value in per_rep.items():
            values.setdefault(name, []).append(value)
    return values


def cli_metrics(reps: list[dict[str, Outcome]]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for rep in reps:
        for command, o in rep.items():
            values.setdefault(f"cli.{command}.wall_s", []).append(o.wall_s)
            values.setdefault(f"cli.{command}.cpu_s", []).append(o.cpu_s)
            values.setdefault(f"cli.{command}.peak_rss_mb", []).append(o.rss_mb)
    return values


def layer_metrics(tracer, stats, rep: dict[str, Outcome], files: Files) -> dict[str, float]:
    totals = tracer.totals()

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def per_s(count: float, name: str) -> float:
        return count / seconds(name) if seconds(name) > 0 else 0.0

    composition = json.loads(Path(files.composition).read_text())
    sources = composition["valid_read_source_counts"]
    invalid = composition["counts"]["InvalidClick"]
    judged = sum(sources.values()) + invalid  # clicks over the noise floor
    n_labeled = rep["label"].summary["n_events"]
    return {
        "simulate.generate_s": seconds("simulate.generate"),
        "simulate.events_per_s": per_s(rep["simulate"].summary["n_events"], "simulate.generate"),
        "events.read_log_s": seconds("events.read_log"),
        "events.read_log_calls": calls("events.read_log"),
        "events.rows_per_s": per_s(totals.get("events.read_log", {}).get("rows", 0), "events.read_log"),
        "dwell_stats.fit_s": seconds("dwell_stats.fit"),
        "dwell_stats.histogram_s": seconds("dwell_stats.histogram"),
        "profiles.build_s": seconds("profiles.build"),
        "profiles.save_s": seconds("profiles.save"),
        "profiles.load_s": seconds("profiles.load"),
        "profiles.store_bytes": stats.store_bytes,
        "quantiles.sketch_items": stats.sketch_items,
        "quantiles.query_calls": calls("quantiles.query"),
        "quantiles.query_s": seconds("quantiles.query"),
        "labeling.label_s": seconds("labeling.label"),
        "labeling.rows_per_s": per_s(n_labeled, "labeling.label"),
        "labeling.read_labeled_s": seconds("labeling.read_labeled"),
        "labeling.t1_share": sources["T1"] / judged if judged else 0.0,
        "labeling.t2_share": sources["T2"] / judged if judged else 0.0,
        "labeling.t3_share": sources["T3"] / judged if judged else 0.0,
        "labeling.invalid_share": invalid / judged if judged else 0.0,
        "ndt.calls": calls("ndt.ndt"),
        "ndt.s": seconds("ndt.ndt"),
        "training.build_instances_s": seconds("training.build_instances"),
        "training.train_s": seconds("training.train"),
        "training.rows_per_s": per_s(stats.rows_trained, "training.train"),
        "training.adam_step_s": seconds("training.adam_step"),
        "training.adam_steps": calls("training.adam_step"),
        "training.emb_rows_touched_share": statistics.fmean(stats.touched_shares) if stats.touched_shares else 0.0,
        "training.score_events_s": seconds("training.score_events"),
        "training.final_loss": stats.final_loss,
        "model.backward_s": seconds("model.backward"),
        "model.backward_calls": calls("model.backward"),
        "model.pack_s": seconds("model.pack"),
        "model.score_batch_s": seconds("model.score_batch"),
        "model.param_count": stats.param_count,
        "model.checkpoint_bytes": stats.checkpoint_bytes,
        "model.save_s": seconds("model.save"),
        "model.load_s": seconds("model.load"),
        "evaluation.report_s": seconds("evaluation.report"),
        "evaluation.migration_report_s": seconds("evaluation.migration_report"),
        "fileio.write_s": seconds("fileio.write"),
        "fileio.bytes_written": stats.bytes_written,
    }


def label_mismatch(wl: Workload, files: Files) -> int:
    """Events whose CLI label differs from the library's in-memory labeling.

    The CLI labels against a profile store that went through save/load; the
    library labels against the store it just built.  Run untraced and
    untimed, after the traced pipelines."""
    from readweight.dwell_stats import fit_log_normal
    from readweight.events import read_log
    from readweight.labeling import label_log, read_labeled_log
    from readweight.profiles import build_profiles
    from readweight.quantiles import DEFAULT_SWITCH_THRESHOLD

    events, _ = read_log(files.log)
    store = build_profiles(events, switch_threshold=wl.switch_threshold or DEFAULT_SWITCH_THRESHOLD)
    library = label_log(events, fit_log_normal(events), store)
    from_cli = read_labeled_log(files.labeled)
    return sum(
        1 for (_, a), (_, b) in zip(library, from_cli, strict=True) if (a.kind, a.source) != (b.kind, b.source)
    )


def environment() -> dict:
    import numpy as np

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes: machine speed at this moment,
    which drifts on a shared host.  Taken before and after each run."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i % 7
    return time.perf_counter() - start


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def traced_repetition(run: Run, untraced: dict[str, Outcome], untraced_files: Files,
                      files: Files, values: dict[str, list[float]]) -> dict | None:
    """One traced pipeline; appends its per-layer metrics to ``values`` and
    returns its spans."""
    from tracing import Tracer

    tracer = Tracer()
    traced, stats = run.traced_pipeline(files, tracer)
    if traced is None:
        return None
    for command, name in (("train", "ckpt"), ("eval", "eval")):
        if Path(getattr(files, name)).read_bytes() != Path(getattr(untraced_files, name)).read_bytes():
            traced[command].error = f"traced {name} differs from the untraced one"
    for name, value in layer_metrics(tracer, stats, traced, files).items():
        values.setdefault(name, []).append(value)
    traced_wall = sum(o.wall_s for c, o in traced.items() if c != "simulate")
    untraced_wall = sum(o.wall_s for c, o in untraced.items() if c != "simulate")
    values.setdefault("trace.overhead_s", []).append(traced_wall - untraced_wall)
    return tracer.to_doc()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "readweight" / "cli.py").is_file() or not SPEC.is_file():
        print(f"no readweight sources under {SRC}, or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    # One BLAS thread per process unless the caller chose otherwise: on a small
    # shared host, two BLAS threads made train and eval times swing more.
    # Set before numpy loads, so traced and untraced runs compute alike.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    env["calibration_start_s"] = calibration_s()
    started = time.monotonic()
    run = Run(args.workload, WORKLOADS[args.workload], args.seed, args.tiny, started + HARD_LIMIT_S)
    untraced_files = run.fresh_files("untraced")
    run.warm_up(untraced_files)
    untraced_reps: list[dict[str, Outcome]] = []
    values: dict[str, list[float]] = {}
    traces = []
    first_eval = None
    measure_start = time.monotonic()
    while run.failed == 0:
        rep_start = time.monotonic()
        rep = run.untraced_pipeline(untraced_files)
        if rep is None:
            break
        untraced_reps.append(rep)
        eval_bytes = Path(untraced_files.eval).read_bytes()
        first_eval = first_eval or eval_bytes
        if eval_bytes != first_eval:
            rep["eval"].error = "eval.json differs between repetitions"
        if args.trace:
            traced_files = run.fresh_files("traced")
            traces.append(traced_repetition(run, rep, untraced_files, traced_files, values))
        # Start no repetition that would end past --seconds, if it lasts as
        # long as this one did.
        now = time.monotonic()
        if now + (now - rep_start) > min(measure_start + args.seconds, run.deadline):
            break

    if args.trace:
        values.update(cli_metrics(untraced_reps))
        if run.failed == 0:
            values["labeling.cli_vs_library_mismatch"] = [label_mismatch(run.wl, traced_files)]
    elif run.failed == 0:
        values.update(end_to_end(untraced_reps))
    attempted = len(run.outcomes)
    values["cli.error_rate"] = [run.failed / attempted]
    measured = {name: statistics.median(v) for name, v in values.items() if v}

    env["loadavg_end"] = os.getloadavg()
    env["calibration_end_s"] = calibration_s()
    env["repetitions"] = len(untraced_reps)
    env["elapsed_s"] = time.monotonic() - started
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing and run.failed == 0:
        print(f"metrics declared in {SPEC.name} but not measured: {missing}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in measured
    }
    correct = run.failed == 0 and not missing
    if any(traces):
        trace_path = WORK / args.workload / "trace.json"
        trace_path.write_text(json.dumps({"environment": env, "repetitions": [t for t in traces if t]}))
    samples = {  # the wall times behind the medians, set-up included
        "pipeline_wall_s": [{c: o.wall_s for c, o in rep.items()} for rep in untraced_reps],
    }
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed, "samples": samples}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
