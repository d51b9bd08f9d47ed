"""Perf ledger: wall time, CPU time and peak RSS of each CLI command at size M.

Run from the repository root::

    python3 tools/perf_ledger.py --tree change=src --out BENCH_17.json

Each ``--tree label=path`` names a ``src`` directory to measure; with two
or more, the repetitions alternate between them, so host drift falls on
every tree alike.  Every repetition simulates the size-M log
(``SimConfig(n_users=20000, n_items=2000, seed=7)``, 470,208 events) and
runs the pipeline on it, one subprocess per command (one BLAS thread),
taking each command's wall time, and its CPU time (``ru_utime +
ru_stime``) and ``ru_maxrss`` from ``os.wait4``.  CPU time moves less with
the host's load than wall time does.  A child's ``ru_maxrss`` starts at its
spawner's peak, so this script imports no numpy, and each repetition starts
with a ``python -c pass`` control row that shows the floor every command's
peak stands on.  The run appends one entry per tree to the ``runs`` list of
``--out``: the median and the samples of each command, the tree's git sha,
and the host (Python and numpy versions, nproc, bytecode caching, and a
fixed calibration loop's time before and after).  Nothing here is a gate.

Reading rule: a per-command peak that differs between two trees by less
than 2 MB is not put down to the code; trees with the same code have
differed by about 1.4 MB.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZE_M = ["--users", "20000", "--items", "2000", "--seed", "7"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


CONTROL = "python -c pass"
# Each measure's ledger key and the digits its samples keep, in run_command's order.
MEASURES = (("wall_s", 3), ("cpu_s", 3), ("peak_rss_mb", 1))


def pipeline(work: Path) -> list[list[str]]:
    """The commands of one repetition after the control row, in order; each
    reads what the ones before it wrote under ``work``."""
    f = {name: str(work / name) for name in
         ("log.csv", "stats.json", "hist.csv", "profiles.bin", "labeled.csv", "params.json",
          "model.ckpt", "eval.json", "cells.csv")}
    return [
        ["simulate", *SIZE_M, "--out", f["log.csv"]],
        ["fit-stats", "--log", f["log.csv"], "--out", f["stats.json"]],
        ["stats-report", "--log", f["log.csv"], "--out", f["hist.csv"]],
        ["build-profiles", "--log", f["log.csv"], "--out", f["profiles.bin"]],
        ["label", "--log", f["log.csv"], "--stats", f["stats.json"], "--profiles", f["profiles.bin"],
         "--out", f["labeled.csv"]],
        ["ndt-params", "--stats", f["stats.json"], "--out", f["params.json"]],
        ["train", "--labeled", f["labeled.csv"], "--ndt-params", f["params.json"],
         "--checkpoint", f["model.ckpt"], "--epochs", "1"],
        ["eval", "--labeled", f["labeled.csv"], "--checkpoint", f["model.ckpt"], "--out", f["eval.json"]],
        ["migrate-report", "--baseline", f["log.csv"], "--treatment", f["log.csv"], "--out", f["cells.csv"]],
    ]


def run_command(argv: list[str], src: Path) -> tuple[float, float, float, str]:
    """(wall s, CPU s, peak RSS MB, stdout) of ``python argv`` in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_THREAD_VARS})
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # Reaped by wait4: tell Popen, which would otherwise warn that it still runs.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {stdout} {stderr}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout


def summary(runs: list[tuple[float, float, float]]) -> dict:
    """Each measure's median and samples over ``runs`` of one command."""
    entry = {}
    for (key, digits), column in zip(MEASURES, zip(*runs)):
        entry[key] = statistics.median(column)
        entry[f"{key}_samples"] = [round(x, digits) for x in column]
    return entry


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i % 7
    return time.perf_counter() - start


def git_sha(src: Path) -> str | None:
    """HEAD of the checkout holding ``src``, with ``-dirty`` when tracked
    files under ``src`` differ from it; None outside a git checkout."""
    try:
        head = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--untracked-files=no", "--", "."],
                                capture_output=True, text=True)
    except OSError:
        return None
    sha = head.stdout.strip()
    return sha + ("-dirty" if status.stdout.strip() else "") if sha else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="label=path of a src directory")
    parser.add_argument("--out", required=True, help="ledger JSON file; runs are appended")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.tree)
    # (wall s, CPU s, peak RSS MB) of each run of each command, by tree.
    samples: dict[str, dict[str, list[tuple[float, float, float]]]] = {label: {} for label in trees}
    n_events = {}
    calibration = [calibration_s()]
    for rep in range(args.reps):
        order = list(trees) if rep % 2 == 0 else list(reversed(trees))
        for label in order:
            src = Path(trees[label]).resolve()
            *measured, _ = run_command(["-c", "pass"], src)
            samples[label].setdefault(CONTROL, []).append(tuple(measured))
            with tempfile.TemporaryDirectory() as work:
                for command in pipeline(Path(work)):
                    *measured, stdout = run_command(["-m", "readweight.cli", *command], src)
                    samples[label].setdefault(command[0], []).append(tuple(measured))
                    if command[0] == "simulate":
                        n_events[label] = json.loads(stdout)["n_events"]
    calibration.append(calibration_s())
    host = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "calibration_s": calibration,
    }
    out = Path(args.out)
    ledger = json.loads(out.read_text()) if out.exists() else {"runs": []}
    for label, commands in samples.items():
        src = Path(trees[label]).resolve()
        ledger["runs"].append({
            "label": label,
            "git_sha": git_sha(src),
            "size": "M",
            "n_events": n_events[label],
            "reps": args.reps,
            **host,
            "commands": {command: summary(runs) for command, runs in commands.items()},
        })
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    for label, commands in samples.items():
        print(label, {c: tuple(round(summary(r)[key], 2) for key, _ in MEASURES) for c, r in commands.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
