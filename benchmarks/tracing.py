"""In-memory span tracer and the instrumentation of readweight's public layers.

The tracer never touches ``src/``: ``instrument`` replaces module and class
attributes that the CLI looks up at call time with wrappers that record a
span around the original, and puts the originals back on exit.

A span is (id, name, start, end, parent).  Scalar functions called once per
row (``ndt``, ``QuantileEstimator.query``) would drown the trace in spans, so
their calls are tallied into one aggregate span per (parent, name) that
carries the summed duration and the call count.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    calls: int = 1
    duration: float = 0.0  # summed call time; equals end - start for a plain span
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; ``to_doc`` renders them once the run ends."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._tallies: dict[tuple[int | None, str], Span] = {}

    def _parent(self) -> int | None:
        return self._stack[-1].id if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        now = self.clock()
        record = Span(len(self.spans), name, now, now, self._parent())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            record.duration = record.end - record.start
            self._stack.pop()

    def tally(self, name: str, start: float, end: float) -> None:
        """Fold one call of a per-row function into its aggregate span."""
        key = (self._parent(), name)
        record = self._tallies.get(key)
        if record is None:
            record = Span(len(self.spans), name, start, end, key[0], calls=0)
            self.spans.append(record)
            self._tallies[key] = record
        record.end = end
        record.calls += 1
        record.duration += end - start

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        return {record.id: record.duration - child_time[record.id] for record in self.spans}

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, summed attrs."""
        self_s = self.self_times()
        out: dict[str, dict] = {}
        for record in self.spans:
            entry = out.setdefault(record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += record.calls
            entry["total_s"] += record.duration
            entry["self_s"] += self_s[record.id]
            for key, value in record.attrs.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def to_doc(self) -> dict:
        self_s = self.self_times()
        return {
            "spans": [
                {
                    "id": r.id,
                    "name": r.name,
                    "start": r.start,
                    "end": r.end,
                    "parent": r.parent,
                    "calls": r.calls,
                    "duration_s": r.duration,
                    "self_s": self_s[r.id],
                    **({"attrs": r.attrs} if r.attrs else {}),
                }
                for r in self.spans
            ],
            "totals": self.totals(),
        }


def check_nesting(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Problems with a rendered span list: children outside their parent's
    interval, or children that cover more time than the parent lasted."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["self_s"] < -slack:
            problems.append(f"{s['name']}#{s['id']}: children exceed the span by {-s['self_s']:.6f} s")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"{s['name']}#{s['id']}: unknown parent {s['parent']}")
        elif parent is not None and not (
            parent["start"] - slack <= s["start"] <= s["end"] <= parent["end"] + slack
        ):
            problems.append(f"{s['name']}#{s['id']}: outside parent {parent['name']}#{parent['id']}")
    return problems


# -- wrappers ---------------------------------------------------------------


def _spanned(tracer: Tracer, fn, name: str, before=None, after=None):
    """Wrap ``fn`` in a span; ``before``/``after`` hooks run outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if after is not None:
            after(record, args, result)
        return result

    return wrapper


def _tallied(tracer: Tracer, fn, name: str):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        tracer.tally(name, start, clock())
        return result

    return wrapper


def _spanned_iteration(tracer: Tracer, fn, name: str):
    """A generator function's span must cover the iteration, not the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        def iterate():
            with tracer.span(name):
                yield from fn(*args, **kwargs)

        return iterate()

    return wrapper


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # A class's own __dict__ keeps a classmethod's descriptor intact.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass(slots=True)
class LayerStats:
    """Counts gathered by the wrappers, outside the timed spans."""

    sketch_items: int = 0
    store_bytes: int = 0
    checkpoint_bytes: int = 0
    bytes_written: int = 0
    touched_shares: list[float] = field(default_factory=list)
    param_count: int = 0
    final_loss: float = float("nan")
    rows_trained: int = 0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers the CLI calls; yields the LayerStats they fill in."""
    import numpy as np

    from readweight import _fileio, cli, evaluation, model, profiles, quantiles, simulate, training

    stats = LayerStats()
    patches = _Patches()

    def count_rows(record, args, result):
        record.attrs["rows"] = result[1].total

    def count_sketches(record, args, store):
        stats.sketch_items = sum(1 for p in store.items.values() if p.estimator.mode == "sketch")

    def store_size(record, args, result):
        stats.store_bytes = os.path.getsize(args[1])

    def checkpoint_size(record, args, result):
        stats.checkpoint_bytes = os.path.getsize(args[1])

    def written(args):
        stats.bytes_written += len(args[1])

    def touched(args):
        net, batch = args
        rows = sum(int(np.unique(batch.idx[:, col]).size) for col in range(batch.idx.shape[1]))
        stats.touched_shares.append(rows / sum(slot.cardinality for slot in net.config.slots))

    def trained(record, args, result):
        cfg, instances = args[0], args[1]
        stats.rows_trained += len(instances) * cfg.epochs
        stats.param_count = sum(int(p.size) for p in result.network.params.values())
        stats.final_loss = result.trace[-1].l

    def wrap(owner, attr, name, **hooks):
        patches.set(owner, attr, _spanned(tracer, getattr(owner, attr), name, **hooks))

    def wrap_classmethod(cls, attr, name, **hooks):
        fn = cls.__dict__[attr].__func__
        patches.set(cls, attr, classmethod(_spanned(tracer, fn, name, **hooks)))

    try:
        generate = _spanned(tracer, simulate.generate, "simulate.generate")
        patches.set(cli, "generate", generate)
        wrap(cli, "read_log", "events.read_log", after=count_rows)
        wrap(cli, "fit_log_normal", "dwell_stats.fit")
        wrap(cli, "histogram_lnT", "dwell_stats.histogram")
        wrap(cli, "build_profiles", "profiles.build", after=count_sketches)
        wrap(profiles.ProfileStore, "save", "profiles.save", after=store_size)
        wrap_classmethod(profiles.ProfileStore, "load", "profiles.load")
        patches.set(
            quantiles.QuantileEstimator,
            "query",
            _tallied(tracer, quantiles.QuantileEstimator.query, "quantiles.query"),
        )
        patches.set(cli, "label_log", _spanned_iteration(tracer, cli.label_log, "labeling.label"))
        wrap(cli, "read_labeled_log", "labeling.read_labeled")
        patches.set(training, "ndt", _tallied(tracer, training.ndt, "ndt.ndt"))
        wrap(cli, "build_instances", "training.build_instances")
        wrap(cli, "train", "training.train", after=trained)
        wrap(training.Adam, "step", "training.adam_step")
        wrap(model.MtlNetwork, "backward", "model.backward", before=touched)
        wrap(training, "pack_instances", "model.pack")
        wrap(cli, "score_events", "training.score_events")
        wrap(model.MtlNetwork, "score_batch", "model.score_batch")
        wrap(model.MtlNetwork, "save", "model.save", after=checkpoint_size)
        wrap_classmethod(model.MtlNetwork, "load", "model.load")
        wrap_classmethod(evaluation.EvalReport, "build", "evaluation.report")
        wrap(cli, "migration_report", "evaluation.migration_report")
        wrap(_fileio, "atomic_write_bytes", "fileio.write", before=written)
        yield stats
    finally:
        patches.undo()
