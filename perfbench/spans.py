"""Span recorder: times the program's layers from outside.

The recorder wraps public functions and methods of ``repro`` at run
time (class attributes and module attributes; nothing under ``src/`` is
edited) and keeps one span per call: name, start, end and parent.  A
layer's self time is its span's duration minus the part its child spans
cover; spans nest on one thread, so the children cover exactly the sum
of their durations.  Spans stay in memory and are written out when the
benchmark ends.

Only calls on the thread that created the recorder are timed, and only
while :attr:`SpanRecorder.enabled` is true, so the wrappers cost one
attribute test when tracing is off.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> public call sites it covers.  ``("method", module,
#: class, names)`` wraps the methods on the class and on every subclass
#: that overrides them; ``("function", module, name)`` wraps a module
#: function everywhere it was imported by name; ``("factory", ...)``
#: wraps methods whose *returned* callable is the timed work (the
#: oracles' run and round samplers).  Order matters only for docs.
LAYERS: Dict[str, List[tuple]] = {
    "streams.source": [
        ("method", "repro.streams.base", "GenerativeStream",
         ("values", "values_range")),
        ("method", "repro.streams.base", "MaterializedStream",
         ("values", "values_range")),
        ("method", "repro.streams.markov", "MarkovValueProcess", ("step",)),
    ],
    "engine.histogram": [
        ("method", "repro.streams.base", "StreamDataset",
         ("true_frequencies", "true_counts", "true_frequencies_range")),
        ("function", "repro.engine.kernels_fast", "block_histograms"),
    ],
    "oracle.draw": [
        ("method", "repro.freq_oracles.base", "FrequencyOracle",
         ("perturb", "sample_aggregate", "sample_aggregate_batch",
          "sample_aggregate_run", "sample_aggregate_run_stacked")),
        ("factory", "repro.freq_oracles.base", "FrequencyOracle",
         ("run_sampler", "round_sampler")),
    ],
    "mechanism.step": [
        ("method", "repro.mechanisms.base", "StreamMechanism",
         ("step", "step_many", "absorb_run")),
    ],
    "engine.accountant": [
        ("method", "repro.engine.accountant", "WEventAccountant",
         ("charge", "charge_many", "charge_span")),
    ],
    "engine.population": [
        ("method", "repro.engine.population", "UserPool",
         ("sample", "recycle", "sample_run", "recycle_run")),
    ],
    "engine.soa": [
        ("method", "repro.engine.soa", "SoAScheduler", ("advance",)),
    ],
    "engine.session": [
        ("method", "repro.engine.session", "StreamSession",
         ("start", "observe", "observe_many", "ingest_prepared",
          "finalize")),
        ("method", "repro.engine.group", "SessionGroup", ("run",)),
    ],
    "experiments.evaluate": [
        ("function", "repro.experiments.runner", "cell_from_session"),
        ("function", "repro.experiments.runner", "merge_repeat_cells"),
    ],
    "cli.loop": [
        ("function", "repro.cli", "main"),
    ],
    "streams.push": [
        ("method", "repro.streams.online", "OnlineStream", ("push",)),
    ],
    "persist.wal": [
        ("method", "repro.persist.wal", "ReleaseWAL", ("append", "commit")),
    ],
    "persist.checkpoint": [
        ("method", "repro.persist.checkpoint", "Checkpoint", ("capture",)),
        ("method", "repro.persist.statedir", "StateDir",
         ("save_checkpoint",)),
    ],
    "query.store": [
        ("method", "repro.query.store", "ReleaseStore",
         ("append", "release_at", "variance_at", "strategy_at",
          "publication_id_at", "subset_sum", "window_sum",
          "span_releases", "span_variances", "span_publication_groups")),
    ],
    "query.planner": [
        ("method", "repro.query.planner", "QueryPlanner",
         ("answer", "plan", "evaluate")),
        ("function", "repro.query.dsl", "parse_expr"),
        ("function", "repro.query.dsl", "query_from_request"),
    ],
    "query.standing": [
        ("method", "repro.query.standing", "StandingRegistry",
         ("register", "poll")),
    ],
    "serving.router": [
        ("method", "repro.serving.router", "ShardRouter",
         ("split", "split_block")),
    ],
    "serving.merge": [
        ("function", "repro.query.store", "merge_release_rows"),
    ],
}

#: Layers no wrapper can time, computed by the workload from two runs
#: (``serving.front``: socket time per step minus in-process time).
DERIVED_LAYERS = ("serving.front",)

#: Calls counted (not timed): the speculative LBD/LBA draws, the
#: rewinds that discard them, and WAL commits.
COUNTERS: Dict[str, tuple] = {
    "wal_commit": ("repro.persist.wal", "ReleaseWAL", "commit"),
    "speculate_run": ("repro.engine.collector", "ChunkContext",
                      "speculate_run"),
    "rng_restore": ("repro.engine.collector", "ChunkContext",
                    "rng_restore"),
}


class SpanRecorder:
    """In-memory spans and per-layer self time for one thread."""

    def __init__(self, max_spans: int = 200_000):
        self.enabled = False
        self.max_spans = int(max_spans)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.checkpoint_bytes = 0
        self._thread = threading.get_ident()
        self._stack: list = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every span and total (the patches stay)."""
        self.spans.clear()
        self.dropped = 0
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.checkpoint_bytes = 0

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is one span named ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not recorder.enabled
                or threading.get_ident() != recorder._thread
            ):
                return fn(*args, **kwargs)
            stack = recorder._stack
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                recorder.self_s[name] += duration - frame[2]
                recorder.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if len(recorder.spans) < recorder.max_spans:
                    recorder.spans.append(
                        (span_id, name, frame[1], end, parent)
                    )
                else:
                    recorder.dropped += 1

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.enabled:
                recorder.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, name: str, fn: Callable) -> Callable:
        timed_factory = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed(name, timed_factory(*args, **kwargs))

        return wrapper

    def _checkpoint_size(self, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(state_dir, checkpoint):
            fn(state_dir, checkpoint)
            if recorder.enabled:
                recorder.checkpoint_bytes += (
                    state_dir.checkpoint_path.stat().st_size
                )

        return wrapper

    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, cls, names, wrap) -> None:
        for klass in [cls, *_subclasses(cls)]:
            for attr in names:
                raw = klass.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    self._set(klass, attr, classmethod(wrap(raw.__func__)))
                elif isinstance(raw, staticmethod):
                    self._set(klass, attr, staticmethod(wrap(raw.__func__)))
                elif callable(raw):
                    self._set(klass, attr, wrap(raw))

    def _patch_function(self, module: str, name: str, wrap) -> None:
        original = getattr(importlib.import_module(module), name)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def install(self) -> "SpanRecorder":
        """Patch every layer's call sites (idempotent per recorder)."""
        if self._patched:
            return self
        for module in {t[1] for ts in LAYERS.values() for t in ts}:
            importlib.import_module(module)
        for layer, targets in LAYERS.items():
            for target in targets:
                kind, module = target[0], target[1]
                if kind == "function":
                    self._patch_function(
                        module, target[2],
                        functools.partial(self.timed, layer),
                    )
                    continue
                cls = getattr(importlib.import_module(module), target[2])
                wrap = (
                    functools.partial(self._factory, layer)
                    if kind == "factory"
                    else functools.partial(self.timed, layer)
                )
                self._patch_class(cls, target[3], wrap)
        for counter, (module, cls_name, attr) in COUNTERS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_class(
                cls, (attr,), functools.partial(self.counted, counter)
            )
        statedir = importlib.import_module("repro.persist.statedir")
        # Sizes the checkpoint after the timed save has returned.
        self._set(
            statedir.StateDir,
            "save_checkpoint",
            self._checkpoint_size(statedir.StateDir.save_checkpoint),
        )
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (id, name, start, end,
        parent), times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        [span_id, name, start - origin, end - origin, parent]
                    )
                    + "\n"
                )


def _subclasses(cls) -> list:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        klass = todo.pop()
        if klass not in found:
            found.append(klass)
            todo.extend(klass.__subclasses__())
    return found


def layer_metrics(
    recorder: SpanRecorder,
    traced_wall_s: float,
    units: int,
    extra_self_s: Optional[Dict[str, float]] = None,
) -> Dict[str, dict]:
    """Per-layer self time (µs per unit and % of traced wall) and calls
    per unit, for every layer in :data:`LAYERS`."""
    self_s = dict(recorder.self_s)
    if extra_self_s:
        self_s.update(extra_self_s)
    out: Dict[str, dict] = {}
    for layer in (*LAYERS, *DERIVED_LAYERS):
        seconds = self_s.get(layer, 0.0)
        out[f"{layer}.self_us"] = _metric(1e6 * seconds / units, "us/step")
        out[f"{layer}.share"] = _metric(
            100.0 * seconds / traced_wall_s, "%"
        )
        if layer in LAYERS:
            out[f"{layer}.calls"] = _metric(
                recorder.calls.get(layer, 0) / units, "1/step"
            )
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
