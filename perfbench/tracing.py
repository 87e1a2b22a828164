"""Spans around the calls into each layer, recorded from the outside.

Nothing under ``src/`` knows about this module: :func:`install` replaces
public entry points with timing wrappers *where they are looked up* (the
module attribute a caller resolves at call time, e.g.
``repro.experiments.table1.run_jobs``), so the program runs unchanged
and untraced requests pay one extra Python call per wrapped entry.

A span is ``[name, start, end, parent span index, request id]`` kept in
memory (:attr:`Tracer.spans`) and written out once, at exit.  Counts
(Newton iterations, store hits, ...) are attributed to the request that
was being traced when they were observed.  :func:`layer_metrics` turns
spans and counts into the per-layer metrics: each ``*_s`` metric is the
*self* time of its spans (duration minus the part covered by child
spans), averaged per traced request, so the layers' self times add up to
the part of a request's wall time that spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

#: Engine phase splits published by ``REPRO_PHASE_TIMERS=1``.
PHASES = ("device_eval", "stamp", "factor", "solve", "overhead")

#: Span name -> the per-layer metric its self time feeds.
SELF_TIME = {
    "circuit.engine": "circuit.engine_s",
    "circuit.dc": "circuit.dc_s",
    "exec.run_jobs": "exec.run_jobs_s",
    "exec.pool": "exec.run_jobs_s",
    "exec.store.key": "exec.store.key_s",
    "exec.store.read": "exec.store.read_s",
    "exec.store.write": "exec.store.write_s",
    "core.evaluation": "core.evaluation_s",
    "experiments.sweep_prep": "experiments.sweep_prep_s",
    "experiments.score": "experiments.score_s",
    "sta.propagate": "sta.propagate_s",
    "sta.analyze": "sta.analyze_s",
    "library.sample": "library.sample_s",
}

#: Counts reported as a mean per traced request.
PER_REQUEST_COUNTS = (
    "circuit.newton_iters", "circuit.groups", "circuit.jobs",
    "circuit.newton_fallbacks", "circuit.halvings", "circuit.matrix_builds",
    "exec.store.hits", "exec.store.misses", "exec.store.stores",
    "exec.store.read_mb", "exec.store.write_mb",
    "exec.pool.shards", "exec.pool.fallback_shards", "exec.pool.wall_s",
    "sta.analyses", "sta.stages", "sta.quiet_hits", "sta.quiet_misses",
) + tuple(f"circuit.{p}_s" for p in PHASES)


class Tracer:
    """In-memory span and count recorder; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.request: object = None
        self.spans: list[list] = []
        self.counts: "dict[object, dict[str, float]]" = defaultdict(
            lambda: defaultdict(float))
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: object = None) -> int:
        stack = self._stack()
        self.spans.append([name, time.monotonic(), None,
                           stack[-1] if stack else None,
                           self.request if request is None else request])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.monotonic()
        self._stack().pop()
        return span[2] - span[1]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.request][key] += value

    def wrap(self, owner, attr: str, name: "str | None", on_result=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``on_result(tracer, args, kwargs, result, seconds)`` runs after
        each traced call (for counts); ``name=None`` records counts only.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.monotonic()
            index = self.begin(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = (self.end(index) if index is not None
                           else time.monotonic() - t0)
            if on_result is not None:
                on_result(self, args, kwargs, result, seconds)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str, **extra) -> None:
        """Write spans, counts and ``extra`` out (one JSON document)."""
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans,
                           counts={str(k): v for k, v in self.counts.items()}),
                      fh)


# ----------------------------------------------------------------------
# count hooks
# ----------------------------------------------------------------------
def _engine_counts(tracer, args, kwargs, results, seconds) -> None:
    # Members of one batched group carry copies of the group's stats, so
    # each contributes 1/batch_size of every group counter.
    tracer.count("circuit.jobs", len(results))
    for res in results:
        stats = res.stats
        weight = 1.0 / max(1, int(stats.get("batch_size", 1)))
        tracer.count("circuit.groups", weight)
        for key in ("newton_iters", "newton_fallbacks", "halvings",
                    "matrix_builds"):
            tracer.count(f"circuit.{key}", weight * stats.get(key, 0))
        for phase, value in (stats.get("phase_seconds") or {}).items():
            if phase in PHASES:
                tracer.count(f"circuit.{phase}_s", weight * value)


def _nbytes(result) -> float:
    import numpy as np
    return float(sum(v.nbytes for v in vars(result).values()
                     if isinstance(v, np.ndarray)))


def _store_read_counts(tracer, args, kwargs, result, seconds) -> None:
    if result is None:
        tracer.count("exec.store.misses")
    else:
        tracer.count("exec.store.hits")
        tracer.count("exec.store.read_mb", _nbytes(result) / 2**20)


def _store_write_counts(tracer, args, kwargs, result, seconds) -> None:
    tracer.count("exec.store.stores")
    tracer.count("exec.store.write_mb", _nbytes(args[2]) / 2**20)


def _pool_counts(tracer, args, kwargs, result, seconds) -> None:
    diag = kwargs.get("diag") or {}
    tracer.count("exec.pool.shards", diag.get("shards", 0))
    tracer.count("exec.pool.fallback_shards", diag.get("fallback_shards", 0))
    if diag.get("mode") == "sharded":
        tracer.count("exec.pool.wall_s", seconds)


def _quiet_counts(tracer, args, kwargs, result, seconds) -> None:
    tracer.count("sta.quiet_misses" if result is None else "sta.quiet_hits")


def _stage_counts(tracer, args, kwargs, result, seconds) -> None:
    tracer.count("sta.stages", len(result))


def _analysis_counts(tracer, args, kwargs, result, seconds) -> None:
    tracer.count("sta.analyses")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach."""
    import repro.circuit.transient as transient
    import repro.exec.pool as pool
    import repro.experiments.table1 as table1
    import repro.service.jobs as service_jobs
    import repro.sta.analysis as analysis
    import repro.sta.noise_aware as noise_aware
    import repro.sta.statistical as statistical
    from repro.core.techniques import all_techniques
    from repro.exec.store import ResultStore

    tracer.wrap(pool, "simulate_transient_many", "circuit.engine",
                _engine_counts)
    for attr in ("dc_operating_point", "dc_operating_point_batch"):
        tracer.wrap(transient, attr, "circuit.dc")
    for module in (table1, noise_aware, service_jobs):
        tracer.wrap(module, "run_jobs", "exec.run_jobs")
    tracer.wrap(statistical, "run_indexed", "exec.pool", _pool_counts)
    tracer.wrap(ResultStore, "key_for", "exec.store.key")
    tracer.wrap(ResultStore, "lookup", "exec.store.read", _store_read_counts)
    tracer.wrap(ResultStore, "store", "exec.store.write", _store_write_counts)

    # Resolve every technique's method before patching any, so a class
    # inheriting another's method is wrapped once, not twice.
    classes = {type(t): t.name for t in all_techniques()}
    methods = {cls: cls.equivalent_waveform for cls in classes}
    for cls, name in classes.items():
        cls.equivalent_waveform = methods[cls]
        tracer.wrap(cls, "equivalent_waveform", f"core.technique.{name}")
    for attr in ("prepare_evaluation", "finish_evaluation"):
        tracer.wrap(table1, attr, "core.evaluation")
    for attr in ("prepare_noise_sweep", "finish_noise_sweep",
                 "receiver_fixture"):
        tracer.wrap(table1, attr, "experiments.sweep_prep")
    tracer.wrap(table1, "error_stats", "experiments.score")

    tracer.wrap(noise_aware, "propagate_path", "sta.propagate", _stage_counts)
    tracer.wrap(noise_aware.QuietReferenceCache, "lookup", None, _quiet_counts)
    tracer.wrap(analysis.StaEngine, "analyze", "sta.analyze",
                _analysis_counts)
    for attr in ("sample_library", "sample_wire_specs"):
        tracer.wrap(statistical, attr, "library.sample")


def phase_timers(on: bool) -> None:
    """Switch the engine's own phase split (read per engine call)."""
    if on:
        os.environ["REPRO_PHASE_TIMERS"] = "1"
    else:
        os.environ.pop("REPRO_PHASE_TIMERS", None)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans: list[list], counts: dict, requests: list) -> dict:
    """Per-layer metrics, as means per traced request.

    ``requests`` are the request ids to aggregate; spans and counts of
    other requests (warm-up, untraced ones) are ignored.
    """
    wanted = {str(r) for r in requests}
    n = max(1, len(wanted))
    totals: "dict[str, float]" = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if str(span[4]) not in wanted:
            continue
        name = span[0]
        if name in SELF_TIME:
            totals[SELF_TIME[name]] += own
        elif name.startswith("core.technique."):
            totals["core.technique_s"] += own
            if name == "core.technique.SGDP":
                totals["core.sgdp_s"] += own
    merged: "dict[str, float]" = defaultdict(float)
    for request, values in counts.items():
        if str(request) in wanted:
            for key, value in values.items():
                merged[key] += value
    out = {key: totals[key] / n for key in set(SELF_TIME.values())}
    out["core.technique_s"] = totals["core.technique_s"] / n
    out["core.sgdp_s"] = totals["core.sgdp_s"] / n
    for key in PER_REQUEST_COUNTS:
        out[key] = merged[key] / n
    groups = merged["circuit.groups"]
    out["circuit.batch_width_mean"] = (merged["circuit.jobs"] / groups
                                       if groups else 0.0)
    looked = merged["exec.store.hits"] + merged["exec.store.misses"]
    out["exec.store.hit_ratio"] = (merged["exec.store.hits"] / looked
                                   if looked else 0.0)
    return out


def coverage(spans: list[list], root_name: str = "request") -> dict:
    """Share of each root span's wall time covered by its child spans."""
    child = defaultdict(float)
    for span in spans:
        if span[3] is not None and spans[span[3]][0] == root_name:
            child[span[3]] += span[2] - span[1]
    return {str(s[4]): child[i] / (s[2] - s[1])
            for i, s in enumerate(spans) if s[0] == root_name}
