"""Span recording around the pipeline's layer calls, installed from outside.

`pipeline.run_pipeline` reaches every layer through names it imported into
its own module, so rebinding those names for the duration of a traced run
puts a span around each call without editing the package. A span keeps its
name, start, end, parent and a few exact counts read from the objects the
call returned. A recorder made with memory=True also keeps each span's peak
of traced memory above its start (from tracemalloc); tracemalloc slows
Python-heavy code several fold, so times come from recorders without it.
Spans stay in memory until the benchmark ends.
"""

import contextlib
import functools
import os
import time
import tracemalloc
from dataclasses import dataclass, field

from genecluster import pipeline


@dataclass
class Span:
    id: int
    root: int
    parent: int | None
    name: str
    start: float
    base_bytes: int
    end: float = 0.0
    peak_bytes: int = 0
    info: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _reduct_info(args, result):
    return {
        "rounds": len(result.trace),
        "forced_rounds": sum(r.forced for r in result.trace),
        "candidates_scored": sum(len(r.candidate_scores) for r in result.trace),
        "selected": len(result.selected),
    }


def _cluster_info(args, result):
    m, k = args[0], args[1]
    passes = result.history[1:]  # entry 0 is the initial assignment
    shortcut = any(h.shortcut_audit is not None for h in passes)
    return {
        "points": m.n_genes,
        "k": k,
        "dims": m.n_conditions,
        "iterations": result.iterations,
        "label_changes": sum(h.label_changes for h in passes),
        "shortcut_kept": sum(h.shortcut_kept for h in passes),
        "shortcut_tested": m.n_genes * len(passes) if shortcut else 0,
    }


# name in genecluster.pipeline -> (span name, reader of exact counts)
LAYER_CALLS = {
    "read_matrix": ("matrix.read_matrix", lambda a, r: {"cells": r.n_genes * r.n_conditions}),
    "drop_incomplete_genes": (
        "matrix.drop_incomplete_genes",
        lambda a, r: {"genes_dropped": a[0].n_genes - r.n_genes},
    ),
    "min_max_normalize": ("matrix.min_max_normalize", None),
    "discretize": ("matrix.discretize", None),
    "subset_genes": ("matrix.subset_genes", None),
    "write_matrix": ("matrix.write_matrix", lambda a, r: {"bytes": os.path.getsize(a[1])}),
    "build_table": ("roughset.build_table", None),
    "usqr_reduct": ("roughset.usqr_reduct", _reduct_info),
    "cluster_pipeline": ("clustering.cluster_pipeline", _cluster_info),
    "silhouette_scores": (
        "evaluation.silhouette_scores",
        lambda a, r: {"points": a[0].n_points, "dims": a[0].n_dims},
    ),
}
ROOT_SPAN = "pipeline.run_pipeline"


class Recorder:
    def __init__(self, memory):
        self.memory = memory
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.info = describe(args, result)
            return result

        return traced

    def _open(self, name):
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.peak_bytes = max(parent.peak_bytes, peak)
        if self.memory:
            tracemalloc.reset_peak()
        span_id = len(self.spans)
        span = Span(
            id=span_id,
            root=parent.root if parent else span_id,
            parent=parent.id if parent else None,
            name=name,
            start=time.perf_counter(),
            base_bytes=current,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.peak_bytes = max(span.peak_bytes, peak)
        self._stack.pop()
        if self._stack:
            self._stack[-1].peak_bytes = max(self._stack[-1].peak_bytes, span.peak_bytes)

    @contextlib.contextmanager
    def installed(self):
        """Rebind the pipeline's layer calls to traced wrappers; restore on exit."""
        originals = {attr: getattr(pipeline, attr) for attr in LAYER_CALLS}
        if self.memory:
            tracemalloc.start()
        try:
            for attr, (name, describe) in LAYER_CALLS.items():
                setattr(pipeline, attr, self.wrap(name, originals[attr], describe))
            yield self.wrap(ROOT_SPAN, pipeline.run_pipeline)
        finally:
            for attr, fn in originals.items():
                setattr(pipeline, attr, fn)
            if self.memory:
                tracemalloc.stop()


def self_times(spans):
    """Per-layer self time of one request: each span's duration less its children's."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out
