"""Spans and counters recorded from outside the program.

A Tracer replaces public functions of the ``robust_coords`` modules with
wrappers that record one span per call (name, tag, start, end, parent) and
keep the arguments and return values the counters are computed from.
Spans stay in memory; the benchmark writes them out when the run ends.
Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from workloads import cli_io, dimred, ensemble, tda


@dataclass
class Span:
    name: str
    tag: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = float("nan")
    error: str | None = None
    args: tuple = ()
    kwargs: dict | None = None
    result: object = None

    @property
    def seconds(self):
        return self.end - self.start

    def matches(self, key):
        name, _, tag = key.partition(":")
        return self.name == name and (not tag or self.tag == tag)


def _rips_tag(args, kwargs):
    return f"d{kwargs.get('max_dim', 1)}p{kwargs.get('p', 2)}"


# (module, attribute, span name, keep args/result, tag function)
_WRAPPED = (
    (cli_io, "read_manifest", "cli_io.read_manifest", False, None),
    (cli_io, "read_points_csv", "cli_io.read_points_csv", False, None),
    (cli_io, "run_pipeline", "ensemble.run_pipeline", False, None),
    (cli_io, "write_report", "cli_io.write_report", True, None),
    (ensemble, "build_ensemble", "ensemble.build_ensemble", False, None),
    (ensemble, "embed", "dimred.embed", True, None),
    (dimred, "embed", "dimred.embed", True, None),
    (dimred, "pdist", "dimred.pdist", False, None),
    (dimred, "shortest_path", "dimred.shortest_path", False, None),
    (dimred, "classical_mds", "dimred.classical_mds", False, None),
    (ensemble, "dissimilarity_matrix", "ensemble.dissimilarity_matrix", True, None),
    (ensemble, "affine_procrustes", "procrustes_pair.affine_procrustes", False, None),
    (ensemble, "classical_mds", "ensemble.mds_view", False, None),
    (ensemble, "cluster_ensemble", "ensemble.cluster_ensemble", True, None),
    (ensemble, "select_good_cluster", "ensemble.select_good_cluster", False, None),
    (ensemble, "essential_dimension", "gpa_als.essential_dimension", False, None),
    (tda, "rips_from_distances", "tda.rips_from_distances", True, _rips_tag),
    (ensemble, "average_cluster", "ensemble.average_cluster", False, None),
    (ensemble, "als_align", "gpa_als.als_align", True, None),
)


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def __enter__(self):
        for module, attr, name, keep, tag in _WRAPPED:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._traced(original, name, keep, tag))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _begin(self, name, tag):
        span = Span(name, tag, self._open[-1] if self._open else -1, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name, tag=""):
        span = self._begin(name, tag)
        try:
            yield span
        finally:
            self._end(span)

    def _traced(self, original, name, keep, tag):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._begin(name, tag(args, kwargs) if tag else "")
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._end(span)
            if keep:
                span.args, span.kwargs, span.result = args, kwargs, result
            return result

        return traced

    def self_seconds(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own


# ------------------------------------------------------------------ metrics

TIME_METRICS = (
    ("dimred.embed_s", ("dimred.embed",)),
    ("dimred.pdist_s", ("dimred.pdist",)),
    ("dimred.dijkstra_s", ("dimred.shortest_path",)),
    ("dimred.mds_s", ("dimred.classical_mds",)),
    ("ensemble.build_s", ("ensemble.build_ensemble",)),
    ("ensemble.dissimilarity_s", ("ensemble.dissimilarity_matrix",)),
    ("procrustes_pair.s", ("procrustes_pair.affine_procrustes",)),
    ("ensemble.mds_view_s", ("ensemble.mds_view",)),
    ("ensemble.cluster_s", ("ensemble.cluster_ensemble",)),
    ("ensemble.select_s", ("ensemble.select_good_cluster",)),
    ("gpa_als.essdim_s", ("gpa_als.essential_dimension",)),
    ("tda.rips_s", ("tda.rips_from_distances",)),
    ("tda.rips_s.d1p2", ("tda.rips_from_distances:d1p2",)),
    ("tda.rips_s.d2p2", ("tda.rips_from_distances:d2p2",)),
    ("tda.rips_s.d2p3", ("tda.rips_from_distances:d2p3",)),
    ("ensemble.average_s", ("ensemble.average_cluster",)),
    ("gpa_als.align_s", ("gpa_als.als_align",)),
    ("cli_io.read_s", ("cli_io.read_manifest", "cli_io.read_points_csv")),
    ("cli_io.write_s", ("cli_io.write_report",)),
)


def _pairs(spans):
    return sum(len(s.args[0]) * (len(s.args[0]) - 1) // 2 for s in spans)


def _sentinel_pairs(spans):
    # member pairs whose presence masks share no index
    total = 0
    for s in spans:
        masks = np.stack([out.config.mask for out in s.args[0]]).astype(np.int64)
        overlap = masks @ masks.T
        total += int(np.count_nonzero(np.triu(overlap == 0, 1)))
    return total


def _landmark_matrix(span):
    dmat = np.asarray(span.args[0], dtype=float)
    budget = span.kwargs.get("landmark_budget", tda.DEFAULT_LANDMARK_BUDGET)
    if dmat.shape[0] > budget:
        keep = tda.maxmin_landmarks(dmat, budget)
        dmat = dmat[np.ix_(keep, keep)]
    return dmat


def _simplex_counts(span):
    """Rips simplices of dimension 1 .. max_dim+1 at the call's radius."""
    dmat = _landmark_matrix(span)
    radius = span.kwargs.get("max_radius")
    if radius is None:
        radius = 0.5 * float(dmat.max())
    adj = dmat <= radius
    np.fill_diagonal(adj, False)
    a = adj.astype(np.int64)
    max_dim = span.kwargs.get("max_dim", 1)
    counts = {1: int(np.triu(a, 1).sum())}
    if max_dim >= 1:
        counts[2] = int(np.trace(a @ a @ a)) // 6
    if max_dim >= 2:
        # each 4-clique is seen once from each of its 6 edges, as an edge
        # among the common neighbours of that edge's endpoints
        quads = 0
        for i, j in zip(*np.nonzero(np.triu(adj, 1))):
            common = adj[i] & adj[j]
            quads += int(a[np.ix_(common, common)].sum()) // 2
        counts[3] = quads // 6
    return counts


def _simplices(dim):
    return lambda spans: sum(_simplex_counts(s).get(dim, 0) for s in spans)


def _verdicts(name):
    return lambda spans: sum(c.verdict == name for s in spans for c in s.result)


COUNT_METRICS = (
    ("dimred.embed_calls", "dimred.embed", len),
    ("dimred.embed_failed", "dimred.embed", lambda ss: sum(s.error is not None for s in ss)),
    ("dimred.points_dropped", "dimred.embed",
     lambda ss: sum(len(s.result.dropped) for s in ss if s.error is None)),
    ("procrustes_pair.calls", "procrustes_pair.affine_procrustes", len),
    ("ensemble.pairs", "ensemble.dissimilarity_matrix", _pairs),
    ("ensemble.sentinel_pairs", "ensemble.dissimilarity_matrix", _sentinel_pairs),
    ("tda.rips_calls", "tda.rips_from_distances", len),
    ("tda.landmarks", "tda.rips_from_distances",
     lambda ss: sum(_landmark_matrix(s).shape[0] for s in ss)),
    ("tda.simplices.1", "tda.rips_from_distances", _simplices(1)),
    ("tda.simplices.2", "tda.rips_from_distances", _simplices(2)),
    ("tda.simplices.3", "tda.rips_from_distances", _simplices(3)),
    ("gpa_als.sweeps", "gpa_als.als_align", lambda ss: sum(s.result.iterations for s in ss)),
    ("gpa_als.k", "gpa_als.als_align", lambda ss: sum(s.args[0].k for s in ss)),
    ("gpa_als.converged", "gpa_als.als_align", lambda ss: sum(bool(s.result.converged) for s in ss)),
    ("ensemble.clusters", "ensemble.cluster_ensemble", lambda ss: sum(len(s.result) for s in ss)),
    ("ensemble.verdict.good", "ensemble.cluster_ensemble", _verdicts("good")),
    ("ensemble.verdict.rejected_sparse", "ensemble.cluster_ensemble", _verdicts("rejected_sparse")),
    ("ensemble.verdict.rejected_dim", "ensemble.cluster_ensemble", _verdicts("rejected_dim")),
    ("ensemble.verdict.rejected_ph", "ensemble.cluster_ensemble", _verdicts("rejected_ph")),
    ("cli_io.bytes_written", "cli_io.write_report",
     lambda ss: sum(os.path.getsize(f) for s in ss for f in s.result)),
)

# Outermost spans of these names make up a job's stage split.
STAGES = {
    "cli_io.read_manifest": "read",
    "cli_io.read_points_csv": "read",
    "ensemble.build_ensemble": "embed",
    "dimred.embed": "embed",
    "ensemble.dissimilarity_matrix": "dissimilarity",
    "ensemble.mds_view": "mds_view",
    "ensemble.cluster_ensemble": "cluster",
    "ensemble.select_good_cluster": "select",
    "ensemble.average_cluster": "average",
    "cli_io.write_report": "write",
    "tda.rips_from_distances": "rips",
}


def layer_metrics(tracer, bypasses):
    """Per-layer values of one traced job.

    Returns (values, status): ``values`` maps metric name to a number;
    ``status`` marks each metric whose source layer recorded no span as
    ``"n/a"`` when the workload bypasses that layer (counts then read 0) or
    ``"missing"`` otherwise.  Missing metrics carry no value.
    """
    values, status = {}, {}
    spans = tracer.spans
    for metric, keys in TIME_METRICS:
        hit = [s for s in spans if any(s.matches(k) for k in keys)]
        if hit:
            values[metric] = sum(s.seconds for s in hit)
        else:
            status[metric] = "n/a" if set(keys) & bypasses else "missing"
    for metric, key, count in COUNT_METRICS:
        hit = [s for s in spans if s.matches(key)]
        if hit:
            values[metric] = int(count(hit))
        elif key in bypasses:
            values[metric], status[metric] = 0, "n/a"
        else:
            status[metric] = "missing"
    for s in spans:
        if s.name == "dimred.embed" and s.error:
            failed = f"dimred.embed_failed.{s.error}"
            values[failed] = values.get(failed, 0) + 1
    return values, status


def stage_split(tracer):
    """Seconds per stage, counting only spans not nested inside another stage."""
    in_stage = []
    split = {}
    for s in tracer.spans:
        nested = s.parent >= 0 and in_stage[s.parent]
        is_stage = s.name in STAGES
        in_stage.append(nested or is_stage)
        if is_stage and not nested:
            label = STAGES[s.name] + (f".{s.tag[:2]}" if s.tag else "")
            split[label] = split.get(label, 0.0) + s.seconds
    return split


def span_table(tracer):
    """Per span name and tag: calls, total seconds and self seconds."""
    rows = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        key = f"{s.name}:{s.tag}" if s.tag else s.name
        calls, total, self_s = rows.get(key, (0, 0.0, 0.0))
        rows[key] = (calls + 1, total + s.seconds, self_s + own)
    return rows
