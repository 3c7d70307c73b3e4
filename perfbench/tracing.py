"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` swaps the public functions of each layer for timing
wrappers in the modules that call them; nothing under `src/` changes.
Spans stay in memory as (name, trace, parent, start, end, value) and are
written out when the run ends. `trace` is the (kind, index) of the query,
sample or phase the span belongs to: the harness sets it per query and
phase, and a joint-loss call opens a trace of its own per training sample.
`value` is a count taken at the boundary (rows, candidates, paths).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import pathrec.em
import pathrec.persist
import pathrec.reranker
import pathrec.retrieval
import pathrec.train
import pathrec.trained
from pathrec import bench, data
from pathrec.retrieval import ItemPathMapping


def _rows(args, out):            # prefixes scored by one layer call
    return int(args[1].shape[0])


def _size(args, out):            # candidates retrieved
    return len(out)


def _paths(args, out):           # non-empty paths the penalty sums over
    return len(getattr(args[0], "path_sizes", args[0]))


# (owner, attribute, span name, count taken from (args, result), opens a trace)
# Each function is wrapped where its callers look it up.
WRAPPED = [
    (pathrec.retrieval, "batched_layer_log_probs", "structure.batched_layer_log_probs", _rows, None),
    (pathrec.retrieval, "user_embedding", "structure.user_embedding", None, None),
    (pathrec.reranker, "user_embedding", "structure.user_embedding", None, None),
    (pathrec.reranker, "multi_path_loss", "structure.multi_path_loss", None, None),
    (pathrec.reranker, "penalty_value", "structure.penalty_value", _paths, None),
    (pathrec.retrieval, "beam_search", "retrieval.beam_search", None, None),
    (pathrec.em, "beam_search", "retrieval.beam_search", None, None),
    (pathrec.retrieval, "retrieve_candidates", "retrieval.retrieve_candidates", _size, None),
    (pathrec.trained, "retrieve_candidates", "retrieval.retrieve_candidates", _size, None),
    (pathrec.trained, "adaptive_beam", "retrieval.adaptive_beam", None, None),
    (ItemPathMapping, "from_assignments", "retrieval.ItemPathMapping.from_assignments", None, None),
    (pathrec.trained, "rerank", "reranker.rerank", None, None),
    (pathrec.trained, "brute_force_retrieve", "reranker.brute_force_retrieve", None, None),
    (pathrec.reranker, "sampled_softmax_loss", "reranker.sampled_softmax_loss", None, None),
    (pathrec.em, "joint_loss", "reranker.joint_loss", None, "sample"),
    (pathrec.em, "accumulate_scores", "em.accumulate_scores", None, None),
    (pathrec.em, "coordinate_descent_assign", "em.coordinate_descent_assign", None, None),
    (pathrec.train, "em_epoch", "em.em_epoch", None, None),
    (pathrec.em, "optimizer_step", "core.optimizer_step", None, None),
    (pathrec.persist, "load_checkpoint", "persist.load_checkpoint", None, None),
    (pathrec.persist, "read_mapping", "persist.read_mapping", None, None),
    (pathrec.persist, "read_tensor", "persist.read_tensor", None, None),
    (pathrec.persist, "save_checkpoint", "persist.save_checkpoint", None, None),
    (pathrec.persist, "write_mapping", "persist.write_mapping", None, None),
    (bench, "synthetic_model", "bench.synthetic_model", None, None),
    (data, "synth_clusters", "data.synth_clusters", None, None),
    (data, "make_split", "data.make_split", None, None),
    (data, "evaluate", "data.evaluate", None, None),
]

NAME, TRACE, PARENT, START, END, VALUE = range(6)


class Tracer:
    """In-memory span recorder; does nothing unless `enabled`."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.stack: list = []
        self.trace = None
        self.paused = False
        self._restore: list = []

    def set_trace(self, kind: str, index: int = 0) -> None:
        self.trace = (kind, index)

    @contextlib.contextmanager
    def pause(self):
        """Record no spans inside, e.g. while the oracles run."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name, fn, value=None, opens=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self.trace, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(index)
            outer = self.trace
            if opens:
                self.trace = span[TRACE] = (opens, index)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                self.trace = outer
            if value is not None:
                span[VALUE] = value(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap in the wrappers for the duration of the block."""
        if not self.enabled:
            yield self
            return
        try:
            for owner, attr, name, value, opens in WRAPPED:
                original = vars(owner)[attr]
                traced = self.wrap(name, getattr(owner, attr), value, opens)
                if isinstance(original, classmethod):
                    traced = staticmethod(traced)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, traced)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, trace, parent, start, end, value in self.spans:
                f.write(json.dumps({"name": name, "trace": trace, "parent": parent,
                                    "start": start, "end": end, "value": value}) + "\n")


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics from the spans of one workload run.

    `counts` holds the denominators (queries per kind, training runs and
    their sample steps, batches and epochs) and the counters read off the
    trained and loaded models."""
    self_s = [s[END] - s[START] for s in spans]
    rows_in = defaultdict(int)                 # beam_search span -> rows scored
    m_step_rebuild_s = 0.0                     # index rebuilds inside the M-step
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
            if s[NAME] == "structure.batched_layer_log_probs":
                rows_in[s[PARENT]] += s[VALUE]
            elif (s[NAME] == "retrieval.ItemPathMapping.from_assignments"
                  and spans[s[PARENT]][NAME] == "em.coordinate_descent_assign"):
                m_step_rebuild_s += s[END] - s[START]

    total, own, calls, values = (defaultdict(float), defaultdict(float),
                                 defaultdict(int), defaultdict(float))
    per_round = defaultdict(float)             # (name, kind, round) -> seconds
    for i, s in enumerate(spans):
        kind = s[TRACE][0] if s[TRACE] else None
        if kind == "sample":
            kind = "train"
        key = (s[NAME], kind)
        total[key] += s[END] - s[START]
        own[key] += self_s[i]
        calls[key] += 1
        values[key] += s[VALUE] or 0
        if kind in ("setup", "load"):
            per_round[(s[NAME], kind, s[TRACE][1])] += s[END] - s[START]

    def per(table, name, kind, denominator, scale=1000.0):
        return scale * table[(name, kind)] / max(denominator, 1)

    def round_ms(name, kind):
        rounds = [v for (n, k, _), v in per_round.items() if (n, k) == (name, kind)]
        return 1000.0 * statistics.median(rounds) if rounds else 0.0

    nq, na, nb = counts["structure"], counts["adaptive"], counts["brute_force"]
    steps, batches, epochs = counts["sample_steps"], counts["batches"], counts["epochs"]

    adaptive_rows = defaultdict(list)          # adaptive query -> rows per beam
    for i, s in enumerate(spans):
        if s[NAME] == "retrieval.beam_search" and s[TRACE] and s[TRACE][0] == "adaptive":
            adaptive_rows[s[TRACE]].append(rows_in[i])
    useful = sum(r[-1] for r in adaptive_rows.values())
    scored = sum(sum(r) for r in adaptive_rows.values())

    m = {
        "structure.batched_layer_log_probs.ms_per_query":
            (per(total, "structure.batched_layer_log_probs", "structure", nq), "ms"),
        "structure.batched_layer_log_probs.rows_per_query":
            (per(values, "structure.batched_layer_log_probs", "structure", nq, 1), "count"),
        "structure.user_embedding.calls_per_query":
            (per(calls, "structure.user_embedding", "structure", nq, 1), "count"),
        "structure.multi_path_loss.ms_per_sample":
            (per(total, "structure.multi_path_loss", "train", steps), "ms"),
        "structure.penalty_value.ms_per_sample":
            (per(total, "structure.penalty_value", "train", steps), "ms"),
        "structure.penalty_value.calls_per_epoch":
            (per(calls, "structure.penalty_value", "train", epochs, 1), "count"),
        "structure.penalty_value.paths_per_call":
            (per(values, "structure.penalty_value", "train",
                 calls[("structure.penalty_value", "train")], 1), "count"),
        "retrieval.beam_search.self_ms_per_query":
            (per(own, "retrieval.beam_search", "structure", nq), "ms"),
        "retrieval.retrieve_candidates.self_ms_per_query":
            (per(own, "retrieval.retrieve_candidates", "structure", nq), "ms"),
        "retrieval.retrieve_candidates.candidates_per_query":
            (per(values, "retrieval.retrieve_candidates", "structure", nq, 1), "count"),
        "retrieval.adaptive_beam.beam_searches_per_query":
            (per(calls, "retrieval.beam_search", "adaptive", na, 1), "count"),
        "retrieval.adaptive_beam.useful_rows_ratio": (useful / max(scored, 1), "ratio"),
        "retrieval.ItemPathMapping.from_assignments.ms":
            (round_ms("retrieval.ItemPathMapping.from_assignments", "load"), "ms"),
        "retrieval.ItemPathMapping.from_assignments.train_ms_per_epoch":
            (1000.0 * m_step_rebuild_s / max(epochs, 1), "ms"),
        "retrieval.inverted_index.paths": (counts["inverted_paths"], "count"),
        "reranker.rerank.ms_per_query": (per(total, "reranker.rerank", "structure", nq), "ms"),
        "reranker.brute_force_retrieve.ms_per_query":
            (per(total, "reranker.brute_force_retrieve", "brute_force", nb), "ms"),
        "reranker.sampled_softmax_loss.ms_per_sample":
            (per(total, "reranker.sampled_softmax_loss", "train", steps), "ms"),
        "reranker.joint_loss.self_ms_per_sample":
            (per(own, "reranker.joint_loss", "train", steps), "ms"),
        "em.accumulate_scores.ms_per_sample": (per(total, "em.accumulate_scores", "train", steps), "ms"),
        "em.coordinate_descent_assign.ms_per_epoch":
            (per(total, "em.coordinate_descent_assign", "train", epochs), "ms"),
        "em.em_epoch.self_ms_per_batch": (per(own, "em.em_epoch", "train", batches), "ms"),
        "em.score_table_entries": (counts["score_table_entries"], "count"),
        "em.cold_items": (counts["cold_items"], "count"),
        "core.optimizer_step.ms_per_batch": (per(total, "core.optimizer_step", "train", batches), "ms"),
        "persist.load_checkpoint.ms": (round_ms("persist.load_checkpoint", "load"), "ms"),
        "persist.read_mapping.ms": (round_ms("persist.read_mapping", "load"), "ms"),
        "persist.read_tensor.ms": (round_ms("persist.read_tensor", "load"), "ms"),
        "persist.save_checkpoint.ms": (round_ms("persist.save_checkpoint", "setup"), "ms"),
        "persist.write_mapping.ms": (round_ms("persist.write_mapping", "setup"), "ms"),
        "bench.synthetic_model.ms": (round_ms("bench.synthetic_model", "setup"), "ms"),
        "data.synth_clusters.ms": (round_ms("data.synth_clusters", "setup"), "ms"),
        "data.make_split.ms": (round_ms("data.make_split", "setup"), "ms"),
        "data.evaluate.ms": (per(total, "data.evaluate", "eval", counts["trainings"]), "ms"),
    }
    return m
