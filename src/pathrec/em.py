"""EM loop: gradient E-step on the joint objective, streaming estimation of
per-item path scores, and the penalized coordinate-descent M-step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import PROB_FLOOR, OptimizerState, optimizer_step
from .reranker import SoftmaxModel, joint_loss
from .retrieval import ItemPathMapping, batched_beam_search
# Score accumulation runs `batched_beam_search`, but `beam_search` stays
# importable from here: perfbench/tracing.py wraps it in this module by name.
from .retrieval import beam_search  # noqa: F401
from .structure import (PathId, StructureParams, UserBatch, check_number_fields,
                        penalty_value, quartic_size_penalty)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmConfig:
    """Training-loop knobs; structural constants (K, D, J, S, alpha, eta)
    live in StructureConfig."""

    epochs: int = 4
    cd_iterations: int = 3        # three to five sweeps suffice in practice
    batch_size: int = 32
    learning_rate: float = 0.01
    num_negatives: int = 100
    freeze_epoch: int = 2         # softmax output embeddings freeze from here

    def __post_init__(self):
        check_number_fields(self)
        if self.cd_iterations < 1:
            raise ValueError("cd_iterations must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epochs/batch_size")
        # Checked here too so that the CLI rejects them before training.
        OptimizerState(self.learning_rate)


class ScoreTable:
    """Per item, the top-S (path, score) estimates of accumulated path mass,
    plus decayed occurrence counts."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.scores: dict = {}    # item -> {path: score}
        self.counts: dict = {}    # item -> decayed N_v

    def top_paths(self, item: int) -> list:
        entries = self.scores.get(item, {})
        return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))

    def count(self, item: int) -> float:
        return self.counts.get(item, 0.0)


def streaming_score_update(table: ScoreTable, item: int, new_scores, eta: float) -> None:
    """Decay-and-merge update of one item's recorded score list.

    Paths in both lists get eta*old + new; paths only in the new list start
    from eta*min_score (exploration bonus); paths only in the recorded list
    are decayed. min_score is the smallest recorded score, or 0 while the
    recorded list is under capacity. Top S entries are kept.
    """
    merged_new: dict = {}
    for path, s in new_scores:
        if s < 0:
            raise ValueError(f"negative score {s} for path {path}")
        merged_new[tuple(path)] = merged_new.get(tuple(path), 0.0) + s
    recorded = table.scores.get(item, {})
    min_score = min(recorded.values()) if len(recorded) >= table.capacity else 0.0
    updated: dict = {}
    for path in recorded.keys() | merged_new.keys():
        if path in recorded and path in merged_new:
            updated[path] = eta * recorded[path] + merged_new[path]
        elif path in merged_new:
            updated[path] = eta * min_score + merged_new[path]
        else:
            updated[path] = eta * recorded[path]
    kept = sorted(updated.items(), key=lambda kv: (-kv[1], kv[0]))[: table.capacity]
    table.scores[item] = dict(kept)


def accumulate_scores(batch, params: StructureParams, table: ScoreTable) -> None:
    """Fold per-sample path probabilities of the top table-capacity beam
    paths into the table and bump the decayed occurrence counts.

    One beam search runs over all the batch's users; the table then takes
    the samples in order, so an item seen twice is merged twice.
    """
    batch = list(batch)
    if not batch:
        return
    cfg = params.cfg
    eta = cfg.decay_eta
    users = UserBatch([ctx for ctx, _ in batch], params)
    paths, logps = batched_beam_search(users.u, params,
                                       min(table.capacity, cfg.num_paths))
    for (_, item), user_paths, scores in zip(batch, paths.tolist(),
                                             np.exp(logps).tolist()):
        streaming_score_update(table, item, zip(user_paths, scores), eta)
        table.counts[item] = eta * table.counts.get(item, 0.0) + 1.0


def _random_path(num_nodes: int, depth: int, rng: np.random.Generator) -> PathId:
    return tuple(int(c) for c in rng.integers(0, num_nodes, size=depth))


def coordinate_descent_assign(table: ScoreTable, num_items: int,
                              num_nodes: int, depth: int, alpha: float,
                              paths_per_item: int, iterations: int,
                              rng: np.random.Generator,
                              prev_mapping: ItemPathMapping | None = None) -> ItemPathMapping:
    """Greedy per-item selection of J distinct paths by incremental gain.

    Gain of adding path c as the j-th assignment of item v:
        N_v * (log(s[v,c] + sum) - log(sum)) - alpha * (f(|c|+1) - f(|c|))
    with `sum` the partial score sum of the already-chosen paths; the first
    pick uses log(s) directly (common -inf offset). Path sizes are updated
    online, and assignments from the previous sweep are released just before
    re-selection; the previous paths are kept when they score better than
    the greedy pick, so each per-item update never decreases the penalized
    surrogate. Items absent from the table keep previous (or random) paths;
    items with fewer than J candidates are padded with random unassigned
    paths.
    """
    J, T, f = paths_per_item, iterations, quartic_size_penalty
    candidates: list = []
    fixed: list = [None] * num_items      # cold items keep these paths
    n_cold = 0
    for v in range(num_items):
        entries = table.top_paths(v)
        if not entries:
            n_cold += 1
            if prev_mapping is not None:
                fixed[v] = tuple(prev_mapping.assignments[v])
            else:
                chosen: set = set()
                while len(chosen) < J:
                    chosen.add(_random_path(num_nodes, depth, rng))
                fixed[v] = tuple(sorted(chosen))
            candidates.append(None)
            continue
        while len(entries) < J:
            extra = _random_path(num_nodes, depth, rng)
            if all(extra != c for c, _ in entries):
                entries.append((extra, 0.0))
        candidates.append(entries)
    if n_cold:
        log.warning("%d items have empty score tables; keeping previous/random paths",
                    n_cold)

    sizes: dict = {}
    assign: list = [None] * num_items
    for v in range(num_items):
        if candidates[v] is None:
            assign[v] = fixed[v]
            for c in fixed[v]:
                sizes[c] = sizes.get(c, 0) + 1
    for t in range(1, T + 1):
        for v in range(num_items):
            if candidates[v] is None:
                continue
            nv = table.count(v)
            score_of = dict(candidates[v])
            if t > 1:
                for c in assign[v]:
                    sizes[c] -= 1

            def set_value(paths):
                # Contribution of assigning `paths` to v with the item's
                # current paths released from `sizes` (distinct paths, so
                # the penalty increments are order independent).
                s_sum = sum(score_of[c] for c in paths)
                pen = sum(f(sizes.get(c, 0) + 1) - f(sizes.get(c, 0))
                          for c in paths)
                return nv * math.log(max(s_sum, PROB_FLOOR)) - alpha * pen

            chosen: list = []
            partial = 0.0
            for j in range(J):
                best_path, best_score, best_gain = None, 0.0, -math.inf
                for c, s in candidates[v]:
                    if c in chosen:
                        continue
                    if partial == 0.0:
                        gain_log = nv * math.log(max(s, PROB_FLOOR))
                    else:
                        gain_log = nv * (math.log(s + partial) - math.log(partial))
                    sz = sizes.get(c, 0)
                    gain = gain_log - alpha * (f(sz + 1) - f(sz))
                    if gain > best_gain or (gain == best_gain and
                                            best_path is not None and c < best_path):
                        best_path, best_score, best_gain = c, s, gain
                chosen.append(best_path)
                partial += best_score
            if t > 1 and set_value(assign[v]) > set_value(chosen):
                chosen = list(assign[v])
            for c in chosen:
                sizes[c] = sizes.get(c, 0) + 1
            assign[v] = tuple(chosen)
    mapping = ItemPathMapping.from_assignments(assign)
    return mapping


def em_epoch(samples, params: StructureParams, model: SoftmaxModel,
             mapping: ItemPathMapping, table: ScoreTable,
             opt_state: OptimizerState, em_cfg: EmConfig, epoch_index: int,
             rng_negatives: np.random.Generator,
             rng_shuffle: np.random.Generator,
             rng_mapping: np.random.Generator):
    """One E-step pass over the samples plus one coordinate-descent M-step.

    Each minibatch runs as one batched pass: the joint loss and its
    gradients, one optimizer step, then score accumulation on the updated
    parameters. The table is carried across epochs with decay. Returns
    (new mapping, stats dict); the stats include the EM health signals and
    the wall seconds of each stage.
    """
    t_epoch = time.perf_counter()
    cfg = params.cfg
    freeze = epoch_index >= em_cfg.freeze_epoch
    order = rng_shuffle.permutation(len(samples))
    tensors = params.tensor_dict()
    tensors["out_emb"] = model.out_emb
    losses = []
    stage_s = dict.fromkeys(("e_step_s", "optimizer_s", "score_s", "m_step_s"), 0.0)
    # The mapping is fixed during the E-step, and so is its penalty.
    penalty = penalty_value(mapping, cfg.penalty_alpha)
    for start in range(0, len(order), em_cfg.batch_size):
        batch = [samples[i] for i in order[start:start + em_cfg.batch_size]]
        n = len(batch)
        t0 = time.perf_counter()
        grads = params.zero_grads()
        if not freeze:      # frozen: the shared encoder still trains
            grads["out_emb"] = np.zeros_like(model.out_emb)
        batch_losses, _ = joint_loss([ctx for ctx, _ in batch],
                                     [item for _, item in batch], mapping,
                                     params, model, penalty=penalty,
                                     num_negatives=em_cfg.num_negatives,
                                     rng=rng_negatives, grads=grads)
        for name in grads:
            grads[name] /= n
        t1 = time.perf_counter()
        optimizer_step(tensors, grads, opt_state)
        t2 = time.perf_counter()
        losses.append(float(np.sum(batch_losses)) / n)
        accumulate_scores(batch, params, table)
        t3 = time.perf_counter()
        stage_s["e_step_s"] += t1 - t0
        stage_s["optimizer_s"] += t2 - t1
        stage_s["score_s"] += t3 - t2
    t0 = time.perf_counter()
    new_mapping = coordinate_descent_assign(
        table, mapping.num_items, cfg.num_nodes, cfg.depth, cfg.penalty_alpha,
        cfg.paths_per_item, em_cfg.cd_iterations, rng_mapping,
        prev_mapping=mapping)
    stage_s["m_step_s"] = time.perf_counter() - t0
    sizes = new_mapping.sizes
    hist_sizes, hist_counts = np.unique(sizes, return_counts=True)
    num_items = mapping.num_items
    # Each item holds J distinct paths, so equal sorted paths are equal sets.
    churn = float(np.any(mapping.item_paths() != new_mapping.item_paths(),
                         axis=(1, 2)).mean()) if num_items else 0.0
    stats = {
        "epoch": epoch_index,
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "batch_losses": [float(x) for x in losses],
        "penalty": penalty,
        "top_path_size": int(sizes.max(initial=0)),
        "nonempty_paths": sizes.size,
        "path_size_histogram": dict(zip(map(str, hist_sizes.tolist()),
                                        hist_counts.tolist())),
        "cold_items": sum(1 for v in range(num_items) if not table.scores.get(v)),
        "mapping_churn": churn,
        "softmax_frozen": freeze,
        **stage_s,
    }
    stats["seconds"] = time.perf_counter() - t_epoch
    return new_mapping, stats
