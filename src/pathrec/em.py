"""EM loop: gradient E-step on the joint objective, streaming estimation of
per-item path scores, and the penalized coordinate-descent M-step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import PROB_FLOOR, OptimizerState, optimizer_step
from .reranker import SoftmaxModel, joint_loss
from .retrieval import ItemPathMapping, beam_search
from .structure import (PathId, StructureConfig, StructureParams, UserContext,
                        path_log_prob, penalty_value, quartic_size_penalty)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmConfig:
    """Training-loop knobs; structural constants (K, D, J, S, alpha, eta)
    live in StructureConfig."""

    epochs: int = 4
    cd_iterations: int = 3        # three to five sweeps suffice in practice
    batch_size: int = 32
    learning_rate: float = 0.01
    optimizer: str = "adam"
    num_negatives: int = 100
    freeze_epoch: int = 2         # softmax output embeddings freeze from here
    structure_weight: float = 1.0
    softmax_weight: float = 1.0
    score_beam_width: int | None = None   # None -> score_capacity

    def __post_init__(self):
        if self.cd_iterations < 1:
            raise ValueError("cd_iterations must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epochs/batch_size")


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

    def merge_shard(self, other: "ScoreTable", eta: float) -> None:
        """Fold another shard in via the same streaming update rule."""
        for item, entries in other.scores.items():
            streaming_score_update(self, item, sorted(entries.items()), eta)
            self.counts[item] = self.counts.get(item, 0.0) + other.counts.get(item, 0.0)


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


def accumulate_scores(batch, params: StructureParams, table: ScoreTable,
                      beam_width: int | None = None) -> None:
    """Fold per-sample path probabilities of beam-selected candidates into
    the table and bump the decayed occurrence counts."""
    cfg = params.cfg
    width = table.capacity if beam_width is None else beam_width
    eta = cfg.decay_eta
    for ctx, item in batch:
        paths = beam_search(ctx, params, beam_size=min(width, cfg.num_paths))
        new_scores = [(path, math.exp(lp)) for path, lp in paths]
        streaming_score_update(table, item, new_scores, eta)
        table.counts[item] = eta * table.counts.get(item, 0.0) + 1.0


def _random_path(num_nodes: int, depth: int, rng: np.random.Generator) -> PathId:
    return tuple(int(c) for c in rng.integers(0, num_nodes, size=depth))


def coordinate_descent_assign(table: ScoreTable, num_items: int,
                              num_nodes: int, depth: int, alpha: float,
                              paths_per_item: int, iterations: int,
                              rng: np.random.Generator,
                              prev_mapping: ItemPathMapping | None = None,
                              size_fn=quartic_size_penalty) -> ItemPathMapping:
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
    J, T = paths_per_item, iterations
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
                pen = sum(size_fn(sizes.get(c, 0) + 1) - size_fn(sizes.get(c, 0))
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
                    gain = gain_log - alpha * (size_fn(sz + 1) - size_fn(sz))
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


def assignment_objective(table: ScoreTable, assignments, alpha: float,
                         size_fn=quartic_size_penalty) -> float:
    """Penalized surrogate value sum_v N_v log sum_j s[v, pi_j(v)] minus the
    path-size penalty (item-count constants dropped)."""
    total = 0.0
    sizes: dict = {}
    for v, paths in enumerate(assignments):
        entries = table.scores.get(v, {})
        s_sum = sum(entries.get(tuple(p), 0.0) for p in paths)
        total += table.count(v) * math.log(max(s_sum, PROB_FLOOR))
        for p in paths:
            p = tuple(p)
            sizes[p] = sizes.get(p, 0) + 1
    return total - alpha * sum(size_fn(n) for n in sizes.values())


def structure_log_likelihood(samples, mapping: ItemPathMapping,
                             params: StructureParams) -> float:
    """Exact multi-path log likelihood sum_i log sum_j p(pi_j(y_i) | x_i)."""
    total = 0.0
    for ctx, item in samples:
        probs = [math.exp(path_log_prob(ctx, p, params))
                 for p in mapping.assignments[item]]
        total += math.log(max(sum(probs), PROB_FLOOR))
    return total


def surrogate_upper_bound(samples, mapping: ItemPathMapping,
                          params: StructureParams) -> float:
    """sum_v (N_v log sum_j s[v, pi_j(v)] - N_v log N_v) with exact scores
    s[v,c] = sum over samples of item v of p(c | x_i)."""
    s_sum: dict = {}
    n_v: dict = {}
    for ctx, item in samples:
        n_v[item] = n_v.get(item, 0) + 1
        for p in mapping.assignments[item]:
            s_sum[(item, p)] = s_sum.get((item, p), 0.0) + \
                math.exp(path_log_prob(ctx, p, params))
    total = 0.0
    for v, n in n_v.items():
        s = sum(s_sum.get((v, p), 0.0) for p in mapping.assignments[v])
        total += n * (math.log(max(s, PROB_FLOOR)) - math.log(n))
    return total


def em_epoch(samples, params: StructureParams, model: SoftmaxModel,
             mapping: ItemPathMapping, table: ScoreTable,
             opt_state: OptimizerState, em_cfg: EmConfig, epoch_index: int,
             rng_negatives: np.random.Generator,
             rng_shuffle: np.random.Generator,
             rng_mapping: np.random.Generator):
    """One E-step pass over the samples plus one coordinate-descent M-step.

    Returns (new mapping, stats dict). Scores are accumulated alongside the
    gradient pass on the evolving parameters and the table is carried across
    epochs with decay.
    """
    cfg = params.cfg
    freeze = epoch_index >= em_cfg.freeze_epoch
    order = rng_shuffle.permutation(len(samples))
    tensors = params.tensor_dict()
    tensors["out_emb"] = model.out_emb
    losses = []
    # The mapping is fixed during the E-step, and so is its penalty.
    penalty = penalty_value(mapping, cfg.penalty_alpha)
    for start in range(0, len(order), em_cfg.batch_size):
        idx = order[start:start + em_cfg.batch_size]
        grads = params.zero_grads()
        grads["out_emb"] = np.zeros_like(model.out_emb)
        batch_loss = 0.0
        for i in idx:
            ctx, item = samples[i]
            l, _ = joint_loss(ctx, item, mapping, params, model,
                              penalty=penalty,
                              num_negatives=em_cfg.num_negatives,
                              rng=rng_negatives,
                              structure_weight=em_cfg.structure_weight,
                              softmax_weight=em_cfg.softmax_weight,
                              freeze_softmax=freeze, grads=grads)
            batch_loss += l
        n = len(idx)
        for name in grads:
            grads[name] /= n
        if freeze:
            del grads["out_emb"]
        optimizer_step(tensors, grads, opt_state)
        losses.append(batch_loss / n)
        accumulate_scores((samples[i] for i in idx), params, table,
                          beam_width=em_cfg.score_beam_width)
    new_mapping = coordinate_descent_assign(
        table, mapping.num_items, cfg.num_nodes, cfg.depth, cfg.penalty_alpha,
        cfg.paths_per_item, em_cfg.cd_iterations, rng_mapping,
        prev_mapping=mapping)
    sizes = sorted(new_mapping.path_sizes.values(), reverse=True)
    stats = {
        "epoch": epoch_index,
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "batch_losses": [float(x) for x in losses],
        "top_path_size": sizes[0] if sizes else 0,
        "nonempty_paths": len(sizes),
        "path_size_histogram": _histogram(sizes),
        "softmax_frozen": freeze,
    }
    return new_mapping, stats


def _histogram(sizes) -> dict:
    hist: dict = {}
    for s in sizes:
        hist[s] = hist.get(s, 0) + 1
    return {str(k): hist[k] for k in sorted(hist)}
