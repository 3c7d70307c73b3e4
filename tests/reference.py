"""Reference computations the tests check the program against.

Each is a per-prefix, per-path or per-sample loop written for clarity, kept
apart from the batched code that training and serving run, so that a test
comparing the two does not compare a function with itself.
"""

from __future__ import annotations

import math

import numpy as np

from pathrec.core import PROB_FLOOR, AffineLayer, affine_forward, log_softmax, relu
from pathrec.retrieval import ADAPTIVE_MULTIPLIER, retrieve_candidates
from pathrec.structure import (StructureParams, quartic_size_penalty,
                               user_embedding, validate_path)


def init_zero(cfg, num_items: int) -> StructureParams:
    """All-zero parameters: every layer distribution is uniform."""
    E, K, D, H = cfg.emb_dim, cfg.num_nodes, cfg.depth, cfg.mlp_hidden
    mlps = [(AffineLayer(np.zeros((H, E * d)), np.zeros(H)),
             AffineLayer(np.zeros((K, H)), np.zeros(K)))
            for d in range(1, D + 1)]
    return StructureParams(cfg, num_items, np.zeros((num_items, E)),
                           np.zeros((D, K, E)), mlps)


def layer_input(u: np.ndarray, prefix, params) -> np.ndarray:
    """Concatenation of user embedding and chosen-node embeddings."""
    parts = [u] + [params.node_emb[j, c] for j, c in enumerate(prefix)]
    return np.concatenate(parts)


def layer_logits(u: np.ndarray, prefix, params) -> np.ndarray:
    hid, top = params.mlps[len(prefix)]
    h = relu(affine_forward(hid, layer_input(u, tuple(prefix), params)))
    return affine_forward(top, h)


def path_log_prob(ctx, path, params) -> float:
    """log p(c | x) = sum_d log p(c_d | x, c_1..c_{d-1})."""
    cfg = params.cfg
    path = validate_path(path, cfg)
    u = user_embedding(ctx, params)
    total = 0.0
    for d in range(cfg.depth):
        logp = log_softmax(layer_logits(u, path[:d], params))
        total += float(logp[path[d]])
    return total


def assignment_objective(table, assignments, alpha: float) -> float:
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
    return total - alpha * sum(quartic_size_penalty(n) for n in sizes.values())


def structure_log_likelihood(samples, mapping, params) -> float:
    """Exact multi-path log likelihood sum_i log sum_j p(pi_j(y_i) | x_i)."""
    total = 0.0
    for ctx, item in samples:
        probs = [math.exp(path_log_prob(ctx, p, params))
                 for p in mapping.assignments[item]]
        total += math.log(max(sum(probs), PROB_FLOOR))
    return total


def surrogate_upper_bound(samples, mapping, params) -> float:
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


def adaptive_beam(ctx, params, mapping, target_count: int) -> tuple:
    """Every width B = 1, 2, 4, ... (capped at K^D) retrieved from scratch
    until the candidates reach ADAPTIVE_MULTIPLIER * `target_count` or the
    beam covers every path; returns (candidates, B)."""
    num_paths = params.cfg.num_paths
    B = 1
    while True:
        candidates = retrieve_candidates(ctx, params, mapping, beam_size=B)
        if len(candidates) >= ADAPTIVE_MULTIPLIER * target_count or B >= num_paths:
            return candidates, B
        B = min(2 * B, num_paths)
