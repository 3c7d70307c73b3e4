"""Reference computations the tests check the program against.

Each is a per-prefix, per-path or per-sample loop written for clarity, kept
apart from the batched code that training and serving run, so that a test
comparing the two does not compare a function with itself.
"""

from __future__ import annotations

import math

import numpy as np

from pathrec.core import (PROB_FLOOR, AffineLayer, ShapeError, affine_forward,
                          log_softmax, relu, relu_grad)
from pathrec.em import streaming_score_update
from pathrec.reranker import sample_negatives
from pathrec.retrieval import ADAPTIVE_MULTIPLIER, retrieve_candidates
from pathrec.structure import (PAD_ITEM, StructureParams, _layer_forward,
                               batched_layer_log_probs, quartic_size_penalty,
                               user_embedding)


def init_zero(cfg, num_items: int) -> StructureParams:
    """All-zero parameters: every layer distribution is uniform."""
    E, K, D, H = cfg.emb_dim, cfg.num_nodes, cfg.depth, cfg.mlp_hidden
    mlps = [(AffineLayer(np.zeros((H, E * d)), np.zeros(H)),
             AffineLayer(np.zeros((K, H)), np.zeros(K)))
            for d in range(1, D + 1)]
    return StructureParams(cfg, num_items, np.zeros((num_items, E)),
                           np.zeros((D, K, E)), mlps)


def validate_path(path, cfg) -> tuple:
    path = tuple(int(c) for c in path)
    if len(path) != cfg.depth:
        raise ShapeError(f"path length {len(path)} != depth {cfg.depth}")
    for c in path:
        if not 0 <= c < cfg.num_nodes:
            raise ShapeError(f"path node {c} out of range [0, {cfg.num_nodes})")
    return path


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


def inverted_index(assignments) -> dict:
    """Path -> item ids, one item and path at a time: an item listed once
    per time it holds the path, paths in order of first appearance."""
    inverted: dict = {}
    for item, paths in enumerate(assignments):
        for path in paths:
            inverted.setdefault(path, []).append(item)
    return inverted


def random_assignments(cfg, num_items: int, rng) -> list:
    """J distinct random paths per item, sorted: one (V*J, D) draw, then a
    redraw one path at a time for each item whose draws collide, in item
    order."""
    J, D, K = cfg.paths_per_item, cfg.depth, cfg.num_nodes
    drawn = [tuple(row) for row in rng.integers(0, K, size=(num_items * J, D)).tolist()]
    assignments = []
    for v in range(num_items):
        chosen = set(drawn[v * J:(v + 1) * J])
        while len(chosen) < J:
            chosen.add(tuple(rng.integers(0, K, size=D).tolist()))
        assignments.append(tuple(sorted(chosen)))
    return assignments


def mapping_text(assignments) -> str:
    """A mapping file's text, one line per item: `item<TAB>a-b;c-d`."""
    lines = [f"{item}\t" + ";".join("-".join(map(str, p)) for p in paths)
             for item, paths in enumerate(assignments)]
    return "\n".join(lines) + "\n"


def parse_mapping(text: str) -> list:
    """The assignments of a mapping file's text, one line at a time; blank
    lines are skipped."""
    assignments = []
    for line in text.splitlines():
        if not line.strip():
            continue
        item_text, paths_text = line.split("\t")
        assert int(item_text) == len(assignments)
        assignments.append(tuple(tuple(map(int, p.split("-")))
                                 for p in paths_text.split(";")))
    return assignments


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


def _behavior_items(ctx) -> list:
    return [i for i in ctx.behavior if i != PAD_ITEM]


def multi_path_loss(ctx, paths, params, grads: dict | None = None):
    """One sample's negative log summed path probability, its layers run
    over the sample's deduplicated paths; returns (loss, grads)."""
    cfg = params.cfg
    uniq = np.array(list(dict.fromkeys(validate_path(p, cfg) for p in paths)),
                    dtype=np.int64)
    n = uniq.shape[0]
    rows = np.arange(n)
    u = user_embedding(ctx, params)
    items = _behavior_items(ctx)
    caches = []
    logps = np.zeros(n)
    for d in range(cfg.depth):
        x, h_pre, logq = _layer_forward(u, uniq[:, :d], params)
        logps += logq[rows, uniq[:, d]]
        caches.append((x, h_pre, logq))
    m = np.max(logps)
    lse = m + math.log(np.sum(np.exp(logps - m)))
    branch_w = np.exp(logps - lse)
    if grads is None:
        grads = params.zero_grads()
    E = cfg.emb_dim
    du = np.zeros(E)
    for d, (x, h_pre, logq) in enumerate(caches):
        dz = branch_w[:, None] * np.exp(logq)
        dz[rows, uniq[:, d]] -= branch_w
        hid, top = params.mlps[d]
        grads[f"mlp{d}_w2"] += dz.T @ relu(h_pre)
        grads[f"mlp{d}_b2"] += dz.sum(axis=0)
        dh = (dz @ top.weight) * relu_grad(h_pre)
        grads[f"mlp{d}_w1"] += dh.T @ x
        grads[f"mlp{d}_b1"] += dh.sum(axis=0)
        dx = dh @ hid.weight
        du += dx[:, :E].sum(axis=0)
        for k in range(d):
            np.add.at(grads["node_emb"][k], uniq[:, k],
                      dx[:, E * (k + 1):E * (k + 2)])
    if items:
        np.add.at(grads["item_emb"], items, du / len(items))
    return -lse, grads


def sampled_softmax_loss(ctx, positive, num_negatives, model, params, rng=None,
                         negatives=None, grads: dict | None = None):
    """One sample's sampled-softmax cross entropy; returns (loss, grads)."""
    V = model.num_items
    if negatives is None:
        negatives = sample_negatives(V, positive, num_negatives, rng)
    negatives = np.asarray(negatives, dtype=np.int64)
    n_neg = negatives.shape[0]
    cand = np.concatenate([[positive], negatives])
    u = user_embedding(ctx, params)
    logits = model.out_emb[cand] @ u
    if n_neg < V - 1:
        logits[1:] -= math.log(n_neg / (V - 1))
    logq = log_softmax(logits)
    dlogits = np.exp(logq)
    dlogits[0] -= 1.0
    if grads is None:
        grads = {"out_emb": np.zeros_like(model.out_emb),
                 "item_emb": np.zeros_like(params.item_emb)}
    grads.setdefault("out_emb", np.zeros_like(model.out_emb))
    np.add.at(grads["out_emb"], cand, np.outer(dlogits, u))
    items = _behavior_items(ctx)
    if items:
        du = model.out_emb[cand].T @ dlogits
        grads.setdefault("item_emb", np.zeros_like(params.item_emb))
        np.add.at(grads["item_emb"], items, du / len(items))
    return -float(logq[0]), grads


def joint_loss(ctx, item, mapping, params, model, penalty, num_negatives=100,
               rng=None, negatives=None, grads: dict | None = None):
    """One sample's structure loss + penalty + sampled-softmax loss."""
    if grads is None:
        grads = params.zero_grads()
        grads["out_emb"] = np.zeros_like(model.out_emb)
    l_str, _ = multi_path_loss(ctx, mapping.assignments[item], params, grads)
    l_sm, _ = sampled_softmax_loss(ctx, item, num_negatives, model, params,
                                   rng=rng, negatives=negatives, grads=grads)
    return l_str + penalty + l_sm, grads


def beam_search(ctx, params, beam_size: int) -> list:
    """One user's top-B paths: per layer, expand every beam path to its K
    successors and keep the B best, ties toward the smaller path."""
    cfg = params.cfg
    u = user_embedding(ctx, params)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    logps = np.zeros(1)
    for d in range(cfg.depth):
        layer_lp = batched_layer_log_probs(u, prefixes, params)
        neg = (-logps[:, None] - layer_lp).ravel()
        K = layer_lp.shape[1]
        need = min(beam_size, neg.size)
        keys = (np.arange(neg.size) % K,) + tuple(
            prefixes[np.arange(neg.size) // K, j]
            for j in range(prefixes.shape[1] - 1, -1, -1))
        sel = np.lexsort(keys + (neg,))[:need]
        prefixes = np.concatenate([prefixes[sel // K], (sel % K)[:, None]], axis=1)
        logps = -neg[sel]
    return [(tuple(p), lp) for p, lp in zip(prefixes.tolist(), logps.tolist())]


def accumulate_scores(batch, params, table) -> None:
    """Score accumulation one sample at a time, each with its own beam."""
    cfg = params.cfg
    width = min(table.capacity, cfg.num_paths)
    eta = cfg.decay_eta
    for ctx, item in batch:
        new_scores = [(p, math.exp(lp)) for p, lp in beam_search(ctx, params, width)]
        streaming_score_update(table, item, new_scores, eta)
        table.counts[item] = eta * table.counts.get(item, 0.0) + 1.0


def adam_step(params: dict, grads: dict, state) -> None:
    """The textbook Adam update, one temporary per operation."""
    state.step += 1
    t = state.step
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * np.square(g)
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        params[name] -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
