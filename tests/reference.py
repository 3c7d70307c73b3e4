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
from pathrec.em import ScoreTable
from pathrec.reranker import sample_negatives
from pathrec.retrieval import ADAPTIVE_MULTIPLIER, ItemPathMapping
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
        total += float(table.counts[v]) * math.log(max(s_sum, PROB_FLOOR))
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


def dict_walk_candidates(ctx, params, mapping, beam_size: int) -> list:
    """The distinct items on the top-B paths as (item, best path log-prob)
    pairs, sorted by (-log-prob, item): one dict entry per item, walked
    over the beam paths' `inverted` lists."""
    best: dict = {}
    for path, lp in beam_search(ctx, params, beam_size):
        for item in mapping.inverted.get(path, ()):
            if item not in best or lp > best[item]:
                best[item] = lp
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def adaptive_beam(ctx, params, mapping, target_count: int) -> tuple:
    """Every width B = 1, 2, 4, ... (capped at K^D) walked from scratch
    until its distinct items reach ADAPTIVE_MULTIPLIER * `target_count` or
    the beam covers every path; returns (candidates, B), the candidates
    those of `dict_walk_candidates`."""
    num_paths = params.cfg.num_paths
    B = 1
    while True:
        candidates = dict_walk_candidates(ctx, params, mapping, B)
        if len(candidates) >= ADAPTIVE_MULTIPLIER * target_count or B >= num_paths:
            return candidates, B
        B = min(2 * B, num_paths)


def top_k(scores, k: int, ids=None) -> list:
    """The k best (id, score) pairs: each id at the best score of its
    entries, then a full sort by score descending, ties toward the smaller
    id. `ids[i]` is the id of `scores[i]` (i itself when None)."""
    ids = range(len(scores)) if ids is None else list(ids)
    best: dict = {}
    for i, s in zip(ids, list(scores)):
        i, s = int(i), float(s)
        if i not in best or s > best[i]:
            best[i] = s
    return sorted(best.items(), key=lambda p: (-p[1], p[0]))[:k]


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


def score_table(rows: dict, counts: dict, num_items: int, num_nodes: int,
                depth: int, capacity: int | None = None) -> ScoreTable:
    """An array score table holding `rows`, item -> {path: score}, each
    row's count from `counts` (1.0 when absent). Each row enters as one
    update of an empty row, which stores the scores as given."""
    capacity = capacity or max(map(len, rows.values()), default=1)
    table = ScoreTable(num_items, capacity, num_nodes, depth)
    for item, entries in rows.items():
        if entries:
            table.update([item], [list(entries)], [list(entries.values())], eta=1.0)
        table.counts[item] = counts.get(item, 1.0)
    return table


def update_one(table: ScoreTable, item: int, pairs, eta: float) -> None:
    """One observation of `item` in an array table: (path, score) pairs."""
    table.update([item], [[p for p, _ in pairs]], [[s for _, s in pairs]], eta)


class DictScoreTable:
    """The score table as a dict of dicts, merged one update at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.scores: dict = {}    # item -> {path: score}
        self.counts: dict = {}    # item -> decayed N_v


def streaming_score_update(table: DictScoreTable, item: int, new_scores,
                           eta: float) -> None:
    """Decay-and-merge update of one item's recorded score list.

    Paths in both lists get eta*old + new; paths only in the new list start
    from eta*min_score (exploration bonus); paths only in the recorded list
    are decayed. min_score is the smallest recorded score, or 0 while the
    recorded list is under capacity. Top S entries are kept, ties toward
    the smaller path; the count becomes eta*N_v + 1.
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
    table.counts[item] = eta * table.counts.get(item, 0.0) + 1.0


def accumulate_scores(batch, params, table: DictScoreTable) -> None:
    """Score accumulation one sample at a time, each with its own beam."""
    cfg = params.cfg
    width = min(table.capacity, cfg.num_paths)
    eta = cfg.decay_eta
    for ctx, item in batch:
        new_scores = [(p, math.exp(lp)) for p, lp in beam_search(ctx, params, width)]
        streaming_score_update(table, item, new_scores, eta)


def _random_path(num_nodes: int, depth: int, rng) -> tuple:
    return tuple(int(c) for c in rng.integers(0, num_nodes, size=depth))


def coordinate_descent_assign(table, num_items: int, num_nodes: int, depth: int,
                              alpha: float, paths_per_item: int, iterations: int,
                              rng, prev_mapping=None) -> ItemPathMapping:
    """The M-step one item, candidate and pick at a time over path tuples,
    reading `table` through its `scores` view and `counts`: every candidate
    of every pick is scored, with no early exit."""
    J, T, f = paths_per_item, iterations, quartic_size_penalty
    candidates: list = []
    fixed: list = [None] * num_items      # cold items keep these paths
    for v in range(num_items):
        entries = sorted(table.scores.get(v, {}).items(), key=lambda kv: (-kv[1], kv[0]))
        if not entries:
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
            nv = float(table.counts[v])
            score_of = dict(candidates[v])
            if t > 1:
                for c in assign[v]:
                    sizes[c] -= 1

            def set_value(paths):
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
    return ItemPathMapping.from_assignments(assign)


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
