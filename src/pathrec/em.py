"""EM loop: gradient E-step on the joint objective, streaming estimation of
per-item path scores, and the penalized coordinate-descent M-step.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import PROB_FLOOR, OptimizerState, optimizer_step
from .reranker import SoftmaxModel, joint_loss
from .retrieval import ItemPathMapping, batched_beam_search, path_codes
# Score accumulation runs `batched_beam_search`, but `beam_search` stays
# importable from here: perfbench/tracing.py wraps it in this module by name.
from .retrieval import beam_search  # noqa: F401
from .structure import (StructureParams, UserBatch, check_number_fields,
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
    plus decayed occurrence counts, as flat arrays over V items.

    Row v of the (V, S) `codes` holds item v's `fill[v]` recorded paths as
    base-K codes (`retrieval.path_codes`, so code order is path order),
    then -1 in each empty slot; `values` holds their scores, 0.0 when
    empty. A row is sorted by score descending, then code ascending: the
    order of the top-S cut. `counts[v]` is the decayed occurrence count
    N_v. `scores` is a read-only dict view for inspection; training never
    reads it.
    """

    def __init__(self, num_items: int, capacity: int, num_nodes: int, depth: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.num_nodes, self.depth = capacity, num_nodes, depth
        self.codes = np.full((num_items, capacity), -1, dtype=np.int64)
        self.values = np.zeros((num_items, capacity))
        self.fill = np.zeros(num_items, dtype=np.int64)
        self.counts = np.zeros(num_items)
        self._view = None

    @property
    def num_items(self) -> int:
        return self.fill.size

    @property
    def scores(self) -> MappingProxyType:
        """Item -> {path tuple: score} of every non-empty row, in row order,
        derived from the arrays on the first read after an update."""
        if self._view is None:
            items = np.flatnonzero(self.fill)
            nodes = _path_nodes(self.codes[items], self.num_nodes, self.depth)
            self._view = MappingProxyType({
                v: MappingProxyType(dict(zip(map(tuple, row[:n]), values[:n])))
                for v, n, row, values in zip(items.tolist(), self.fill[items].tolist(),
                                              nodes.tolist(), self.values[items].tolist())})
        return self._view

    def update(self, items, paths, scores, eta: float) -> None:
        """Fold one observation per listed item into its row and count.

        Observation i brings (W,) `scores` of the (W, D) `paths[i]` for
        item `items[i]`. Paths both recorded and observed get eta*old + new,
        paths only observed start from eta*min (an exploration bonus), and
        paths only recorded decay to eta*old; min is the last score of a
        full row, else 0. A path observed twice at once counts its summed
        score. The row keeps the top S; the count becomes eta*N_v + 1.

        An item listed k times is updated k times, in list order: its j-th
        observation joins round j, and each round is one array merge over
        distinct items.
        """
        items = np.asarray(items, dtype=np.int64)
        if not items.size:
            return
        paths = np.asarray(paths, dtype=np.int64).reshape(items.size, -1, self.depth)
        scores = np.array(scores, dtype=np.float64).reshape(paths.shape[:2])
        if (scores < 0).any():
            raise ValueError(f"negative path score {scores.min()}")
        if paths.size and not 0 <= paths.min() <= paths.max() < self.num_nodes:
            raise ValueError(f"path nodes must lie in [0, {self.num_nodes})")
        codes = path_codes(paths.reshape(-1, self.depth), self.num_nodes).reshape(scores.shape)
        # A path observed twice at once: its copies' scores sum, in order,
        # at the first copy, and the later copies drop out as code -1.
        ranked = np.sort(codes, axis=1)
        for i in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)).tolist():
            first: dict = {}
            for j, code in enumerate(codes[i].tolist()):
                if code in first:
                    scores[i, first[code]] += scores[i, j]
                    codes[i, j] = -1
                else:
                    first[code] = j
        # The k-th observation of an item joins round k.
        rounds: list = []
        seen: dict = {}
        for i, item in enumerate(items.tolist()):
            k = seen[item] = seen.get(item, -1) + 1
            if k == len(rounds):
                rounds.append([])
            rounds[k].append(i)
        for at in rounds:
            self._merge(items[at], codes[at], scores[at], eta)
            self.counts[items[at]] = eta * self.counts[items[at]] + 1.0
        self._view = None

    def _merge(self, items, codes, scores, eta: float) -> None:
        """`update`'s merge of one observation per item, the items distinct
        and each observed path listed once (other copies hold code -1)."""
        m, S = items.size, self.capacity
        rows = np.arange(m)[:, None]
        old_codes, old_values = self.codes[items], self.values[items]
        floor = np.where(self.fill[items] >= S, old_values[:, -1], 0.0)
        # Each row's recorded entries, then its observed ones, stably sorted
        # by code: a path both recorded and observed is then a recorded
        # entry followed by its observed copy, which folds into it.
        codes = np.concatenate([old_codes, codes], axis=1)
        order = np.argsort(codes, axis=1, kind="stable")
        codes = codes[rows, order]
        values = np.concatenate([eta * old_values, eta * floor[:, None] + scores],
                                axis=1)[rows, order]
        new = np.concatenate([np.zeros_like(old_values), scores], axis=1)[rows, order]
        pair = (codes[:, 1:] == codes[:, :-1]) & (codes[:, 1:] >= 0)
        values[:, :-1] = np.where(pair, values[:, :-1] + new[:, 1:], values[:, :-1])
        valid = codes >= 0
        valid[:, 1:] &= ~pair
        # The top S by score descending, then code ascending, invalid last.
        top = np.argsort(np.where(valid, -values, np.inf), axis=1, kind="stable")[:, :S]
        fill = np.minimum(valid.sum(axis=1), S)
        empty = np.arange(S) >= fill[:, None]
        self.codes[items] = np.where(empty, -1, codes[rows, top])
        self.values[items] = np.where(empty, 0.0, values[rows, top])
        self.fill[items] = fill


def accumulate_scores(batch, params: StructureParams, table: ScoreTable) -> None:
    """Fold per-sample path probabilities of the top table-capacity beam
    paths into the table and bump the decayed occurrence counts.

    One beam search runs over all the batch's users and one `update` takes
    the whole batch, so an item seen twice is merged twice, in sample order.
    """
    batch = list(batch)
    if not batch:
        return
    cfg = params.cfg
    users = UserBatch([ctx for ctx, _ in batch], params)
    paths, logps = batched_beam_search(users.u, params,
                                       min(table.capacity, cfg.num_paths))
    table.update([item for _, item in batch], paths, np.exp(logps), cfg.decay_eta)


def _path_nodes(codes: np.ndarray, num_nodes: int, depth: int) -> np.ndarray:
    """The nodes of base-`num_nodes` path codes, in a new last axis."""
    return codes[..., None] // num_nodes ** np.arange(depth - 1, -1, -1) % num_nodes


def _random_path(num_nodes: int, depth: int, rng: np.random.Generator) -> int:
    """The base-K code of one uniformly drawn path."""
    code = 0
    for node in rng.integers(0, num_nodes, size=depth).tolist():
        code = code * num_nodes + node
    return code


def coordinate_descent_assign(table: ScoreTable, num_items: int,
                              num_nodes: int, depth: int, alpha: float,
                              paths_per_item: int, iterations: int,
                              rng: np.random.Generator,
                              prev_mapping: ItemPathMapping | None = None) -> ItemPathMapping:
    """Greedy per-item selection of J distinct paths by incremental gain.

    Gain of adding path c as the j-th assignment of item v:
        N_v * (log(s[v,c] + sum) - log(sum)) - alpha * (f(|c|+1) - f(|c|))
    with `sum` the partial score sum of the already-chosen paths; the first
    pick uses log(s) directly (common -inf offset). Ties go to the smaller
    path. Path sizes are updated online, and assignments from the previous
    sweep are released just before re-selection; the previous paths are
    kept when they score better than the greedy pick, so each per-item
    update never decreases the penalized surrogate. Items absent from the
    table keep previous (or random) paths; items with fewer than J
    candidates are padded with random unassigned paths.

    A pick walks the item's row best-first and stops at the first
    candidate whose log gain, less the smallest penalty step alpha*f(1),
    is below the best gain so far: the row is sorted by score and
    f(n+1) - f(n) grows with n, so no later candidate can win or tie.
    Sizes are kept in a list indexed by compact path id, and the penalty
    steps are cached per size.
    """
    if (table.num_items, table.num_nodes, table.depth) != (num_items, num_nodes, depth):
        raise ValueError("the score table was built for another item count or structure")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    J, K, f = paths_per_item, num_nodes, quartic_size_penalty
    fill = table.fill
    cold, warm = np.flatnonzero(fill == 0), np.flatnonzero(fill)
    # The new mapping's (V, J) path codes, each item's in the order stored;
    # a cold item keeps its previous assignment, whose codes come in path
    # order, which the index does not see.
    codes = np.empty((num_items, J), dtype=np.int64)
    if prev_mapping is not None:
        assignments = list(prev_mapping.assignments)
        codes[cold] = path_codes(prev_mapping.item_paths()[cold].reshape(-1, depth),
                                 K).reshape(-1, J)
    else:
        assignments = [None] * num_items
    # Random draws, in item order: J distinct sorted paths for a cold item
    # with no previous mapping, padding for a warm item short of J paths.
    pads: dict = {}
    short = fill < J if prev_mapping is None else (fill < J) & (fill > 0)
    for v in np.flatnonzero(short).tolist():
        if fill[v]:
            row = table.codes[v, :fill[v]].tolist()
            while len(row) < J:
                extra = _random_path(K, depth, rng)
                if extra not in row:
                    row.append(extra)
            pads[v] = row[fill[v]:]
        else:
            chosen: set = set()
            while len(chosen) < J:
                chosen.add(_random_path(K, depth, rng))
            codes[v] = sorted(chosen)
    if cold.size:
        log.warning("%d items have empty score tables; keeping previous/random paths",
                    cold.size)

    # Compact ids of the candidate paths, in code order, so that they break
    # ties as paths do. The other paths' sizes never enter a gain.
    row_codes = table.codes[warm]
    candidates = np.unique(np.concatenate([
        row_codes[row_codes >= 0],
        np.fromiter(itertools.chain.from_iterable(pads.values()), np.int64)]))
    held = codes[cold].ravel()
    held = held[np.isin(held, candidates)]
    sizes = np.bincount(np.searchsorted(candidates, held), minlength=candidates.size).tolist()
    steps = [f(n + 1) - f(n) for n in range(max(sizes, default=0) + 1)]
    pen = [alpha * step for step in steps]
    pen0 = pen[0]
    rows = []
    for v, n, ids, values, nv in zip(warm.tolist(), fill[warm].tolist(),
                                     np.searchsorted(candidates, row_codes).tolist(),
                                     table.values[warm].tolist(),
                                     table.counts[warm].tolist()):
        ids, values = ids[:n], values[:n]
        if v in pads:
            ids += np.searchsorted(candidates, pads[v]).tolist()
            values += [0.0] * len(pads[v])
        # The first pick's log gains are the same in every sweep.
        rows.append((ids, values, nv, [nv * math.log(max(s, PROB_FLOOR)) for s in values]))

    def set_value(ids, values, nv):
        # Contribution of assigning `ids` to the item with its current paths
        # released from `sizes` (distinct paths, so the penalty increments
        # are order independent).
        return (nv * math.log(max(sum(values), PROB_FLOOR))
                - alpha * sum(steps[sizes[c]] for c in ids))

    assign: list = [None] * len(rows)
    for t in range(iterations):
        for i, (ids, values, nv, first_gains) in enumerate(rows):
            if t:
                for c in assign[i][0]:
                    sizes[c] -= 1
            chosen, chosen_values = [], []
            partial = 0.0
            for _ in range(J):
                if partial == 0.0:
                    gains = first_gains
                else:
                    log_partial = math.log(partial)
                    gains = (nv * (math.log(s + partial) - log_partial) for s in values)
                best, best_score, best_gain = -1, 0.0, -math.inf
                for c, s, gain_log in zip(ids, values, gains):
                    if c in chosen:
                        continue
                    if gain_log - pen0 < best_gain:
                        break
                    gain = gain_log - pen[sizes[c]]
                    if gain > best_gain or (gain == best_gain and c < best):
                        best, best_score, best_gain = c, s, gain
                chosen.append(best)
                chosen_values.append(best_score)
                partial += best_score
            if t and chosen != assign[i][0] and \
                    set_value(*assign[i], nv) > set_value(chosen, chosen_values, nv):
                chosen, chosen_values = assign[i]
            for c in chosen:
                sizes[c] += 1
                if sizes[c] == len(steps):
                    steps.append(f(sizes[c] + 1) - f(sizes[c]))
                    pen.append(alpha * steps[-1])
            assign[i] = (chosen, chosen_values)
    if rows:
        codes[warm] = candidates[np.array([ids for ids, _ in assign], dtype=np.intp)]
    nodes = _path_nodes(codes, K, depth)
    fresh = warm if prev_mapping is not None else np.arange(num_items)
    for v, row in zip(fresh.tolist(), nodes[fresh].tolist()):
        assignments[v] = tuple(map(tuple, row))
    return ItemPathMapping.from_assignments(assignments, paths=nodes)


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
        "cold_items": int(np.count_nonzero(table.fill == 0)),
        "score_entries": int(table.fill.sum()),
        "mapping_churn": churn,
        "softmax_frozen": freeze,
        **stage_s,
    }
    stats["seconds"] = time.perf_counter() - t_epoch
    return new_mapping, stats
