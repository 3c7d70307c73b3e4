"""Beam search over the structure, the path -> items inverted index, and
end-to-end candidate retrieval.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .structure import StructureConfig, StructureParams, UserContext
from .structure import batched_layer_log_probs, user_embedding


@dataclass
class ItemPathMapping:
    """The item -> J paths assignment and the path -> items inverted index
    over its non-empty paths."""

    assignments: list          # item id -> tuple of J PathIds
    inverted: dict             # non-empty PathId -> item ids, ascending

    @classmethod
    def from_assignments(cls, assignments) -> "ItemPathMapping":
        """The mapping with its inverted index built. `assignments` holds
        per item a J-tuple of int tuples, stored as given."""
        inverted: dict = {}
        for item, paths in enumerate(assignments):
            for path in paths:
                inverted.setdefault(path, []).append(item)
        return cls(list(assignments), inverted)

    @functools.cached_property
    def path_sizes(self) -> dict:
        """Items per non-empty path; an item counts once per assigned path."""
        return {path: len(items) for path, items in self.inverted.items()}

    @functools.cached_property
    def size_sums(self) -> np.ndarray:
        """Entry B is the total size of the B largest paths, from 0 at B = 0
        to every assignment at B = the number of non-empty paths."""
        sizes = np.fromiter(map(len, self.inverted.values()), np.int64,
                            len(self.inverted))
        sums = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(np.sort(sizes)[::-1], out=sums[1:])
        return sums

    @classmethod
    def random_init(cls, cfg: StructureConfig, num_items: int,
                    rng: np.random.Generator) -> "ItemPathMapping":
        """J distinct random paths per item."""
        J, D, K = cfg.paths_per_item, cfg.depth, cfg.num_nodes
        draw = rng.integers(0, K, size=(num_items * J, D))
        drawn = list(zip(*draw.T.tolist()))      # one int tuple per row
        assignments = []
        for v in range(num_items):
            chosen = set(drawn[v * J:(v + 1) * J])
            while len(chosen) < J:     # rare collision, redraw
                chosen.add(tuple(rng.integers(0, K, size=D).tolist()))
            assignments.append(tuple(sorted(chosen)))
        return cls.from_assignments(assignments)

    @property
    def num_items(self) -> int:
        return len(self.assignments)


def beam_search(ctx: UserContext, params: StructureParams,
                beam_size: int | None = None, u: np.ndarray | None = None,
                memo: _LayerMemo | None = None) -> list:
    """Top-B paths by log-probability, sorted descending.

    Per layer, expands the current beam to all K successors and keeps the
    top B; ties broken toward the lexicographically smaller path. With
    B >= K^D this is exhaustive enumeration. `u` is the user's embedding
    when the caller has it; `memo` scores the layers in its place.
    """
    cfg = params.cfg
    B = cfg.beam_size if beam_size is None else int(beam_size)
    if B < 1:
        raise ValueError("beam_size must be >= 1")
    if u is None:
        u = user_embedding(ctx, params)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    logps = np.zeros(1)
    for d in range(cfg.depth):
        if memo is None:
            layer_lp = batched_layer_log_probs(u, prefixes, params)  # (n, K)
        else:
            layer_lp = memo.log_probs(prefixes)
        neg = (-logps[:, None] - layer_lp).ravel()
        n, K = layer_lp.shape
        need = min(B, neg.size)
        if need < neg.size:
            # Keep everything at least as good as the B-th candidate, then
            # order that small pool exactly.
            kth = np.partition(neg, need - 1)[need - 1]
            pool = np.flatnonzero(neg <= kth)
        else:
            pool = np.arange(neg.size)
        rows = pool // K
        nodes = pool % K
        # Sort by log-prob descending, ties toward the smaller path;
        # lexsort keys are least significant first.
        keys = (nodes,) + tuple(prefixes[rows, j]
                                for j in range(prefixes.shape[1] - 1, -1, -1))
        order = np.lexsort(keys + (neg[pool],))[:need]
        sel = pool[order]
        prefixes = np.concatenate(
            [prefixes[sel // K], (sel % K)[:, None]], axis=1)
        logps = -neg[sel]
    return [(tuple(path), float(lp))
            for path, lp in zip(prefixes.tolist(), logps.tolist())]


#: One retrieved candidate: an item id and its best beam-path log-prob.
CANDIDATE_DTYPE = np.dtype([("item", np.int64), ("logp", np.float64)])

#: Beams holding at most this many (path, item) entries are expanded by a
#: dict walk: below it, the array path's fixed cost of some thirty NumPy
#: calls outweighs its per-item saving.
DICT_WALK_MAX = 256


def retrieve_candidates(ctx: UserContext, params: StructureParams,
                        mapping: ItemPathMapping, beam_size: int | None = None,
                        u: np.ndarray | None = None) -> np.ndarray:
    """Deduplicated items on the beam-retrieved paths, as a CANDIDATE_DTYPE
    array with fields `item` and `logp`.

    An item reached via several paths is scored by its maximum path
    log-probability; sorted descending, ties toward the smaller item id.
    `len()` is the candidate count, entries unpack as (item, logp), and
    `.tolist()` gives those pairs. `u` is the user's embedding when the
    caller has it.
    """
    return _expand(beam_search(ctx, params, beam_size, u), mapping)


def _expand(beam: list, mapping: ItemPathMapping) -> np.ndarray:
    """`retrieve_candidates`' array for a beam of (path, log-prob) pairs."""
    # The beam comes best first, so an item's best log-prob is that of the
    # first path holding it. The walk gives up once it has seen more than
    # DICT_WALK_MAX entries, and the array path below takes over.
    inverted = mapping.inverted
    best: dict = {}
    seen = 0
    for path, lp in beam:
        on_path = inverted.get(path, ())
        seen += len(on_path)
        if seen > DICT_WALK_MAX:
            break
        for item in on_path:
            if item not in best:
                best[item] = lp
    else:
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        return np.fromiter(ranked, CANDIDATE_DTYPE, len(ranked))
    lists = [inverted.get(path, ()) for path, _ in beam]
    n = len(beam)
    counts = np.fromiter(map(len, lists), np.int64, n)
    # Sort (item, beam rank) keys and keep the first key of each item.
    keys = np.fromiter(itertools.chain.from_iterable(lists), np.int64,
                       counts.sum()) * n + np.repeat(np.arange(n), counts)
    keys.sort()
    items = keys // n
    first = np.ones(keys.size, dtype=bool)
    first[1:] = items[1:] != items[:-1]
    items = items[first]
    rank = keys[first] - items * n
    # Items are ascending, so a stable sort by log-prob breaks ties toward
    # the smaller id. Sort by each rank's tie group, the first rank with an
    # equal log-prob: keys that small take NumPy's radix sort.
    logps = np.fromiter((lp for _, lp in beam), np.float64, n)
    tie = np.searchsorted(-logps, -logps).astype(np.min_scalar_type(n))
    order = np.argsort(tie[rank], kind="stable")
    out = np.empty(order.size, dtype=CANDIDATE_DTYPE)
    out["item"] = items[order]
    out["logp"] = logps[rank[order]]
    return out


#: `adaptive_beam` wants this many candidates per item requested.
ADAPTIVE_MULTIPLIER = 5


class _LayerMemo:
    """One user's layer log-prob rows, each scored once across beam widths.

    Per layer it keeps the prefixes scored so far and their (n, K) rows. A
    lookup keys prefixes by their base-K integer codes, scores the missing
    ones in one `batched_layer_log_probs` call and gathers the rest by
    index. A layer's first lookup only records what it scores.
    """

    def __init__(self, u: np.ndarray, params: StructureParams):
        self.u, self.params = u, params
        # Per layer d: the (m, d) prefixes scored so far and their (m, K) rows.
        self.prefixes = [None] * params.cfg.depth
        self.rows = [None] * params.cfg.depth

    def log_probs(self, prefixes: np.ndarray) -> np.ndarray:
        d = prefixes.shape[1]
        rows = self.rows[d]
        if rows is None:
            rows = batched_layer_log_probs(self.u, prefixes, self.params)
            self.prefixes[d], self.rows[d] = prefixes, rows
            return rows
        w = self.params.cfg.num_nodes ** np.arange(d - 1, -1, -1)
        known, codes = self.prefixes[d] @ w, prefixes @ w
        order = np.argsort(known)
        # A code past every known one is clamped onto the last; it and any
        # other unknown code then differ from the code found.
        at = order[np.minimum(np.searchsorted(known, codes, sorter=order),
                               known.size - 1)]
        new = known[at] != codes
        out = rows[at]
        if new.any():
            fresh = batched_layer_log_probs(self.u, prefixes[new], self.params)
            out[new] = fresh
            self.prefixes[d] = np.concatenate([self.prefixes[d], prefixes[new]])
            self.rows[d] = np.concatenate([rows, fresh])
        return out


def adaptive_beam(ctx: UserContext, params: StructureParams,
                  mapping: ItemPathMapping, target_count: int,
                  u: np.ndarray | None = None) -> tuple:
    """Grow the beam geometrically until enough candidates are retrieved.

    Doubles B from 1 until the candidate count reaches ADAPTIVE_MULTIPLIER
    times `target_count` or the beam covers every path. Returns
    (candidates, B), where `candidates` is the `retrieve_candidates` array
    at that B. `u` is the user's embedding when the caller has it.

    A B-path beam retrieves at most the items on the B largest paths, so
    widths whose bound falls short are skipped unscored. The widths that
    run share one memo of layer rows, so each prefix is scored once.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    cfg = params.cfg
    want = ADAPTIVE_MULTIPLIER * target_count
    sums = mapping.size_sums
    B = 1
    while B < cfg.num_paths and sums[min(B, sums.size - 1)] < want:
        B = min(2 * B, cfg.num_paths)
    if u is None:
        u = user_embedding(ctx, params)
    memo = _LayerMemo(u, params)
    while True:
        candidates = _expand(beam_search(ctx, params, B, u, memo), mapping)
        if len(candidates) >= want or B >= cfg.num_paths:
            return candidates, B
        B = min(2 * B, cfg.num_paths)
