"""Beam search over the structure, the path -> items inverted index, and
end-to-end candidate retrieval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .structure import PathId, StructureConfig, StructureParams, UserContext
from .structure import batched_layer_log_probs, user_embedding, validate_path


@dataclass
class ItemPathMapping:
    """The item -> J paths assignment with its derived bookkeeping.

    `path_sizes` counts multiplicity (an item contributes once per assigned
    path) and `inverted` maps each non-empty path to its item ids.
    """

    assignments: list          # item id -> tuple of J PathIds
    path_sizes: dict = field(default_factory=dict)
    inverted: dict = field(default_factory=dict)

    @classmethod
    def from_assignments(cls, assignments) -> "ItemPathMapping":
        assignments = [tuple(tuple(int(c) for c in p) for p in paths)
                       for paths in assignments]
        mapping = cls(assignments)
        mapping.rebuild()
        return mapping

    @classmethod
    def random_init(cls, cfg: StructureConfig, num_items: int,
                    rng: np.random.Generator) -> "ItemPathMapping":
        """J distinct random paths per item."""
        J, D, K = cfg.paths_per_item, cfg.depth, cfg.num_nodes
        draw = rng.integers(0, K, size=(num_items, J, D))
        assignments = []
        for v in range(num_items):
            chosen = {tuple(int(c) for c in row) for row in draw[v]}
            while len(chosen) < J:     # rare collision, redraw
                chosen.add(tuple(int(c) for c in rng.integers(0, K, size=D)))
            assignments.append(tuple(sorted(chosen)))
        return cls.from_assignments(assignments)

    def rebuild(self) -> None:
        """Recompute sizes and the inverted index from the assignments."""
        self.path_sizes = {}
        self.inverted = {}
        for item, paths in enumerate(self.assignments):
            for path in paths:
                self.path_sizes[path] = self.path_sizes.get(path, 0) + 1
                self.inverted.setdefault(path, []).append(item)

    @property
    def num_items(self) -> int:
        return len(self.assignments)

    def validate(self, cfg: StructureConfig | None = None) -> None:
        if cfg is not None:
            for paths in self.assignments:
                for p in paths:
                    validate_path(p, cfg)
        total = sum(self.path_sizes.values())
        expected = sum(len(paths) for paths in self.assignments)
        if total != expected:
            raise ValueError(f"path size total {total} != assignment total {expected}")
        rebuilt = ItemPathMapping.from_assignments(self.assignments)
        if rebuilt.path_sizes != self.path_sizes or rebuilt.inverted != self.inverted:
            raise ValueError("inverted index inconsistent with assignments")


def beam_search(ctx: UserContext, params: StructureParams,
                beam_size: int | None = None) -> list:
    """Top-B paths by log-probability, sorted descending.

    Per layer, expands the current beam to all K successors and keeps the
    top B; ties broken toward the lexicographically smaller path. With
    B >= K^D this is exhaustive enumeration.
    """
    cfg = params.cfg
    B = cfg.beam_size if beam_size is None else int(beam_size)
    if B < 1:
        raise ValueError("beam_size must be >= 1")
    u = user_embedding(ctx, params)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    logps = np.zeros(1)
    for d in range(cfg.depth):
        layer_lp = batched_layer_log_probs(u, prefixes, params)      # (n, K)
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
                        mapping: ItemPathMapping,
                        beam_size: int | None = None) -> np.ndarray:
    """Deduplicated items on the beam-retrieved paths, as a CANDIDATE_DTYPE
    array with fields `item` and `logp`.

    An item reached via several paths is scored by its maximum path
    log-probability; sorted descending, ties toward the smaller item id.
    `len()` is the candidate count, entries unpack as (item, logp), and
    `.tolist()` gives those pairs.
    """
    beam = beam_search(ctx, params, beam_size)
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


def adaptive_beam(ctx: UserContext, params: StructureParams,
                  mapping: ItemPathMapping, target_count: int,
                  multiplier_range: tuple = (5, 10)) -> tuple:
    """Grow the beam geometrically until enough candidates are retrieved.

    Doubles B until the candidate count reaches multiplier_range[0] times
    `target_count` or the beam covers every path. Returns (candidates, B),
    where `candidates` is the `retrieve_candidates` array at that B.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    cfg = params.cfg
    want = multiplier_range[0] * target_count
    B = 1
    while True:
        candidates = retrieve_candidates(ctx, params, mapping, beam_size=B)
        if len(candidates) >= want or B >= cfg.num_paths:
            return candidates, B
        B = min(2 * B, cfg.num_paths)
