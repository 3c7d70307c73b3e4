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


@dataclass(eq=False)
class ItemPathMapping:
    """The item -> J paths assignment and its path -> items inverted index.

    `paths` holds each item's paths in stored order, in the smallest
    unsigned dtype that holds the largest node; `assignments` lists them
    as tuples, one shared tuple per distinct path. The index is in CSR
    form over the non-empty paths. A path's code is `path_codes` in base
    `base`, one past the largest node, so code order is path order. `codes`
    holds the distinct codes ascending; path `codes[p]` holds the items
    `items[indptr[p]:indptr[p + 1]]`, in item order, an item listed once
    per time it holds the path. `inverted` and `path_sizes` are dict views
    derived on first read, kept while the benchmark's checks read them.
    """

    assignments: list          # item id -> tuple of J PathIds
    paths: np.ndarray          # (V, J, D) nodes, each item's in stored order
    base: int                  # the code base
    codes: np.ndarray          # (P,) distinct path codes, ascending
    indptr: np.ndarray         # (P + 1,) each path's slice of `items`
    items: np.ndarray          # (V * J,) item ids, path by path

    @classmethod
    def from_assignments(cls, paths) -> "ItemPathMapping":
        """The mapping of `paths`, per item J paths of D nodes in [0, K) for
        a K**D below 2**63, stored in the order given: a (V, J, D) int array
        or what `np.asarray` makes one of, such as a list of J-tuples of
        D-tuples. With no items, `paths` is (0, 0, 0)."""
        paths = np.asarray(paths) if len(paths) else np.zeros((0, 0, 0), np.uint8)
        top = int(paths.max(initial=0))
        paths = paths.astype(np.min_scalar_type(top), copy=False)
        # Each temporary is freed once used: this build sets the memory
        # peak of a checkpoint load.
        V, J, D = paths.shape
        flat = paths.reshape(V * J, D)
        codes = path_codes(flat, top + 1)
        # A stable sort keeps each path's items in item order; codes that
        # fit 16 bits take NumPy's radix sort.
        order = np.argsort(codes.astype(np.min_scalar_type(codes.max(initial=0))),
                           kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        codes = codes[starts]
        indptr = np.append(starts, order.size)
        # One tuple per distinct path, from the nodes of its first entry.
        shared = np.fromiter(zip(*[_scalars(flat[order[starts]].ravel())] * D),
                             object, starts.size)
        del starts
        path_of = np.empty(order.size, dtype=np.intp)
        path_of[order] = np.repeat(np.arange(codes.size), np.diff(indptr))
        shared = shared[path_of]
        del path_of
        assignments = list(zip(*[_scalars(shared)] * J))
        del shared
        return cls(assignments, paths, top + 1, codes, indptr, order // max(J, 1))

    @property
    def sizes(self) -> np.ndarray:
        """Items per non-empty path, in path order; an item counts once per
        assigned path."""
        return np.diff(self.indptr)

    @functools.cached_property
    def size_sums(self) -> np.ndarray:
        """Entry B is the total size of the B largest paths, from 0 at B = 0
        to every assignment at B = the number of non-empty paths."""
        sums = np.zeros(self.codes.size + 1, dtype=np.int64)
        np.cumsum(np.sort(self.sizes)[::-1], out=sums[1:])
        return sums

    @functools.cached_property
    def inverted(self) -> dict:
        """Non-empty path -> its items, an ascending tuple, derived from the
        CSR arrays. The keys are the assignments' own tuples, listed by path
        size and then in path order."""
        if not self.codes.size:
            return {}
        # A path's key is the tuple that its first item holds at its code.
        first = self.items[self.indptr[:-1]]
        at = (path_codes(self.paths[first], self.base) == self.codes[:, None]).argmax(1)
        keys = [self.assignments[v][j] for v, j in zip(first.tolist(), at.tolist())]
        # Cut the paths' items into tuples a size at a time, paths listed by
        # size: zip builds tuples of one size with no Python-level step per
        # tuple. One int object per item is shared by all of its paths.
        sizes = self.sizes
        by_size = np.argsort(sizes.astype(np.min_scalar_type(sizes.max(initial=0))),
                             kind="stable")
        grouped = sizes[by_size]
        take = np.repeat(self.indptr[1:][by_size] - np.cumsum(grouped), grouped)
        take += np.arange(take.size)
        entries = _scalars(np.arange(self.num_items, dtype=object)[self.items[take]])
        del take
        items: list = []
        for size, n in zip(*np.unique(grouped, return_counts=True)):
            items += itertools.islice(zip(*[entries] * size), n)
        return dict(zip(map(keys.__getitem__, by_size.tolist()), items))

    @functools.cached_property
    def path_sizes(self) -> dict:
        """Items per non-empty path, keyed and ordered as `inverted`."""
        return {path: len(items) for path, items in self.inverted.items()}

    @classmethod
    def random_init(cls, cfg: StructureConfig, num_items: int,
                    rng: np.random.Generator) -> "ItemPathMapping":
        """J distinct random paths per item, in ascending order."""
        J, D, K = cfg.paths_per_item, cfg.depth, cfg.num_nodes
        draw = rng.integers(0, K, size=(num_items * J, D)).astype(np.min_scalar_type(K - 1))
        codes = path_codes(draw, K).reshape(num_items, J)
        order = np.argsort(codes, axis=1)
        paths = draw.reshape(num_items, J, D)[np.arange(num_items)[:, None], order]
        codes = np.take_along_axis(codes, order, axis=1)
        del draw, order
        # Items that drew a path twice redraw, one at a time in item order.
        for v in np.flatnonzero((codes[:, 1:] == codes[:, :-1]).any(axis=1)).tolist():
            chosen = set(map(tuple, paths[v].tolist()))
            while len(chosen) < J:
                chosen.add(tuple(rng.integers(0, K, size=D).tolist()))
            paths[v] = sorted(chosen)
        del codes
        return cls.from_assignments(paths)

    @property
    def num_items(self) -> int:
        return len(self.paths)


def path_codes(paths: np.ndarray, base: int) -> np.ndarray:
    """The base-`base` integer code of each path along the last axis of
    `paths`, nodes in [0, base): for fixed-length paths, code order is
    lexicographic order."""
    codes = np.zeros(paths.shape[:-1], dtype=np.int64)
    for d in range(paths.shape[-1]):
        codes *= base
        codes += paths[..., d]
    return codes


#: `_scalars` converts this many array entries at a time.
_SCALAR_BLOCK = 1 << 16


def _scalars(arr: np.ndarray):
    """An iterator over the Python objects of 1-d `arr`, converted a block
    at a time so that no list of them all is ever alive."""
    return itertools.chain.from_iterable(
        arr[lo:lo + _SCALAR_BLOCK].tolist() for lo in range(0, arr.size, _SCALAR_BLOCK))


def beam_search(ctx: UserContext, params: StructureParams,
                beam_size: int | None = None) -> list:
    """Top-B paths by log-probability for one user, as (path, log-prob)
    pairs sorted descending: the n = 1 case of `batched_beam_search`."""
    u = user_embedding(ctx, params)
    paths, logps = batched_beam_search(u[None], params, beam_size)
    return [(tuple(path), lp) for path, lp in zip(paths[0].tolist(), logps[0].tolist())]


def batched_beam_search(u: np.ndarray, params: StructureParams,
                        beam_size: int | None = None,
                        memo: _LayerMemo | None = None) -> tuple:
    """Top-B paths by log-probability for each of n users, u of shape (n, E).

    Per layer, expands each user's beam to all K successors and keeps that
    user's top B; ties broken toward the lexicographically smaller path.
    With B >= K^D this is exhaustive enumeration. Every user's beam has the
    same width at each layer, so the layer's candidates form an (n, width*K)
    matrix selected row by row. Returns (paths, logps) of shapes (n, B', D)
    and (n, B'), best first, with B' = min(B, K^D). `memo`, one user's
    (n = 1) `_LayerMemo`, scores the layers in place of the MLPs.
    """
    cfg = params.cfg
    B = cfg.beam_size if beam_size is None else int(beam_size)
    if B < 1:
        raise ValueError("beam_size must be >= 1")
    n, K = u.shape[0], cfg.num_nodes
    # Beam rows of all users, user-major: user i's at [i*width, (i+1)*width).
    prefixes = np.zeros((n, 0), dtype=np.int64)
    codes = np.zeros(n, dtype=np.int64)           # base-K code of each prefix
    logps = np.zeros(n)
    width = 1
    for d in range(cfg.depth):
        if memo is None:
            # One user's rows share its embedding by broadcasting.
            rows_u = u if n == 1 else np.repeat(u, width, axis=0)
            layer_lp = batched_layer_log_probs(rows_u, prefixes, params)
        else:
            layer_lp = memo.log_probs(prefixes)
        # Candidate j of beam row r is at r*K + j, so user i's width*K
        # candidates form row i of an (n, width*K) matrix.
        neg = (-logps[:, None] - layer_lp).ravel()
        per_user = width * K
        need = min(B, per_user)
        if need < per_user:
            # Keep everything at least as good as a user's B-th candidate,
            # then order that small pool exactly.
            by_user = neg.reshape(n, per_user)
            kth = np.partition(by_user, need - 1, axis=1)[:, need - 1]
            pool = np.flatnonzero(by_user <= kth[:, None])
        else:
            pool = np.arange(neg.size)
        row, node = np.divmod(pool, K)
        user = row // width
        # Integer order of fixed-length base-K codes is lexicographic path
        # order. Sort by user, then log-prob descending, then path; lexsort
        # keys are least significant first.
        cand = codes[row] * K + node
        order = np.lexsort((cand, neg[pool], user))
        if pool.size > n * need:          # ties at a user's B-th candidate
            first = np.searchsorted(user[order], np.arange(n))
            order = order[np.arange(order.size) - first[user[order]] < need]
        prefixes = np.concatenate([prefixes[row[order]], node[order, None]], axis=1)
        codes = cand[order]
        logps = -neg[pool[order]]
        width = need
    return prefixes.reshape(n, width, cfg.depth), logps.reshape(n, width)


def retrieve_candidates(ctx: UserContext, params: StructureParams,
                        mapping: ItemPathMapping, beam_size: int | None = None,
                        u: np.ndarray | None = None) -> np.ndarray:
    """The items on the beam-retrieved paths: each beam path's inverted-index
    entries, in beam order, so an item on two beam paths is listed twice.
    `u` is the user's embedding when the caller has it.
    """
    if u is None:
        u = user_embedding(ctx, params)
    paths, _ = batched_beam_search(u[None], params, beam_size)
    return _entries(paths[0], mapping)[0]


def _entries(paths: np.ndarray, mapping: ItemPathMapping) -> tuple:
    """The items on a beam of (B, D) paths, path by path: each path's CSR
    slice in beam order, so an item is listed once per beam path that holds
    it. Returns (items, counts), counts the (B,) items per path."""
    if not mapping.codes.size:
        return mapping.items[:0], np.zeros(len(paths), dtype=np.int64)
    codes = path_codes(paths, mapping.base)
    if paths.max() >= mapping.base:
        # Such a path holds no item of the mapping; code -1 is no path's.
        codes[paths.max(axis=1) >= mapping.base] = -1
    # Each beam path's CSR slice; an absent code's is empty.
    at = np.minimum(np.searchsorted(mapping.codes, codes), mapping.codes.size - 1)
    lo = mapping.indptr[at]
    counts = np.where(mapping.codes[at] == codes, mapping.indptr[at + 1] - lo, 0)
    ends = np.cumsum(counts)
    at = np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])
    return mapping.items[at], counts


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

    Doubles B from 1 until the beam's distinct items reach
    ADAPTIVE_MULTIPLIER times `target_count` or the beam covers every path.
    Returns (entries, B), where `entries` is the `retrieve_candidates`
    result at that B. `u` is the user's embedding when the caller has it.

    A B-path beam retrieves at most the items on the B largest paths, so
    widths whose bound falls short are skipped unscored. The widths that
    run share one memo of layer rows, so each prefix is scored once. A
    width's entry count bounds its distinct items from above and its
    largest path's count from below; only when neither decides are the
    entries sorted to count them.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if u is None:
        u = user_embedding(ctx, params)
    cfg = params.cfg
    want = ADAPTIVE_MULTIPLIER * target_count
    sums = mapping.size_sums
    B = 1
    while B < cfg.num_paths and sums[min(B, sums.size - 1)] < want:
        B = min(2 * B, cfg.num_paths)
    memo = _LayerMemo(u, params)
    while True:
        paths, _ = batched_beam_search(u[None], params, B, memo)
        items, counts = _entries(paths[0], mapping)
        if B >= cfg.num_paths or (items.size >= want and (
                counts.max() >= want or np.unique(items).size >= want)):
            return items, B
        B = min(2 * B, cfg.num_paths)
