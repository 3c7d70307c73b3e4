"""Reference computations the benchmark checks the program against.

Each oracle is computed apart from the code path it checks: brute force is
a full sort, the beam is rebuilt one prefix at a time from
`structure.layer_distribution`, and the path -> items index is rebuilt from
`mapping.assignments` with NumPy, never read from the program's inverted
index. A check raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np

from pathrec import structure

# Log-probabilities and scores come from different arithmetic than the
# program's (log of softmax against log_softmax, a separate user mean), so
# they agree to rounding, not bit for bit.
ATOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagreed with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def user_vector(item_emb: np.ndarray, behavior) -> np.ndarray:
    """Mean of the behaviour items' embeddings (no padding in our queries)."""
    rows = item_emb[np.asarray(behavior, dtype=np.int64)]
    return rows.sum(axis=0) / len(rows)


def ranked(items: np.ndarray, scores: np.ndarray, k: int) -> list:
    """Top-k (item, score) by score descending, ties to the smaller id, by
    sorting every item."""
    order = np.lexsort((items, -scores))[:k]
    return [(int(items[i]), float(scores[i])) for i in order]


def brute_force(trained, behavior, k: int) -> list:
    u = user_vector(trained.params.item_emb, behavior)
    out = trained.model.out_emb
    return ranked(np.arange(out.shape[0]), out @ u, k)


class PathIndex:
    """Path -> sorted item ids, rebuilt from `mapping.assignments` alone.

    A path (c_1..c_D) is encoded as sum c_d K^(D-d); codes of one item are
    kept with multiplicity so that path sizes count every assignment."""

    def __init__(self, assignments, num_nodes: int, depth: int):
        self.K, self.D = num_nodes, depth
        paths = np.asarray(assignments, dtype=np.int64)       # (V, J, D)
        codes = self.encode(paths).ravel()
        items = np.repeat(np.arange(paths.shape[0]), paths.shape[1])
        order = np.lexsort((items, codes))
        self.codes, self.items = codes[order], items[order]

    def encode(self, paths: np.ndarray) -> np.ndarray:
        weights = self.K ** np.arange(self.D - 1, -1, -1, dtype=np.int64)
        return paths @ weights

    def items_on(self, path) -> np.ndarray:
        code = int(self.encode(np.asarray(path, dtype=np.int64)))
        lo, hi = np.searchsorted(self.codes, [code, code + 1])
        return self.items[lo:hi]

    def nonempty(self) -> dict:
        """Encoded path -> item count, for every path with an item."""
        codes, counts = np.unique(self.codes, return_counts=True)
        return dict(zip(codes.tolist(), counts.tolist()))

    def candidates(self, paths) -> np.ndarray:
        if not paths:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate([self.items_on(p) for p in paths]))


class BeamOracle:
    """Beam search recomputed layer by layer for one user, one
    `layer_distribution` call per prefix, memoised across beam widths."""

    def __init__(self, ctx, params):
        self.ctx, self.params = ctx, params
        self.memo: dict = {}

    def layer_log_probs(self, prefix: tuple) -> np.ndarray:
        if prefix not in self.memo:
            dist = structure.layer_distribution(self.ctx, prefix, self.params)
            self.memo[prefix] = np.log(dist)
        return self.memo[prefix]

    def beam(self, B: int) -> list:
        """Top-B (path, log-prob), sorted descending, ties to the smaller
        path, keeping B at every layer."""
        K = self.params.cfg.num_nodes
        beam = [((), 0.0)]
        for _ in range(self.params.cfg.depth):
            grown = []
            for prefix, lp in beam:
                logp = self.layer_log_probs(prefix)
                grown.extend((prefix + (c,), lp + float(logp[c])) for c in range(K))
            grown.sort(key=lambda pl: (-pl[1], pl[0]))
            beam = grown[:B]
        return beam


def check_beam(program_beam, oracle_beam, what: str) -> None:
    got = [tuple(p) for p, _ in program_beam]
    want = [p for p, _ in oracle_beam]
    require(sorted(got) == sorted(want), f"{what}: beam paths differ from the oracle")
    want_lp = dict(oracle_beam)
    for p, lp in program_beam:
        require(abs(lp - want_lp[tuple(p)]) <= ATOL,
                f"{what}: log-prob of {p} is {lp}, oracle {want_lp[tuple(p)]}")
    lps = [lp for _, lp in program_beam]
    require(all(a >= b - ATOL for a, b in zip(lps, lps[1:])),
            f"{what}: beam not sorted by log-prob")


def check_ranking(got, want, what: str) -> None:
    require([i for i, _ in got] == [i for i, _ in want],
            f"{what}: items {[i for i, _ in got]} != oracle {[i for i, _ in want]}")
    require(all(math.isclose(a, b, rel_tol=1e-9, abs_tol=ATOL)
                for (_, a), (_, b) in zip(got, want)),
            f"{what}: scores differ from the oracle")


def check_reranked(got, trained, index: PathIndex, paths, behavior, k: int,
                   what: str) -> None:
    """`got` must be the top-k by out_emb . u over the items that the
    assignments place on `paths`."""
    items = index.candidates(paths)
    u = user_vector(trained.params.item_emb, behavior)
    check_ranking(got, ranked(items, trained.model.out_emb[items] @ u, k), what)


def adaptive_width(oracle: BeamOracle, index: PathIndex, want: int,
                   num_paths: int) -> int:
    """Smallest power of two, capped at K^D, whose beam reaches `want`
    candidates."""
    B = 1
    while len(index.candidates([p for p, _ in oracle.beam(B)])) < want and B < num_paths:
        B = min(2 * B, num_paths)
    return B


def check_mapping(mapping, cfg, num_items: int, what: str) -> None:
    """J distinct in-range paths per item, sizes summing to V*J, and an
    inverted index that matches the assignments."""
    J, K, D = cfg.paths_per_item, cfg.num_nodes, cfg.depth
    require(len(mapping.assignments) == num_items, f"{what}: {len(mapping.assignments)} items mapped")
    for v, paths in enumerate(mapping.assignments):
        require(len(paths) == J and len(set(paths)) == J,
                f"{what}: item {v} has paths {paths}, want {J} distinct")
        require(all(len(p) == D and all(0 <= c < K for c in p) for p in paths),
                f"{what}: item {v} has an out-of-range path")
    require(sum(mapping.path_sizes.values()) == num_items * J,
            f"{what}: path sizes sum to {sum(mapping.path_sizes.values())}, want {num_items * J}")
    index = PathIndex(mapping.assignments, K, D)
    expected = index.nonempty()
    keys = {int(index.encode(np.asarray(p))): p for p in mapping.inverted}
    require(set(keys) == set(expected), f"{what}: inverted index covers other paths")
    for code, path in keys.items():
        require(sorted(mapping.inverted[path]) == index.items_on(path).tolist(),
                f"{what}: inverted index of {path} disagrees with the assignments")
        require(mapping.path_sizes.get(path) == expected[code],
                f"{what}: size of {path} is {mapping.path_sizes.get(path)}, want {expected[code]}")


def check_score_table(table, capacity: int, what: str) -> None:
    for item, entries in table.scores.items():
        require(len(entries) <= capacity, f"{what}: item {item} holds {len(entries)} > {capacity} scores")
        require(all(s >= 0 and math.isfinite(s) for s in entries.values()),
                f"{what}: item {item} holds a negative or non-finite score")
