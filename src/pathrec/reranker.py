"""Softmax reranker trained with sampled softmax, the joint objective, and
the brute-force inner-product baseline.

The reranker shares the structure model's user encoder (mean-pooled item
embeddings); its own output embeddings score items by dot product.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ShapeError, log_softmax, scatter_add_rows
from .structure import StructureParams, UserBatch, UserContext, multi_path_loss
from .structure import user_embedding
# em_epoch computes the penalty, but `penalty_value` stays importable from
# here: perfbench/tracing.py wraps it in this module by name.
from .structure import penalty_value  # noqa: F401


class SoftmaxModel:
    """Output item embeddings of a V-way softmax over items."""

    def __init__(self, out_emb: np.ndarray):
        if out_emb.ndim != 2:
            raise ShapeError("out_emb must be (V, emb_dim)")
        self.out_emb = out_emb

    @classmethod
    def init_random(cls, num_items: int, emb_dim: int,
                    rng: np.random.Generator) -> "SoftmaxModel":
        return cls(rng.normal(0.0, 0.1, size=(num_items, emb_dim)))

    @property
    def num_items(self) -> int:
        return self.out_emb.shape[0]


def sample_negatives(num_items: int, positive: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """`count` distinct items drawn uniformly, never equal to `positive`."""
    if not 1 <= count < num_items:
        raise ValueError(f"negative count {count} must be in [1, {num_items - 1}]")
    idx = rng.choice(num_items - 1, size=count, replace=False)
    idx[idx >= positive] += 1
    return idx


def sampled_softmax_loss(users: UserBatch, positives, num_negatives: int,
                         model: SoftmaxModel, params: StructureParams,
                         rng: np.random.Generator | None = None,
                         negatives: np.ndarray | None = None,
                         grads: dict | None = None):
    """Sampled-softmax cross entropy for each user's positive item.

    Negatives are uniform without replacement, excluding the positive, with
    a log-q logit correction; with num_negatives = V-1 this is exactly the
    full softmax cross entropy. `negatives` is (n, N); when it is None,
    each user's N are drawn from `rng` in turn. Returns (losses, grads):
    losses is (n,), and `grads` accumulates the gradient of their sum. It
    reaches the output embeddings, unless `grads` has no "out_emb" entry
    (a frozen softmax), and, through the shared user encoder, the structure
    item embeddings.
    """
    V = model.num_items
    positives = np.asarray(positives, dtype=np.int64)
    n = positives.shape[0]
    if negatives is None:
        if rng is None:
            raise ValueError("either negatives or rng must be supplied")
        negatives = np.array([sample_negatives(V, int(p), num_negatives, rng)
                              for p in positives]).reshape(n, num_negatives)
    else:
        negatives = np.asarray(negatives, dtype=np.int64)
        if negatives.ndim != 2 or negatives.shape[0] != n:
            raise ShapeError(f"negatives must be ({n}, N), got {negatives.shape}")
    n_neg = negatives.shape[1]
    cand = np.concatenate([positives[:, None], negatives], axis=1)   # (n, 1+N)
    emb = model.out_emb[cand]                                        # (n, 1+N, E)
    u = users.u
    logits = (emb @ u[:, :, None])[:, :, 0]
    if n_neg < V - 1:
        logits[:, 1:] -= math.log(n_neg / (V - 1))
    logq = log_softmax(logits)
    dlogits = np.exp(logq)
    dlogits[:, 0] -= 1.0

    if grads is None:
        grads = {"out_emb": np.zeros_like(model.out_emb),
                 "item_emb": np.zeros_like(params.item_emb)}
    if "out_emb" in grads:
        scatter_add_rows(grads["out_emb"], cand.ravel(),
                         (dlogits[:, :, None] * u[:, None, :]).reshape(-1, u.shape[1]))
    users.backward((dlogits[:, None, :] @ emb)[:, 0, :], grads)
    return -logq[:, 0], grads


def _top_k(scores: np.ndarray, k: int, ids: np.ndarray | None = None) -> list:
    """The k best (item id, score) pairs, best first, ties toward the
    smaller id; `ids[i]` is the item id at position i (i itself when None).
    An id listed more than once counts once, at its best score."""
    n, m = scores.size, k
    neg = -scores
    while True:
        if m < n:
            # Exact top-k without a full sort: keep everything at least as
            # good as the m-th score, then order that small subset. An id
            # left out scores below every id kept.
            kth = np.partition(neg, m - 1)[m - 1]
            pool = np.flatnonzero(neg <= kth)
            top, at = scores[pool], (pool if ids is None else ids[pool])
        else:
            top, at = scores, (np.arange(n) if ids is None else ids)
        order = np.lexsort((at, -top))
        if ids is None:
            break
        # Each id's first entry in this order is its best.
        _, first = np.unique(at[order], return_index=True)
        order = order[np.sort(first)]
        if order.size >= k or m >= n:
            break
        # Repeats filled the pool: fewer than k distinct ids in it.
        m = min(2 * m, n)
    order = order[:k]
    return list(zip(at[order].tolist(), top[order].tolist()))


def brute_force_retrieve(ctx: UserContext, model: SoftmaxModel,
                         params: StructureParams, k: int) -> list:
    """Exact top-k items by inner product; ties toward the smaller item id."""
    V = model.num_items
    if not 1 <= k <= V:
        raise ValueError(f"k={k} must be in [1, {V}]")
    u = user_embedding(ctx, params)
    scores = model.out_emb @ u
    return _top_k(scores, k)


def rerank(items, ctx: UserContext, model: SoftmaxModel,
           params: StructureParams, k: int, u: np.ndarray | None = None) -> list:
    """Top-k (item, score) of the candidate item ids by softmax score.

    `items` is a 1-D array of item ids in any order, repeats allowed: an
    item listed more than once, such as the beam's inverted-index entries
    of an item on two beam paths, counts once at its best score. Ties go
    toward the smaller item id; returns every distinct candidate when k
    exceeds their count. `u` is the user's embedding when the caller has
    it.
    """
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 1 or items.size == 0:
        raise ValueError("candidates must be a non-empty 1-D array of item ids")
    if u is None:
        u = user_embedding(ctx, params)
    scores = np.take(model.out_emb, items, axis=0) @ u
    return _top_k(scores, k, items)


def joint_loss(ctxs, items, mapping, params: StructureParams,
               model: SoftmaxModel, penalty: float,
               num_negatives: int = 100, rng: np.random.Generator | None = None,
               negatives: np.ndarray | None = None,
               grads: dict | None = None):
    """Multi-task objective per sample: penalized structure loss plus
    softmax loss, for user contexts `ctxs` and their clicked `items`.

    The users are encoded once for both losses. `penalty` is the mapping's
    path-size penalty, `penalty_value(mapping, alpha)`: it is constant in
    the parameters and only shifts the loss value, so callers compute it
    once per mapping. Returns (losses, grads): losses is (n,), and `grads`
    accumulates the gradient of their sum; without an "out_emb" entry in a
    supplied `grads` the softmax output embeddings get none.
    """
    if grads is None:
        grads = params.zero_grads()
        grads["out_emb"] = np.zeros_like(model.out_emb)
    users = UserBatch(ctxs, params)
    l_str, _ = multi_path_loss(users, [mapping.assignments[i] for i in items],
                               params, grads=grads)
    l_sm, _ = sampled_softmax_loss(users, items, num_negatives, model, params,
                                   rng=rng, negatives=negatives, grads=grads)
    return l_str + penalty + l_sm, grads
