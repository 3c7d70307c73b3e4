"""Softmax reranker trained with sampled softmax, the joint objective, and
the brute-force inner-product baseline.

The reranker shares the structure model's user encoder (mean-pooled item
embeddings); its own output embeddings score items by dot product.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ShapeError, log_softmax
from .structure import StructureParams, UserContext, multi_path_loss
from .structure import _behavior_items, user_embedding
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


def sampled_softmax_loss(ctx: UserContext, positive: int, num_negatives: int,
                         model: SoftmaxModel, params: StructureParams,
                         rng: np.random.Generator | None = None,
                         negatives: np.ndarray | None = None,
                         grads: dict | None = None):
    """Sampled-softmax cross entropy for one positive interaction.

    Negatives are uniform without replacement, excluding the positive, with
    a log-q logit correction; with num_negatives = V-1 this is exactly the
    full softmax cross entropy. Gradients reach both the output embeddings
    and, through the shared user encoder, the structure item embeddings.
    """
    V = model.num_items
    if negatives is None:
        if rng is None:
            raise ValueError("either negatives or rng must be supplied")
        negatives = sample_negatives(V, positive, num_negatives, rng)
    else:
        negatives = np.asarray(negatives, dtype=np.int64)
    n_neg = negatives.shape[0]
    cand = np.concatenate([[positive], negatives])
    u = user_embedding(ctx, params)
    logits = model.out_emb[cand] @ u
    if n_neg < V - 1:
        logits[1:] -= math.log(n_neg / (V - 1))
    logq = log_softmax(logits)
    loss = -float(logq[0])
    p = np.exp(logq)
    dlogits = p.copy()
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
    return loss, grads


def _top_k(scores: np.ndarray, k: int, ids: np.ndarray | None = None) -> list:
    """The k best (item id, score) pairs, best first, ties toward the
    smaller id; `ids[i]` is the item id at position i (i itself when None)."""
    n = scores.size
    if k < n:
        # Exact top-k without a full sort: keep everything at least as good
        # as the k-th score, then order that small subset.
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        pool = np.flatnonzero(neg <= kth)
        scores = scores[pool]
        ids = pool if ids is None else ids[pool]
    elif ids is None:
        ids = np.arange(n)
    order = np.lexsort((ids, -scores))[:k]
    return list(zip(ids[order].tolist(), scores[order].tolist()))


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

    `items` is a 1-D array of item ids, such as `retrieve_candidates(...)
    ["item"]`. Ties go toward the smaller item id; returns every candidate
    when k exceeds the candidate count. `u` is the user's embedding when
    the caller has it.
    """
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 1 or items.size == 0:
        raise ValueError("candidates must be a non-empty 1-D array of item ids")
    if u is None:
        u = user_embedding(ctx, params)
    scores = np.take(model.out_emb, items, axis=0) @ u
    return _top_k(scores, k, items)


def joint_loss(ctx: UserContext, item: int, mapping, params: StructureParams,
               model: SoftmaxModel, penalty: float,
               num_negatives: int = 100, rng: np.random.Generator | None = None,
               negatives: np.ndarray | None = None,
               grads: dict | None = None):
    """Multi-task objective: penalized structure loss plus softmax loss.

    `penalty` is the mapping's path-size penalty, `penalty_value(mapping,
    alpha)`: it is constant in the parameters and only shifts the loss
    value, so callers compute it once per mapping.
    """
    if grads is None:
        grads = params.zero_grads()
        grads["out_emb"] = np.zeros_like(model.out_emb)
    l_str, _ = multi_path_loss(ctx, mapping.assignments[item], params, grads=grads)
    l_sm, _ = sampled_softmax_loss(ctx, item, num_negatives, model, params,
                                   rng=rng, negatives=negatives, grads=grads)
    return l_str + penalty + l_sm, grads
