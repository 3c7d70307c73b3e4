"""The D-layer, K-node path probability model.

A path is a length-D tuple of node indices in [0, K). Layer d sees the user
embedding concatenated with the embeddings of the d-1 previously chosen
nodes, runs a small MLP, and emits a K-way distribution. The probability of
a full path is the product over layers; an item assigned to J paths is
scored by the sum of its path probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (AffineLayer, ShapeError, affine_forward, log_softmax, relu, relu_grad,
                   scatter_add_rows, softmax)

PathId = tuple[int, ...]

#: Sentinel item id marking padding inside a behavior sequence.
PAD_ITEM = -1


def check_number_fields(config) -> None:
    """Raise ValueError unless each int field of the dataclass `config` holds
    an int and each float field an int or a finite float: a JSON true, 2.0
    or NaN passes the range checks and breaks the model later. A value that
    is no number fails those checks' comparisons with a TypeError."""
    for f in fields(config):
        value = getattr(config, f.name)
        whole = f.type.startswith("int")        # "int" or "int | None"
        bad_float = isinstance(value, float) and (whole or not math.isfinite(value))
        if isinstance(value, bool) or bad_float:
            raise ValueError(f"{f.name} must be "
                             f"{'an integer' if whole else 'a finite number'}, not {value!r}")


@dataclass(frozen=True)
class StructureConfig:
    num_nodes: int          # K, nodes per layer
    depth: int              # D, number of layers
    paths_per_item: int     # J
    beam_size: int          # B
    score_capacity: int     # S, per-item score table size
    penalty_alpha: float    # path-size penalty factor
    decay_eta: float = 0.999
    emb_dim: int = 16
    max_seq_len: int = 69
    hidden_width: int | None = None  # MLP hidden units; None means 4*K

    def __post_init__(self):
        check_number_fields(self)
        if self.num_nodes < 1 or self.depth < 1 or self.paths_per_item < 1:
            raise ValueError("num_nodes, depth and paths_per_item must be >= 1")
        if self.num_paths >= 2**63:
            raise ValueError("num_nodes**depth must be below 2**63")
        if self.paths_per_item > self.num_paths:
            raise ValueError("paths_per_item exceeds the number of possible paths")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.beam_size > self.num_paths:
            raise ValueError("beam_size exceeds the number of possible paths")
        if self.score_capacity < self.paths_per_item:
            raise ValueError("score_capacity must be >= paths_per_item")
        if self.penalty_alpha < 0:
            raise ValueError("penalty_alpha must be >= 0")
        if not 0 < self.decay_eta <= 1:
            raise ValueError("decay_eta must be in (0, 1]")
        if self.emb_dim < 1 or self.max_seq_len < 1:
            raise ValueError("emb_dim and max_seq_len must be >= 1")
        if self.hidden_width is not None and self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")

    @property
    def num_paths(self) -> int:
        return self.num_nodes**self.depth

    @property
    def mlp_hidden(self) -> int:
        return 4 * self.num_nodes if self.hidden_width is None else self.hidden_width


@dataclass(frozen=True)
class UserContext:
    """Behavior sequence of item ids, most recent last, PAD_ITEM allowed."""

    behavior: tuple[int, ...]

    @classmethod
    def from_sequence(cls, items, max_seq_len: int) -> "UserContext":
        seq = tuple(int(i) for i in items)
        if len(seq) > max_seq_len:
            seq = seq[-max_seq_len:]
        return cls(seq)


class StructureParams:
    """Item embeddings, per-layer node embeddings and per-layer MLPs.

    The trainer mutates the arrays in place.
    """

    def __init__(self, cfg: StructureConfig, num_items: int,
                 item_emb: np.ndarray, node_emb: np.ndarray, mlps: list):
        self.cfg = cfg
        self.num_items = num_items
        self.item_emb = item_emb            # (V, E)
        self.node_emb = node_emb            # (D, K, E)
        self.mlps = mlps                    # per layer: (hidden AffineLayer, out AffineLayer)

    @classmethod
    def init_random(cls, cfg: StructureConfig, num_items: int,
                    rng: np.random.Generator) -> "StructureParams":
        E, K, D, H = cfg.emb_dim, cfg.num_nodes, cfg.depth, cfg.mlp_hidden
        item_emb = rng.normal(0.0, 0.1, size=(num_items, E))
        node_emb = rng.normal(0.0, 0.1, size=(D, K, E))
        mlps = []
        for d in range(1, D + 1):
            in_dim = E * d
            w1 = rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(H, in_dim))
            w2 = rng.normal(0.0, math.sqrt(2.0 / H), size=(K, H))
            mlps.append((AffineLayer(w1, np.zeros(H)), AffineLayer(w2, np.zeros(K))))
        return cls(cfg, num_items, item_emb, node_emb, mlps)

    def tensor_dict(self) -> dict:
        """Name -> array views over the live parameter storage."""
        out = {"item_emb": self.item_emb, "node_emb": self.node_emb}
        for d, (hid, top) in enumerate(self.mlps):
            out[f"mlp{d}_w1"] = hid.weight
            out[f"mlp{d}_b1"] = hid.bias
            out[f"mlp{d}_w2"] = top.weight
            out[f"mlp{d}_b2"] = top.bias
        return out

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(arr) for name, arr in self.tensor_dict().items()}


def _behavior_items(ctx: UserContext) -> list:
    return [i for i in ctx.behavior if i != PAD_ITEM]


def user_embedding(ctx: UserContext, params: StructureParams) -> np.ndarray:
    """Mean of non-padding item embeddings; zero vector when all padding."""
    items = _behavior_items(ctx)
    if not items:
        return np.zeros(params.cfg.emb_dim)
    for i in items:
        if not 0 <= i < params.num_items:
            raise ShapeError(f"behavior item {i} out of range")
    return params.item_emb[items].mean(axis=0)


class UserBatch:
    """n behavior sequences encoded at once: `u` is the (n, E) matrix of
    their mean item embeddings, zero rows for empty contexts.

    The contexts are kept as a padded (n, L) item matrix; `backward` sends
    a gradient on `u` back to the item embeddings it averages.
    """

    def __init__(self, ctxs, params: StructureParams):
        lists = [_behavior_items(ctx) for ctx in ctxs]
        self.counts = np.fromiter(map(len, lists), np.int64, len(lists))
        width = int(self.counts.max(initial=0))
        self.mask = np.arange(width) < self.counts[:, None]
        self.items = np.zeros((len(lists), width), dtype=np.int64)
        self.items[self.mask] = np.fromiter(itertools.chain.from_iterable(lists),
                                            np.int64, int(self.counts.sum()))
        bad = self.items[self.mask & ((self.items < 0) | (self.items >= params.num_items))]
        if bad.size:
            raise ShapeError(f"behavior item {bad[0]} out of range")
        # Masked sum, then one division, as `user_embedding`'s mean does.
        summed = (params.item_emb[self.items] * self.mask[..., None]).sum(axis=1)
        self.u = summed / np.maximum(self.counts, 1)[:, None]

    def backward(self, du: np.ndarray, grads: dict) -> None:
        """Add the gradient through the mean: each item of user i gets
        du[i] / (user i's item count)."""
        share = du / np.maximum(self.counts, 1)[:, None]
        scatter_add_rows(grads["item_emb"], self.items[self.mask],
                         np.repeat(share, self.counts, axis=0))


def layer_distribution(ctx: UserContext, prefix, params: StructureParams) -> np.ndarray:
    """p(c_d | x, c_1..c_{d-1}) over the K nodes of layer d = len(prefix)+1.

    One prefix through a forward of its own rather than `_layer_forward`,
    so that checks built on it stay independent of the batched code.
    """
    cfg = params.cfg
    prefix = tuple(int(c) for c in prefix)
    if len(prefix) >= cfg.depth:
        raise ShapeError(f"prefix length {len(prefix)} >= depth {cfg.depth}")
    for c in prefix:
        if not 0 <= c < cfg.num_nodes:
            raise ShapeError(f"prefix node {c} out of range")
    x = np.concatenate([user_embedding(ctx, params)] +
                       [params.node_emb[j, c] for j, c in enumerate(prefix)])
    hid, top = params.mlps[len(prefix)]
    return softmax(affine_forward(top, relu(affine_forward(hid, x))))


def _layer_forward(u: np.ndarray, prefixes: np.ndarray, params: StructureParams):
    """Layer d = prefixes.shape[1] + 1 over n prefix rows of shape (n, d-1).

    `u` is one user embedding (E,) shared by every row, or one per row
    (n, E). Returns the input rows (n, E*d), the hidden activations after
    the ReLU (n, H) and the log distributions over the layer's K nodes
    (n, K).
    """
    n, dm1 = prefixes.shape
    E = u.shape[-1]
    x = np.empty((n, E * (dm1 + 1)))
    x[:, :E] = u
    for j in range(dm1):
        x[:, E * (j + 1):E * (j + 2)] = params.node_emb[j, prefixes[:, j]]
    hid, top = params.mlps[dm1]
    h = affine_forward(hid, x)
    np.maximum(h, 0.0, out=h)          # ReLU in place: one (n, H) array, not two
    return x, h, log_softmax(affine_forward(top, h))


def batched_layer_log_probs(u: np.ndarray, prefixes: np.ndarray,
                            params: StructureParams) -> np.ndarray:
    """Log distributions over layer d nodes for n prefixes of length d-1.

    `prefixes` has shape (n, d-1) and `u` is (E,) or one row per prefix
    (n, E); returns (n, K).
    """
    return _layer_forward(u, prefixes, params)[2]


def multi_path_loss(users: UserBatch, paths, params: StructureParams,
                    grads: dict | None = None):
    """Per user, the negative log of the summed probability over its paths.

    `paths[i]` holds user i's paths; duplicates are collapsed before the
    sum. Every layer runs once over all (user, path) rows. Returns (losses,
    grads): losses is (n,), and `grads` accumulates the gradient of their
    sum, in place when supplied.
    """
    cfg = params.cfg
    D, E = cfg.depth, cfg.emb_dim
    per_user = [tuple(dict.fromkeys(map(tuple, ps))) for ps in paths]
    counts = np.fromiter(map(len, per_user), np.int64, len(per_user))
    if not counts.size or counts.size != users.u.shape[0] or not counts.all():
        raise ValueError("need one non-empty path list per user")
    flat = list(itertools.chain.from_iterable(per_user))
    for p in flat:
        if len(p) != D:
            raise ShapeError(f"path length {len(p)} != depth {D}")
    uniq = np.array(flat, dtype=np.int64)                # (R, D)
    bad = uniq[(uniq < 0) | (uniq >= cfg.num_nodes)]
    if bad.size:
        raise ShapeError(f"path node {bad[0]} out of range [0, {cfg.num_nodes})")
    R = uniq.shape[0]
    rows = np.arange(R)
    owner = np.repeat(np.arange(counts.size), counts)   # user of each row
    starts = np.cumsum(counts) - counts
    u = users.u[owner]

    # Forward: each layer runs once over every row's prefix.
    caches = []   # per layer: (x, h, log_probs), one row per (user, path)
    logps = np.zeros(R)
    for d in range(D):
        x, h, logq = _layer_forward(u, uniq[:, :d], params)
        logps += logq[rows, uniq[:, d]]
        caches.append((x, h, logq))

    # Segment logsumexp over each user's rows.
    m = np.maximum.reduceat(logps, starts)
    lse = m + np.log(np.add.reduceat(np.exp(logps - m[owner]), starts))
    branch_w = np.exp(logps - lse[owner])    # per user, softmax over its paths

    if grads is None:
        grads = params.zero_grads()
    du = np.zeros((R, E))
    node_layer, node_ids, node_grads = [], [], []
    for d, (x, h, logq) in enumerate(caches):
        dz = branch_w[:, None] * np.exp(logq)
        dz[rows, uniq[:, d]] -= branch_w
        hid, top = params.mlps[d]
        grads[f"mlp{d}_w2"] += dz.T @ h
        grads[f"mlp{d}_b2"] += dz.sum(axis=0)
        dh = (dz @ top.weight) * relu_grad(h)     # h > 0 exactly where its input is
        grads[f"mlp{d}_w1"] += dh.T @ x
        grads[f"mlp{d}_b1"] += dh.sum(axis=0)
        dx = dh @ hid.weight
        du += dx[:, :E]
        for k in range(d):
            node_layer.append(np.full(R, k))
            node_ids.append(uniq[:, k])
            node_grads.append(dx[:, E * (k + 1):E * (k + 2)])
    if node_ids:
        # Rows sharing a prefix node add into the same embedding row.
        np.add.at(grads["node_emb"],
                  (np.concatenate(node_layer), np.concatenate(node_ids)),
                  np.concatenate(node_grads))
    users.backward(np.add.reduceat(du, starts, axis=0), grads)
    return -lse, grads


def quartic_size_penalty(n: float) -> float:
    """f(|c|) = |c|^4 / 4, the overload penalty."""
    return n**4 / 4.0


def penalty_value(mapping, alpha: float) -> float:
    """alpha * sum over non-empty paths of f(|c|); `mapping` is an
    ItemPathMapping or a path -> size dict. The sum runs in path order and
    is exact while it stays below 2**51, every term a multiple of 1/4."""
    sizes = (np.fromiter(mapping.values(), np.float64, len(mapping))
             if isinstance(mapping, dict) else mapping.sizes.astype(np.float64))
    if np.any(sizes < 0):
        raise ValueError(f"negative path size {sizes.min():g}")
    return alpha * float(quartic_size_penalty(sizes).sum())
