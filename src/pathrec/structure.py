"""The D-layer, K-node path probability model.

A path is a length-D tuple of node indices in [0, K). Layer d sees the user
embedding concatenated with the embeddings of the d-1 previously chosen
nodes, runs a small MLP, and emits a K-way distribution. The probability of
a full path is the product over layers; an item assigned to J paths is
scored by the sum of its path probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AffineLayer, ShapeError, affine_forward, log_softmax, relu, relu_grad, softmax

PathId = tuple[int, ...]

#: Sentinel item id marking padding inside a behavior sequence.
PAD_ITEM = -1


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
        if self.num_nodes < 1 or self.depth < 1 or self.paths_per_item < 1:
            raise ValueError("num_nodes, depth and paths_per_item must be >= 1")
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


def validate_path(path, cfg: StructureConfig) -> PathId:
    path = tuple(int(c) for c in path)
    if len(path) != cfg.depth:
        raise ShapeError(f"path length {len(path)} != depth {cfg.depth}")
    for c in path:
        if not 0 <= c < cfg.num_nodes:
            raise ShapeError(f"path node {c} out of range [0, {cfg.num_nodes})")
    return path


class StructureParams:
    """Item embeddings, per-layer node embeddings and per-layer MLPs.

    Single-writer / multi-reader: the trainer mutates arrays in place,
    readers work on snapshots (`copy()`).
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
                    rng: np.random.Generator, scale: float = 0.1) -> "StructureParams":
        E, K, D, H = cfg.emb_dim, cfg.num_nodes, cfg.depth, cfg.mlp_hidden
        item_emb = rng.normal(0.0, scale, size=(num_items, E))
        node_emb = rng.normal(0.0, scale, size=(D, K, E))
        mlps = []
        for d in range(1, D + 1):
            in_dim = E * d
            w1 = rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(H, in_dim))
            w2 = rng.normal(0.0, math.sqrt(2.0 / H), size=(K, H))
            mlps.append((AffineLayer(w1, np.zeros(H)), AffineLayer(w2, np.zeros(K))))
        return cls(cfg, num_items, item_emb, node_emb, mlps)

    @classmethod
    def init_zero(cls, cfg: StructureConfig, num_items: int) -> "StructureParams":
        E, K, D, H = cfg.emb_dim, cfg.num_nodes, cfg.depth, cfg.mlp_hidden
        mlps = [(AffineLayer(np.zeros((H, E * d)), np.zeros(H)),
                 AffineLayer(np.zeros((K, H)), np.zeros(K)))
                for d in range(1, D + 1)]
        return cls(cfg, num_items, np.zeros((num_items, E)), np.zeros((D, K, E)), mlps)

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

    def param_count(self) -> int:
        return sum(arr.size for arr in self.tensor_dict().values())

    def copy(self) -> "StructureParams":
        mlps = [(AffineLayer(h.weight.copy(), h.bias.copy()),
                 AffineLayer(t.weight.copy(), t.bias.copy())) for h, t in self.mlps]
        return StructureParams(self.cfg, self.num_items,
                               self.item_emb.copy(), self.node_emb.copy(), mlps)


def user_embedding(ctx: UserContext, params: StructureParams) -> np.ndarray:
    """Mean of non-padding item embeddings; zero vector when all padding."""
    items = [i for i in ctx.behavior if i != PAD_ITEM]
    if not items:
        return np.zeros(params.cfg.emb_dim)
    for i in items:
        if not 0 <= i < params.num_items:
            raise ShapeError(f"behavior item {i} out of range")
    return params.item_emb[items].mean(axis=0)


def _behavior_items(ctx: UserContext) -> list:
    return [i for i in ctx.behavior if i != PAD_ITEM]


def layer_input(u: np.ndarray, prefix: PathId, params: StructureParams) -> np.ndarray:
    """Concatenation of user embedding and chosen-node embeddings."""
    parts = [u] + [params.node_emb[j, c] for j, c in enumerate(prefix)]
    return np.concatenate(parts)


def layer_logits(u: np.ndarray, prefix, params: StructureParams) -> np.ndarray:
    hid, top = params.mlps[len(prefix)]
    h = relu(affine_forward(hid, layer_input(u, tuple(prefix), params)))
    return affine_forward(top, h)


def layer_distribution(ctx: UserContext, prefix, params: StructureParams) -> np.ndarray:
    """p(c_d | x, c_1..c_{d-1}) over the K nodes of layer d = len(prefix)+1."""
    cfg = params.cfg
    prefix = tuple(int(c) for c in prefix)
    if len(prefix) >= cfg.depth:
        raise ShapeError(f"prefix length {len(prefix)} >= depth {cfg.depth}")
    for c in prefix:
        if not 0 <= c < cfg.num_nodes:
            raise ShapeError(f"prefix node {c} out of range")
    u = user_embedding(ctx, params)
    return softmax(layer_logits(u, prefix, params))


def path_log_prob(ctx: UserContext, path, params: StructureParams) -> float:
    """log p(c | x) = sum_d log p(c_d | x, c_1..c_{d-1})."""
    cfg = params.cfg
    path = validate_path(path, cfg)
    u = user_embedding(ctx, params)
    total = 0.0
    for d in range(cfg.depth):
        logp = log_softmax(layer_logits(u, path[:d], params))
        total += float(logp[path[d]])
    return total


def batched_layer_log_probs(u: np.ndarray, prefixes: np.ndarray,
                            params: StructureParams) -> np.ndarray:
    """Log distributions over layer d nodes for n prefixes of length d-1.

    `prefixes` has shape (n, d-1); returns (n, K).
    """
    n, dm1 = prefixes.shape
    E = u.shape[0]
    x = np.empty((n, E * (dm1 + 1)))
    x[:, :E] = u
    for j in range(dm1):
        x[:, E * (j + 1):E * (j + 2)] = params.node_emb[j, prefixes[:, j]]
    hid, top = params.mlps[dm1]
    h = relu(affine_forward(hid, x))
    return log_softmax(affine_forward(top, h))


def multi_path_loss(ctx: UserContext, paths, params: StructureParams,
                    grads: dict | None = None, weight: float = 1.0):
    """Negative log of the summed probability over an item's paths.

    Returns (loss, grads); `grads` accumulates in place when supplied,
    scaled by `weight`. Duplicate paths are collapsed before the sum.
    """
    cfg = params.cfg
    uniq = list(dict.fromkeys(validate_path(p, cfg) for p in paths))
    u = user_embedding(ctx, params)
    items = _behavior_items(ctx)

    # Forward: per path, per layer caches for backprop.
    caches = []   # per path: list of (x_in, h_pre, probs)
    logps = np.empty(len(uniq))
    for j, path in enumerate(uniq):
        layers = []
        total = 0.0
        for d in range(cfg.depth):
            x_in = layer_input(u, path[:d], params)
            hid, top = params.mlps[d]
            h_pre = affine_forward(hid, x_in)
            z = affine_forward(top, relu(h_pre))
            logq = log_softmax(z)
            total += float(logq[path[d]])
            layers.append((x_in, h_pre, np.exp(logq)))
        caches.append(layers)
        logps[j] = total

    m = np.max(logps)
    lse = m + math.log(np.sum(np.exp(logps - m)))
    loss = -lse
    branch_w = np.exp(logps - lse)      # softmax over path log-probs

    if grads is None:
        grads = params.zero_grads()
    E = cfg.emb_dim
    du = np.zeros(E)
    for j, path in enumerate(uniq):
        wj = branch_w[j] * weight
        for d in range(cfg.depth):
            x_in, h_pre, probs = caches[j][d]
            dz = wj * probs
            dz[path[d]] -= wj
            hid, top = params.mlps[d]
            a = relu(h_pre)
            grads[f"mlp{d}_w2"] += np.outer(dz, a)
            grads[f"mlp{d}_b2"] += dz
            dh = (top.weight.T @ dz) * relu_grad(h_pre)
            grads[f"mlp{d}_w1"] += np.outer(dh, x_in)
            grads[f"mlp{d}_b1"] += dh
            dx = hid.weight.T @ dh
            du += dx[:E]
            for k, c in enumerate(path[:d]):
                grads["node_emb"][k, c] += dx[E * (k + 1):E * (k + 2)]
    if items:
        np.add.at(grads["item_emb"], items, du / len(items))
    return weight * loss, grads


def quartic_size_penalty(n: float) -> float:
    """f(|c|) = |c|^4 / 4, the default overload penalty."""
    return n**4 / 4.0


def quadratic_size_penalty(n: float) -> float:
    """f(|c|) = |c|^2 / 2, controls the average path size."""
    return n * n / 2.0


def penalty_value(mapping, alpha: float, size_fn=quartic_size_penalty) -> float:
    """alpha * sum over non-empty paths of size_fn(|c|)."""
    sizes = getattr(mapping, "path_sizes", mapping)
    total = 0.0
    for path, n in sizes.items():
        if n < 0:
            raise ValueError(f"negative size {n} for path {path}")
        total += size_fn(n)
    return alpha * total
