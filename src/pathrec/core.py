"""Minimal dense numeric kernel: affine layers, softmax and the Adam
optimizer.

Everything is plain numpy in 64-bit floats. Forward ops are pure functions;
the optimizer mutates parameter arrays in place under a single-writer
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Floor applied inside log() so that a zero probability yields a large but
# finite loss instead of -inf.
PROB_FLOOR = 1e-12


class ShapeError(ValueError):
    """Raised when an operation receives dimensionally incompatible inputs."""


class NonFiniteGradError(ValueError):
    """Raised when the optimizer is handed NaN/Inf gradients."""


@dataclass
class AffineLayer:
    """y = W x + b with W of shape (out, in) and b of shape (out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weight must be 2-d and bias 1-d")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weight.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def affine_forward(layer: AffineLayer, x: np.ndarray) -> np.ndarray:
    """W x + b. Supports a single vector (in,) or a batch (n, in)."""
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} != layer in_dim {layer.in_dim}")
    out = x @ layer.weight.T
    out += layer.bias          # in place: a batch needs one output array, not two
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(pre: np.ndarray) -> np.ndarray:
    return np.where(pre > 0, 1.0, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ShapeError("softmax of empty input")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ShapeError("log_softmax of empty input")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[i]] += values[i] for every i, rows repeating allowed.

    As `np.add.at(target, rows, values)` for a 2-D target, summing each
    row's values in the same order, but as one weighted `bincount` per
    column, which is several times faster.
    """
    for j in range(target.shape[1]):
        target[:, j] += np.bincount(rows, weights=values[:, j], minlength=target.shape[0])


@dataclass
class OptimizerState:
    """Adam over a dict of named parameter arrays."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def optimizer_step(params: dict, grads: dict, state: OptimizerState) -> None:
    """Apply one update in place. `params` and `grads` are name -> array.

    The moments update in place and each tensor needs two temporaries; the
    operations and their order are those of the textbook formula, so the
    result is the same to the bit.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            bad = int(np.sum(~np.isfinite(g)))
            raise NonFiniteGradError(f"{bad} non-finite gradient entries in {name!r}")
        if params[name].shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape "
                             f"{params[name].shape} for {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        scratch = np.multiply(g, 1 - b1)
        m *= b1
        m += scratch
        np.square(g, out=scratch)
        scratch *= 1 - b2
        v *= b2
        v += scratch
        # scratch = sqrt(v_hat) + eps; step = lr * m_hat / scratch
        np.divide(v, 1 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        step = np.divide(m, 1 - b1**t)
        step *= state.learning_rate
        step /= scratch
        params[name] -= step
