import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.core import (AffineLayer, NonFiniteGradError, OptimizerState,
                          ShapeError, affine_forward, log_softmax,
                          optimizer_step, scatter_add_rows, softmax)
from reference import adam_step


def test_affine_zero_weights_returns_bias():
    layer = AffineLayer(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]))
    out = affine_forward(layer, np.array([7.0, -3.0]))
    np.testing.assert_array_equal(out, layer.bias)


def test_affine_identity():
    layer = AffineLayer(np.eye(4), np.zeros(4))
    v = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(affine_forward(layer, v), v)


def test_affine_matches_scalar_loop():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    x = rng.normal(size=2)
    expected = np.array([sum(w[i, j] * x[j] for j in range(2)) + b[i]
                         for i in range(3)])
    np.testing.assert_allclose(affine_forward(AffineLayer(w, b), x), expected,
                               rtol=1e-12)


def test_affine_dimension_mismatch():
    layer = AffineLayer(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        affine_forward(layer, np.zeros(5))
    with pytest.raises(ShapeError):
        AffineLayer(np.zeros((3, 2)), np.zeros(2))


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3),
                               atol=1e-15)


def test_softmax_large_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_against_high_precision():
    import mpmath
    z = [1.0, 2.0, 3.0]
    with mpmath.workdps(50):
        es = [mpmath.exp(v) for v in z]
        total = sum(es)
        expected = [float(e / total) for e in es]
    np.testing.assert_allclose(softmax(np.array(z)), expected, rtol=1e-14)


def test_softmax_empty():
    with pytest.raises(ShapeError):
        softmax(np.array([]))
    with pytest.raises(ShapeError):
        log_softmax(np.array([]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
       st.floats(-100, 100))
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    z = np.array(logits)
    p = softmax(z)
    assert np.all(p > 0) and np.all(p < 1 + 1e-12)
    assert abs(p.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(softmax(z + shift), p, atol=1e-12)


def test_optimizer_zero_grad_is_identity():
    params = {"w": np.array([1.0, 2.0])}
    optimizer_step(params, {"w": np.zeros(2)}, OptimizerState(0.1))
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])


def test_adam_matches_hand_unrolled_recurrence():
    # Minimize f(w) = w^2 / 2 from w = 1; grad = w.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = {"w": np.array([1.0])}
    state = OptimizerState(lr, beta1=b1, beta2=b2, eps=eps)
    w_ref, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        g = params["w"].copy()
        optimizer_step(params, {"w": g}, state)
        g_ref = w_ref
        m = b1 * m + (1 - b1) * g_ref
        v = b2 * v + (1 - b2) * g_ref**2
        w_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert params["w"][0] == pytest.approx(w_ref, rel=1e-12)


def test_adam_in_place_equals_textbook_formula_bitwise():
    # 50 steps on tensors of embedding, matrix and bias shapes, with a
    # tensor that skips some steps (as frozen output embeddings do).
    rng = np.random.default_rng(3)
    shapes = {"emb": (200, 16), "w": (64, 32), "b": (64,)}
    got = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: a.copy() for k, a in got.items()}
    s_got, s_want = OptimizerState(0.01), OptimizerState(0.01)
    for step in range(50):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s)
                 for k, s in shapes.items() if not (k == "emb" and step % 7 == 3)}
        optimizer_step(got, grads, s_got)
        adam_step(want, {k: g.copy() for k, g in grads.items()}, s_want)
    for k in shapes:
        np.testing.assert_array_equal(got[k], want[k])
        np.testing.assert_array_equal(s_got.m[k], s_want.m[k])
        np.testing.assert_array_equal(s_got.v[k], s_want.v[k])


def test_scatter_add_rows_equals_add_at_bitwise():
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 7, size=300)           # every row repeats
    values = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
    got, want = np.zeros((9, 5)), np.zeros((9, 5))
    scatter_add_rows(got, rows, values)
    np.add.at(want, rows, values)
    np.testing.assert_array_equal(got, want)


def test_optimizer_rejects_non_finite():
    params = {"w": np.array([1.0])}
    with pytest.raises(NonFiniteGradError):
        optimizer_step(params, {"w": np.array([np.nan])}, OptimizerState(0.1))


def test_optimizer_is_deterministic():
    runs = []
    for _ in range(2):
        params = {"w": np.linspace(0, 1, 5)}
        state = OptimizerState(0.05)
        for step in range(4):
            optimizer_step(params, {"w": params["w"] * 0.5 + step}, state)
        runs.append(params["w"].copy())
    np.testing.assert_array_equal(runs[0], runs[1])
