import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.core import ShapeError, softmax
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import (StructureConfig, StructureParams, UserBatch,
                               UserContext, layer_distribution, multi_path_loss,
                               penalty_value, user_embedding)
from reference import init_zero, layer_input, layer_logits, path_log_prob


def make_cfg(K=3, D=2, J=2, emb_dim=4, **kw):
    kw.setdefault("beam_size", min(4, K**D))
    kw.setdefault("score_capacity", max(4, J))
    kw.setdefault("penalty_alpha", 0.0)
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J,
                           emb_dim=emb_dim, **kw)


def random_params(cfg, num_items=10, seed=0):
    return StructureParams.init_random(cfg, num_items, substream(seed, "init"))


def all_paths(cfg):
    return itertools.product(range(cfg.num_nodes), repeat=cfg.depth)


def one_user_loss(ctx, paths, params):
    """`multi_path_loss` over a batch of one: (loss, grads)."""
    losses, grads = multi_path_loss(UserBatch([ctx], params), [paths], params)
    return float(losses[0]), grads


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(K=0)
    with pytest.raises(ValueError):
        make_cfg(K=2, D=2, beam_size=5)     # beam larger than K^D
    with pytest.raises(ValueError):
        make_cfg(J=3, score_capacity=2)     # S < J
    with pytest.raises(ValueError):
        make_cfg(decay_eta=0.0)
    with pytest.raises(ValueError):     # more paths per item than K^D
        StructureConfig(num_nodes=2, depth=1, paths_per_item=3, beam_size=1,
                        score_capacity=3, penalty_alpha=0.0)
    for width in (0, -3):
        with pytest.raises(ValueError, match="hidden_width"):
            make_cfg(hidden_width=width)
    assert make_cfg(hidden_width=1).mlp_hidden == 1
    assert make_cfg(hidden_width=None).mlp_hidden == 12
    # Path codes are int64: K^D must stay below 2**63.
    with pytest.raises(ValueError, match="2\\*\\*63"):
        make_cfg(K=2, D=63)
    assert make_cfg(K=2, D=62, beam_size=1).num_paths == 2**62


def test_user_embedding_empty_is_zero():
    params = random_params(make_cfg())
    np.testing.assert_array_equal(user_embedding(UserContext(()), params),
                                  np.zeros(4))
    np.testing.assert_array_equal(
        user_embedding(UserContext((-1, -1)), params), np.zeros(4))


def test_user_batch_rows_equal_user_embedding():
    # Padding, an empty context, a repeated item and a long sequence: each
    # row is the single-user mean to the bit.
    params = random_params(make_cfg(), num_items=10, seed=12)
    ctxs = [UserContext((3,)), UserContext(()), UserContext((-1, -1)),
            UserContext((1, -1, 4, 4)), UserContext(tuple(range(10)) * 3)]
    users = UserBatch(ctxs, params)
    assert users.u.shape == (5, 4)
    for i, ctx in enumerate(ctxs):
        np.testing.assert_array_equal(users.u[i], user_embedding(ctx, params))
    with pytest.raises(ShapeError):
        UserBatch([UserContext((1,)), UserContext((10,))], params)


def test_user_batch_backward_splits_gradient_over_items():
    params = random_params(make_cfg(), num_items=6, seed=13)
    users = UserBatch([UserContext((1, 4)), UserContext(()), UserContext((4,))],
                      params)
    grads = {"item_emb": np.zeros((6, 4))}
    du = np.arange(12.0).reshape(3, 4)
    users.backward(du, grads)
    want = np.zeros((6, 4))
    want[1] += du[0] / 2
    want[4] += du[0] / 2
    want[4] += du[2]
    np.testing.assert_array_equal(grads["item_emb"], want)


def test_user_embedding_single_and_mean():
    params = random_params(make_cfg())
    np.testing.assert_array_equal(user_embedding(UserContext((3,)), params),
                                  params.item_emb[3])
    got = user_embedding(UserContext((1, 4)), params)
    np.testing.assert_allclose(got, (params.item_emb[1] + params.item_emb[4]) / 2,
                               rtol=1e-15)


def test_context_truncation_keeps_most_recent():
    ctx = UserContext.from_sequence(range(100), max_seq_len=5)
    assert ctx.behavior == (95, 96, 97, 98, 99)


def test_layer_distribution_zero_params_uniform():
    cfg = make_cfg(K=5, D=2, beam_size=1)
    params = init_zero(cfg, 10)
    p = layer_distribution(UserContext((1, 2)), (), params)
    np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)


def test_layer_distribution_single_node():
    cfg = make_cfg(K=1, D=2, J=1, beam_size=1)
    params = random_params(cfg)
    np.testing.assert_allclose(layer_distribution(UserContext((0,)), (0,), params),
                               [1.0])


def test_layer_distribution_matches_composed_ops():
    cfg = make_cfg(K=3, D=3)
    params = random_params(cfg, seed=5)
    ctx = UserContext((2, 7, 1))
    prefix = (1, 2)
    u = user_embedding(ctx, params)
    x = layer_input(u, prefix, params)
    assert x.shape == (cfg.emb_dim * 3,)
    expected = softmax(layer_logits(u, prefix, params))
    np.testing.assert_allclose(layer_distribution(ctx, prefix, params), expected,
                               rtol=1e-15)


def test_layer_distribution_bad_prefix():
    params = random_params(make_cfg())
    with pytest.raises(ShapeError):
        layer_distribution(UserContext((1,)), (5,), params)
    with pytest.raises(ShapeError):
        layer_distribution(UserContext((1,)), (0, 1), params)


def test_path_log_prob_single_node_structure():
    cfg = make_cfg(K=1, D=3, J=1, beam_size=1)
    params = random_params(cfg)
    assert path_log_prob(UserContext((1,)), (0, 0, 0), params) == pytest.approx(0.0)


def test_path_log_prob_zero_params():
    cfg = make_cfg(K=3, D=2)
    params = init_zero(cfg, 10)
    for path in all_paths(cfg):
        assert path_log_prob(UserContext((1,)), path, params) == \
            pytest.approx(math.log(1 / 9))


def test_path_probabilities_sum_to_one():
    cfg = make_cfg(K=3, D=2)
    params = random_params(cfg, seed=11)
    ctx = UserContext((0, 3, 9))
    total = sum(math.exp(path_log_prob(ctx, p, params)) for p in all_paths(cfg))
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 1000))
def test_normalization_property(K, D, seed):
    cfg = make_cfg(K=K, D=D, J=1, beam_size=1)
    params = random_params(cfg, seed=seed)
    ctx = UserContext(tuple(int(x) for x in
                            substream(seed, "ctx").integers(0, 10, size=3)))
    total = sum(math.exp(path_log_prob(ctx, p, params)) for p in all_paths(cfg))
    assert abs(total - 1.0) <= 1e-6


def test_prefix_consistency():
    cfg = make_cfg(K=3, D=3)
    params = random_params(cfg, seed=2)
    ctx = UserContext((4, 5))
    path = (2, 0, 1)
    lp = 0.0
    for d in range(3):
        probs = layer_distribution(ctx, path[:d], params)
        lp += math.log(probs[path[d]])
    assert lp == pytest.approx(path_log_prob(ctx, path, params), rel=1e-12)


def test_multi_path_loss_single_path_reduction():
    cfg = make_cfg()
    params = random_params(cfg, seed=3)
    ctx = UserContext((1, 2))
    loss, _ = one_user_loss(ctx, [(1, 2)], params)
    assert loss == pytest.approx(-path_log_prob(ctx, (1, 2), params), rel=1e-12)
    # Several paths, two sharing their first node: -log sum_j p(path_j | x).
    for paths in [[(1, 2), (0, 0)], [(2, 1), (2, 0), (0, 2)], list(all_paths(cfg))[:5]]:
        loss, _ = one_user_loss(ctx, paths, params)
        want = -math.log(sum(math.exp(path_log_prob(ctx, p, params)) for p in paths))
        assert loss == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_multi_path_loss_full_cover_is_zero():
    cfg = make_cfg(K=2, D=2)
    params = random_params(cfg, seed=4)
    loss, _ = one_user_loss(UserContext((0,)), list(all_paths(cfg)), params)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_multi_path_loss_collapses_duplicates():
    cfg = make_cfg()
    params = random_params(cfg, seed=6)
    ctx = UserContext((2,))
    l1, _ = one_user_loss(ctx, [(0, 1)], params)
    l2, _ = one_user_loss(ctx, [(0, 1), (0, 1)], params)
    assert l1 == pytest.approx(l2, rel=1e-12)


def test_multi_path_loss_monotone_in_path_set():
    cfg = make_cfg(K=3, D=2)
    params = random_params(cfg, seed=7)
    ctx = UserContext((5, 8))
    paths = [(0, 0)]
    prev, _ = one_user_loss(ctx, paths, params)
    for extra in [(1, 2), (2, 1), (0, 1)]:
        paths.append(extra)
        cur, _ = one_user_loss(ctx, paths, params)
        assert cur <= prev + 1e-12
        prev = cur


@pytest.mark.parametrize("D, paths", [
    (2, [(0, 1), (2, 0)]),
    (1, [(0,), (2,)]),
    # Two paths share their first node: their node-embedding gradients
    # land in the same row.
    (3, [(1, 0, 2), (1, 2, 0), (0, 1, 1)]),
    (2, [(0, 1), (2, 0), (0, 1)]),      # a duplicated path counts once
], ids=["D2", "D1", "D3-shared-prefix", "D2-duplicate"])
def test_multi_path_loss_gradient_finite_differences(D, paths):
    cfg = make_cfg(K=3, D=D)
    params = random_params(cfg, seed=8)
    ctx = UserContext((1, 4, 6))
    _, grads = one_user_loss(ctx, paths, params)
    rng = np.random.default_rng(0)
    eps = 1e-5
    tensors = params.tensor_dict()
    for name, arr in tensors.items():
        # Every node-embedding row the paths touch, plus random entries.
        idxs = [(k, p[k], int(rng.integers(cfg.emb_dim)))
                for p in paths for k in range(D - 1)] if name == "node_emb" else []
        for idx in idxs + [tuple(int(rng.integers(s)) for s in arr.shape)
                           for _ in range(4)]:
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = one_user_loss(ctx, paths, params)
            arr[idx] = orig - eps
            lm, _ = one_user_loss(ctx, paths, params)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name][idx]
            if abs(fd) > 1e-10 or abs(an) > 1e-10:
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8), name


def test_forward_ops_are_pure():
    cfg = make_cfg()
    params = random_params(cfg, seed=9)
    ctx = UserContext((1, 2, 3))
    a = path_log_prob(ctx, (0, 1), params)
    b = path_log_prob(ctx, (0, 1), params)
    assert a == b


def test_parameter_count_closed_form():
    # Per layer d: (H x E*d + H) for the hidden affine and (K x H + K) for
    # the output affine; plus item and node embedding tables.
    for K, D in [(3, 2), (5, 3), (2, 4)]:
        cfg = make_cfg(K=K, D=D, J=1, beam_size=1)
        params = random_params(cfg, num_items=7)
        E, H = cfg.emb_dim, cfg.mlp_hidden
        expected = 7 * E + D * K * E
        for d in range(1, D + 1):
            expected += H * E * d + H + K * H + K
        assert sum(arr.size for arr in params.tensor_dict().values()) == expected


def test_penalty_value_cases():
    assert penalty_value(ItemPathMapping.from_assignments([]), 1.0) == 0.0
    two = ItemPathMapping.from_assignments([((0, 0),)] * 2)
    assert penalty_value(two, 1.0) == pytest.approx(4.0)
    three_and_one = ItemPathMapping.from_assignments([((0, 0),)] * 3 + [((1, 1),)])
    assert penalty_value(three_and_one, 0.5) == pytest.approx(10.25)
