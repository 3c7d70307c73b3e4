import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.core import log_softmax
from pathrec import reranker
from pathrec.reranker import (SoftmaxModel, brute_force_retrieve, joint_loss,
                              rerank, sample_negatives, sampled_softmax_loss)
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import (StructureConfig, StructureParams, UserContext,
                               multi_path_loss, penalty_value, user_embedding)
from reference import init_zero


def make_cfg(K=3, D=2, J=2, **kw):
    kw.setdefault("beam_size", min(4, K**D))
    kw.setdefault("score_capacity", max(4, J))
    kw.setdefault("penalty_alpha", 0.0)
    kw.setdefault("emb_dim", 4)
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J, **kw)


def setup(num_items=8, seed=0, **cfg_kw):
    cfg = make_cfg(**cfg_kw)
    params = StructureParams.init_random(cfg, num_items, substream(seed, "init"))
    model = SoftmaxModel.init_random(num_items, cfg.emb_dim,
                                     substream(seed, "softmax"))
    return cfg, params, model


def full_softmax_loss(ctx, positive, model, params):
    u = user_embedding(ctx, params)
    return -float(log_softmax(model.out_emb @ u)[positive])


def test_sample_negatives_excludes_positive():
    rng = substream(0, "neg")
    for positive in range(5):
        for _ in range(20):
            neg = sample_negatives(5, positive, 4, rng)
            assert positive not in neg
            assert len(set(neg.tolist())) == 4
            assert all(0 <= i < 5 for i in neg)


def test_sample_negatives_is_uniform():
    # Chi-square check over the 4 allowed items (V=5, positive=2).
    rng = substream(1, "neg")
    counts = np.zeros(5)
    trials = 4000
    for _ in range(trials):
        counts[sample_negatives(5, 2, 1, rng)[0]] += 1
    assert counts[2] == 0
    expected = trials / 4
    chi2 = float(((counts[[0, 1, 3, 4]] - expected) ** 2 / expected).sum())
    assert chi2 < 16.27      # 99.9th percentile of chi2 with 3 dof


def test_sample_negatives_bad_count():
    with pytest.raises(ValueError):
        sample_negatives(5, 0, 5, substream(0, "neg"))
    with pytest.raises(ValueError):
        sample_negatives(5, 0, 0, substream(0, "neg"))


def test_sampled_softmax_full_set_equals_exact_softmax():
    cfg, params, model = setup(num_items=6, seed=2)
    ctx = UserContext((1, 3))
    negatives = np.array([i for i in range(6) if i != 2])
    loss, _ = sampled_softmax_loss(ctx, 2, 5, model, params,
                                   negatives=negatives)
    assert loss == pytest.approx(full_softmax_loss(ctx, 2, model, params),
                                 rel=1e-12)


def test_sampled_softmax_empty_context_uniform_loss():
    # Zero user embedding -> all logits equal -> loss log(1+n) after the
    # correction cancels (n = V-1 here).
    cfg, params, model = setup(num_items=6, seed=3)
    negatives = np.array([0, 1, 2, 3, 4])
    loss, _ = sampled_softmax_loss(UserContext(()), 5, 5, model, params,
                                   negatives=negatives)
    assert loss == pytest.approx(math.log(6), rel=1e-12)


def test_sampled_softmax_gradient_finite_differences():
    cfg, params, model = setup(num_items=7, seed=4)
    ctx = UserContext((0, 2, 5))
    negatives = np.array([1, 3, 6])
    _, grads = sampled_softmax_loss(ctx, 4, 3, model, params,
                                    negatives=negatives)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for name, arr in (("out_emb", model.out_emb), ("item_emb", params.item_emb)):
        for _ in range(6):
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = sampled_softmax_loss(ctx, 4, 3, model, params,
                                         negatives=negatives)
            arr[idx] = orig - eps
            lm, _ = sampled_softmax_loss(ctx, 4, 3, model, params,
                                         negatives=negatives)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name][idx]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8), name


def test_sampled_softmax_estimates_full_loss_on_average():
    # The corrected sampled loss should land near the full-softmax loss once
    # averaged over many negative draws.
    cfg, params, model = setup(num_items=40, seed=5)
    ctx = UserContext((3, 17, 25))
    exact = full_softmax_loss(ctx, 9, model, params)
    rng = substream(5, "neg")
    est = np.mean([sampled_softmax_loss(ctx, 9, 20, model, params, rng=rng)[0]
                   for _ in range(400)])
    assert abs(est - exact) < 0.05


def test_brute_force_matches_scalar_loop():
    cfg, params, model = setup(num_items=12, seed=6)
    ctx = UserContext((2, 7))
    u = user_embedding(ctx, params)
    expected = sorted(((float(model.out_emb[i] @ u), i) for i in range(12)),
                      key=lambda t: (-t[0], t[1]))
    got = brute_force_retrieve(ctx, model, params, k=5)
    assert [(i, pytest.approx(s, rel=1e-12)) for s, i in expected[:5]] == got


def test_brute_force_tie_break_smaller_id():
    cfg = make_cfg()
    params = init_zero(cfg, 4)
    model = SoftmaxModel(np.zeros((4, cfg.emb_dim)))
    got = brute_force_retrieve(UserContext((0,)), model, params, k=3)
    assert [i for i, _ in got] == [0, 1, 2]


def test_brute_force_k_equals_v():
    cfg, params, model = setup(num_items=5, seed=7)
    got = brute_force_retrieve(UserContext((1,)), model, params, k=5)
    assert sorted(i for i, _ in got) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        brute_force_retrieve(UserContext((1,)), model, params, k=6)


def test_rerank_is_brute_force_restricted_to_candidates():
    cfg, params, model = setup(num_items=20, seed=8)
    ctx = UserContext((4, 11))
    candidates = [3, 7, 1, 15, 9, 12]
    got = rerank(candidates, ctx, model, params, k=4)
    u = user_embedding(ctx, params)
    expected = sorted(candidates,
                      key=lambda i: (-float(model.out_emb[i] @ u), i))[:4]
    assert [i for i, _ in got] == expected


# A cap of -1 keeps k below the number of scores, so every call with more
# than one score takes the partition pool; a huge cap leaves k free to reach
# the full sort as well.
@pytest.mark.parametrize("k_cap", [-1, 10**9])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       st.integers(1, 45), st.booleans(), st.integers(0, 500))
def test_top_k_is_sorted_prefix(k_cap, values, k, with_ids, seed):
    # Small integer scores make ties common.
    scores = np.array(values, dtype=np.float64)
    k = max(1, min(k, scores.size + k_cap))
    ids = (substream(seed, "ids").permutation(1000)[:scores.size]
           if with_ids else None)
    labels = ids.tolist() if with_ids else list(range(scores.size))
    want = sorted(zip(labels, scores.tolist()), key=lambda p: (-p[1], p[0]))
    assert reranker._top_k(scores, k, ids) == want[:k]


def test_rerank_takes_item_ids_and_short_lists():
    cfg, params, model = setup(num_items=10, seed=9)
    ctx = UserContext((0,))
    got = rerank(np.array([3, 6]), ctx, model, params, k=5)
    assert sorted(i for i, _ in got) == [3, 6]
    with pytest.raises(ValueError):
        rerank(np.array([], dtype=np.int64), ctx, model, params, k=5)


def test_joint_loss_decomposes():
    cfg, params, model = setup(num_items=6, seed=10, K=2, D=2, J=1)
    mapping = ItemPathMapping.random_init(cfg, 6, substream(10, "mapping"))
    ctx = UserContext((1, 4))
    negatives = np.array([0, 1, 2])
    alpha = 0.01
    loss, _ = joint_loss(ctx, 3, mapping, params, model,
                         penalty_value(mapping, alpha), negatives=negatives)
    l_str, _ = multi_path_loss(ctx, mapping.assignments[3], params)
    l_sm, _ = sampled_softmax_loss(ctx, 3, 3, model, params,
                                   negatives=negatives)
    expected = l_str + penalty_value(mapping, alpha) + l_sm
    assert loss == pytest.approx(expected, rel=1e-12)


def test_joint_loss_gradient_finite_differences():
    cfg, params, model = setup(num_items=6, seed=11, K=2, D=2, J=2)
    mapping = ItemPathMapping.random_init(cfg, 6, substream(11, "mapping"))
    ctx = UserContext((0, 5))
    negatives = np.array([1, 4])

    def value():
        loss, _ = joint_loss(ctx, 2, mapping, params, model, 0.0,
                             negatives=negatives)
        return loss

    _, grads = joint_loss(ctx, 2, mapping, params, model, 0.0,
                          negatives=negatives)
    eps = 1e-6
    rng = np.random.default_rng(1)
    tensors = dict(params.tensor_dict(), out_emb=model.out_emb)
    for name, arr in tensors.items():
        for _ in range(3):
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = value()
            arr[idx] = orig - eps
            lm = value()
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name][idx]
            if abs(fd) > 1e-10 or abs(an) > 1e-10:
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8), name
