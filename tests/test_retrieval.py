import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from pathrec import retrieval
from pathrec.bench import synthetic_model
from pathrec.em import coordinate_descent_assign
from pathrec.persist import load_checkpoint, read_mapping, save_checkpoint, write_mapping
from pathrec.reranker import SoftmaxModel, rerank
from pathrec.retrieval import (ItemPathMapping, adaptive_beam, batched_beam_search,
                               beam_search, retrieve_candidates)
from pathrec.seeding import substream
from pathrec.structure import (StructureConfig, StructureParams, UserBatch,
                               UserContext, layer_distribution)
from pathrec.trained import TrainedModel
from reference import init_zero, path_log_prob


def make_cfg(K=3, D=2, J=2, **kw):
    kw.setdefault("beam_size", min(4, K**D))
    kw.setdefault("score_capacity", max(4, J))
    kw.setdefault("penalty_alpha", 0.0)
    kw.setdefault("emb_dim", 4)
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J, **kw)


def random_params(cfg, num_items=10, seed=0):
    return StructureParams.init_random(cfg, num_items, substream(seed, "init"))


def enumerate_paths(ctx, params):
    cfg = params.cfg
    scored = [(p, path_log_prob(ctx, p, params))
              for p in itertools.product(range(cfg.num_nodes), repeat=cfg.depth)]
    return sorted(scored, key=lambda kv: (-kv[1], kv[0]))


def test_mapping_round_trip_and_size_invariant():
    cfg = make_cfg()
    mapping = ItemPathMapping.random_init(cfg, 20, substream(1, "mapping"))
    assert sum(mapping.path_sizes.values()) == 20 * cfg.paths_per_item
    rebuilt = ItemPathMapping.from_assignments(mapping.assignments)
    assert rebuilt.path_sizes == mapping.path_sizes
    assert rebuilt.inverted == mapping.inverted


# Per example a depth D and J, then per item J paths of D nodes up to 999,
# duplicates allowed.
ASSIGNMENTS = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.tuples(*[st.integers(0, 999)] * shape[0]), min_size=shape[1],
                 max_size=shape[1]).map(tuple), max_size=12))


@settings(max_examples=80, deadline=None)
@given(ASSIGNMENTS)
def test_index_matches_per_item_oracle(assignments):
    mapping = ItemPathMapping.from_assignments(assignments)
    want = reference.inverted_index(assignments)
    assert mapping.assignments == assignments
    # The CSR arrays: one code per distinct path, ascending in path order,
    # and each path's slice holding its items in item order.
    paths = sorted(want)
    base = 1 + max((n for p in paths for n in p), default=0)
    assert mapping.base == base
    assert mapping.codes.tolist() == [sum(n * base**d for d, n in enumerate(reversed(p)))
                                      for p in paths]
    assert np.all(np.diff(mapping.codes) > 0)
    assert mapping.indptr[0] == 0 and np.all(np.diff(mapping.indptr) >= 0)
    assert mapping.sizes.tolist() == [len(want[p]) for p in paths]
    for p, lo, hi in zip(paths, mapping.indptr, mapping.indptr[1:]):
        assert np.all(np.diff(mapping.items[lo:hi]) >= 0)
        assert mapping.items[lo:hi].tolist() == want[p]
    # The dict views keep their layout.
    assert list(mapping.inverted) == sorted(want, key=lambda p: (len(want[p]), p))
    assert {p: list(items) for p, items in mapping.inverted.items()} == want
    assert all(type(items) is tuple for items in mapping.inverted.values())


@pytest.mark.parametrize("K, D, J", [(2, 1, 2), (3, 2, 9), (3, 2, 2), (100, 3, 3)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_init_matches_per_item_oracle(K, D, J, seed):
    cfg = make_cfg(K=K, D=D, J=J)
    rng, ref_rng = substream(seed, "mapping"), substream(seed, "mapping")
    mapping = ItemPathMapping.random_init(cfg, 40, rng)
    assert mapping.assignments == reference.random_assignments(cfg, 40, ref_rng)
    # The generator is left where the per-item redraws leave it.
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    assert mapping.inverted == ItemPathMapping.from_assignments(mapping.assignments).inverted


@pytest.mark.parametrize("reread", [False, True], ids=["random_init", "read_mapping"])
def test_items_on_one_path_share_its_tuple(tmp_path, reread):
    cfg = make_cfg(K=3, D=2, J=2)
    mapping = ItemPathMapping.random_init(cfg, 40, substream(2, "mapping"))
    if reread:
        write_mapping(tmp_path / "mapping.tsv", mapping)
        mapping = read_mapping(tmp_path / "mapping.tsv", cfg)
    assert len({id(p) for paths in mapping.assignments for p in paths}) == \
        len(mapping.inverted)
    assert all(p is key for paths in mapping.assignments for p in paths
               for key in mapping.inverted if key == p)


def test_beam_b1_is_greedy_chain():
    cfg = make_cfg(K=4, D=3)
    params = random_params(cfg, seed=3)
    ctx = UserContext((1, 5))
    [(path, _)] = beam_search(ctx, params, beam_size=1)
    prefix = ()
    for d in range(cfg.depth):
        probs = layer_distribution(ctx, prefix, params)
        prefix += (int(np.argmax(probs)),)
    assert path == prefix


def test_beam_full_width_equals_enumeration():
    cfg = make_cfg(K=3, D=2)
    params = random_params(cfg, seed=4)
    ctx = UserContext((2, 6))
    got = beam_search(ctx, params, beam_size=9)
    expected = enumerate_paths(ctx, params)
    assert [p for p, _ in got] == [p for p, _ in expected]
    np.testing.assert_allclose([lp for _, lp in got],
                               [lp for _, lp in expected], rtol=1e-12)


def test_beam_b2_matches_top2_of_enumeration():
    cfg = make_cfg(K=3, D=2)
    params = random_params(cfg, seed=5)
    ctx = UserContext((0,))
    got = beam_search(ctx, params, beam_size=2)
    expected = enumerate_paths(ctx, params)[:2]
    assert [p for p, _ in got] == [p for p, _ in expected]


def test_beam_tie_break_prefers_smaller_path():
    cfg = make_cfg(K=3, D=2)
    params = init_zero(cfg, 5)   # all paths equally likely
    got = beam_search(UserContext((1,)), params, beam_size=4)
    assert [p for p, _ in got] == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_beam_best_score_monotone_in_width():
    cfg = make_cfg(K=4, D=2)
    params = random_params(cfg, seed=6)
    ctx = UserContext((3, 7))
    best = -math.inf
    for B in (1, 2, 4, 8, 16):
        top = beam_search(ctx, params, beam_size=B)[0][1]
        assert top >= best - 1e-12
        best = max(best, top)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 500))
def test_beam_exactness_property(K, D, seed):
    cfg = make_cfg(K=K, D=D, J=1, beam_size=1)
    params = random_params(cfg, seed=seed)
    ctx = UserContext(tuple(int(x) for x in
                            substream(seed, "ctx").integers(0, 10, size=4)))
    got = beam_search(ctx, params, beam_size=K**D)
    assert [p for p, _ in got] == [p for p, _ in enumerate_paths(ctx, params)]


def test_retrieve_all_items_on_one_path():
    cfg = make_cfg(K=3, D=2, J=1)
    params = random_params(cfg, num_items=6, seed=7)
    mapping = ItemPathMapping.from_assignments([((1, 2),)] * 6)
    got = retrieve_candidates(UserContext((0,)), params, mapping, beam_size=9)
    assert got.tolist() == [0, 1, 2, 3, 4, 5]


def test_retrieve_singleton_paths_ordered_by_probability():
    cfg = make_cfg(K=3, D=2, J=1)
    params = random_params(cfg, num_items=9, seed=8)
    paths = list(itertools.product(range(3), repeat=2))
    mapping = ItemPathMapping.from_assignments([(p,) for p in paths])
    ctx = UserContext((4,))
    got = retrieve_candidates(ctx, params, mapping, beam_size=9)
    ranked_paths = [p for p, _ in enumerate_paths(ctx, params)]
    assert [paths[i] for i in got.tolist()] == ranked_paths


def test_retrieve_lists_an_item_once_per_beam_path():
    # The candidates are the beam's index entries; the rerank keeps an item
    # on two beam paths once.
    cfg = make_cfg(K=2, D=2, J=2)
    params = random_params(cfg, num_items=1, seed=9)
    mapping = ItemPathMapping.from_assignments([((0, 0), (1, 1))])
    model = TrainedModel(cfg, params,
                         SoftmaxModel.init_random(1, cfg.emb_dim, substream(9, "sm")),
                         mapping, [0])
    got = retrieve_candidates(model.context([0]), params, mapping, beam_size=4)
    assert got.tolist() == [0, 0]
    assert [item for item, _ in model.retrieve([0], 5, beam_size=4)] == [0]


def test_retrieve_determinism():
    cfg = make_cfg(K=3, D=2)
    params = random_params(cfg, num_items=12, seed=10)
    mapping = ItemPathMapping.random_init(cfg, 12, substream(3, "mapping"))
    ctx = UserContext((1, 2, 3))
    a = retrieve_candidates(ctx, params, mapping, beam_size=4)
    b = retrieve_candidates(ctx, params, mapping, beam_size=4)
    assert a.tolist() == b.tolist()


def beam_entries(ctx, params, mapping, beam_size):
    """Each beam path's `inverted` items, the paths in beam order."""
    return [item for path, _ in beam_search(ctx, params, beam_size)
            for item in mapping.inverted.get(path, ())]


# Small beams over a few items, and wide ones over ten times as many,
# holding some hundreds of (path, item) entries.
@pytest.mark.parametrize("items_scale, max_B", [(1, 4), (10, 64)], ids=["small", "large"])
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 40), st.integers(1, 64), st.booleans(),
       st.integers(0, 500))
def test_retrieve_candidates_matches_dict_walk(items_scale, max_B, K, D, J, num_items,
                                               B, tied, seed):
    J = min(J, K**D)
    num_items *= items_scale
    cfg = make_cfg(K=K, D=D, J=J, beam_size=1)
    # Zero parameters make every path tie; random ones rarely do.
    params = (init_zero(cfg, num_items) if tied
              else random_params(cfg, num_items=num_items, seed=seed))
    mapping = ItemPathMapping.random_init(cfg, num_items, substream(seed, "mapping"))
    ctx = UserContext((seed % num_items,))
    B = min(B, max_B, K**D)
    got = retrieve_candidates(ctx, params, mapping, beam_size=B)
    assert got.tolist() == beam_entries(ctx, params, mapping, B)
    assert sorted(set(got.tolist())) == \
        sorted(item for item, _ in reference.dict_walk_candidates(ctx, params, mapping, B))


def test_beam_path_past_the_code_base_holds_no_item():
    # Nodes 0 and 1 only make the code base 2, under which a K = 3 beam's
    # path (0, 2) has the code of (1, 0).
    mapping = ItemPathMapping.from_assignments([((0, 1),), ((1, 0),)])
    assert mapping.base == 2
    items, counts = retrieval._entries(np.array([[0, 2], [1, 0]]), mapping)
    assert items.tolist() == [1]
    assert counts.tolist() == [0, 1]
    cfg = make_cfg(K=3, D=2, J=1)
    params = random_params(cfg, num_items=2, seed=16)
    ctx = UserContext((0,))
    assert retrieve_candidates(ctx, params, mapping, beam_size=9).tolist() == \
        beam_entries(ctx, params, mapping, 9)


def test_serving_a_loaded_checkpoint_never_builds_the_dict_index(tmp_path):
    # The tuple dicts are views for tests and the benchmark's checks; a
    # query that built them would pay for the whole catalog.
    cfg = make_cfg(K=4, D=2, J=2, beam_size=4)
    save_checkpoint(tmp_path / "model", synthetic_model(cfg, 60, 1))
    model = load_checkpoint(tmp_path / "model")
    for behavior in ([0, 1, 2], [59]):
        assert model.retrieve(behavior, 5)
        assert model.retrieve(behavior, 5, adaptive=True)
    assert "inverted" not in model.mapping.__dict__
    assert "path_sizes" not in model.mapping.__dict__


def test_adaptive_beam_small_corpus_returns_everything():
    cfg = make_cfg(K=3, D=2, J=1)
    params = random_params(cfg, num_items=10, seed=11)
    mapping = ItemPathMapping.random_init(cfg, 10, substream(4, "mapping"))
    candidates, B = adaptive_beam(UserContext((2,)), params, mapping,
                                  target_count=10)
    assert sorted(candidates.tolist()) == list(range(10))
    assert B <= cfg.num_paths


def test_adaptive_beam_growth_matches_uniform_path_sizes():
    # 64 singleton-path items spread uniformly: a B-path beam holds B
    # candidates, so the first width run is also the last: the first power
    # of two >= 5 * target, capped at K^D.
    cfg = make_cfg(K=4, D=3, J=1, beam_size=1)
    params = random_params(cfg, num_items=64, seed=12)
    paths = list(itertools.product(range(4), repeat=3))
    mapping = ItemPathMapping.from_assignments([(p,) for p in paths])
    for target, width in ((1, 8), (2, 16), (5, 32), (7, 64), (13, 64)):
        with mock.patch.object(retrieval, "batched_beam_search",
                               wraps=retrieval.batched_beam_search) as traced:
            candidates, B = adaptive_beam(UserContext((1,)), params, mapping,
                                          target_count=target)
        assert [call.args[2] for call in traced.call_args_list] == [width]
        assert B == width
        assert len(candidates) == width


def test_adaptive_beam_counts_an_item_on_two_beam_paths_once():
    # Zero parameters tie every path, so the width-2 beam holds (0,) and
    # (1,): eight entries, and a path of four, but only items 0-3, short of
    # the 5 candidates wanted; the beam must grow to all four paths.
    cfg = make_cfg(K=4, D=1, J=2, beam_size=1)
    mapping = ItemPathMapping.from_assignments([((0,), (1,))] * 4 + [((2,), (3,))] * 2)
    params = init_zero(cfg, 6)
    ctx = UserContext((0,))
    candidates, B = adaptive_beam(ctx, params, mapping, target_count=1)
    want, want_B = reference.adaptive_beam(ctx, params, mapping, 1)
    assert B == want_B == 4
    assert candidates.tolist() == beam_entries(ctx, params, mapping, 4)
    assert sorted(set(candidates.tolist())) == sorted(i for i, _ in want) == list(range(6))


def test_adaptive_beam_rejects_bad_target():
    cfg = make_cfg()
    params = random_params(cfg, seed=13)
    mapping = ItemPathMapping.random_init(cfg, 10, substream(5, "mapping"))
    with pytest.raises(ValueError):
        adaptive_beam(UserContext((1,)), params, mapping, target_count=0)


def test_size_sums_are_sorted_size_cumsums(tmp_path):
    cfg = make_cfg(K=3, D=2, J=2)
    drawn = ItemPathMapping.random_init(cfg, 30, substream(6, "mapping"))
    write_mapping(tmp_path / "mapping.tsv", drawn)
    rng = np.random.default_rng(7)
    rows, counts = {}, {}
    for v in range(12):
        rows[v] = {(int(a), int(b)): float(rng.random())
                   for a, b in rng.integers(0, 3, size=(4, 2))}
        counts[v] = float(rng.integers(1, 10))
    table = reference.score_table(rows, counts, 12, 3, 2, capacity=4)
    assigned = coordinate_descent_assign(table, 12, 3, 2, 0.1, 2, 3,
                                         substream(3, "cd"))
    for mapping in (drawn, read_mapping(tmp_path / "mapping.tsv", cfg), assigned):
        sizes = sorted(mapping.path_sizes.values(), reverse=True)
        assert mapping.size_sums.tolist() == [0] + list(itertools.accumulate(sizes))


def test_adaptive_beam_scores_each_prefix_once():
    # 40 items on the last path and one on each other path: the bound allows
    # B = 1, and the beam widens until it reaches the heavy path.
    cfg = make_cfg(K=4, D=3, J=1, beam_size=1)
    paths = list(itertools.product(range(4), repeat=3))
    mapping = ItemPathMapping.from_assignments(
        [(paths[-1],)] * 40 + [(p,) for p in paths[:-1]])
    params = random_params(cfg, num_items=mapping.num_items, seed=15)
    with mock.patch.object(retrieval, "batched_beam_search",
                           wraps=retrieval.batched_beam_search) as beams, \
         mock.patch.object(retrieval, "batched_layer_log_probs",
                           wraps=retrieval.batched_layer_log_probs) as layers:
        adaptive_beam(UserContext((2,)), params, mapping, target_count=7)
    assert beams.call_count >= 3
    scored = [tuple(p) for call in layers.call_args_list
              for p in call.args[1].tolist()]
    assert len(scored) == len(set(scored))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 12), st.integers(1, 30),
       st.booleans(), st.integers(0, 500))
def test_batched_beam_matches_per_user_reference(K, D, n, B, tied, seed):
    # Each user's row of the batched beam is that user's own beam: the same
    # paths in the same order. Log-probs may differ in the last bits, since
    # BLAS rounds a row differently with the number of rows in the call.
    cfg = make_cfg(K=K, D=D, J=1, beam_size=1)
    # Zero parameters make every path tie, which pins the tie-break.
    params = init_zero(cfg, 10) if tied else random_params(cfg, seed=seed)
    rng = substream(seed, "ctx")
    ctxs = [UserContext(tuple(rng.integers(-1, 10, size=int(rng.integers(0, 4))).tolist()))
            for _ in range(n)]
    paths, logps = batched_beam_search(UserBatch(ctxs, params).u, params, B)
    assert paths.shape == (n, min(B, K**D), D)
    for i, ctx in enumerate(ctxs):
        want = reference.beam_search(ctx, params, B)
        assert [tuple(p) for p in paths[i].tolist()] == [p for p, _ in want]
        np.testing.assert_allclose(logps[i], [lp for _, lp in want], rtol=0, atol=1e-12)
        single = beam_search(ctx, params, B)          # the n = 1 case
        assert [p for p, _ in single] == [p for p, _ in want]
        np.testing.assert_allclose([lp for _, lp in single], [lp for _, lp in want],
                                   rtol=0, atol=1e-12)


MAPPINGS = ("random", "singleton", "uniform", "heavy")


def make_mapping(kind, cfg, per, seed):
    """`random`: J random paths per item; `singleton`: one item per path;
    `uniform`: `per` items on every path; `heavy`: most items on one path."""
    paths = list(itertools.product(range(cfg.num_nodes), repeat=cfg.depth))
    if kind == "random":
        return ItemPathMapping.random_init(cfg, 6 * per, substream(seed, "mapping"))
    if kind == "singleton":
        return ItemPathMapping.from_assignments([(p,) for p in paths])
    if kind == "uniform":
        return ItemPathMapping.from_assignments([(p,) for p in paths
                                                 for _ in range(per)])
    rng = np.random.default_rng(seed)
    rest = rng.integers(0, len(paths), size=per)
    return ItemPathMapping.from_assignments(
        [(paths[0],)] * (4 * per) + [(paths[i],) for i in rest])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.sampled_from(MAPPINGS),
       st.integers(1, 5), st.integers(1, 40), st.booleans(), st.integers(0, 500))
# Four paths of five items hold exactly 5 * 4 candidates: B = 4 suffices.
@example(K=4, D=2, kind="uniform", per=5, target=4, tied=False, seed=0)
def test_adaptive_beam_matches_reference(K, D, kind, per, target, tied, seed):
    J = 1 if kind != "random" else min(2, K**D)
    cfg = make_cfg(K=K, D=D, J=J, beam_size=1)
    mapping = make_mapping(kind, cfg, per, seed)
    V = mapping.num_items
    # Zero parameters make every path tie; random ones rarely do.
    params = init_zero(cfg, V) if tied else random_params(cfg, num_items=V, seed=seed)
    model = TrainedModel(cfg, params,
                         SoftmaxModel.init_random(V, cfg.emb_dim, substream(seed, "sm")),
                         mapping, list(range(V)))
    behavior = substream(seed, "ctx").integers(0, V, size=3).tolist()
    ctx = model.context(behavior)
    got, B = adaptive_beam(ctx, params, mapping, target)
    want, want_B = reference.adaptive_beam(ctx, params, mapping, target)
    assert B == want_B
    assert got.tolist() == beam_entries(ctx, params, mapping, B)
    assert sorted(set(got.tolist())) == sorted(item for item, _ in want)
    assert model.retrieve(behavior, target, adaptive=True) == \
        rerank([item for item, _ in want], ctx, model.model, params, target)


def same_ranking(got, want):
    """Equal items in equal order, scores to 1e-12: the rerank scores a
    beam's entries in path order, where BLAS may round a row's score in the
    last bit differently from the deduplicated candidates' order."""
    assert [i for i, _ in got] == [i for i, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want],
                               rtol=0, atol=1e-12)


# J >= 2 paths per item, so an item often holds two beam paths; nodes drawn
# below K - 1 leave the mapping's code base under K, so beam paths reach
# nodes at or past it; no items at all make an empty index.
@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(2, 3), st.integers(0, 40),
       st.integers(1, 64), st.integers(1, 12), st.booleans(), st.booleans(),
       st.sampled_from([4, 8]), st.integers(0, 500))
def test_retrieve_reranks_the_deduplicated_candidates(K, D, J, num_items, B, k,
                                                      narrow, tied, E, seed):
    used = K - 1 if narrow and (K - 1) ** D >= J else K
    J = min(J, used ** D)
    cfg = make_cfg(K=K, D=D, J=J, beam_size=1, emb_dim=E)
    mapping = ItemPathMapping.from_assignments(reference.random_assignments(
        make_cfg(K=used, D=D, J=J), num_items, substream(seed, "mapping")))
    V = max(num_items, 3)
    # Zero parameters make every path tie; random ones rarely do.
    params = init_zero(cfg, V) if tied else random_params(cfg, num_items=V, seed=seed)
    model = TrainedModel(cfg, params,
                         SoftmaxModel.init_random(V, E, substream(seed, "sm")),
                         mapping, list(range(V)))
    behavior = substream(seed, "ctx").integers(0, V, size=3).tolist()
    ctx = model.context(behavior)

    def reranked(candidates):
        if len(candidates) == 0:
            return []
        return rerank([item for item, _ in candidates], ctx, model.model, params, k)

    B = min(B, K**D)
    same_ranking(model.retrieve(behavior, k, beam_size=B),
                 reranked(reference.dict_walk_candidates(ctx, params, mapping, B)))
    same_ranking(model.retrieve(behavior, k, adaptive=True),
                 reranked(reference.adaptive_beam(ctx, params, mapping, k)[0]))
