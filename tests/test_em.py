import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.core import OptimizerState
from pathrec.em import (EmConfig, ScoreTable, accumulate_scores,
                        coordinate_descent_assign, em_epoch,
                        streaming_score_update)
from pathrec.reranker import SoftmaxModel
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import StructureConfig, StructureParams, UserContext
from reference import (assignment_objective, path_log_prob,
                       structure_log_likelihood, surrogate_upper_bound)

A, B, C = (0, 0), (0, 1), (1, 0)


def make_cfg(K=2, D=2, J=1, S=4, **kw):
    kw.setdefault("beam_size", min(4, K**D))
    kw.setdefault("penalty_alpha", 0.0)
    kw.setdefault("emb_dim", 4)
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J,
                           score_capacity=S, **kw)


def test_streaming_first_entry_uses_zero_min_score():
    table = ScoreTable(4)
    streaming_score_update(table, 0, [(A, 2.0)], eta=0.5)
    assert table.scores[0] == {A: 2.0}


def test_streaming_hand_trace_at_capacity():
    # Recorded [(A,5),(B,3)] at S=2; new [(A,2),(C,4)]; eta=0.5.
    # min_score=3; A -> 0.5*5+2=4.5, B -> 0.5*3=1.5, C -> 0.5*3+4=5.5;
    # keep the top two.
    table = ScoreTable(2)
    table.scores[0] = {A: 5.0, B: 3.0}
    streaming_score_update(table, 0, [(A, 2.0), (C, 4.0)], eta=0.5)
    assert table.scores[0] == {C: 5.5, A: 4.5}


def test_streaming_decays_absent_paths():
    table = ScoreTable(4)
    table.scores[0] = {A: 2.0, B: 1.0}
    streaming_score_update(table, 0, [(A, 1.0)], eta=0.9)
    assert table.scores[0][A] == pytest.approx(0.9 * 2.0 + 1.0)
    assert table.scores[0][B] == pytest.approx(0.9)


def test_streaming_rejects_negative_scores():
    with pytest.raises(ValueError):
        streaming_score_update(ScoreTable(2), 0, [(A, -1.0)], eta=1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.floats(0, 10)),
                         min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_streaming_eta_one_equals_exact_accumulation(batches):
    # With eta=1 and capacity never exceeded, the tracker is an exact
    # accumulator over the replayed stream.
    table = ScoreTable(100)
    exact = {}
    for batch in batches:
        new = [((p, p), s) for p, s in batch]
        streaming_score_update(table, 7, new, eta=1.0)
        for path, s in new:
            exact[path] = exact.get(path, 0.0) + s
    for path, total in exact.items():
        assert table.scores[7][path] == pytest.approx(total, abs=1e-12)


def test_streaming_eviction_keeps_top_capacity():
    table = ScoreTable(2)
    streaming_score_update(table, 0, [(A, 1.0), (B, 2.0), (C, 3.0)], eta=1.0)
    assert set(table.scores[0]) == {B, C}


def test_accumulate_single_sample():
    cfg = make_cfg(K=2, D=2, S=4)
    params = StructureParams.init_random(cfg, 5, substream(0, "init"))
    table = ScoreTable(4)
    ctx = UserContext((1, 2))
    accumulate_scores([(ctx, 3)], params, table)
    assert table.counts[3] == 1.0
    for path, score in table.scores[3].items():
        assert score == pytest.approx(math.exp(path_log_prob(ctx, path, params)),
                                      rel=1e-12)


def test_accumulate_repeat_sums_with_eta_one():
    cfg = make_cfg(K=2, D=2, S=4, decay_eta=1.0)
    params = StructureParams.init_random(cfg, 5, substream(1, "init"))
    table = ScoreTable(4)
    ctx = UserContext((0,))
    accumulate_scores([(ctx, 2), (ctx, 2)], params, table)
    for path, score in table.scores[2].items():
        p = math.exp(path_log_prob(ctx, path, params))
        assert score == pytest.approx(2 * p, rel=1e-12)
    assert table.counts[2] == 2.0


def test_accumulate_full_beam_matches_exact_sums():
    cfg = make_cfg(K=2, D=2, S=4, decay_eta=1.0)
    params = StructureParams.init_random(cfg, 6, substream(2, "init"))
    table = ScoreTable(4)
    samples = [(UserContext((0, 1)), 4), (UserContext((2,)), 4),
               (UserContext((3,)), 5)]
    accumulate_scores(samples, params, table)
    for item in (4, 5):
        for path in [(a, b) for a in range(2) for b in range(2)]:
            exact = sum(math.exp(path_log_prob(ctx, path, params))
                        for ctx, v in samples if v == item)
            assert table.scores[item].get(path, 0.0) == pytest.approx(exact,
                                                                      rel=1e-12)


def fill_table(scores_by_item, counts):
    table = ScoreTable(max(len(s) for s in scores_by_item.values()))
    for item, entries in scores_by_item.items():
        table.scores[item] = dict(entries)
        table.counts[item] = counts.get(item, 1.0)
    return table


def test_cd_single_path_zero_alpha_is_argmax():
    table = fill_table({0: {A: 1.0, B: 5.0, C: 2.0},
                        1: {A: 3.0, B: 0.5}}, {0: 4.0, 1: 2.0})
    mapping = coordinate_descent_assign(table, 2, 2, 2, 0.0, 1, 3,
                                        substream(0, "cd"))
    assert mapping.assignments[0] == (B,)
    assert mapping.assignments[1] == (A,)


def test_cd_large_alpha_spreads_identical_items():
    # Both items prefer path A; a dominant penalty pushes the second item
    # to its runner-up path.
    table = fill_table({0: {A: 5.0, B: 4.0}, 1: {A: 5.0, B: 4.0}},
                       {0: 1.0, 1: 1.0})
    mapping = coordinate_descent_assign(table, 2, 2, 2, 1e6, 1, 3,
                                        substream(0, "cd"))
    assert sorted([mapping.assignments[0][0], mapping.assignments[1][0]]) == [A, B]


def test_cd_paths_distinct_within_item():
    table = fill_table({0: {A: 5.0, B: 4.0, C: 1.0}}, {0: 3.0})
    mapping = coordinate_descent_assign(table, 1, 2, 2, 0.0, 2, 3,
                                        substream(0, "cd"))
    assert len(set(mapping.assignments[0])) == 2
    assert set(mapping.assignments[0]) == {A, B}


def test_cd_pads_missing_candidates_with_random_paths():
    table = fill_table({0: {A: 1.0}}, {0: 1.0})
    mapping = coordinate_descent_assign(table, 1, 3, 2, 0.0, 3, 2,
                                        substream(1, "cd"))
    assert len(set(mapping.assignments[0])) == 3


def test_cd_cold_items_keep_previous_assignment():
    cfg = make_cfg(K=2, D=2, J=1, S=2)
    prev = ItemPathMapping.from_assignments([(A,), (C,)])
    table = fill_table({0: {B: 1.0}}, {0: 1.0})
    table.scores.pop(1, None)
    mapping = coordinate_descent_assign(table, 2, 2, 2, 0.0, 1, 2,
                                        substream(2, "cd"), prev_mapping=prev)
    assert mapping.assignments[1] == (C,)


def test_cd_size_bookkeeping_matches_rebuild():
    rng = np.random.default_rng(5)
    scores = {}
    for v in range(12):
        paths = {(int(a), int(b)): float(rng.random())
                 for a, b in rng.integers(0, 3, size=(4, 2))}
        scores[v] = paths
    table = fill_table(scores, {v: float(rng.integers(1, 10)) for v in range(12)})
    mapping = coordinate_descent_assign(table, 12, 3, 2, 0.1, 2, 3,
                                        substream(3, "cd"))
    rebuilt = ItemPathMapping.from_assignments(mapping.assignments)
    assert rebuilt.path_sizes == mapping.path_sizes


def random_instance(seed, V=None):
    rng = np.random.default_rng(seed)
    V = V or int(rng.integers(3, 20))
    S = int(rng.integers(2, 6))
    table = ScoreTable(S)
    paths = [(int(a), int(b)) for a in range(3) for b in range(3)]
    for v in range(V):
        chosen = rng.choice(len(paths), size=S, replace=False)
        table.scores[v] = {paths[i]: float(rng.random() * 5) for i in chosen}
        table.counts[v] = float(rng.integers(1, 20))
    return table, V


@pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.0])
def test_cd_objective_non_decreasing_over_sweeps(alpha):
    for seed in range(10):
        table, V = random_instance(seed)
        objs = []
        for T in range(1, 5):
            mapping = coordinate_descent_assign(table, V, 3, 2, alpha, 2, T,
                                                substream(seed, "cd"))
            objs.append(assignment_objective(table, mapping.assignments, alpha))
        for earlier, later in zip(objs, objs[1:]):
            assert later >= earlier - 1e-9


def test_surrogate_bound_on_random_instances():
    cfg = make_cfg(K=3, D=2, J=2, S=4)
    for seed in range(10):
        params = StructureParams.init_random(cfg, 8, substream(seed, "init"))
        rng = np.random.default_rng(seed)
        samples = [(UserContext(tuple(int(x) for x in rng.integers(0, 8, size=3))),
                    int(rng.integers(8))) for _ in range(12)]
        mapping = ItemPathMapping.random_init(cfg, 8, substream(seed, "mapping"))
        q = structure_log_likelihood(samples, mapping, params)
        q_bar = surrogate_upper_bound(samples, mapping, params)
        assert q <= q_bar + 1e-9


def test_em_epoch_concentrates_single_cluster_data():
    # All users like all items: with a vanishing penalty the M-step should
    # pile items onto a handful of paths.
    cfg = make_cfg(K=4, D=2, J=1, S=4, penalty_alpha=1e-9, beam_size=4)
    num_items = 30
    rng = np.random.default_rng(0)
    samples = [(UserContext(tuple(int(x) for x in rng.integers(0, num_items, 4))),
                int(rng.integers(num_items))) for _ in range(300)]
    params = StructureParams.init_random(cfg, num_items, substream(0, "init"))
    model = SoftmaxModel.init_random(num_items, cfg.emb_dim, substream(0, "init"))
    mapping = ItemPathMapping.random_init(cfg, num_items, substream(0, "mapping"))
    table = ScoreTable(cfg.score_capacity)
    opt = OptimizerState(0.02)
    em_cfg = EmConfig(epochs=2, batch_size=16, num_negatives=5, freeze_epoch=2)
    for epoch in range(2):
        mapping, stats = em_epoch(samples, params, model, mapping, table, opt,
                                  em_cfg, epoch, substream(0, "neg"),
                                  substream(epoch, "shuffle"),
                                  substream(0, "cd"))
    assert stats["top_path_size"] >= num_items // 3
    assert stats["nonempty_paths"] <= 8


def test_em_epoch_stats_shape():
    cfg = make_cfg(K=2, D=2, J=1, S=4)
    params = StructureParams.init_random(cfg, 6, substream(1, "init"))
    model = SoftmaxModel.init_random(6, cfg.emb_dim, substream(1, "init"))
    mapping = ItemPathMapping.random_init(cfg, 6, substream(1, "mapping"))
    table = ScoreTable(cfg.score_capacity)
    samples = [(UserContext((0, 1)), 2), (UserContext((3,)), 4)]
    mapping, stats = em_epoch(samples, params, model, mapping, table,
                              OptimizerState(0.01), EmConfig(num_negatives=2),
                              0, substream(1, "neg"), substream(1, "shuffle"),
                              substream(1, "cd"))
    for key in ("mean_loss", "top_path_size", "path_size_histogram",
                "nonempty_paths", "softmax_frozen"):
        assert key in stats
    assert sum(mapping.path_sizes.values()) == 6


def test_em_epoch_frozen_softmax_keeps_out_emb():
    # From the freeze epoch on, the output embeddings stay put while the
    # shared encoder (the structure item embeddings) keeps training.
    cfg = make_cfg(K=2, D=2, J=1, S=4)
    params = StructureParams.init_random(cfg, 6, substream(2, "init"))
    model = SoftmaxModel.init_random(6, cfg.emb_dim, substream(2, "softmax"))
    mapping = ItemPathMapping.random_init(cfg, 6, substream(2, "mapping"))
    samples = [(UserContext((0, 1)), 2), (UserContext((3,)), 4),
               (UserContext((5, 2)), 1)]
    out_before = model.out_emb.copy()
    item_before = params.item_emb.copy()
    _, stats = em_epoch(samples, params, model, mapping,
                        ScoreTable(cfg.score_capacity), OptimizerState(0.01),
                        EmConfig(num_negatives=2, freeze_epoch=0), 0,
                        substream(2, "neg"), substream(2, "shuffle"),
                        substream(2, "cd"))
    assert stats["softmax_frozen"]
    np.testing.assert_array_equal(model.out_emb, out_before)
    assert np.any(params.item_emb != item_before)
