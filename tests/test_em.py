import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.core import OptimizerState
from pathrec import data, train
from pathrec.em import (EmConfig, ScoreTable, accumulate_scores,
                        coordinate_descent_assign, em_epoch)
from pathrec.reranker import SoftmaxModel
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import StructureConfig, StructureParams, UserContext
import reference
from reference import (assignment_objective, path_log_prob, score_table,
                       structure_log_likelihood, surrogate_upper_bound, update_one)

A, B, C = (0, 0), (0, 1), (1, 0)


def make_cfg(K=2, D=2, J=1, S=4, **kw):
    kw.setdefault("beam_size", min(4, K**D))
    kw.setdefault("penalty_alpha", 0.0)
    kw.setdefault("emb_dim", 4)
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J,
                           score_capacity=S, **kw)


def test_streaming_first_entry_uses_zero_min_score():
    table = ScoreTable(1, 4, 2, 2)
    update_one(table, 0, [(A, 2.0)], eta=0.5)
    assert table.scores[0] == {A: 2.0}


def test_streaming_hand_trace_at_capacity():
    # Recorded [(A,5),(B,3)] at S=2; new [(A,2),(C,4)]; eta=0.5.
    # min_score=3; A -> 0.5*5+2=4.5, B -> 0.5*3=1.5, C -> 0.5*3+4=5.5;
    # keep the top two.
    table = score_table({0: {A: 5.0, B: 3.0}}, {}, 1, 2, 2)
    update_one(table, 0, [(A, 2.0), (C, 4.0)], eta=0.5)
    assert table.scores[0] == {C: 5.5, A: 4.5}


def test_streaming_decays_absent_paths():
    table = score_table({0: {A: 2.0, B: 1.0}}, {}, 1, 2, 2, capacity=4)
    update_one(table, 0, [(A, 1.0)], eta=0.9)
    assert table.scores[0][A] == pytest.approx(0.9 * 2.0 + 1.0)
    assert table.scores[0][B] == pytest.approx(0.9)


def test_streaming_rejects_negative_scores():
    with pytest.raises(ValueError):
        update_one(ScoreTable(1, 2, 2, 2), 0, [(A, -1.0)], eta=1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.floats(0, 10)),
                         min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_streaming_eta_one_equals_exact_accumulation(batches):
    # With eta=1 and capacity never exceeded, the tracker is an exact
    # accumulator over the replayed stream.
    table = ScoreTable(8, 100, 6, 2)
    exact = {}
    for batch in batches:
        new = [((p, p), s) for p, s in batch]
        update_one(table, 7, new, eta=1.0)
        for path, s in new:
            exact[path] = exact.get(path, 0.0) + s
    for path, total in exact.items():
        assert table.scores[7][path] == pytest.approx(total, abs=1e-12)


def test_streaming_eviction_keeps_top_capacity():
    table = ScoreTable(1, 2, 2, 2)
    update_one(table, 0, [(A, 1.0), (B, 2.0), (C, 3.0)], eta=1.0)
    assert set(table.scores[0]) == {B, C}


def test_accumulate_single_sample():
    cfg = make_cfg(K=2, D=2, S=4)
    params = StructureParams.init_random(cfg, 5, substream(0, "init"))
    table = ScoreTable(5, 4, 2, 2)
    ctx = UserContext((1, 2))
    accumulate_scores([(ctx, 3)], params, table)
    assert table.counts[3] == 1.0
    for path, score in table.scores[3].items():
        assert score == pytest.approx(math.exp(path_log_prob(ctx, path, params)),
                                      rel=1e-12)


def test_accumulate_repeat_sums_with_eta_one():
    cfg = make_cfg(K=2, D=2, S=4, decay_eta=1.0)
    params = StructureParams.init_random(cfg, 5, substream(1, "init"))
    table = ScoreTable(5, 4, 2, 2)
    ctx = UserContext((0,))
    accumulate_scores([(ctx, 2), (ctx, 2)], params, table)
    for path, score in table.scores[2].items():
        p = math.exp(path_log_prob(ctx, path, params))
        assert score == pytest.approx(2 * p, rel=1e-12)
    assert table.counts[2] == 2.0


def test_accumulate_full_beam_matches_exact_sums():
    cfg = make_cfg(K=2, D=2, S=4, decay_eta=1.0)
    params = StructureParams.init_random(cfg, 6, substream(2, "init"))
    table = ScoreTable(6, 4, 2, 2)
    samples = [(UserContext((0, 1)), 4), (UserContext((2,)), 4),
               (UserContext((3,)), 5)]
    accumulate_scores(samples, params, table)
    for item in (4, 5):
        for path in [(a, b) for a in range(2) for b in range(2)]:
            exact = sum(math.exp(path_log_prob(ctx, path, params))
                        for ctx, v in samples if v == item)
            assert table.scores[item].get(path, 0.0) == pytest.approx(exact,
                                                                      rel=1e-12)


def test_cd_single_path_zero_alpha_is_argmax():
    table = score_table({0: {A: 1.0, B: 5.0, C: 2.0},
                         1: {A: 3.0, B: 0.5}}, {0: 4.0, 1: 2.0}, 2, 2, 2)
    mapping = coordinate_descent_assign(table, 2, 2, 2, 0.0, 1, 3,
                                        substream(0, "cd"))
    assert mapping.assignments[0] == (B,)
    assert mapping.assignments[1] == (A,)


def test_cd_large_alpha_spreads_identical_items():
    # Both items prefer path A; a dominant penalty pushes the second item
    # to its runner-up path.
    table = score_table({0: {A: 5.0, B: 4.0}, 1: {A: 5.0, B: 4.0}},
                        {0: 1.0, 1: 1.0}, 2, 2, 2)
    mapping = coordinate_descent_assign(table, 2, 2, 2, 1e6, 1, 3,
                                        substream(0, "cd"))
    assert sorted([mapping.assignments[0][0], mapping.assignments[1][0]]) == [A, B]


def test_cd_paths_distinct_within_item():
    table = score_table({0: {A: 5.0, B: 4.0, C: 1.0}}, {0: 3.0}, 1, 2, 2)
    mapping = coordinate_descent_assign(table, 1, 2, 2, 0.0, 2, 3,
                                        substream(0, "cd"))
    assert len(set(mapping.assignments[0])) == 2
    assert set(mapping.assignments[0]) == {A, B}


def test_cd_pads_missing_candidates_with_random_paths():
    table = score_table({0: {A: 1.0}}, {0: 1.0}, 1, 3, 2)
    mapping = coordinate_descent_assign(table, 1, 3, 2, 0.0, 3, 2,
                                        substream(1, "cd"))
    assert len(set(mapping.assignments[0])) == 3


def test_cd_cold_items_keep_previous_assignment():
    cfg = make_cfg(K=2, D=2, J=1, S=2)
    prev = ItemPathMapping.from_assignments([(A,), (C,)])
    table = score_table({0: {B: 1.0}}, {0: 1.0}, 2, 2, 2)
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
    table = score_table(scores, {v: float(rng.integers(1, 10)) for v in range(12)},
                        12, 3, 2)
    mapping = coordinate_descent_assign(table, 12, 3, 2, 0.1, 2, 3,
                                        substream(3, "cd"))
    rebuilt = ItemPathMapping.from_assignments(mapping.assignments)
    assert rebuilt.path_sizes == mapping.path_sizes


def random_instance(seed, V=None):
    rng = np.random.default_rng(seed)
    V = V or int(rng.integers(3, 20))
    S = int(rng.integers(2, 6))
    paths = [(int(a), int(b)) for a in range(3) for b in range(3)]
    rows, counts = {}, {}
    for v in range(V):
        chosen = rng.choice(len(paths), size=S, replace=False)
        rows[v] = {paths[i]: float(rng.random() * 5) for i in chosen}
        counts[v] = float(rng.integers(1, 20))
    return score_table(rows, counts, V, 3, 2), V


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


@pytest.mark.parametrize("K, D, S", [(2, 2, 4), (3, 3, 5), (4, 2, 16)])
def test_accumulate_matches_per_sample_reference(K, D, S):
    # Repeated items merge in sample order; the capacity cuts some beams.
    cfg = make_cfg(K=K, D=D, S=S, decay_eta=0.9, beam_size=1)
    params = StructureParams.init_random(cfg, 8, substream(K * D, "init"))
    rng = np.random.default_rng(S)
    batches = [[(UserContext(tuple(int(x) for x in rng.integers(-1, 8, 3))),
                 int(rng.integers(4))) for _ in range(n)] for n in (1, 9, 5)]
    batches[1][3] = (UserContext(()), batches[1][3][1])
    got, want = ScoreTable(8, S, K, D), reference.DictScoreTable(S)
    for batch in batches:
        accumulate_scores(batch, params, got)
        reference.accumulate_scores(batch, params, want)
    assert got.counts.tolist() == [want.counts.get(v, 0.0) for v in range(8)]
    assert set(got.scores) == set(want.scores)
    for item, entries in want.scores.items():
        assert list(got.scores[item]) == list(entries)      # both in row order
        for path, score in entries.items():
            assert got.scores[item][path] == pytest.approx(score, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_batched_merge_matches_dict_oracle(seed):
    # Random batches over few items, so items repeat within a batch and
    # rows fill up; scores from a small set, so scores and sums tie; paths
    # drawn with replacement, so an observation can list a path twice.
    rng = np.random.default_rng(seed)
    K, D, V = 3, 2, 5
    S = int(rng.integers(2, 6))
    eta = [0.5, 0.9, 1.0][seed % 3]
    got, want = ScoreTable(V, S, K, D), reference.DictScoreTable(S)
    for n in rng.integers(1, 10, size=8).tolist():
        items = rng.integers(0, V, size=n)
        paths = rng.integers(0, K, size=(n, int(rng.integers(1, S + 1)), D))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], size=paths.shape[:2])
        got.update(items, paths, scores, eta)
        for item, row, row_scores in zip(items.tolist(), paths.tolist(), scores.tolist()):
            reference.streaming_score_update(want, item, zip(map(tuple, row), row_scores), eta)
    assert got.counts.tolist() == [want.counts.get(v, 0.0) for v in range(V)]
    assert got.scores == want.scores
    for item, entries in want.scores.items():
        assert list(got.scores[item]) == list(entries)      # row order too
    assert got.fill.tolist() == [len(want.scores.get(v, {})) for v in range(V)]


def test_batched_merge_one_item_duplicate_paths():
    # One observation listing A three times sums its copies in order.
    got, want = ScoreTable(1, 2, 2, 2), reference.DictScoreTable(2)
    update = [(A, 0.1), (B, 0.7), (A, 0.2), (A, 0.3)]
    for table, merge in ((got, update_one), (want, reference.streaming_score_update)):
        merge(table, 0, update, 0.5)
        merge(table, 0, [(C, 0.7), (B, 0.1)], 0.5)
    assert got.scores == want.scores
    assert list(got.scores[0]) == list(want.scores[0])


def cd_instance(seed):
    """A random M-step input: scores from a small set (ties, and scores
    under the log floor), some cold items and some rows shorter than J."""
    rng = np.random.default_rng(seed)
    K, D = 3, 2
    V = int(rng.integers(4, 16))
    J = int(rng.integers(1, 4))
    S = int(rng.integers(J, 6))
    paths = [(a, b) for a in range(K) for b in range(K)]
    rows, counts = {}, {}
    for v in range(V):
        n = int(rng.choice([0, 1, J, S]))
        chosen = rng.choice(len(paths), size=n, replace=False)
        rows[v] = {paths[i]: float(rng.choice([1e-13, 1e-12, 0.0, 0.5, 1.0, 2.0]))
                   for i in chosen}
        counts[v] = float(rng.choice([0.0, 1.0, 2.5]))
    alpha = [0.0, 1e-3, 0.5, 100.0][seed % 4]
    return score_table(rows, counts, V, K, D, capacity=S), V, K, D, J, alpha


@pytest.mark.parametrize("seed", range(40))
def test_cd_matches_per_item_reference(seed):
    table, V, K, D, J, alpha = cd_instance(seed)
    cfg = make_cfg(K=K, D=D, J=J, S=table.capacity)
    for prev in (None, ItemPathMapping.random_init(cfg, V, substream(seed, "prev"))):
        rng_got, rng_want = substream(seed, "cd"), substream(seed, "cd")
        got = coordinate_descent_assign(table, V, K, D, alpha, J, 3, rng_got,
                                        prev_mapping=prev)
        want = reference.coordinate_descent_assign(table, V, K, D, alpha, J, 3,
                                                   rng_want, prev_mapping=prev)
        assert got.assignments == want.assignments
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_cd_cold_items_keep_previous_stored_order():
    # A previous mapping lists item 1's paths out of path order; the cold
    # item keeps them as stored.
    prev = ItemPathMapping.from_assignments([(A, B), (C, A)])
    table = score_table({0: {B: 1.0, C: 2.0}}, {0: 1.0}, 2, 2, 2)
    mapping = coordinate_descent_assign(table, 2, 2, 2, 0.0, 2, 2,
                                        substream(2, "cd"), prev_mapping=prev)
    assert mapping.assignments[1] == (C, A)
    assert mapping.assignments[0] == (C, B)
    # The node array keeps the same order, in the smallest unsigned dtype.
    assert mapping.paths.tolist() == [[list(C), list(B)], [list(C), list(A)]]
    assert mapping.paths.dtype == np.uint8


def test_cd_equal_gain_at_the_exit_bound_goes_to_the_smaller_path():
    # Scores 1e-12 and 1e-13 both floor to log(1e-12), so the second
    # candidate of the row reaches the best gain exactly: the walk must
    # score it, and the tie goes to its smaller path.
    table = score_table({0: {(1, 1): 1e-12, (0, 1): 1e-13}}, {0: 2.0}, 1, 2, 2)
    mapping = coordinate_descent_assign(table, 1, 2, 2, 0.0, 1, 1, substream(0, "cd"))
    assert mapping.assignments[0] == ((0, 1),)


def test_training_never_builds_the_scores_view(monkeypatch):
    def refuse(table):
        raise AssertionError("training read the scores view")

    monkeypatch.setattr(ScoreTable, "scores", property(refuse))
    records = [data.InteractionRecord(u, (u + i) % 12, 5.0, 10 * u + i)
               for u in range(16) for i in range(4)]
    split = data.make_split(records, 0, 0, 0)
    cfg = make_cfg(K=2, D=2, J=1, S=4)
    trained = train.train_model(records, split, cfg,
                                EmConfig(epochs=2, num_negatives=3), seed=0)
    assert trained.table.fill.sum() > 0


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
    table = ScoreTable(num_items, cfg.score_capacity, 4, 2)
    opt = OptimizerState(0.02)
    em_cfg = EmConfig(epochs=2, batch_size=16, num_negatives=5, freeze_epoch=2)
    for epoch in range(2):
        prev = mapping
        mapping, stats = em_epoch(samples, params, model, mapping, table, opt,
                                  em_cfg, epoch, substream(0, "neg"),
                                  substream(epoch, "shuffle"),
                                  substream(0, "cd"))
    assert stats["top_path_size"] >= num_items // 3
    assert stats["nonempty_paths"] <= 8
    # The health signals, read off the index arrays, agree with the path
    # size dicts and the assignment tuples, the histogram in size order.
    sizes = sorted(mapping.path_sizes.values())
    assert stats["top_path_size"] == sizes[-1]
    assert stats["nonempty_paths"] == len(sizes)
    assert list(stats["path_size_histogram"].items()) == \
        [(str(n), sizes.count(n)) for n in sorted(set(sizes))]
    assert stats["mapping_churn"] == sum(
        set(a) != set(b) for a, b in zip(prev.assignments, mapping.assignments)) / num_items
    assert stats["penalty"] == cfg.penalty_alpha * sum(
        n**4 / 4 for n in prev.path_sizes.values())


def test_em_epoch_stats_shape():
    cfg = make_cfg(K=2, D=2, J=1, S=4)
    params = StructureParams.init_random(cfg, 6, substream(1, "init"))
    model = SoftmaxModel.init_random(6, cfg.emb_dim, substream(1, "init"))
    mapping = ItemPathMapping.random_init(cfg, 6, substream(1, "mapping"))
    table = ScoreTable(6, cfg.score_capacity, 2, 2)
    samples = [(UserContext((0, 1)), 2), (UserContext((3,)), 4)]
    mapping, stats = em_epoch(samples, params, model, mapping, table,
                              OptimizerState(0.01), EmConfig(num_negatives=2),
                              0, substream(1, "neg"), substream(1, "shuffle"),
                              substream(1, "cd"))
    for key in ("mean_loss", "top_path_size", "path_size_histogram",
                "nonempty_paths", "softmax_frozen", "penalty", "cold_items",
                "score_entries", "mapping_churn", "e_step_s", "score_s",
                "optimizer_s", "m_step_s", "seconds"):
        assert key in stats
    assert sum(mapping.path_sizes.values()) == 6
    # Items 2 and 4 were clicked; the other four have empty score tables.
    # Each click recorded its beam's min(S, K^D) = 4 paths.
    assert stats["cold_items"] == 4
    assert stats["score_entries"] == 8 == sum(map(len, table.scores.values()))
    assert 0.0 <= stats["mapping_churn"] <= 2 / 6
    assert stats["penalty"] == 0.0                     # alpha is 0 here
    stages = [stats[k] for k in ("e_step_s", "score_s", "optimizer_s", "m_step_s")]
    assert all(s >= 0.0 for s in stages)
    assert sum(stages) <= stats["seconds"]


def test_em_epoch_health_on_empty_table():
    # No samples: nothing is scored, every item is cold and keeps its paths.
    cfg = make_cfg(K=2, D=2, J=1, S=4, penalty_alpha=0.5)
    params = StructureParams.init_random(cfg, 6, substream(3, "init"))
    model = SoftmaxModel.init_random(6, cfg.emb_dim, substream(3, "init"))
    mapping = ItemPathMapping.random_init(cfg, 6, substream(3, "mapping"))
    new, stats = em_epoch([], params, model, mapping, ScoreTable(6, cfg.score_capacity, 2, 2),
                          OptimizerState(0.01), EmConfig(num_negatives=2), 0,
                          substream(3, "neg"), substream(3, "shuffle"),
                          substream(3, "cd"))
    assert new.assignments == mapping.assignments
    assert stats["mapping_churn"] == 0.0
    assert stats["cold_items"] == 6
    assert stats["score_entries"] == 0
    assert stats["penalty"] == pytest.approx(
        0.5 * sum(n**4 / 4 for n in mapping.path_sizes.values()))
    assert stats["e_step_s"] == stats["score_s"] == stats["optimizer_s"] == 0.0
    assert 0.0 <= stats["m_step_s"] <= stats["seconds"]


def test_mapping_churn_compares_path_sets():
    # K=2, D=1, J=2: every item must hold both paths, so no path set can
    # change, whatever order the M-step lists them in.
    cfg = make_cfg(K=2, D=1, J=2, S=2)
    params = StructureParams.init_random(cfg, 6, substream(4, "init"))
    model = SoftmaxModel.init_random(6, cfg.emb_dim, substream(4, "init"))
    mapping = ItemPathMapping.from_assignments(
        [((0,), (1,)) if v % 2 else ((1,), (0,)) for v in range(6)])
    samples = [(UserContext(((v + 1) % 6,)), v) for v in range(6)]
    new, stats = em_epoch(samples, params, model, mapping, ScoreTable(6, 2, 2, 1),
                          OptimizerState(0.01), EmConfig(num_negatives=2), 0,
                          substream(4, "neg"), substream(4, "shuffle"),
                          substream(4, "cd"))
    assert stats["cold_items"] == 0
    assert new.assignments != mapping.assignments      # the order did move
    assert stats["mapping_churn"] == 0.0


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
                        ScoreTable(6, cfg.score_capacity, 2, 2), OptimizerState(0.01),
                        EmConfig(num_negatives=2, freeze_epoch=0), 0,
                        substream(2, "neg"), substream(2, "shuffle"),
                        substream(2, "cd"))
    assert stats["softmax_frozen"]
    np.testing.assert_array_equal(model.out_emb, out_before)
    assert np.any(params.item_emb != item_before)
