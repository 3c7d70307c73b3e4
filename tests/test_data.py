import math

import numpy as np
import pytest

from pathrec.data import (EvalSplit, InteractionRecord, build_item_vocab,
                          evaluate, load_interactions_csv, make_split,
                          preprocess, synth_clusters, training_samples,
                          write_interactions_csv)


def rec(user, item, rating=5.0, ts=0):
    return InteractionRecord(user, item, rating, ts)


def test_record_rejects_negative_timestamp():
    with pytest.raises(ValueError):
        InteractionRecord(0, 0, 5.0, -1)


def test_csv_round_trip(tmp_path):
    records = [rec(1, 10, 4.5, 100), rec(2, 11, 3.0, 200)]
    path = tmp_path / "data.csv"
    write_interactions_csv(path, records)
    loaded, skipped = load_interactions_csv(path)
    assert skipped == 0
    assert loaded == records


def test_csv_skips_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,item_id,rating,timestamp\n"
                    "1,10,4.5,100\n"
                    "2,eleven,3.0,200\n"
                    "3,12,4.0,-5\n"
                    "4,13,4.0,300\n")
    loaded, skipped = load_interactions_csv(path)
    assert skipped == 2
    assert [r.user_id for r in loaded] == [1, 4]


def test_preprocess_rating_then_review_count():
    # User 1 has 3 reviews but only 1 survives the rating filter, so the
    # user is dropped; user 2 keeps both of theirs.
    records = [rec(1, 0, 5.0), rec(1, 1, 3.0), rec(1, 2, 3.5),
               rec(2, 3, 4.0), rec(2, 4, 4.5)]
    kept, stats = preprocess(records, min_rating=4.0, min_reviews=2)
    assert {r.user_id for r in kept} == {2}
    assert stats == {"num_users": 1, "num_items": 2, "num_interactions": 2}


def test_preprocess_boundary_rating_kept():
    kept, _ = preprocess([rec(1, 0, 4.0)], min_rating=4.0, min_reviews=1)
    assert len(kept) == 1


def test_preprocess_is_idempotent():
    records = [rec(u, i, 3.5 + (i % 3), ts=i) for u in range(5) for i in range(8)]
    once, stats1 = preprocess(records, min_rating=4.0, min_reviews=3)
    twice, stats2 = preprocess(once, min_rating=4.0, min_reviews=3)
    assert once == twice
    assert stats1 == stats2


@pytest.mark.parametrize("n,expected_behavior", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_split_halves_behavior_takes_ceil(n, expected_behavior):
    records = [rec(u, 100 + t, 5.0, ts=t) for u in range(4) for t in range(n)]
    split = make_split(records, 1, 1, seed=0)
    for u in range(4):
        behavior, truth = split.history[u]
        assert len(behavior) == expected_behavior
        assert len(truth) == n - expected_behavior


def test_split_orders_by_timestamp_with_stable_ties():
    records = [rec(0, 1, ts=50), rec(0, 2, ts=10), rec(0, 3, ts=10),
               rec(0, 4, ts=99)] + [rec(u, 0, ts=0) for u in (1, 2, 3)]
    split = make_split(records, 1, 1, seed=0)
    behavior, truth = split.history[0]
    assert behavior + truth == [2, 3, 1, 4]


def test_split_user_sets_disjoint_and_deterministic():
    records = [rec(u, u, ts=u) for u in range(20)]
    a = make_split(records, 3, 4, seed=5)
    b = make_split(records, 3, 4, seed=5)
    assert (a.val_users, a.test_users) == (b.val_users, b.test_users)
    assert len(a.val_users) == 3 and len(a.test_users) == 4
    assert not set(a.val_users) & set(a.test_users)
    assert not set(a.train_users) & (set(a.val_users) | set(a.test_users))
    assert len(a.train_users) == 13
    c = make_split(records, 3, 4, seed=6)
    assert (a.val_users, a.test_users) != (c.val_users, c.test_users)


def test_split_requires_enough_users():
    records = [rec(u, u) for u in range(4)]
    with pytest.raises(ValueError):
        make_split(records, 2, 2, seed=0)


def test_evaluate_hand_computed_metrics():
    # One test user, truth {1,2,3}, retrieved [1,2,9,8] at k=4:
    # P = 2/4, R = 2/3, F = 2*(1/2)*(2/3)/(1/2+2/3) = 4/7.
    split = EvalSplit([], [], [7], history={7: ([5], [1, 2, 3])})
    report = evaluate(lambda behavior, k: [1, 2, 9, 8], split, k=4)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f_measure == pytest.approx(4 / 7)
    assert report.num_users == 1 and report.skipped_users == 0


def test_evaluate_macro_average_and_skips():
    split = EvalSplit([], [], [1, 2, 3],
                      history={1: ([0], [10]),       # hit -> P=1/1? k=1
                               2: ([0], [11]),       # miss
                               3: ([0], [])})        # empty truth, skipped
    report = evaluate(lambda behavior, k: [10], split, k=1)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.num_users == 2 and report.skipped_users == 1


def test_evaluate_truncates_overlong_retrieval():
    split = EvalSplit([], [], [1], history={1: ([0], [10, 11])})
    report = evaluate(lambda behavior, k: [9, 8, 10, 11], split, k=2)
    assert report.recall == 0.0


def test_evaluate_rejects_bad_k():
    split = EvalSplit([], [], [1], history={1: ([0], [10])})
    with pytest.raises(ValueError):
        evaluate(lambda behavior, k: [], split, k=0)


def test_evaluate_random_retrieval_matches_hypergeometric_recall():
    # Retrieving k of V items uniformly gives expected recall k/V per truth
    # item; check the Monte-Carlo mean against a 4-sigma band.
    V, k, truth_size, n_users = 50, 10, 4, 300
    rng = np.random.default_rng(0)
    split = EvalSplit([], [], list(range(n_users)),
                      history={u: ([0], list(range(truth_size)))
                               for u in range(n_users)})
    report = evaluate(lambda behavior, kk: rng.choice(V, size=kk, replace=False),
                      split, k=k)
    expect = k / V
    sigma = math.sqrt(expect * (1 - expect) / (truth_size * n_users))
    assert abs(report.recall - expect) < 4 * sigma


def test_synth_shapes_and_planted_structure():
    records, labels = synth_clusters(4, 10, 50, 8, mixture_weight=0.0, seed=1)
    assert len(records) == 400
    for r in records:
        primary, _ = labels["user_clusters"][r.user_id]
        assert r.item_id // labels["items_per_cluster"] == primary


def test_synth_secondary_cluster_distinct_and_mixture_rate():
    records, labels = synth_clusters(5, 20, 200, 30, mixture_weight=0.3, seed=2)
    off = 0
    for r in records:
        primary, secondary = labels["user_clusters"][r.user_id]
        assert secondary != primary
        cluster = r.item_id // labels["items_per_cluster"]
        assert cluster in (primary, secondary)
        off += cluster == secondary
    rate = off / len(records)
    assert abs(rate - 0.3) < 0.02


def test_synth_deterministic_per_seed():
    a, _ = synth_clusters(3, 5, 10, 4, 0.2, seed=9)
    b, _ = synth_clusters(3, 5, 10, 4, 0.2, seed=9)
    c, _ = synth_clusters(3, 5, 10, 4, 0.2, seed=10)
    assert a == b
    assert a != c


def test_synth_validates_arguments():
    with pytest.raises(ValueError):
        synth_clusters(0, 5, 10, 4, 0.2, seed=0)
    with pytest.raises(ValueError):
        synth_clusters(2, 5, 10, 4, 1.5, seed=0)


def test_build_item_vocab_contiguous():
    ids, index = build_item_vocab([rec(0, 30), rec(1, 10), rec(2, 20)])
    assert ids == [10, 20, 30]
    assert index == {10: 0, 20: 1, 30: 2}


def test_training_samples_one_per_truth_item():
    split = EvalSplit([0], [], [], history={0: ([30, 10], [20, 30])})
    _, index = build_item_vocab([rec(0, i) for i in (10, 20, 30)])
    samples = training_samples(split, index, max_seq_len=5)
    assert len(samples) == 2
    ctx, target = samples[0]
    assert ctx.behavior == (2, 0)
    assert [t for _, t in samples] == [index[20], index[30]]


def test_training_samples_respects_max_seq_len():
    split = EvalSplit([0], [], [], history={0: (list(range(10)), [3])})
    index = {i: i for i in range(10)}
    samples = training_samples(split, index, max_seq_len=4)
    assert samples[0][0].behavior == (6, 7, 8, 9)
