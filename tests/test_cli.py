import json

import pytest
from click.testing import CliRunner

from pathrec.cli import cli
from pathrec.data import synth_clusters, write_interactions_csv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    records, _ = synth_clusters(4, 25, 120, 12, mixture_weight=0.2, seed=3)
    path = root / "interactions.csv"
    write_interactions_csv(path, records)
    return path


TRAIN_ARGS = ["--nodes", "4", "--depth", "2", "--paths", "2", "--beam", "4",
              "--score-capacity", "4", "--alpha", "1e-4", "--emb-dim", "8",
              "--epochs", "2", "--batch-size", "32", "--negatives", "20",
              "--seed", "11", "--test-users", "20"]


@pytest.fixture(scope="module")
def checkpoint(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    ckpt = root / "model"
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus),
                                      "--output", str(ckpt)] + TRAIN_ARGS)
    assert result.exit_code == 0, result.output
    return ckpt


def lines(result):
    return [json.loads(l) for l in result.output.strip().splitlines()]


def test_preprocess_command(tmp_path, corpus):
    out = tmp_path / "filtered.csv"
    result = CliRunner().invoke(cli, ["preprocess", "--input", str(corpus),
                                      "--output", str(out),
                                      "--min-rating", "4", "--min-reviews", "5"])
    assert result.exit_code == 0, result.output
    [event] = lines(result)
    assert event["event"] == "preprocess"
    assert event["num_users"] == 120
    assert out.exists()


def test_synth_command_deterministic(tmp_path):
    args = ["synth", "--clusters", "3", "--items-per-cluster", "5",
            "--users", "10", "--interactions-per-user", "4",
            "--mixture", "0.2", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    labels = tmp_path / "labels.json"
    r1 = CliRunner().invoke(cli, args + ["--output", str(a),
                                         "--labels", str(labels)])
    r2 = CliRunner().invoke(cli, args + ["--output", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert lines(r1)[0]["num_interactions"] == 40
    assert set(json.loads(labels.read_text())) == \
        {"num_clusters", "items_per_cluster", "user_clusters"}


def test_train_emits_epoch_stats_and_checkpoint(corpus, checkpoint):
    events = None
    # Re-run into a scratch dir to inspect stdout (the fixture asserts exit 0).
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(cli, ["train", "--input", str(corpus),
                                     "--output", "m", "--stats-out", "stats.jsonl"]
                               + TRAIN_ARGS)
        assert result.exit_code == 0, result.output
        events = lines(result)
        stats_lines = open("stats.jsonl").read().strip().splitlines()
    epochs = [e for e in events if e["event"] == "epoch"]
    assert len(epochs) == 2 == len(stats_lines)
    assert {"mean_loss", "top_path_size", "nonempty_paths"} <= set(epochs[0])
    assert events[-1]["event"] == "train_done"
    assert (checkpoint / "manifest.json").exists()


def test_train_twice_same_seed_byte_identical(corpus, checkpoint, tmp_path):
    other = tmp_path / "model2"
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus),
                                      "--output", str(other)] + TRAIN_ARGS)
    assert result.exit_code == 0, result.output
    files = sorted(p.relative_to(checkpoint)
                   for p in checkpoint.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (checkpoint / rel).read_bytes() == (other / rel).read_bytes()


def test_evaluate_reports_both_methods(corpus, checkpoint):
    result = CliRunner().invoke(cli, ["evaluate", "--checkpoint", str(checkpoint),
                                      "--input", str(corpus), "--seed", "11",
                                      "--test-users", "20", "--k", "10"])
    assert result.exit_code == 0, result.output
    events = lines(result)
    assert {e["method"] for e in events} == {"structure", "brute_force"}
    for e in events:
        assert e["event"] == "metrics"
        assert 0.0 <= e["recall"] <= 1.0
        assert e["num_users"] + e["skipped_users"] == 20


def test_retrieve_outputs_k_scored_items(checkpoint):
    result = CliRunner().invoke(cli, ["retrieve", "--checkpoint", str(checkpoint),
                                      "--user-seq", "1,2,3", "--k", "5"])
    assert result.exit_code == 0, result.output
    events = lines(result)
    assert len(events) == 5
    scores = [e["score"] for e in events]
    assert scores == sorted(scores, reverse=True)
    assert len({e["item_id"] for e in events}) == 5


@pytest.fixture(scope="module")
def corpus60(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus60")
    path = root / "c60.csv"
    result = CliRunner().invoke(cli, ["synth", "--output", str(path),
                                      "--clusters", "3", "--items-per-cluster", "20",
                                      "--users", "100", "--seed", "1"])
    assert result.exit_code == 0, result.output
    return path


def test_train_negatives_at_least_item_count_is_clean_error(corpus60, tmp_path):
    # The default 100 negatives cannot be drawn from 60 items.
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus60),
                                      "--output", str(tmp_path / "ck"),
                                      "--epochs", "1", "--seed", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "--negatives 100 must be in [1, 59]" in result.output
    assert not (tmp_path / "ck").exists()


def test_train_invalid_structure_is_usage_error(corpus60, tmp_path):
    # Three distinct paths per item, but K^D = 2 paths exist.
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus60),
                                      "--output", str(tmp_path / "ck"),
                                      "--nodes", "2", "--depth", "1", "--paths", "3",
                                      "--beam", "1", "--score-capacity", "3"])
    assert result.exit_code == 2
    assert "paths_per_item" in result.output


def test_retrieve_brute_force_k_exceeding_corpus_is_usage_error(corpus60, tmp_path):
    ckpt = tmp_path / "ck60"
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus60),
                                      "--output", str(ckpt), "--epochs", "1",
                                      "--negatives", "10", "--seed", "1"])
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(cli, ["retrieve", "--checkpoint", str(ckpt),
                                      "--user-seq", "1,2,3",
                                      "--method", "brute-force", "--k", "100"])
    assert result.exit_code == 2
    assert "exceeds corpus size 60" in result.output


def test_retrieve_rejects_bad_sequence(checkpoint):
    result = CliRunner().invoke(cli, ["retrieve", "--checkpoint", str(checkpoint),
                                      "--user-seq", "1,x,3"])
    assert result.exit_code == 2


def test_bench_synthetic_smoke_schema():
    result = CliRunner().invoke(cli, ["bench", "--synthetic-items", "100",
                                      "--queries", "1000", "--k", "5",
                                      "--beam", "2"])
    assert result.exit_code == 0, result.output
    [event] = lines(result)
    assert event["event"] == "bench"
    assert event["corpus_size"] == 100
    assert event["num_queries"] == 1000
    for method in ("structure", "brute_force"):
        timing = event[method]
        assert timing["mean_ms"] > 0
        assert timing["median_ms"] <= timing["p99_ms"]
    assert event["speedup"] == pytest.approx(
        event["brute_force"]["mean_ms"] / event["structure"]["mean_ms"])


def test_bench_k_exceeding_corpus_is_usage_error():
    result = CliRunner().invoke(cli, ["bench", "--synthetic-items", "50",
                                      "--k", "51"])
    assert result.exit_code == 2


def test_bench_requires_exactly_one_source(checkpoint):
    assert CliRunner().invoke(cli, ["bench"]).exit_code == 2
    result = CliRunner().invoke(cli, ["bench", "--checkpoint", str(checkpoint),
                                      "--synthetic-items", "10"])
    assert result.exit_code == 2


def test_inspect_command(checkpoint):
    result = CliRunner().invoke(cli, ["inspect", "--checkpoint", str(checkpoint)])
    assert result.exit_code == 0, result.output
    [event] = lines(result)
    assert event["num_items"] == 100
    assert event["config"]["num_nodes"] == 4
    assert event["nonempty_paths"] >= 1
    assert event["top_path_size"] >= event["mean_path_size"]


def test_unknown_flag_exits_2():
    assert CliRunner().invoke(cli, ["train", "--frobnicate"]).exit_code == 2


def test_corrupt_checkpoint_is_clean_error(checkpoint, tmp_path):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(checkpoint, broken)
    blob = broken / "tensors" / "item_emb.bin"
    blob.write_bytes(blob.read_bytes()[:-3])
    result = CliRunner().invoke(cli, ["inspect", "--checkpoint", str(broken)])
    assert result.exit_code == 1
    assert "mismatch" in result.output
