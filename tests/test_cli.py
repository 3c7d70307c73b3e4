import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pathrec
from pathrec.cli import cli
from pathrec.data import synth_clusters, write_interactions_csv
from pathrec.persist import TENSOR_MAGIC, load_checkpoint


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


def test_train_refuses_to_replace_other_files(corpus60, tmp_path):
    target = tmp_path / "notes"
    target.mkdir()
    (target / "keep.txt").write_text("mine")
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus60),
                                      "--output", str(target), "--epochs", "1"])
    assert result.exit_code == 2
    assert "neither a checkpoint nor an empty directory" in result.output
    assert [p.name for p in target.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("config, message", [
    ({"training": {"bogus": 1}}, "unknown training keys ['bogus']"),
    ({"structure": [1, 2]}, "section 'structure' must be a JSON object"),
    ({"training": {"epochs": "2"}}, "not supported between"),
    ({"training": {"learning_rate": 0}}, "learning_rate must be positive"),
    ({"structure": {"hidden_width": 0}}, "hidden_width must be >= 1"),
    ({"structure": {"hidden_width": -3}}, "hidden_width must be >= 1"),
    ({"training": {"optimizer": "adam", "softmax_weight": 1.0, "structure_weight": 1.0}},
     "unknown training keys ['optimizer', 'softmax_weight', 'structure_weight']"),
    ({"structure": {"depth": 2.0}}, "depth must be an integer, not 2.0"),
    ({"structure": {"beam_size": True, "depth": True}}, "depth must be an integer, not True"),
    ({"training": {"batch_size": 2.5}}, "batch_size must be an integer, not 2.5"),
    ({"training": {"learning_rate": float("nan")}}, "learning_rate must be a finite number"),
    ({"structure": {"penalty_alpha": float("inf")}}, "penalty_alpha must be a finite number"),
])
def test_train_bad_config_file_is_usage_error(corpus60, tmp_path, config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = CliRunner().invoke(cli, ["train", "--input", str(corpus60),
                                      "--output", str(tmp_path / "ck"),
                                      "--config", str(config_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [error] = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert message in error
    assert "Traceback" not in result.output
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("command, args, message", [
    ("retrieve", ["--user-seq", "1,2", "--beam", "0"], "'--beam': 0 is not in the range x>=1"),
    ("retrieve", ["--user-seq", "1,2", "--beam", "-2"], "'--beam': -2 is not in the range x>=1"),
    ("evaluate", ["--beam", "0"], "'--beam': 0 is not in the range x>=1"),
    ("evaluate", ["--k", "0"], "'--k': 0 is not in the range x>=1"),
    ("evaluate", ["--k", "101"], "k=101 exceeds corpus size 100"),
    ("evaluate", ["--test-users", "100000"], "leave no training user among 120"),
    ("train", ["--test-users", "100000"], "leave no training user among 120"),
    ("train", ["--val-users", "-1"], "'--val-users': -1 is not in the range x>=0"),
    ("bench", ["--synthetic-items", "-5"], "'--synthetic-items': -5 is not in the range x>=1"),
])
def test_bad_flag_value_is_usage_error(corpus, checkpoint, tmp_path, command, args, message):
    source = {"retrieve": ["--checkpoint", str(checkpoint)],
              "evaluate": ["--checkpoint", str(checkpoint), "--input", str(corpus)],
              "train": ["--input", str(corpus), "--output", str(tmp_path / "ck"),
                        "--negatives", "20"],
              "bench": []}[command]
    result = CliRunner().invoke(cli, [command] + source + args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [error] = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert message in error
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("command, args, message", [
    ("synth", ["--clusters", "0"], "'--clusters': 0 is not in the range x>=1"),
    ("synth", ["--items-per-cluster", "0"], "'--items-per-cluster': 0 is not in the range x>=1"),
    ("synth", ["--users", "-1"], "'--users': -1 is not in the range x>=1"),
    ("synth", ["--interactions-per-user", "0"],
     "'--interactions-per-user': 0 is not in the range x>=1"),
    ("synth", ["--mixture", "1.5"], "'--mixture': 1.5 is not in the range 0.0<=x<=1.0"),
    ("synth", ["--seed", "-1"], "'--seed': -1 is not in the range x>=0"),
    ("train", ["--seed", "-1"], "'--seed': -1 is not in the range x>=0"),
    ("evaluate", ["--seed", "-1"], "'--seed': -1 is not in the range x>=0"),
    ("bench", ["--synthetic-items", "2000", "--seed", "-1"],
     "'--seed': -1 is not in the range x>=0"),
    ("bench", ["--synthetic-items", "2000", "--queries", "999"],
     "'--queries': 999 is not in the range 1000<=x<=100000"),
    ("bench", ["--synthetic-items", "2000", "--queries", "1000000000"],
     "'--queries': 1000000000 is not in the range 1000<=x<=100000"),
    ("bench", ["--synthetic-items", "2000", "--k", "0"], "'--k': 0 is not in the range x>=1"),
    ("bench", ["--synthetic-items", "2000", "--beam", "0"],
     "'--beam': 0 is not in the range x>=1"),
])
def test_out_of_range_count_or_seed_is_one_line_usage_error(corpus, checkpoint, tmp_path,
                                                            command, args, message):
    source = {"synth": ["--output", str(tmp_path / "out.csv")],
              "evaluate": ["--checkpoint", str(checkpoint), "--input", str(corpus)],
              "train": ["--input", str(corpus), "--output", str(tmp_path / "ck")],
              "bench": []}[command]
    result = CliRunner().invoke(cli, [command] + source + args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        [f"Error: Invalid value for {message}."]
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "ck").exists()


# Each size is far above any machine's memory, so its allocation fails at
# once; a size near the memory would be filled instead.
@pytest.mark.parametrize("command, args, names", [
    ("train", ["--score-capacity", "1000000000"], "score_capacity=1000000000"),
    ("train", ["--hidden-width", "100000000000"], "hidden_width=100000000000"),
    ("bench", ["--synthetic-items", "1000000000000"], "1000000000000 synthetic items"),
])
def test_model_too_large_to_allocate_is_one_line_error(corpus60, tmp_path, command, args,
                                                       names):
    source = {"train": ["--input", str(corpus60), "--output", str(tmp_path / "ck"),
                        "--epochs", "1", "--negatives", "10"],
              "bench": []}[command]
    result = CliRunner().invoke(cli, [command] + source + args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [error] = result.output.splitlines()
    assert error.startswith("Error: cannot allocate a model of ")
    assert names in error and "StructureConfig(" in error
    assert "Traceback" not in result.output
    assert not (tmp_path / "ck").exists()


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


CSV_HEAD = b"user_id,item_id,rating,timestamp\n" + b"1,2,5.0,1\n" * 2000
BAD_CSVS = {
    # Line 2002 holds a byte that is not UTF-8, some 20 kB in: the file is
    # decoded in chunks, ahead of the rows read.
    "not_utf8": (CSV_HEAD + b"1,\xff3,5.0,2\n1,4,5.0,3\n", "line 2002: not UTF-8"),
    # Line 2002 opens a quoted field longer than the csv module's limit.
    "long_field": (CSV_HEAD + b"1,\"" + b"7" * 131_073 + b"\",5.0,3\n",
                   "line 2002: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("bad", sorted(BAD_CSVS))
@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate"])
def test_unreadable_csv_is_one_line_error(checkpoint, tmp_path, command, bad):
    raw, message = BAD_CSVS[bad]
    path = tmp_path / "corpus.csv"
    path.write_bytes(raw)
    args = {"preprocess": ["--output", str(tmp_path / "out.csv")],
            "train": ["--output", str(tmp_path / "ck")],
            "evaluate": ["--checkpoint", str(checkpoint)]}[command]
    result = CliRunner().invoke(cli, [command, "--input", str(path)] + args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"Error: {path}: {message}"]
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "ck").exists()


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
    for key, stat in (("speedup", "mean_ms"), ("speedup_median", "median_ms"),
                      ("speedup_p99", "p99_ms")):
        assert event[key] == pytest.approx(
            event["brute_force"][stat] / event["structure"][stat])


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
    sizes = list(load_checkpoint(checkpoint).mapping.path_sizes.values())
    assert (event["nonempty_paths"], event["top_path_size"], event["mean_path_size"]) == \
        (len(sizes), max(sizes), sum(sizes) / len(sizes))
    assert event["load_s"] > 0
    assert "scored_items" not in event      # the score table is not saved


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


@pytest.mark.parametrize("header", [(2**31,), (3, 2**31, 2**31, 4)],
                         ids=["dims_past_end", "dims_wrap_int64"])
def test_lying_tensor_header_is_clean_error(checkpoint, tmp_path, header):
    # The blob's crc32 and the manifest's sha256 are both recomputed, so
    # only the sizes in the header are wrong.
    broken = tmp_path / "broken"
    shutil.copytree(checkpoint, broken)
    blob = broken / "tensors" / "item_emb.bin"
    body = TENSOR_MAGIC + struct.pack(f"<{len(header)}I", *header)
    blob.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["tensors"]["item_emb"]["sha256"] = hashlib.sha256(blob.read_bytes()).hexdigest()
    (broken / "manifest.json").write_text(json.dumps(manifest))
    result = CliRunner().invoke(cli, ["inspect", "--checkpoint", str(broken)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.strip().splitlines()
    assert "item_emb.bin" in line


MANIFEST_DAMAGES = {
    "drop_tensors": lambda m: m.pop("tensors"),
    "tensors_list": lambda m: m.update(tensors=[]),
    "files_list": lambda m: m.update(files=[]),
    "num_items_text": lambda m: m.update(num_items=str(m["num_items"])),
    "item_ids_object": lambda m: m.update(item_ids={str(i): i for i in m["item_ids"]}),
    "item_id_duplicate": lambda m: m["item_ids"].__setitem__(-1, m["item_ids"][0]),
}


@pytest.mark.parametrize("damage", ["truncate", *MANIFEST_DAMAGES])
def test_corrupt_manifest_is_clean_error(checkpoint, tmp_path, damage):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(checkpoint, broken)
    manifest = broken / "manifest.json"
    if damage == "truncate":
        manifest.write_text(manifest.read_text()[:40])
    else:
        content = json.loads(manifest.read_text())
        MANIFEST_DAMAGES[damage](content)
        manifest.write_text(json.dumps(content))
    result = CliRunner().invoke(cli, ["inspect", "--checkpoint", str(broken)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "manifest.json" in result.output
    assert len(result.output.strip().splitlines()) == 1


def mapping_is_valid(raw: bytes, cfg: dict, num_items: int) -> bool:
    """Whether a checkpoint of `num_items` items loads with `raw` as its
    mapping file, decided one row at a time."""
    K, J, D = cfg["num_nodes"], cfg["paths_per_item"], cfg["depth"]
    path = rb"[0-9]+" + rb"-[0-9]+" * (D - 1)
    row = re.compile(rb"[0-9]+\t" + path + (rb";" + path) * (J - 1))
    rows = [line for line in raw.split(b"\n") if line]
    if len(rows) != num_items:
        return False
    for v, line in enumerate(rows):
        if not row.fullmatch(line):
            return False
        item, paths = line.split(b"\t")
        paths = {tuple(map(int, p.split(b"-"))) for p in paths.split(b";")}
        if int(item) != v or len(paths) != J or max(map(max, paths)) >= K:
            return False
    return True


# A byte edit: what to do, where (a fraction of the file) and which byte,
# drawn mostly from the mapping alphabet so that edits reach past the
# byte check.
EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.floats(0, 1, exclude_max=True),
                           st.one_of(st.sampled_from(list(b"0123456789\t-;\n")),
                                     st.integers(0, 255))),
                 min_size=1, max_size=3)


@settings(max_examples=12, deadline=None)
@given(EDITS)
def test_corrupt_mapping_is_clean_error(checkpoint, tmp_path_factory, edits):
    # The manifest's sha256 is fixed up, so the damaged bytes reach the
    # mapping parser, run by the CLI in a process of its own.
    broken = tmp_path_factory.mktemp("broken") / "model"
    shutil.copytree(checkpoint, broken)
    raw = bytearray((broken / "mapping.tsv").read_bytes())
    for kind, where, byte in edits:
        at = int(where * len(raw))
        if kind == "replace":
            raw[at] = byte
        elif kind == "insert":
            raw.insert(at, byte)
        else:
            del raw[at]
    (broken / "mapping.tsv").write_bytes(raw)
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["files"]["mapping"]["sha256"] = hashlib.sha256(raw).hexdigest()
    (broken / "manifest.json").write_text(json.dumps(manifest))
    valid = mapping_is_valid(bytes(raw), manifest["config"], len(manifest["item_ids"]))
    env = dict(os.environ, PYTHONPATH=str(Path(pathrec.__file__).parents[1]))
    for args in (["inspect"], ["retrieve", "--user-seq", "1,2,3", "--k", "5"]):
        result = subprocess.run(
            [sys.executable, "-m", "pathrec.cli", args[0], "--checkpoint", str(broken),
             *args[1:]], capture_output=True, text=True, timeout=120, env=env)
        assert "Traceback" not in result.stdout + result.stderr
        if valid:
            assert result.returncode == 0, result.stderr
        else:
            assert result.returncode == 1, result.stdout + result.stderr
            [line] = result.stderr.strip().splitlines()
            assert "mapping.tsv" in line
