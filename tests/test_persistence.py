import hashlib
import json
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from pathrec import persist
from pathrec.persist import (TENSOR_MAGIC, CorruptionError, MigrationError,
                             load_checkpoint, read_mapping, read_tensor,
                             save_checkpoint, write_mapping, write_tensor)
from pathrec.reranker import SoftmaxModel
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import StructureConfig, StructureParams
from pathrec.trained import TrainedModel


def make_trained(seed=0, num_items=12, depth=2):
    cfg = StructureConfig(num_nodes=3, depth=depth, paths_per_item=2, beam_size=4,
                          score_capacity=4, penalty_alpha=1e-4, emb_dim=4)
    params = StructureParams.init_random(cfg, num_items, substream(seed, "init"))
    model = SoftmaxModel.init_random(num_items, cfg.emb_dim,
                                     substream(seed, "softmax"))
    mapping = ItemPathMapping.random_init(cfg, num_items,
                                          substream(seed, "mapping"))
    table = reference.score_table({0: {(0, 1): 0.25, (2, 2): 1.5}, 5: {(1, 0): 1e-9}},
                                  {0: 3.0, 5: 0.125}, num_items, 3, 2,
                                  capacity=cfg.score_capacity)
    return TrainedModel(cfg=cfg, params=params, model=model, mapping=mapping,
                        table=table, item_ids=list(range(100, 100 + num_items)))


def test_tensor_round_trip_shapes(tmp_path):
    for shape in [(3,), (2, 4), (2, 3, 4)]:
        arr = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == shape
        np.testing.assert_allclose(back, arr.astype(np.float32), rtol=0)


def test_tensor_byte_layout(tmp_path):
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    path = tmp_path / "t.bin"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:8] == TENSOR_MAGIC
    assert struct.unpack_from("<I", raw, 8)[0] == 2          # ndim
    assert struct.unpack_from("<II", raw, 12) == (1, 2)      # dims
    assert np.frombuffer(raw[20:28], dtype="<f4").tolist() == [1.0, 2.0]
    assert len(raw) == 8 + 4 + 8 + 8 + 4                     # + crc32


def test_tensor_detects_truncation_and_bitflip(tmp_path):
    arr = np.ones((4, 4))
    path = tmp_path / "t.bin"
    write_tensor(path, arr)
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(raw[:-5]))
    with pytest.raises(CorruptionError):
        read_tensor(path)
    flipped = bytearray(raw)
    flipped[25] ^= 0x40
    path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptionError):
        read_tensor(path)
    path.write_bytes(b"WRONGMAG" + bytes(raw[8:]))
    with pytest.raises(CorruptionError):
        read_tensor(path)
    # Headers under a right checksum whose sizes lie: dims that run past the
    # blob's end, and dims whose product wraps int64 over an empty payload.
    for header in ((2**20, 4, 4), (2**31,), (3, 2**31, 2**31, 4)):
        body = TENSOR_MAGIC + struct.pack(f"<{len(header)}I", *header)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptionError):
            read_tensor(path)


def mapping_cfg(K, D, J):
    return StructureConfig(num_nodes=K, depth=D, paths_per_item=J, beam_size=1,
                           score_capacity=J, penalty_alpha=0.0)


def test_mapping_text_format(tmp_path):
    mapping = ItemPathMapping.from_assignments([((3, 1, 7), (0, 0, 2)),
                                                ((5, 5, 5), (0, 0, 2))])
    path = tmp_path / "mapping.tsv"
    write_mapping(path, mapping)
    lines = path.read_text().splitlines()
    assert lines[0] == "0\t3-1-7;0-0-2"
    assert lines[1] == "1\t5-5-5;0-0-2"
    back = read_mapping(path, mapping_cfg(8, 3, 2))
    assert back.assignments == mapping.assignments
    assert back.path_sizes == mapping.path_sizes


def test_mapping_rows_out_of_order_are_corruption(tmp_path):
    path = tmp_path / "mapping.tsv"
    path.write_text("0\t0-1\n2\t1-1\n")
    with pytest.raises(CorruptionError, match="item 1"):
        read_mapping(path, mapping_cfg(3, 2, 1))


# Per example a depth D and J, then per item J distinct paths of D nodes up
# to 999.
SHAPED_ASSIGNMENTS = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(
        st.lists(st.tuples(*[st.integers(0, 999)] * shape[0]), min_size=shape[1],
                 max_size=shape[1], unique=True).map(tuple), max_size=12)))


@settings(max_examples=80, deadline=None)
@given(SHAPED_ASSIGNMENTS, st.data())
def test_mapping_file_matches_per_line_oracle(tmp_path_factory, drawn, data):
    (D, J), assignments = drawn
    cfg = mapping_cfg(1000, D, J)
    path = tmp_path_factory.mktemp("mapping") / "mapping.tsv"
    write_mapping(path, ItemPathMapping.from_assignments(assignments))
    text = path.read_text()
    assert text == reference.mapping_text(assignments)
    assert read_mapping(path, cfg).assignments == assignments
    # Blank lines anywhere and a missing last newline read the same.
    lines = text.splitlines()
    for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
    path.write_text(text)
    assert read_mapping(path, cfg).assignments == reference.parse_mapping(text) == assignments


@pytest.mark.parametrize("text", [
    "0\t1-2;3\n", "0\t1-2;\n", "0\t\n", "\t1-2\n", "0\t1--2\n", "0\t1-2\t3\n",
    "0\n", "0-1\t1-2\n", "0\t1-2;3-4\n1\t5-6;\n", "0\t1-x\n", "0\t1 2\n",
    "0\t1-2\r\n", "0\t\uff11-2\n", "0\t99999999999999999999-1\n",
    "0\t4294967296-4294967296-4294967296\n"])
def test_mapping_grammar_violations_are_corruption(tmp_path, text):
    path = tmp_path / "mapping.tsv"
    path.write_text(text)
    with pytest.raises(CorruptionError, match="mapping.tsv"):
        read_mapping(path, mapping_cfg(3, 2, 1))


def test_checkpoint_round_trip(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained)
    back = load_checkpoint(tmp_path / "ckpt")
    assert back.cfg == trained.cfg
    assert back.item_ids == trained.item_ids
    assert back.mapping.assignments == trained.mapping.assignments
    assert back.table is None               # training state, not saved
    for name, arr in trained.params.tensor_dict().items():
        np.testing.assert_array_equal(back.params.tensor_dict()[name],
                                      arr.astype(np.float32))
    np.testing.assert_array_equal(back.model.out_emb,
                                  trained.model.out_emb.astype(np.float32))


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "a", trained)
    save_checkpoint(tmp_path / "b", trained)
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()


def _saved_files(ckpt):
    return {p.relative_to(ckpt).as_posix(): p.read_bytes()
            for p in ckpt.rglob("*") if p.is_file()}


def test_checkpoint_reload_of_reload_is_identical(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "a", trained)
    save_checkpoint(tmp_path / "b", load_checkpoint(tmp_path / "a"))
    assert _saved_files(tmp_path / "a") == _saved_files(tmp_path / "b")


def test_checkpoint_holds_the_manifest_mapping_and_tensors_only(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained)
    tensors = {f"tensors/{name}.bin" for name in trained.params.tensor_dict()}
    assert set(_saved_files(tmp_path / "ckpt")) == \
        {"manifest.json", "mapping.tsv", "tensors/out_emb.bin", *tensors}
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert list(manifest["files"]) == ["mapping"]


def test_checkpoint_with_a_listed_score_table_still_loads(tmp_path):
    # Older checkpoints also list the training score table, scores.tsv: it
    # is checked by its sha256 and not read.
    save_checkpoint(tmp_path / "ckpt", make_trained())
    want = load_checkpoint(tmp_path / "ckpt")
    scores = tmp_path / "ckpt" / "scores.tsv"
    scores.write_text("#capacity\t4\n0\t0x1.8000000000000p+1\t0-1=0x1.0p-2;2-2=0x1.8p+0\n")
    _edit_manifest(tmp_path / "ckpt", lambda m: m["files"].update(
        scores={"file": "scores.tsv",
                "sha256": hashlib.sha256(scores.read_bytes()).hexdigest()}))
    back = load_checkpoint(tmp_path / "ckpt")
    assert back.mapping.assignments == want.mapping.assignments
    assert back.table is None
    for name, arr in want.params.tensor_dict().items():
        np.testing.assert_array_equal(back.params.tensor_dict()[name], arr)
    np.testing.assert_array_equal(back.model.out_emb, want.model.out_emb)
    scores.write_text("#capacity\t4\n")
    with pytest.raises(CorruptionError, match=r"scores\.tsv: sha256 mismatch"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_detects_tampered_blob(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained)
    target = tmp_path / "ckpt" / "tensors" / "item_emb.bin"
    raw = bytearray(target.read_bytes())
    raw[30] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_detects_tampered_mapping(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained)
    target = tmp_path / "ckpt" / "mapping.tsv"
    target.write_text(target.read_text().replace("0-", "1-", 1))
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_version_mismatch(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(MigrationError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_truncated_manifest_is_corruption(tmp_path):
    save_checkpoint(tmp_path / "ckpt", make_trained())
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest_path.write_text(manifest_path.read_text()[:-20])
    with pytest.raises(CorruptionError, match="manifest.json"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("key", ["tensors", "files", "config", "item_ids"])
def test_checkpoint_manifest_missing_key_is_corruption(tmp_path, key):
    save_checkpoint(tmp_path / "ckpt", make_trained())
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest[key]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptionError, match=key):
        load_checkpoint(tmp_path / "ckpt")


def _fix_sha256(ckpt, rel):
    manifest_path = ckpt / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for meta in [*manifest["tensors"].values(), *manifest["files"].values()]:
        if meta["file"] == rel:
            meta["sha256"] = hashlib.sha256((ckpt / rel).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _edit_manifest(ckpt, change):
    manifest_path = ckpt / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    change(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _extra_mapping_rows(ckpt):
    with open(ckpt / "mapping.tsv", "a") as f:
        f.writelines(f"{v}\t0-0;1-1\n" for v in range(12, 15))
    _fix_sha256(ckpt, "mapping.tsv")


def _missing_mapping_row(ckpt):
    path = ckpt / "mapping.tsv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    _fix_sha256(ckpt, "mapping.tsv")


def _first_mapping_row(row):
    def damage(ckpt):
        path = ckpt / "mapping.tsv"
        path.write_text(row + "\n" + path.read_text().split("\n", 1)[1])
        _fix_sha256(ckpt, "mapping.tsv")
    return damage


def _rewrite_tensor(name, shape):
    def damage(ckpt):
        write_tensor(ckpt / "tensors" / f"{name}.bin", np.zeros(shape))
        _fix_sha256(ckpt, f"tensors/{name}.bin")
    return damage


def _extra_tensor(ckpt):
    _edit_manifest(ckpt, lambda m: m["tensors"].update(bogus=m["tensors"]["item_emb"]))


# Each damage leaves every sha256 right, so only the parts' agreement is wrong.
@pytest.mark.parametrize("damage, message", [
    (_extra_mapping_rows, "mapping.tsv: 15 rows for 12 items"),
    (_missing_mapping_row, "mapping.tsv: 11 rows for 12 items"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["item_ids"].pop()),
     "11 item ids for 12 items"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(num_items=13)),
     "12 item ids for 13 items"),
    (_rewrite_tensor("out_emb", (13, 4)), "tensors ['out_emb']"),
    (_rewrite_tensor("item_emb", (12, 5)), "tensors ['item_emb']"),
    (_rewrite_tensor("mlp1_w1", (12, 4)), "tensors ['mlp1_w1']"),
    (_rewrite_tensor("node_emb", (3, 3, 4)), "tensors ['node_emb']"),
    (_extra_tensor, "tensors ['bogus']"),
    (_first_mapping_row("0\t9-9;0-1"), "mapping.tsv: node 9 outside [0, 3)"),
    (_first_mapping_row("0\t1-2-0;0-1"),
     "mapping.tsv: a row that is not item<TAB> then 2 paths of 2 nodes"),
    (_first_mapping_row("0\t1-1;1-1"), "mapping.tsv: item 0 holds a path twice"),
    (_first_mapping_row("0\t1-1"),
     "mapping.tsv: a row that is not item<TAB> then 2 paths of 2 nodes"),
    (_first_mapping_row("0\t1-x;0-1"), "mapping.tsv: holds a byte other than digits"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(tensors=[])),
     "manifest.json: tensors is not a JSON object"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(files=[])),
     "manifest.json: files is not a JSON object"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(num_items="12")),
     "manifest.json: num_items '12' is not an integer"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(num_items=12.0)),
     "manifest.json: num_items 12.0 is not an integer"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(item_ids={"0": 100})),
     "manifest.json: item_ids is not a list of integers"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["item_ids"].__setitem__(3, [103])),
     "manifest.json: item_ids is not a list of integers"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["item_ids"].__setitem__(11, 100)),
     "manifest.json: item_ids repeats an id"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(beam_size=True)),
     "beam_size must be an integer, not True"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(penalty_alpha=False)),
     "penalty_alpha must be a finite number, not False"),
    (lambda ckpt: _edit_manifest(ckpt, lambda m: m["config"].update(depth=2.0)),
     "depth must be an integer, not 2.0"),
], ids=["extra_rows", "missing_row", "short_item_ids", "num_items", "out_emb_rows",
        "item_emb_width", "mlp_in_width", "node_emb_depth", "extra_tensor",
        "node_range", "path_depth", "path_twice", "path_count", "mapping_token",
        "tensors_list", "files_list", "num_items_text", "num_items_float",
        "item_ids_object", "item_id_list", "item_id_duplicate", "config_bool",
        "config_float_bool", "config_float"])
def test_checkpoint_parts_must_agree(tmp_path, damage, message):
    save_checkpoint(tmp_path / "ckpt", make_trained())
    damage(tmp_path / "ckpt")
    with pytest.raises(CorruptionError, match=re.escape(message)):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_extra_config_preserved(tmp_path):
    trained = make_trained()
    save_checkpoint(tmp_path / "ckpt", trained, extra_config={"seed": 7})
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert manifest["extra_config"] == {"seed": 7}


def test_checkpoint_overwrite_leaves_no_stale_files(tmp_path):
    save_checkpoint(tmp_path / "ckpt", make_trained(depth=3))
    assert (tmp_path / "ckpt" / "tensors" / "mlp2_w1.bin").exists()
    save_checkpoint(tmp_path / "ckpt", make_trained(depth=2))
    save_checkpoint(tmp_path / "fresh", make_trained(depth=2))
    files = sorted(p.relative_to(tmp_path / "ckpt")
                   for p in (tmp_path / "ckpt").rglob("*"))
    assert files == sorted(p.relative_to(tmp_path / "fresh")
                           for p in (tmp_path / "fresh").rglob("*"))
    assert load_checkpoint(tmp_path / "ckpt").cfg.depth == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "fresh"]


def test_checkpoint_failed_write_keeps_the_old_one(tmp_path, monkeypatch):
    old = make_trained(seed=0)
    save_checkpoint(tmp_path / "ckpt", old)

    def fail(path, mapping):
        Path(path).write_text("half")
        raise OSError("disk full")

    monkeypatch.setattr(persist, "write_mapping", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", make_trained(seed=1))
    back = load_checkpoint(tmp_path / "ckpt")
    assert back.mapping.assignments == old.mapping.assignments
    np.testing.assert_array_equal(back.model.out_emb,
                                  old.model.out_emb.astype(np.float32))
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_checkpoint_replaces_only_a_checkpoint_or_an_empty_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    save_checkpoint(tmp_path / "empty", make_trained())
    assert load_checkpoint(tmp_path / "empty").num_items == 12
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "keep.txt").write_text("mine")
    (tmp_path / "file").write_text("mine")
    for name in ("other", "file"):
        with pytest.raises(FileExistsError):
            save_checkpoint(tmp_path / name, make_trained())
    assert (tmp_path / "other" / "keep.txt").read_text() == "mine"
    assert (tmp_path / "file").read_text() == "mine"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "file", "other"]
