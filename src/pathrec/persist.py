"""Checkpoint persistence: a self-describing directory with a manifest,
binary tensor blobs, the item-path mapping and the score table.

Tensor blob layout (little-endian throughout):
    8-byte magic | uint32 ndim | uint32 dims... | float32 payload | uint32 crc32
with the checksum covering everything before it. The manifest additionally
records a sha256 per file so corruption anywhere is detected on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np

from .core import AffineLayer
from .em import ScoreTable
from .reranker import SoftmaxModel
from .retrieval import ItemPathMapping
from .structure import StructureConfig, StructureParams
from .trained import TrainedModel

TENSOR_MAGIC = b"PATHTNSR"
FORMAT_VERSION = 1


class CorruptionError(RuntimeError):
    """A blob failed its checksum or is structurally damaged."""


class MigrationError(RuntimeError):
    """The checkpoint was written by an incompatible format version."""


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    body = header + arr.tobytes()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + struct.pack("<I", crc))


def read_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < len(TENSOR_MAGIC) + 8 or raw[:8] != TENSOR_MAGIC:
        raise CorruptionError(f"{path}: bad magic or truncated header")
    body, crc_bytes = raw[:-4], raw[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptionError(f"{path}: checksum mismatch")
    ndim = struct.unpack_from("<I", body, 8)[0]
    shape = struct.unpack_from(f"<{ndim}I", body, 12)
    payload = body[12 + 4 * ndim:]
    expected = 4 * int(np.prod(shape)) if ndim else 4
    if len(payload) != expected:
        raise CorruptionError(f"{path}: payload size {len(payload)} != {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _format_path(path) -> str:
    return "-".join(str(c) for c in path)


def _parse_path(text: str):
    return tuple(map(int, text.split("-")))


def write_mapping(path, mapping: ItemPathMapping) -> None:
    lines = []
    for item, paths in enumerate(mapping.assignments):
        lines.append(f"{item}\t" + ";".join(_format_path(p) for p in paths))
    Path(path).write_text("\n".join(lines) + "\n")


def read_mapping(path) -> ItemPathMapping:
    """The mapping of a `write_mapping` file, whose rows are in item order."""
    assignments: list = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item_text, paths_text = line.split("\t")
        if int(item_text) != len(assignments):
            raise CorruptionError(
                f"{path}: row of item {item_text} where item {len(assignments)} belongs")
        assignments.append(tuple(map(_parse_path, paths_text.split(";"))))
    return ItemPathMapping.from_assignments(assignments)


def write_scores(path, table: ScoreTable) -> None:
    lines = [f"#capacity\t{table.capacity}"]
    for item in sorted(table.scores):
        entries = table.top_paths(item)
        count = table.counts.get(item, 0.0)
        body = ";".join(f"{_format_path(p)}={s.hex()}" for p, s in entries)
        lines.append(f"{item}\t{count.hex()}\t{body}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path) -> ScoreTable:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#capacity\t"):
        raise CorruptionError(f"{path}: missing capacity header")
    table = ScoreTable(int(lines[0].split("\t")[1]))
    for line in lines[1:]:
        if not line.strip():
            continue
        item_text, count_text, body = line.split("\t")
        item = int(item_text)
        table.counts[item] = float.fromhex(count_text)
        entries = {}
        if body:
            for part in body.split(";"):
                path_text, score_text = part.split("=")
                entries[_parse_path(path_text)] = float.fromhex(score_text)
        table.scores[item] = entries
    return table


def check_replaceable(directory) -> None:
    """Raise FileExistsError unless `directory` is absent, an empty directory
    or a checkpoint (holding manifest.json): what `save_checkpoint` replaces."""
    root = Path(directory)
    if root.exists() and not (root / "manifest.json").is_file() and \
            (not root.is_dir() or any(root.iterdir())):
        raise FileExistsError(
            f"{root}: neither a checkpoint nor an empty directory; not replacing it")


def save_checkpoint(directory, trained: TrainedModel,
                    extra_config: dict | None = None) -> None:
    """Write a complete checkpoint, deterministic byte-for-byte given the
    same model state, into a temp directory beside `directory` that then
    takes its place: a failed write leaves an earlier checkpoint whole, and
    no file of an earlier model survives a successful one."""
    root = Path(directory).resolve()
    check_replaceable(root)
    tmp = root.with_name(f".{root.name}.{uuid.uuid4().hex[:12]}")
    old = tmp.with_name(tmp.name + ".old")
    try:
        (tmp / "tensors").mkdir(parents=True)
        tensors = dict(trained.params.tensor_dict())
        tensors["out_emb"] = trained.model.out_emb
        tensor_meta = {}
        for name, arr in tensors.items():
            rel = f"tensors/{name}.bin"
            write_tensor(tmp / rel, arr)
            tensor_meta[name] = {"file": rel, "shape": list(arr.shape),
                                 "sha256": _sha256(tmp / rel)}
        write_mapping(tmp / "mapping.tsv", trained.mapping)
        write_scores(tmp / "scores.tsv", trained.table)
        manifest = {
            "format_version": FORMAT_VERSION,
            "config": dataclasses.asdict(trained.cfg),
            "extra_config": extra_config or {},
            "num_items": trained.num_items,
            "item_ids": list(trained.item_ids),
            "tensors": tensor_meta,
            "files": {
                "mapping": {"file": "mapping.tsv", "sha256": _sha256(tmp / "mapping.tsv")},
                "scores": {"file": "scores.tsv", "sha256": _sha256(tmp / "scores.tsv")},
            },
        }
        (tmp / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        if root.exists():
            root.rename(old)
        tmp.rename(root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(directory) -> TrainedModel:
    """Read a checkpoint; a damaged or incomplete one raises CorruptionError."""
    root = Path(directory)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except ValueError as exc:
        raise CorruptionError(f"manifest.json: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CorruptionError("manifest.json: not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise MigrationError(
            f"checkpoint version {manifest.get('format_version')} != {FORMAT_VERSION}")
    try:
        return _load_verified(root, manifest)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(
            f"manifest.json: missing or malformed entry ({exc!r})") from exc


def _tensor_shapes(cfg: StructureConfig, num_items: int) -> dict:
    """Name -> shape of every tensor a checkpoint of this config holds."""
    E, K, H = cfg.emb_dim, cfg.num_nodes, cfg.mlp_hidden
    shapes = {"item_emb": (num_items, E), "node_emb": (cfg.depth, K, E),
              "out_emb": (num_items, E)}
    for d in range(cfg.depth):
        shapes.update({f"mlp{d}_w1": (H, E * (d + 1)), f"mlp{d}_b1": (H,),
                       f"mlp{d}_w2": (K, H), f"mlp{d}_b2": (K,)})
    return shapes


def _load_verified(root: Path, manifest: dict) -> TrainedModel:
    for meta in list(manifest["tensors"].values()) + list(manifest["files"].values()):
        if _sha256(root / meta["file"]) != meta["sha256"]:
            raise CorruptionError(f"{meta['file']}: sha256 mismatch")
    cfg = StructureConfig(**manifest["config"])
    num_items = manifest["num_items"]
    if len(manifest["item_ids"]) != num_items:
        raise CorruptionError(f"manifest.json: {len(manifest['item_ids'])} item ids "
                              f"for {num_items} items")
    tensors = {name: read_tensor(root / meta["file"])
               for name, meta in manifest["tensors"].items()}
    want = _tensor_shapes(cfg, num_items)
    got = {name: arr.shape for name, arr in tensors.items()}
    if got != want:
        bad = sorted(n for n in want.keys() | got.keys() if got.get(n) != want.get(n))
        raise CorruptionError(f"tensors {bad} do not have the shapes that the "
                              f"config and {num_items} items imply")
    mlps = []
    for d in range(cfg.depth):
        mlps.append((AffineLayer(tensors[f"mlp{d}_w1"], tensors[f"mlp{d}_b1"]),
                     AffineLayer(tensors[f"mlp{d}_w2"], tensors[f"mlp{d}_b2"])))
    params = StructureParams(cfg, num_items, tensors["item_emb"],
                             tensors["node_emb"], mlps)
    model = SoftmaxModel(tensors["out_emb"])
    mapping = read_mapping(root / manifest["files"]["mapping"]["file"])
    if mapping.num_items != num_items:
        raise CorruptionError(f"mapping.tsv: {mapping.num_items} rows for {num_items} items")
    table = read_scores(root / manifest["files"]["scores"]["file"])
    return TrainedModel(cfg=cfg, params=params, model=model, mapping=mapping,
                        table=table, item_ids=manifest["item_ids"])
