"""Checkpoint persistence: a self-describing directory with a manifest,
binary tensor blobs and the item-path mapping.

Tensor blob layout (little-endian throughout):
    8-byte magic | uint32 ndim | uint32 dims... | float32 payload | uint32 crc32
with the checksum covering everything before it. The manifest additionally
records a sha256 per file so corruption anywhere is detected on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np

from .core import AffineLayer
from .reranker import SoftmaxModel
from .retrieval import ItemPathMapping, path_codes
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
    if len(body) < 12 + 4 * ndim:
        raise CorruptionError(f"{path}: {ndim} dims run past the end")
    shape = struct.unpack_from(f"<{ndim}I", body, 12)
    payload = body[12 + 4 * ndim:]
    expected = 4 * math.prod(shape)
    if len(payload) != expected:
        raise CorruptionError(f"{path}: payload size {len(payload)} != {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


#: `write_mapping` formats this many rows at a time.
_WRITE_BLOCK = 1 << 14


def write_mapping(path, mapping: ItemPathMapping) -> None:
    """Write `mapping` in the `read_mapping` format."""
    V, J, D = mapping.paths.shape
    row_format = "%d\t" + ";".join(["-".join(["%d"] * D)] * J) + "\n"
    with open(path, "wb") as f:
        # A block of rows is one % format over a flat tuple of its ints.
        for lo in range(0, V, _WRITE_BLOCK):
            block = mapping.paths[lo:lo + _WRITE_BLOCK].reshape(-1, J * D)
            values = np.column_stack([np.arange(lo, lo + len(block)), block])
            f.write((row_format * len(block) % tuple(values.ravel().tolist())).encode())
        if not V:
            f.write(b"\n")


#: What a mapping file holds besides digits, and a table that blanks it.
_MAPPING_SEPARATORS = b"\t-;\n"
_SEPARATORS_TO_SPACES = bytes.maketrans(_MAPPING_SEPARATORS, b" " * 4)


def read_mapping(path, cfg: StructureConfig) -> ItemPathMapping:
    """The mapping of a `write_mapping` file.

    The file holds digits, tabs, '-', ';' and newlines only: row v is
    `v<TAB>path;path;...` with `cfg.paths_per_item` distinct paths, each
    `cfg.depth` nodes in [0, `cfg.num_nodes`) joined by '-', and rows come
    in item order. Blank lines are skipped and the last newline is
    optional. Anything else raises CorruptionError.
    """
    K, J, D = cfg.num_nodes, cfg.paths_per_item, cfg.depth
    raw = Path(path).read_bytes()
    if raw.translate(None, b"0123456789" + _MAPPING_SEPARATORS):
        raise CorruptionError(f"{path}: holds a byte other than digits, tab, '-', ';' "
                              "and newline")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    # The newline that ends a blank line follows a newline. Position 0
    # follows the file's last byte, a newline.
    buf = np.frombuffer(raw, dtype=np.uint8)
    is_sep = (buf < ord("0")) | (buf > ord("9"))
    seps, before = buf[is_sep], np.roll(buf, 1)[is_sep]
    seps = seps[(seps != ord("\n")) | (before != ord("\n"))]
    del buf, is_sep, before
    # Every row's separators are the same J*D + 1.
    row = np.frombuffer(b"\t" + b";".join([b"-" * (D - 1)] * J) + b"\n", dtype=np.uint8)
    if seps.size % row.size or np.any(seps.reshape(-1, row.size) != row):
        raise CorruptionError(f"{path}: a row that is not item<TAB> then {J} paths "
                              f"of {D} nodes")
    # One number precedes each separator: with as many numbers as
    # separators, none is missing. (fromstring reads blank lines as one 0.)
    numbers = np.fromstring(raw.translate(_SEPARATORS_TO_SPACES), dtype=np.int64,
                            sep=" ") if seps.size else np.zeros(0, dtype=np.int64)
    del raw
    if numbers.size != seps.size or np.any(numbers == np.iinfo(np.int64).max):
        raise CorruptionError(f"{path}: a number missing or too large to read")
    numbers = numbers.reshape(-1, row.size)
    del seps
    wrong = np.flatnonzero(numbers[:, 0] != np.arange(numbers.shape[0]))
    if wrong.size:
        raise CorruptionError(
            f"{path}: row of item {numbers[wrong[0], 0]} where item {wrong[0]} belongs")
    top = int(numbers[:, 1:].max(initial=0))
    if top >= K:
        raise CorruptionError(f"{path}: node {top} outside [0, {K})")
    paths = numbers[:, 1:].astype(np.min_scalar_type(top)).reshape(-1, J, D)
    del numbers
    codes = np.sort(path_codes(paths, K), axis=1)
    twice = np.flatnonzero((codes[:, 1:] == codes[:, :-1]).any(axis=1))
    if twice.size:
        raise CorruptionError(f"{path}: item {twice[0]} holds a path twice")
    del codes
    return ItemPathMapping.from_assignments(paths)


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
        manifest = {
            "format_version": FORMAT_VERSION,
            "config": dataclasses.asdict(trained.cfg),
            "extra_config": extra_config or {},
            "num_items": trained.num_items,
            "item_ids": list(trained.item_ids),
            "tensors": tensor_meta,
            "files": {
                "mapping": {"file": "mapping.tsv", "sha256": _sha256(tmp / "mapping.tsv")},
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
    for key in ("tensors", "files"):
        if not isinstance(manifest[key], dict):
            raise CorruptionError(f"manifest.json: {key} is not a JSON object")
    # Older checkpoints also list scores.tsv: it is verified, never read.
    for meta in list(manifest["tensors"].values()) + list(manifest["files"].values()):
        if _sha256(root / meta["file"]) != meta["sha256"]:
            raise CorruptionError(f"{meta['file']}: sha256 mismatch")
    cfg = StructureConfig(**manifest["config"])
    num_items, item_ids = manifest["num_items"], manifest["item_ids"]
    if type(num_items) is not int:
        raise CorruptionError(f"manifest.json: num_items {num_items!r} is not an integer")
    if not isinstance(item_ids, list) or not set(map(type, item_ids)) <= {int}:
        raise CorruptionError("manifest.json: item_ids is not a list of integers")
    if len(item_ids) != num_items:
        raise CorruptionError(f"manifest.json: {len(item_ids)} item ids for {num_items} items")
    if len(set(item_ids)) != num_items:
        raise CorruptionError("manifest.json: item_ids repeats an id")
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
    mapping = read_mapping(root / manifest["files"]["mapping"]["file"], cfg)
    if mapping.num_items != num_items:
        raise CorruptionError(f"mapping.tsv: {mapping.num_items} rows for {num_items} items")
    return TrainedModel(cfg=cfg, params=params, model=model, mapping=mapping,
                        item_ids=item_ids)
