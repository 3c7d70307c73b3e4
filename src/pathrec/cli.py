"""Command-line surface.

All stat and metric output is line-delimited JSON on stdout. Every command
takes `--seed`; runs are deterministic given seed and configuration.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import click

from . import bench as bench_mod
from . import data as data_mod
from . import persist
from .em import EmConfig
from .structure import StructureConfig
from .train import train_model

log = logging.getLogger(__name__)

#: Hyperparameter profiles for the two public-dataset setups.
PROFILES = {
    "movielens": {"num_nodes": 50, "depth": 3, "beam_size": 25,
                  "paths_per_item": 3, "penalty_alpha": 3e-5,
                  "score_capacity": 25},
    "amazon": {"num_nodes": 100, "depth": 3, "beam_size": 50,
               "paths_per_item": 3, "penalty_alpha": 3e-7,
               "score_capacity": 50},
}

#: The StructureConfig fields without a default there; the CLI picks these.
STRUCTURE_DEFAULTS = {
    "num_nodes": 16, "depth": 2, "paths_per_item": 2, "beam_size": 8,
    "score_capacity": 8, "penalty_alpha": 1e-4,
}


#: Every command's `--seed`: the root of all random substreams.
SEED_OPTION = click.option("--seed", default=0, show_default=True,
                           type=click.IntRange(min=0))


def emit(record: dict) -> None:
    click.echo(json.dumps(record, sort_keys=True))


def build_configs(profile, config_path, overrides) -> tuple:
    """Profile -> config file -> CLI flags, later layers win.

    Raises ValueError for a config file that is not a JSON object of
    "structure" and "training" objects with known keys.
    """
    s_args = dict(STRUCTURE_DEFAULTS)
    t_args = {}
    if profile:
        s_args.update(PROFILES[profile])
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        sections = {"structure": (s_args, StructureConfig),
                    "training": (t_args, EmConfig)}
        if not isinstance(loaded, dict) or not loaded.keys() <= sections.keys():
            raise ValueError(f"{config_path}: want a JSON object with only "
                             f"'structure' and 'training' sections")
        for name, values in loaded.items():
            args, cls = sections[name]
            if not isinstance(values, dict):
                raise ValueError(f"{config_path}: section {name!r} must be a JSON object")
            unknown = values.keys() - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"{config_path}: unknown {name} keys {sorted(unknown)}")
            args.update(values)
    structure_keys = {f.name for f in dataclasses.fields(StructureConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key in structure_keys:
            s_args[key] = value
        else:
            t_args[key] = value
    return StructureConfig(**s_args), EmConfig(**t_args)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable info logging.")
def cli(verbose):
    """Learnable path-index retrieval: train, retrieve, evaluate, benchmark."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--min-rating", default=4.0, show_default=True)
@click.option("--min-reviews", default=10, show_default=True)
def preprocess(input_path, output_path, min_rating, min_reviews):
    """Filter an interaction CSV by rating and user activity."""
    records, skipped = data_mod.load_interactions_csv(input_path)
    kept, stats = data_mod.preprocess(records, min_rating, min_reviews)
    data_mod.write_interactions_csv(output_path, kept)
    emit({"event": "preprocess", "skipped_rows": skipped, **stats})


@cli.command()
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--labels", "labels_path", type=click.Path())
@click.option("--clusters", default=8, show_default=True, type=click.IntRange(min=1))
@click.option("--items-per-cluster", default=250, show_default=True,
              type=click.IntRange(min=1))
@click.option("--users", default=5000, show_default=True, type=click.IntRange(min=1))
@click.option("--interactions-per-user", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--mixture", default=0.2, show_default=True,
              type=click.FloatRange(0.0, 1.0))
@SEED_OPTION
def synth(output_path, labels_path, clusters, items_per_cluster, users,
          interactions_per_user, mixture, seed):
    """Generate a clustered synthetic interaction corpus."""
    records, labels = data_mod.synth_clusters(
        clusters, items_per_cluster, users, interactions_per_user, mixture, seed)
    data_mod.write_interactions_csv(output_path, records)
    if labels_path:
        Path(labels_path).write_text(json.dumps(
            {"num_clusters": labels["num_clusters"],
             "items_per_cluster": labels["items_per_cluster"],
             "user_clusters": {str(u): list(c)
                               for u, c in labels["user_clusters"].items()}},
            sort_keys=True))
    emit({"event": "synth", "num_interactions": len(records),
          "num_items": clusters * items_per_cluster, "num_users": users})


def _train_options(fn):
    opts = [
        click.option("--profile", type=click.Choice(sorted(PROFILES))),
        click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False)),
        click.option("--nodes", "num_nodes", type=int),
        click.option("--depth", type=int),
        click.option("--paths", "paths_per_item", type=int),
        click.option("--beam", "beam_size", type=int),
        click.option("--score-capacity", type=int),
        click.option("--alpha", "penalty_alpha", type=float),
        click.option("--eta", "decay_eta", type=float),
        click.option("--emb-dim", type=int),
        click.option("--max-seq-len", type=int),
        click.option("--hidden-width", type=int),
        click.option("--epochs", type=int),
        click.option("--cd-iterations", type=int),
        click.option("--batch-size", type=int),
        click.option("--learning-rate", type=float),
        click.option("--negatives", "num_negatives", type=int),
        click.option("--freeze-epoch", type=int),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--output", "ckpt_path", required=True, type=click.Path())
@SEED_OPTION
@click.option("--val-users", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--test-users", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--stats-out", type=click.Path())
@_train_options
def train(input_path, ckpt_path, seed, val_users, test_users, stats_out,
          profile, config_path, **overrides):
    """Train the structure model and reranker with the EM loop."""
    try:
        cfg, em_cfg = build_configs(profile, config_path, overrides)
        persist.check_replaceable(ckpt_path)
    except (TypeError, ValueError, FileExistsError) as exc:   # TypeError: a mistyped value
        raise click.UsageError(str(exc))
    records, _ = data_mod.load_interactions_csv(input_path)
    if not records:
        raise click.ClickException("no usable interaction records")
    num_items = len(data_mod.build_item_vocab(records)[0])
    if not 1 <= em_cfg.num_negatives < num_items:
        raise click.ClickException(
            f"--negatives {em_cfg.num_negatives} must be in [1, {num_items - 1}] "
            f"for a corpus of {num_items} items")
    split = _split(records, val_users, test_users, seed)
    trained = train_model(records, split, cfg, em_cfg, seed)
    persist.save_checkpoint(ckpt_path, trained,
                            extra_config={"training": dataclasses.asdict(em_cfg),
                                          "seed": seed, "val_users": val_users,
                                          "test_users": test_users})
    for stats in trained.stats:
        emit({"event": "epoch", **stats})
    if stats_out:
        Path(stats_out).write_text(
            "\n".join(json.dumps({"event": "epoch", **s}, sort_keys=True)
                      for s in trained.stats) + "\n")
    emit({"event": "train_done", "checkpoint": str(ckpt_path),
          "num_items": trained.num_items})


def _split(records, val_users, test_users, seed):
    try:
        return data_mod.make_split(records, val_users, test_users, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load(ckpt_path):
    try:
        return persist.load_checkpoint(ckpt_path)
    except (persist.CorruptionError, persist.MigrationError, OSError) as exc:
        raise click.ClickException(str(exc))


@cli.command()
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@SEED_OPTION
@click.option("--val-users", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--test-users", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--subset", default="test", show_default=True,
              type=click.Choice(["test", "validation", "train"]))
@click.option("--k", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--method", default="both", show_default=True,
              type=click.Choice(["structure", "brute-force", "both"]))
@click.option("--beam", "beam_size", type=click.IntRange(min=1))
@click.option("--adaptive/--no-adaptive", default=True, show_default=True)
def evaluate(ckpt_path, input_path, seed, val_users, test_users, subset, k,
             method, beam_size, adaptive):
    """Evaluate retrieval quality on a deterministic user split."""
    trained = _load(ckpt_path)
    if method != "structure" and k > trained.num_items:
        raise click.UsageError(f"k={k} exceeds corpus size {trained.num_items}")
    records, _ = data_mod.load_interactions_csv(input_path)
    split = _split(records, val_users, test_users, seed)
    index = {item: i for i, item in enumerate(trained.item_ids)}

    def translate(fn):
        def run(behavior, k):
            internal = [index[i] for i in behavior if i in index]
            return [trained.item_ids[i] for i, _ in fn(internal, k)]
        return run

    methods = {}
    if method in ("structure", "both"):
        methods["structure"] = translate(
            lambda b, kk: trained.retrieve(b, kk, beam_size=beam_size,
                                           adaptive=adaptive and beam_size is None))
    if method in ("brute-force", "both"):
        methods["brute_force"] = translate(trained.retrieve_brute_force)
    for name, fn in methods.items():
        report = data_mod.evaluate(fn, split, k, subset=subset)
        emit({"event": "metrics", "method": name, "subset": subset,
              **report.as_dict()})


@cli.command()
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--user-seq", required=True,
              help="Comma-separated item ids, most recent last.")
@click.option("--k", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--beam", "beam_size", type=click.IntRange(min=1))
@click.option("--method", default="structure", show_default=True,
              type=click.Choice(["structure", "brute-force"]))
def retrieve(ckpt_path, user_seq, k, beam_size, method):
    """Retrieve top-k items for one behavior sequence."""
    trained = _load(ckpt_path)
    index = {item: i for i, item in enumerate(trained.item_ids)}
    try:
        raw = [int(t) for t in user_seq.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError("--user-seq must be comma-separated integers")
    if method == "brute-force" and k > trained.num_items:
        raise click.UsageError(f"k={k} exceeds corpus size {trained.num_items}")
    behavior = [index[i] for i in raw if i in index]
    if method == "structure":
        hits = trained.retrieve(behavior, k, beam_size=beam_size,
                                adaptive=beam_size is None)
    else:
        hits = trained.retrieve_brute_force(behavior, k)
    for item, score in hits:
        emit({"event": "retrieved", "item_id": trained.item_ids[item],
              "score": score})


@cli.command()
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True))
@click.option("--synthetic-items", type=click.IntRange(min=1),
              help="Benchmark a random model of this corpus size instead of "
                   "a checkpoint.")
@click.option("--profile", type=click.Choice(sorted(PROFILES)))
@click.option("--queries", default=1000, show_default=True)
@click.option("--k", default=10, show_default=True)
@click.option("--beam", "beam_size", type=int)
@SEED_OPTION
def bench(ckpt_path, synthetic_items, profile, queries, k, beam_size, seed):
    """Compare structure-retrieval and brute-force latency."""
    if (ckpt_path is None) == (synthetic_items is None):
        raise click.UsageError("supply exactly one of --checkpoint and "
                               "--synthetic-items")
    if synthetic_items is not None:
        cfg, _ = build_configs(profile or "amazon", None, {})
        trained = bench_mod.synthetic_model(cfg, synthetic_items, seed)
    else:
        trained = _load(ckpt_path)
    if k > trained.num_items:
        raise click.UsageError(f"k={k} exceeds corpus size {trained.num_items}")
    try:
        report = bench_mod.run_bench(trained, queries, k, beam_size=beam_size,
                                     seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit({"event": "bench", **report.as_dict()})


@cli.command()
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path(exists=True))
def inspect(ckpt_path):
    """Summarize a checkpoint: config, sizes, path-size distribution, and
    the wall seconds its load took."""
    start = time.perf_counter()
    trained = _load(ckpt_path)
    load_s = time.perf_counter() - start
    sizes = trained.mapping.sizes
    emit({
        "event": "inspect",
        "load_s": load_s,
        "config": dataclasses.asdict(trained.cfg),
        "num_items": trained.num_items,
        "nonempty_paths": sizes.size,
        "top_path_size": int(sizes.max(initial=0)),
        "mean_path_size": int(sizes.sum()) / sizes.size if sizes.size else 0.0,
    })


def main():
    cli()


if __name__ == "__main__":
    main()
