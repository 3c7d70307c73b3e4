"""The workloads and the four phases of one workload run: set-up,
checkpoint load, serving and training, all in one configuration.

One client, closed loop: each call starts when the previous one returns.
Only the public API of `pathrec` is timed.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from pathrec import bench, data, persist, retrieval, train
from pathrec.em import EmConfig
from pathrec.structure import StructureConfig

import oracles
from oracles import BeamOracle, CheckFailed, PathIndex, require

NUM_ITEMS = 200_000        # serving corpus, both workloads
SETUP_ROUNDS = 3           # set-up, load and serving rounds; medians are reported
WARMUP_ROUNDS = 3          # per serving chunk
CHECK_EVERY = 40           # one serving round in this many is checked
BEHAVIOR_LEN = 10
K_SERVE = 10
K_EVAL = 20
ADAPTIVE_MULTIPLIER = 5    # adaptive_beam's default: grow B until 5k candidates
RECALL_MARGIN = 0.05       # tests/test_acceptance.py parity margin
# "Well above random": random recall@20 over 500 held-out users of 2,000
# items is 0.010 with a standard error near 0.0014, so 1.5 k/V is over
# three standard errors above it.
RANDOM_RECALL_FACTOR = 1.5


@dataclass(frozen=True)
class Workload:
    structure: dict        # StructureConfig fields
    clusters: int          # training corpus: clusters x items_per_cluster items
    items_per_cluster: int
    users: int             # 20 interactions each, 20% from a second cluster
    eval_users: int        # held out and evaluated (the validation subset)
    catalog_users: int     # held out and never evaluated: they only widen the catalog
    em: dict               # EmConfig fields
    check_recall: bool
    # Serving rounds per second of `--seconds`: one over the time of a round
    # on the reference host, so serving lasts about `--seconds` there. The
    # count depends only on `--seconds`, so every run attempts the same
    # operations.
    serve_rounds_per_s: int
    # Set-up rounds with a training run; `train_samples_per_s` is the median
    # over them. One training run samples a single window of the host's
    # drift, so there are at least two, as many as the run's length allows.
    train_after: tuple


WORKLOADS = {
    # amazon profile: under one item per path at 200k items, so the layer
    # MLPs, top-B, adaptive reruns and catalog-wide training terms dominate.
    "sparse_paths": Workload(
        structure=dict(num_nodes=100, depth=3, paths_per_item=3, beam_size=50,
                       score_capacity=50, penalty_alpha=3e-7),
        clusters=40, items_per_cluster=250, users=980,
        eval_users=20, catalog_users=940,
        em=dict(epochs=2, freeze_epoch=1),
        check_recall=False, serve_rounds_per_s=80, train_after=(0, 1, 2)),
    # CLI default shape: ~1.5k items per path at 200k items, so index
    # expansion and rerank dominate. Training is the acceptance suite's
    # planted-cluster setup, small enough to run every time, and its recall
    # is checked.
    "dense_paths": Workload(
        structure=dict(num_nodes=16, depth=2, paths_per_item=2, beam_size=8,
                       score_capacity=8, penalty_alpha=3e-3),
        clusters=8, items_per_cluster=250, users=1200,
        eval_users=500, catalog_users=0,
        em=dict(epochs=2, batch_size=64, freeze_epoch=2),
        check_recall=True, serve_rounds_per_s=45, train_after=(0, 2)),
}

PHASES = ("checkpoint", "serve", "train")


class Tally:
    """Operations attempted and failed per phase. An operation is a
    checkpoint round trip, a query or a training run."""

    def __init__(self):
        self.attempted = {p: 0 for p in PHASES}
        self.failed = {p: 0 for p in PHASES}
        self.wrong = 0             # failures that were a wrong output

    def run(self, phase: str, op):
        """Attempt one operation; on an exception count a failure and
        return None."""
        self.attempted[phase] += 1
        return self.guard(phase, op)

    def guard(self, phase: str, op):
        """Run `op` for an operation already attempted, such as its
        deferred check; an exception counts that operation as failed."""
        try:
            return op()
        except Exception as exc:   # a failed operation must not end the run
            self.failed[phase] += 1
            self.wrong += isinstance(exc, CheckFailed)
            print(f"{phase} operation failed: {exc!r}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            return None


def make_corpus(wl: Workload, seed: int):
    records, _ = data.synth_clusters(wl.clusters, wl.items_per_cluster, wl.users,
                                     20, 0.2, seed)
    split = data.make_split(records, wl.eval_users, wl.catalog_users, seed)
    return records, split


def check_checkpoint(saved, loaded) -> None:
    require(loaded.cfg == saved.cfg and list(loaded.item_ids) == list(saved.item_ids),
            "checkpoint: config or item ids changed")
    require(loaded.mapping.assignments == saved.mapping.assignments,
            "checkpoint: assignments changed")
    want = dict(saved.params.tensor_dict(), out_emb=saved.model.out_emb)
    got = dict(loaded.params.tensor_dict(), out_emb=loaded.model.out_emb)
    require(set(got) == set(want), "checkpoint: tensor names changed")
    for name, arr in want.items():
        require(np.array_equal(got[name], arr.astype(np.float32).astype(np.float64)),
                f"checkpoint: {name} differs beyond float32 rounding")


def check_query(model, index: PathIndex, kind: str, behavior, got) -> None:
    cfg, params = model.cfg, model.params
    if kind == "brute_force":
        oracles.check_ranking(got, oracles.brute_force(model, behavior, K_SERVE), kind)
        return
    ctx = model.context(behavior)
    oracle = BeamOracle(ctx, params)
    if kind == "structure":
        B = cfg.beam_size
        beam = oracle.beam(B)
        oracles.check_beam(retrieval.beam_search(ctx, params, B), beam, kind)
    else:
        _, B = retrieval.adaptive_beam(ctx, params, model.mapping, K_SERVE)
        want = oracles.adaptive_width(oracle, index, ADAPTIVE_MULTIPLIER * K_SERVE,
                                      cfg.num_paths)
        require(B == want, f"adaptive: B={B}, oracle B={want}")
        beam = oracle.beam(B)
    oracles.check_reranked(got, model, index, [p for p, _ in beam], behavior,
                           K_SERVE, kind)


def setup_and_load(wl, cfg, seed, r, ckpt, tally, tracer, setup_s, load_s):
    """Set-up round `r` and its checkpoint round trip. Returns the corpus
    and the loaded model (None if the round trip failed)."""
    tracer.set_trace("setup", r)
    t0 = time.perf_counter()
    records, split = make_corpus(wl, seed)
    saved = bench.synthetic_model(cfg, NUM_ITEMS, seed)
    persist.save_checkpoint(ckpt, saved)
    setup_s.append(time.perf_counter() - t0)
    tracer.set_trace("load", r)

    def round_trip():
        t0 = time.perf_counter()
        model = persist.load_checkpoint(ckpt)
        load_s.append(time.perf_counter() - t0)
        with tracer.pause():
            check_checkpoint(saved, model)
        return model

    return records, split, tally.run("checkpoint", round_trip)


def serve(model, index, rng, first, rounds, times, tally, tracer) -> None:
    """`rounds` rounds of structure, adaptive and brute-force queries, each
    timed into `times[kind]`. Rounds are numbered from `first`; `index` is
    the oracles' path -> items index of `model`."""
    cfg = model.cfg
    kinds = (
        ("structure", lambda q: model.retrieve(q, K_SERVE, beam_size=cfg.beam_size)),
        ("adaptive", lambda q: model.retrieve(q, K_SERVE, adaptive=True)),
        ("brute_force", lambda q: model.retrieve_brute_force(q, K_SERVE)),
    )
    tracer.set_trace("warmup")
    for _ in range(WARMUP_ROUNDS):
        q = rng.integers(0, model.num_items, size=BEHAVIOR_LEN).tolist()
        for _, fn in kinds:
            fn(q)
    sampled = []                  # (kind, query, result) checked after the chunk
    for r in range(first, first + rounds):
        q = rng.integers(0, model.num_items, size=BEHAVIOR_LEN).tolist()
        for kind, fn in kinds:
            def query():
                tracer.set_trace(kind, r)
                t0 = time.perf_counter()
                got = fn(q)
                times[kind].append(1000.0 * (time.perf_counter() - t0))
                if r % CHECK_EVERY == 0:
                    sampled.append((kind, q, got))
            tally.run("serve", query)
    # Checking inside the loop would leave the next timed query a cold
    # cache and a churned heap, and those queries would set the p99.
    with tracer.pause():
        for kind, q, got in sampled:
            tally.guard("serve", lambda: check_query(model, index, kind, q, got))


def training(wl, cfg, seed, records, split, tally, tracer):
    em_cfg = EmConfig(**wl.em)
    result = {}

    def run():
        _, item_index = data.build_item_vocab(records)
        steps = len(data.training_samples(split, item_index, cfg.max_seq_len)) * em_cfg.epochs
        tracer.set_trace("train")
        t0 = time.perf_counter()
        trained = train.train_model(records, split, cfg, em_cfg, seed)
        wall = time.perf_counter() - t0
        with tracer.pause():
            check_trained(trained, cfg, em_cfg)
        tracer.set_trace("eval")
        recall = evaluate(trained, split)
        if wl.check_recall:
            floor = RANDOM_RECALL_FACTOR * K_EVAL / trained.num_items
            require(recall["brute_force"] - recall["structure"] <= RECALL_MARGIN,
                    f"recall@{K_EVAL}: structure {recall['structure']:.4f} trails "
                    f"brute force {recall['brute_force']:.4f} by more than {RECALL_MARGIN}")
            require(min(recall.values()) >= floor,
                    f"recall@{K_EVAL} {recall} is not above {floor:.4f}, "
                    f"{RANDOM_RECALL_FACTOR} times random")
        result.update(
            samples_per_s=steps / wall, sample_steps=steps, epochs=em_cfg.epochs,
            batches=em_cfg.epochs * math.ceil(steps / em_cfg.epochs / em_cfg.batch_size),
            recall=recall,
            score_table_entries=sum(len(e) for e in trained.table.scores.values()),
            cold_items=sum(1 for v in range(trained.num_items) if not trained.table.scores.get(v)))

    tally.run("train", run)
    return result


def check_trained(trained, cfg, em_cfg) -> None:
    oracles.check_mapping(trained.mapping, cfg, trained.num_items, "trained mapping")
    oracles.check_score_table(trained.table, cfg.score_capacity, "score table")
    require(len(trained.stats) == em_cfg.epochs, "training: wrong number of epochs")
    losses = [x for s in trained.stats for x in [s["mean_loss"], *s["batch_losses"]]]
    require(all(math.isfinite(x) for x in losses), "training: non-finite epoch loss")


def evaluate(trained, split) -> dict:
    """Held-out recall@K_EVAL of adaptive structure retrieval and brute force."""
    index_of = {item: i for i, item in enumerate(trained.item_ids)}

    def as_ids(fn):
        def run(behavior, k):
            internal = [index_of[i] for i in behavior if i in index_of]
            return [trained.item_ids[i] for i, _ in fn(internal, k)]
        return run

    structure = as_ids(lambda b, k: trained.retrieve(b, k, adaptive=True))
    return {name: data.evaluate(fn, split, K_EVAL, subset="validation").recall
            for name, fn in (("structure", structure),
                             ("brute_force", as_ids(trained.retrieve_brute_force)))}


def run_workload(wl: Workload, seed: int, seconds: float, ckpt, tracer) -> dict:
    """Set-up, load and two serving chunks in each of SETUP_ROUNDS rounds,
    with a training run between the chunks of the rounds in
    `wl.train_after`. Spreading every phase over the whole run averages the
    host's drift into each metric alike."""
    cfg = StructureConfig(**wl.structure)
    tally = Tally()
    rng = np.random.default_rng([seed, 1])
    setup_s, load_s = [], []
    ms = {"structure": [], "adaptive": [], "brute_force": []}
    chunk = max(1, round(seconds * wl.serve_rounds_per_s / (2 * SETUP_ROUNDS)))
    rounds, trainings, chunk_p50, inverted_paths = 0, [], [], 0
    for r in range(SETUP_ROUNDS):
        records, split, model = setup_and_load(wl, cfg, seed, r, ckpt, tally, tracer,
                                               setup_s, load_s)
        if model is not None:
            with tracer.pause():
                index = PathIndex(model.mapping.assignments, cfg.num_nodes, cfg.depth)
            inverted_paths = len(model.mapping.inverted)
        for half in range(2):
            if model is not None:
                done = {kind: len(ts) for kind, ts in ms.items()}
                serve(model, index, rng, rounds, chunk, ms, tally, tracer)
                rounds += chunk
                chunk_p50.append({kind: float(np.median(ts[done[kind]:]))
                                  for kind, ts in ms.items()})
            if half == 0 and r in wl.train_after:
                trained = training(wl, cfg, seed, records, split, tally, tracer)
                if trained:
                    trainings.append(trained)
        model = index = None
    if not all(ms.values()):
        raise RuntimeError("no query succeeded; nothing to report")
    train_rates = [t["samples_per_s"] for t in trainings]
    trained = trainings[-1] if trainings else {}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "checkpoint_load_s": (statistics.median(load_s), "s"),
        "query_p50_ms": (float(np.median(ms["structure"])), "ms"),
        "adaptive_query_p50_ms": (float(np.median(ms["adaptive"])), "ms"),
        "bf_query_p50_ms": (float(np.median(ms["brute_force"])), "ms"),
        "train_samples_per_s": (statistics.median(train_rates) if train_rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    counts = {kind: len(v) for kind, v in ms.items()}
    counts.update({key: sum(t[key] for t in trainings)
                   for key in ("sample_steps", "epochs", "batches")})
    counts.update(trainings=len(trainings), inverted_paths=inverted_paths,
                  score_table_entries=trained.get("score_table_entries", 0),
                  cold_items=trained.get("cold_items", 0))
    return {"metrics": metrics, "tally": tally, "counts": counts,
            "recall": trained.get("recall"), "setup_s": setup_s, "load_s": load_s,
            "chunk_p50_ms": chunk_p50, "train_samples_per_s": train_rates,
            # Printed, not gated: on a shared host its spread over ten runs
            # exceeds any allowed bound (see README).
            "query_p99_ms": float(np.percentile(ms["structure"], 99))}
