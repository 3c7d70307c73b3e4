"""Latency benchmark harness: structure retrieval (beam + rerank) versus
brute-force inner products on identical queries.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .reranker import SoftmaxModel
from .retrieval import ItemPathMapping
from .seeding import substream
from .structure import StructureConfig, StructureParams
from .trained import TrainedModel

MIN_QUERIES = 1000
#: Every query list is built before timing, so the count is bounded.
MAX_QUERIES = 100_000


@dataclass(frozen=True)
class MethodTiming:
    mean_ms: float
    median_ms: float
    p99_ms: float


@dataclass(frozen=True)
class BenchReport:
    corpus_size: int
    k: int
    beam_size: int
    num_queries: int
    structure: MethodTiming
    brute_force: MethodTiming
    speedup: float        # brute-force mean / structure mean
    speedup_median: float  # brute-force median / structure median
    speedup_p99: float    # brute-force p99 / structure p99

    def as_dict(self) -> dict:
        return asdict(self)


def synthetic_model(cfg: StructureConfig, num_items: int, seed: int) -> TrainedModel:
    """Random parameters and a random mapping at a given corpus size, for
    benchmarking without a training run."""
    rng = substream(seed, "bench")
    params = StructureParams.init_random(cfg, num_items, rng)
    model = SoftmaxModel.init_random(num_items, cfg.emb_dim, rng)
    mapping = ItemPathMapping.random_init(cfg, num_items, rng)
    return TrainedModel(cfg=cfg, params=params, model=model, mapping=mapping,
                        item_ids=list(range(num_items)))


def _timing(samples_ms: np.ndarray) -> MethodTiming:
    return MethodTiming(float(np.mean(samples_ms)),
                        float(np.median(samples_ms)),
                        float(np.percentile(samples_ms, 99)))


def run_bench(trained: TrainedModel, num_queries: int, k: int,
              beam_size: int | None = None, seed: int = 0) -> BenchReport:
    """Time both retrieval methods on identical random queries.

    Queries are random 10-item behavior sequences over the corpus; both
    methods are warmed up before measurement."""
    if not MIN_QUERIES <= num_queries <= MAX_QUERIES:
        raise ValueError(f"num_queries must be in [{MIN_QUERIES}, {MAX_QUERIES}]")
    V = trained.num_items
    if k > V:
        raise ValueError(f"k={k} exceeds corpus size {V}")
    B = trained.cfg.beam_size if beam_size is None else beam_size
    rng = substream(seed, "bench-queries")
    queries = [list(rng.integers(0, V, size=10))
               for _ in range(num_queries)]

    def time_one(fn, behavior):
        t0 = time.perf_counter()
        fn(behavior)
        return (time.perf_counter() - t0) * 1000.0

    def dr_query(behavior):
        return trained.retrieve(behavior, k, beam_size=B)

    def bf_query(behavior):
        return trained.retrieve_brute_force(behavior, k)

    for behavior in queries[:10]:    # warm-up
        dr_query(behavior)
        bf_query(behavior)

    results = {}
    for name, fn in (("structure", dr_query), ("brute_force", bf_query)):
        results[name] = _timing(np.array([time_one(fn, b) for b in queries]))
    dr, bf = results["structure"], results["brute_force"]
    return BenchReport(V, k, B, num_queries, dr, bf, bf.mean_ms / dr.mean_ms,
                       bf.median_ms / dr.median_ms, bf.p99_ms / dr.p99_ms)
