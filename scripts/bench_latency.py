"""Per-query latency of beam-search retrieval versus brute-force inner
products on a synthetic corpus of configurable size.

Usage:
    python3 scripts/bench_latency.py [--items 200000] [--beam 50]
"""

import argparse
import json

from pathrec.bench import run_bench, synthetic_model
from pathrec.structure import StructureConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--items", type=int, default=200_000)
    ap.add_argument("--nodes", type=int, default=100)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--paths", type=int, default=3)
    ap.add_argument("--beam", type=int, default=50)
    ap.add_argument("--queries", type=int, default=1000)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = StructureConfig(num_nodes=args.nodes, depth=args.depth,
                          paths_per_item=args.paths, beam_size=args.beam,
                          score_capacity=max(args.beam, args.paths),
                          penalty_alpha=3e-7)
    trained = synthetic_model(cfg, args.items, args.seed)
    report = run_bench(trained, args.queries, args.k, beam_size=args.beam,
                       seed=args.seed)
    print(json.dumps({"event": "bench", **report.as_dict()}))


if __name__ == "__main__":
    main()
