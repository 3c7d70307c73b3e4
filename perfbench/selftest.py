"""Self-test of the benchmark's oracles on a tiny model (K=3, D=2), where
exhaustive enumeration is cheap.

The oracles are checked against computations that use no pathrec code
beyond the raw parameter arrays: path log-probabilities from a forward pass
written here, and rankings from Python's `sorted`. Each check must also
reject a deliberately wrong answer. `run.py` runs this before every
benchmark run; on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import math

if __name__ == "__main__":
    import run as bench_run     # pins BLAS threads and finds src/ first
    bench_run.import_program()

import numpy as np

from pathrec import bench, retrieval
from pathrec.structure import StructureConfig

import oracles
from oracles import BeamOracle, CheckFailed, PathIndex

CFG = StructureConfig(num_nodes=3, depth=2, paths_per_item=2, beam_size=9,
                      score_capacity=4, penalty_alpha=0.0, emb_dim=4)
NUM_ITEMS = 40
USERS = 8


def exhaustive(params, behavior) -> list:
    """Every path with its log-probability, best first, ties to the smaller
    path, from a forward pass over the raw arrays."""
    u = [sum(params.item_emb[i][e] for i in behavior) / len(behavior)
         for e in range(CFG.emb_dim)]
    scored = []
    for path in itertools.product(range(CFG.num_nodes), repeat=CFG.depth):
        total = 0.0
        for d in range(CFG.depth):
            x = np.array(u + [c for j in range(d) for c in params.node_emb[j, path[j]]])
            hid, top = params.mlps[d]
            z = top.weight @ np.maximum(hid.weight @ x + hid.bias, 0.0) + top.bias
            total += z[path[d]] - max(z) - math.log(sum(math.exp(v - max(z)) for v in z))
        scored.append((path, total))
    return sorted(scored, key=lambda pl: (-pl[1], pl[0]))


def must_fail(check, what: str) -> None:
    try:
        check()
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: {what} was not detected")


def run(seed: int = 3) -> None:
    model = bench.synthetic_model(CFG, NUM_ITEMS, seed)
    out = model.model.out_emb
    out[17] = out[5]                 # exact score ties: the smaller id must win
    out[30] = out[5]
    index = PathIndex(model.mapping.assignments, CFG.num_nodes, CFG.depth)
    naive: dict = {}
    for v, paths in enumerate(model.mapping.assignments):
        for p in paths:
            naive.setdefault(p, []).append(v)
    for p in itertools.product(range(CFG.num_nodes), repeat=CFG.depth):
        oracles.require(index.items_on(p).tolist() == naive.get(p, []),
                        f"self-test: path index of {p}")

    rng = np.random.default_rng(seed)
    for _ in range(USERS):
        behavior = rng.integers(0, NUM_ITEMS, size=4).tolist()
        ctx = model.context(behavior)
        every = exhaustive(model.params, behavior)
        oracle = BeamOracle(ctx, model.params)
        for B in (CFG.num_paths, CFG.num_paths + 3):
            oracles.check_beam(oracle.beam(B), every, f"oracle beam B={B}")
        for B in range(1, CFG.num_paths + 1):
            program = retrieval.beam_search(ctx, model.params, B)
            oracles.check_beam(program, oracle.beam(B), f"program beam B={B}")
        swapped = [(every[-1][0], program[0][1])] + program[1:-1] + [(every[0][0], program[-1][1])]
        must_fail(lambda: oracles.check_beam(swapped, every, "swapped"), "a swapped beam")

        u = [sum(model.params.item_emb[i][e] for i in behavior) / len(behavior)
             for e in range(CFG.emb_dim)]
        scores = [sum(row[e] * u[e] for e in range(CFG.emb_dim)) for row in out.tolist()]
        by_sort = sorted(range(NUM_ITEMS), key=lambda i: (-scores[i], i))
        full = [(i, scores[i]) for i in by_sort]
        oracles.check_ranking(oracles.brute_force(model, behavior, NUM_ITEMS), full, "brute-force oracle")
        oracles.check_ranking(model.retrieve_brute_force(behavior, 10), full[:10], "program brute force")
        must_fail(lambda: oracles.check_ranking(full[1::-1] + full[2:10], full[:10], "swapped"),
                  "a swapped ranking")

        for want in (1, 5, 25, NUM_ITEMS + 1):
            B = 1
            while (len({v for p, _ in oracle.beam(B) for v in naive.get(p, [])}) < want
                   and B < CFG.num_paths):
                B = min(2 * B, CFG.num_paths)
            oracles.require(oracles.adaptive_width(oracle, index, want, CFG.num_paths) == B,
                            f"self-test: adaptive width for {want} candidates")

    oracles.check_mapping(model.mapping, CFG, NUM_ITEMS, "self-test mapping")
    first = model.mapping.assignments[0][0]
    model.mapping.inverted[first] = model.mapping.inverted[first][:-1]
    must_fail(lambda: oracles.check_mapping(model.mapping, CFG, NUM_ITEMS, "dropped"),
              "an item dropped from the inverted index")


if __name__ == "__main__":
    run()
    print("perfbench self-test passed")
