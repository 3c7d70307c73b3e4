"""Benchmark of pathrec: serving at 200k items, EM training and checkpoint
load, measured end to end and, with `--trace 1`, layer by layer.

    python3 perfbench/run.py --workload sparse_paths --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload, each in a child process of its own, and prefixes each metric with
its workload name.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before NumPy loads, so figures do not depend on the
# core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_program():
    """Put the checkout's `src/` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "pathrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pathrec sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import pathrec
    if Path(pathrec.__file__).resolve().parent != (src / "pathrec").resolve():
        sys.exit(f"perfbench: imported pathrec from {pathrec.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()

    import workloads

    if args.workload == "all":
        return run_each(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    result = run_one(args.workload, args)
    print(json.dumps(result))
    return 0


def run_one(name: str, args) -> dict:
    """One workload run; prints its detail line and returns the result."""
    import selftest
    import tracing
    import workloads

    selftest.run()
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(enabled=bool(args.trace))
    ckpt = tempfile.mkdtemp(prefix=f"ckpt-{name}-", dir=OUT)
    try:
        with tracer.install():
            res = workloads.run_workload(workloads.WORKLOADS[name], args.seed,
                                         args.seconds, ckpt, tracer)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    tally = res["tally"]
    end_to_end = res["metrics"]
    if args.trace:
        tracer.write(OUT / f"trace-{name}-seed{args.seed}.jsonl")
        reported = tracing.layer_metrics(tracer.spans, res["counts"])
    else:
        reported = end_to_end
    detail = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "queries": {k: v for k, v in res["counts"].items()
                    if k in ("structure", "adaptive", "brute_force")},
        "recall_at_20": res["recall"],
        "setup_s": res["setup_s"], "checkpoint_load_s": res["load_s"],
        "chunk_p50_ms": res["chunk_p50_ms"], "train_samples_per_s": res["train_samples_per_s"],
        "query_p99_ms": res["query_p99_ms"],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail), flush=True)
    return {"correct": tally.wrong == 0,
            "attempted": sum(tally.attempted.values()),
            "failed": sum(tally.failed.values()),
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in reported.items()}}


def run_each(names: list, args) -> int:
    """Every workload, each in a child process of its own, so that its peak
    resident set and its heap are its own. Metric names get the workload's
    name as a prefix."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {child.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
