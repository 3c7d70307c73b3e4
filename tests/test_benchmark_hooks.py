"""The benchmark's traced run wraps program functions by name; each must
still be where it looks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pathrec import em, persist, trained
from pathrec.bench import synthetic_model
from pathrec.retrieval import ItemPathMapping
from pathrec.seeding import substream
from pathrec.structure import StructureConfig
from reference import score_table


REPO = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The benchmark's oracles read the program's mapping and beams; its
    # self-test runs in a process of its own, which pins BLAS threads.
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_smoke_run():
    # A short traced run of one workload reads the trained and loaded
    # models as the benchmark's checks do: the mapping's tuples and dict
    # views, and the score table's dict view.
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_paths",
                             "--seconds", "1", "--trace", "1"], cwd=REPO,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracing

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.WRAPPED if attr not in vars(owner)]
    assert not missing


CFG = StructureConfig(num_nodes=3, depth=2, paths_per_item=2, beam_size=4,
                      score_capacity=4, penalty_alpha=0.1)


def _read(tmp_path):
    (tmp_path / "mapping.tsv").write_text("0\t0-1;2-2\n1\t0-1;2-2\n2\t1-0;2-2\n")
    return persist.read_mapping(tmp_path / "mapping.tsv", CFG)


def _assign(tmp_path):
    table = score_table({0: {(0, 1): 0.5, (1, 1): 0.25}}, {0: 2.0}, 3, 3, 2, capacity=4)
    return em.coordinate_descent_assign(table, 3, 3, 2, 0.1, 2, 2, substream(0, "cd"))


@pytest.mark.parametrize("build", [
    _read, lambda tmp_path: ItemPathMapping.random_init(CFG, 5, substream(0, "m")),
    _assign], ids=["read_mapping", "random_init", "coordinate_descent_assign"])
def test_every_mapping_build_goes_through_from_assignments(tmp_path, monkeypatch, build):
    # The traced run times index builds by wrapping this one name; a build
    # that went around it would read as 0 ms.
    calls = []
    original = ItemPathMapping.from_assignments

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ItemPathMapping, "from_assignments", counted)
    built = build(tmp_path)
    assert len(calls) == 1
    assert built.inverted == original(built.assignments).inverted


@pytest.mark.parametrize("name, adaptive", [("retrieve_candidates", False),
                                            ("adaptive_beam", True)])
def test_every_structure_query_goes_through_its_traced_name(monkeypatch, name, adaptive):
    # The traced run times index expansion and counts candidates by
    # wrapping these names in `pathrec.trained`; a query that went around
    # them would read as 0.
    model = synthetic_model(CFG, 30, 1)
    calls = []
    original = getattr(trained, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trained, name, counted)
    assert model.retrieve([0, 1, 2], 5, adaptive=adaptive)
    assert len(calls) == 1
