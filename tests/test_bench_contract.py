"""The benchmark's contract with the program, read from `perfbench/`.

The traced run swaps each `(owner, attribute)` of `spans.TARGETS` by looking
it up in `owner.__dict__`, the recommend calls go through `cli.main`, and
every run checks the item-KNN table against `checks.itemknn_rows`.  A
refactor that breaks any of these would only show when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from arnn import cli
from arnn.data import FieldSchema, Session, SessionDataset
from arnn.evaluate import build_itemknn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import a perfbench module from its file, writing no bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return load


def test_traced_targets_are_in_their_owners_dict(perfbench):
    spans = perfbench("spans")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_bench_recommend_argv_parses(perfbench, monkeypatch, tmp_path):
    spans, workloads = perfbench("spans"), perfbench("workloads")
    schema = FieldSchema([("f0", ["a", "b"]), ("f1", ["c", "d"])], ["i0", "i1", "i2"])
    steps = [((0, 3), 2), ((0, 3), 0), ((0, 3), 1)]
    r = workloads.Round(train=SessionDataset([], schema),
                        test=SessionDataset([Session(steps, 0)], schema))
    paths = workloads.Paths(str(tmp_path))
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 0)
    workloads._recommend(r, paths, 0, 2, spans.NullTracer())
    args = cli.build_parser().parse_args(seen[0])
    assert (args.command, args.checkpoint, args.data) == ("recommend",
                                                          paths.checkpoint("merge"), paths.train)
    assert (args.items, args.attrs, args.k) == ("i2,i0", "f0=a;f1=d", workloads.RECOMMEND_K)


@pytest.mark.parametrize("workload", ["desk", "vocab"])
def test_itemknn_table_passes_the_bench_check(perfbench, monkeypatch, tmp_path, workload):
    workloads = perfbench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks imports it by name
    checks = perfbench("checks")
    w = workloads.WORKLOADS[workload]
    paths = workloads.Paths(str(tmp_path))
    workloads.set_up(w, 1, paths)
    r = workloads.Round()
    workloads._ingest(r, w, paths)
    assert checks.itemknn_rows(build_itemknn(r.train), r.train, 1) == []
    # no row of either training split has more than the default 100
    # neighbours, so a smaller top_m makes the cut act
    whole = build_itemknn(r.train, top_m=len(r.train.schema.item_vocabulary))
    assert np.count_nonzero(whole.sim, axis=1).max() > 5
    assert checks.itemknn_rows(build_itemknn(r.train, top_m=5), r.train, 1) == []
