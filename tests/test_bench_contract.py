"""The benchmark's contract with the program, read from `perfbench/`.

The traced run swaps each `(owner, attribute)` of `spans.TARGETS` by looking
it up in `owner.__dict__` and divides the ranking time by the count of
`evaluate.rank_of` spans, the recommend calls go through `cli.main`, and
every run checks the ingested sessions against `checks.transitions` and
`checks.test_subset`, the item-KNN table against `checks.itemknn_rows` and
each system's evaluation report against `checks.replay_ranks`.  A refactor
that breaks any of these would only show when the benchmark runs.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from arnn import cli, evaluate
from arnn.data import FieldSchema, Session, SessionDataset
from arnn.evaluate import build_itemknn, evaluate_system
from arnn.models import ArnnModel, GruSessionModel, PnnEncoder, save_checkpoint

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
    r = workloads.Round(train=SessionDataset([], schema),
                        test=SessionDataset([Session((0, 3), [2, 0, 1], 0)], schema))
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
    truth = json.loads(Path(paths.truth).read_text())
    vocab = r.train.schema.item_vocabulary
    cold = set(vocab) - {vocab[i] for i in r.train.item_set()}
    assert checks.transitions(r.train, truth, set(), "train") == []
    assert checks.transitions(r.test, truth, cold, "test") == []
    assert checks.test_subset(r.train, r.test) == []
    assert checks.itemknn_rows(build_itemknn(r.train), r.train, 1) == []
    # no row of either training split has more than the default 100
    # neighbours, so a smaller top_m makes the cut act
    whole = build_itemknn(r.train, top_m=len(r.train.schema.item_vocabulary))
    assert np.count_nonzero(whole.sim, axis=1).max() > 5
    assert checks.itemknn_rows(build_itemknn(r.train, top_m=5), r.train, 1) == []


def _toy_systems():
    """Seven sessions of unequal length over 10 items, and all four systems."""
    schema = FieldSchema([("f", ["c0", "c1", "unknown"])], [f"i{k}" for k in range(10)])
    item_lists = [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 0, 1], [2, 3], [5, 9, 1],
                  [6, 6, 2, 8], [3, 0]]
    ds = SessionDataset([Session((k % 2,), items, start_time=k)
                         for k, items in enumerate(item_lists)], schema)

    def gru():
        return GruSessionModel(10, 6, rng=np.random.default_rng(1))

    def pnn():
        return PnnEncoder.from_schema(schema, 4, 8, rng=np.random.default_rng(2))

    return ds, {"itemknn": build_itemknn(ds, lam=1.0, top_m=4), "gru": gru(), "pnn": pnn(),
                "arnn": ArnnModel(pnn(), gru(), 8, rng=np.random.default_rng(3))}


def test_bench_recommend_call_runs_through_the_cli(perfbench, monkeypatch, tmp_path):
    # the bench's own call on files written as it writes them, so a change to
    # the dataset or checkpoint format that breaks `recommend` fails here
    workloads, spans = perfbench("workloads"), perfbench("spans")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks imports it by name
    checks = perfbench("checks")
    ds, systems = _toy_systems()
    paths = workloads.Paths(str(tmp_path))
    os.makedirs(paths.ckpt)
    ds.save(paths.train)
    save_checkpoint(paths.checkpoint("merge"), systems["arnn"], ds.schema.hash())
    r = workloads.Round(train=ds, test=ds)
    for session, prefix in ((0, 1), (2, 4), (6, 1)):
        workloads._recommend(r, paths, session, prefix, spans.NullTracer())
    assert [run[2] for run in r.recommend_runs] == [0, 0, 0] and r.failed == 0
    assert checks.recommendations(r, systems["arnn"]) == []


@pytest.mark.parametrize("kind", ["itemknn", "gru", "pnn", "arnn"])
def test_replay_ranks_are_the_ranks_evaluation_counts(perfbench, monkeypatch, kind):
    workloads = perfbench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks imports it by name
    checks = perfbench("checks")
    ds, systems = _toy_systems()
    counted = []
    rank_of = evaluate.rank_of

    def counting(scores, target):
        counted.append(rank_of(scores, target))
        return counted[-1]

    monkeypatch.setattr(evaluate, "rank_of", counting)
    # three lanes over seven sessions: lanes refill and drop out mid-stream
    report = evaluate_system(systems[kind], ds, k=3, lanes=3)
    ranks = checks.replay_ranks(systems[kind], ds)
    assert sorted(ranks.tolist()) == sorted(counted)
    assert len(counted) == report.n_recs == sum(len(s.items) - 1 for s in ds.sessions)
    assert checks.report_matches(kind, report, ranks, ds) == []


def test_traced_evaluation_has_one_rank_span_per_recommendation(perfbench):
    spans = perfbench("spans")
    ds, systems = _toy_systems()
    tracer = spans.Tracer()
    with tracer.installed():
        report = evaluate_system(systems["arnn"], ds, k=3, lanes=3)
    assert tracer.since(0).count("evaluate.rank_of") == report.n_recs > 0
