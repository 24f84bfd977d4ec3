"""Benchmark of the arnn pipeline: synth -> preprocess -> train gru|pnn|merge
-> evaluate -> recommend, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
the machine record.  Work files go to `.perfbench/` and are removed at exit;
a traced run leaves its spans in `.perfbench/spans-<workload>-seed<n>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# set-up runs at least this often and for at least this long
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# every run measures at least two rounds, so no metric rests on one sample; a
# traced run one more, so that an untraced round other than the first, which
# evaluates only at its end, stands against its traced rounds
MIN_ROUNDS = 2
# one BLAS thread: with two, stage times vary 10-25 % between processes
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def end_to_end(setup_s, rounds, peak_rss_mb, k1) -> dict:
    per_call = [s for r in rounds for s in r.recommend_s]
    m = {"setup_s": (median(setup_s), "s")}
    for stage in ("gru", "pnn", "merge"):
        m[f"{stage}_train_examples_per_s"] = (
            median([r.stage_examples[stage] / r.stage_s[stage] for r in rounds]), "1/s")
    m["eval_recs_per_s"] = (median([sum(rep.n_recs for rep in r.reports.values()) / s
                                    for r in rounds for s in r.eval_s]), "1/s")
    m["preprocess_events_per_s"] = (median([r.n_events / s for r in rounds
                                            for s in r.ingest_s]), "1/s")
    m["recommend_ms"] = (1e3 * median(per_call), "ms")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    m["recall_at_1"] = (k1["arnn"].recall, "fraction")
    m["mrr_at_20"] = (rounds[-1].reports["arnn"].mrr, "fraction")
    return m


# per-round self totals of single spans: (metric, span name, scale, unit)
SELF_TOTALS = [
    ("models.gru_step_ms", "models.gru_step", 1e3, "ms"),
    ("models.gru_scores_ms", "models.gru_scores", 1e3, "ms"),
    ("models.pnn_encode_ms", "models.pnn_encode", 1e3, "ms"),
    ("models.pnn_scores_ms", "models.pnn_scores", 1e3, "ms"),
    ("models.arnn_step_scores_ms", "models.arnn_step_scores", 1e3, "ms"),
    ("models.save_checkpoint_ms", "models.save_checkpoint", 1e3, "ms"),
    ("models.load_checkpoint_ms", "models.load_checkpoint", 1e3, "ms"),
    ("tensor.backward_ms", "tensor.backward", 1e3, "ms"),
    ("training.top1_batch_loss_ms", "training.top1_batch_loss", 1e3, "ms"),
    ("training.adagrad_step_ms", "training.adagrad_step", 1e3, "ms"),
    ("training.validation_s", "training.validation", 1.0, "s"),
    ("evaluate.build_itemknn_s", "evaluate.build_itemknn", 1.0, "s"),
    ("evaluate.itemknn_s", "evaluate.itemknn", 1.0, "s"),
    ("evaluate.gru_s", "evaluate.gru", 1.0, "s"),
    ("evaluate.pnn_s", "evaluate.pnn", 1.0, "s"),
    ("evaluate.arnn_s", "evaluate.arnn", 1.0, "s"),
    ("data.read_events_s", "data.read_events", 1.0, "s"),
    ("data.preprocess_s", "data.preprocess", 1.0, "s"),
    ("data.dataset_load_s", "data.dataset_load", 1.0, "s"),
    ("data.dataset_save_s", "data.dataset_save", 1.0, "s"),
]
# per-call means of self time: (metric, span name, scale, unit)
SELF_MEANS = [
    ("batching.next_us", "batching.next", 1e6, "us"),
    ("evaluate.rank_of_us", "evaluate.rank_of", 1e6, "us"),
    ("cli.recommend_self_ms", "cli.recommend", 1e3, "ms"),
]
# calls per round that returned: (metric, span name)
CALLS = [
    ("batching.batches", "batching.next"),
    ("training.steps", "training.adagrad_step"),
    ("models.gru_step_calls", "models.gru_step"),
    ("models.pnn_encode_calls", "models.pnn_encode"),
    ("models.load_checkpoint_calls", "models.load_checkpoint"),
    ("evaluate.rank_of_calls", "evaluate.rank_of"),
    ("data.dataset_load_calls", "data.dataset_load"),
]


def layer_metrics(t, r) -> dict:
    """Per-layer metrics of one traced round `r` with span table `t`."""
    m = {}
    for metric, name, scale, unit in SELF_TOTALS:
        m[metric] = (scale * t.self_total(name), unit)
    for metric, name, scale, unit in SELF_MEANS:
        m[metric] = (scale * t.self_total(name) / len(t.indices(name)), unit)
    for metric, name in CALLS:
        m[metric] = (t.count(name), "count")
    stages = [i for s in ("gru", "pnn", "merge") for i in t.indices(f"training.stage.{s}")]
    m["training.stage_self_s"] = (sum(t.self_time[i] for i in stages), "s")
    train_batches = sum(1 for i in t.indices("batching.next") if t.spans[i][4]
                        and t.parent_name(i).startswith("training.stage."))
    m["training.useful_step_ratio"] = (t.count("training.adagrad_step") / train_batches,
                                       "ratio")
    m["data.events"] = (r.n_events, "count")
    m["trace.spans"] = (t.end - t.first, "count")
    return m


def trace_errors(t, r) -> list[str]:
    """Spans nest, and each stage has one span, which agrees with the round's
    own timer around that stage."""
    errors = t.nesting_errors()
    for stage, timed in r.stage_s.items():
        found = t.indices(f"training.stage.{stage}")
        if len(found) != 1:
            errors.append(f"stage {stage}: {len(found)} spans in one round")
        for i in found:
            span = t.spans[i][2] - t.spans[i][1]
            # the timer encloses the span; 10 ms + 1 % leaves room for a GC pass
            if not 0.0 <= timed - span <= 0.01 + 0.01 * timed:
                errors.append(f"stage {stage}: span of {span} s, timed {timed} s")
    return errors


def measure(args, paths) -> dict:
    import checks
    import spans
    import workloads
    from arnn import evaluate

    w = workloads.WORKLOADS[args.workload]
    setup_s = []

    def set_up():
        t = time.perf_counter()
        workloads.set_up(w, args.seed, paths)
        setup_s.append(time.perf_counter() - t)

    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        set_up()

    warm = workloads.warm_up_variant(w)
    warm_paths = workloads.Paths(os.path.join(paths.root, "warm-up"))
    workloads.set_up(warm, args.seed, warm_paths)
    workloads.run_round(warm, args.seed, warm_paths, spans.NullTracer())

    # traced runs alternate untraced and traced rounds, untraced first
    tracer = spans.Tracer() if args.trace else None
    failures = []
    rounds, traced, tables = [], [], []
    earlier = None
    started = time.perf_counter()
    while True:
        if rounds:
            earlier = rounds[-1].loaded
            rounds[-1].drop_outputs()  # its datasets and item-KNN table; `earlier` stays
            set_up()  # one more set-up sample, in another stretch of the machine's load
        on = tracer is not None and len(rounds) % 2 == 1
        first = len(tracer.spans) if on else 0
        r = workloads.run_round(w, args.seed, paths, tracer if on else spans.NullTracer(),
                                earlier)
        if on:
            tables.append(tracer.since(first))
            if tracer.stack:
                failures.append(f"round {len(rounds)}: {len(tracer.stack)} spans left open")
        if rounds and r.signature() != rounds[0].signature():
            failures.append(f"round {len(rounds)} computed other results than round 0")
        rounds.append(r)
        traced.append(on)
        elapsed = time.perf_counter() - started
        # stop when another round would end farther past the budget than it
        # ends short of it now
        if len(rounds) >= MIN_ROUNDS + args.trace and elapsed + 0.5 * r.wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = rounds[-1]
    k1 = {name: evaluate.evaluate_system(last.systems[name], last.test, k=1, name=name)
          for name in ("gru", "arnn")}
    failures += checks.run_all(w, args.seed, paths, last, k1)

    if tracer is None:
        metrics = end_to_end(setup_s, rounds, peak_rss_mb, k1)
    else:
        traced_rounds = [r for r, on in zip(rounds, traced) if on]
        per_round = [layer_metrics(t, r) for t, r in zip(tables, traced_rounds)]
        metrics = {name: (median([m[name][0] for m in per_round]), unit)
                   for name, (_, unit) in per_round[0].items()}
        walls = {on: median([r.wall_s for r, o in zip(rounds[1:], traced[1:]) if o == on])
                 for on in (False, True)}
        metrics["trace.overhead_pct"] = (100.0 * (walls[True] - walls[False]) / walls[False],
                                         "%")
        for t, r in zip(tables, traced_rounds):
            failures += trace_errors(t, r)
        tracer.dump(os.path.join(os.path.dirname(paths.root),
                                 f"spans-{w.name}-seed{args.seed}.jsonl.gz"))

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "arnn", "__init__.py")):
        print(f"error: no arnn package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS  # before numpy loads OpenBLAS
    sys.path.insert(0, src)
    import workloads  # imports numpy, so only after the BLAS threads are fixed

    args = parse_args(argv, workloads.WORKLOADS)
    print("machine " + json.dumps(machine_record()), flush=True)
    paths = workloads.Paths(os.path.join(
        ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-{os.getpid()}"))
    try:
        result = measure(args, paths)
    finally:
        shutil.rmtree(paths.root, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
