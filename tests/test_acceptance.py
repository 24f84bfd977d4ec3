"""Acceptance suite: one test per criterion, one printed line per pass.

Run with `pytest tests/test_acceptance.py -v -s`.  The synthetic
experiments train the full three-stage protocol at desk scale, so this
module takes a few minutes end to end.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnn import tensor as T
from arnn.cli import main
from arnn.data import (
    FieldSchema,
    Session,
    SessionDataset,
    mark_sessions,
    RawEvent,
    sample_items_by_coverage,
    split_train_test,
)
from arnn.errors import SplitError
from arnn.evaluate import build_itemknn, evaluate_system, mrr_at_k, recall_at_k
from arnn.models import (
    ArnnModel,
    GruSessionModel,
    PnnEncoder,
    load_checkpoint,
    read_raw_tensor_bytes,
)
from arnn.synth import GeneratorSpec, generate
from arnn.data import preprocess
from arnn.training import make_plan, run_stage, top1_loss
from util import assert_param_grads_match


def ok(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _weighted_sum(out, weights):
    return T.sum_all(T.mul(out, T.constant(weights)))


def _check_gru_instance(seed):
    rng = np.random.default_rng(seed)
    h, v, b = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 4))
    model = GruSessionModel(v, h, rng=rng)
    prev = rng.integers(0, v, size=b)
    h0 = rng.normal(size=(b, h))
    weights = rng.normal(size=(b, h))
    model.reset(b)

    def loss():
        model.hidden[...] = h0
        return _weighted_sum(model.step(prev, boundaries=[False] * b), weights)

    params = [model.item_embedding, model.w_update, model.u_update, model.b_update,
              model.w_reset, model.u_reset, model.b_reset,
              model.w_cand, model.u_cand, model.b_cand]
    assert_param_grads_match(loss, params, rel=1e-4)


KINK_MARGIN = 1e-3  # finite differences are invalid when a relu input is ~0


def _pnn_relu_margin(pnn, contexts, prev) -> float:
    x = T.product_layer(pnn.embedding, *pnn._split_contexts(contexts, prev))
    pre = T.affine(x, pnn.fc_weight, pnn.fc_bias).data
    return float(np.min(np.abs(pre)))


def _with_kink_free_instance(seed, build_and_check):
    """Advance the seed until the sampled network avoids relu kinks."""
    for offset in range(50):
        if build_and_check(seed + offset * 1_000_003):
            return
    raise AssertionError("no kink-free instance found in 50 draws")


def _check_pnn_instance(seed):
    def attempt(s):
        rng = np.random.default_rng(s)
        pnn = PnnEncoder([3, 2, 4], n_items=5, embed_dim=3,
                         context_dim=5, rng=rng)  # 3 context fields + item
        b = int(rng.integers(2, 4))
        contexts = [
            tuple(int(off + rng.integers(size))
                  for off, size in zip(pnn.field_offsets, pnn.field_sizes))
            for _ in range(b)
        ]
        prev = rng.integers(0, 5, size=b)
        weights = rng.normal(size=(b, 5))
        if _pnn_relu_margin(pnn, contexts, prev) < KINK_MARGIN:
            return False

        def loss():
            return _weighted_sum(pnn.encode(contexts, prev, training=True), weights)

        params = [pnn.embedding, pnn.fc_weight, pnn.fc_bias, pnn.bn.gamma, pnn.bn.beta]
        assert_param_grads_match(loss, params, rel=1e-4)
        return True

    _with_kink_free_instance(seed, attempt)


def _arnn_relu_margin(model, contexts, prev, bounds, b) -> float:
    margin = _pnn_relu_margin(model.pnn, contexts, prev)
    model.reset(b)
    c = model.pnn.encode(contexts, prev, training=True)
    h = model.gru.step(prev, bounds)
    pre = T.affine(T.concat([c, h], axis=1),
                   model.merge_weight, model.merge_bias).data
    return min(margin, float(np.min(np.abs(pre))))


def _arnn_instance(s):
    """Seeded merge network and its loss closure, or None near a relu kink."""
    rng = np.random.default_rng(s)
    pnn = PnnEncoder([3, 2], n_items=5, embed_dim=3, context_dim=4,
                     rng=rng)
    gru = GruSessionModel(5, 3, rng=rng)
    model = ArnnModel(pnn, gru, merge_dim=4, rng=rng)
    b = 3
    contexts = [
        tuple(int(off + rng.integers(size))
              for off, size in zip(pnn.field_offsets, pnn.field_sizes))
        for _ in range(b)
    ]
    prev = rng.integers(0, 5, size=b)
    weights = rng.normal(size=(b, 5))
    bounds = [True] * b
    if _arnn_relu_margin(model, contexts, prev, bounds, b) < KINK_MARGIN:
        return None

    def loss():
        model.reset(b)
        return _weighted_sum(
            model.step_scores(prev, contexts, bounds, training=True), weights
        )

    return model, loss


def _check_arnn_instance(seed):
    def attempt(s):
        instance = _arnn_instance(s)
        if instance is None:
            return False
        model, loss = instance
        trainable = [p for p in model.parameters() if not p.frozen]
        frozen_sample = [model.gru.w_update, model.pnn.fc_weight]
        assert_param_grads_match(loss, trainable + frozen_sample, rel=1e-4)
        return True

    _with_kink_free_instance(seed, attempt)


def _check_top1_instance(seed):
    rng = np.random.default_rng(seed)
    pos = T.Parameter(rng.normal(size=()), "[pos]")
    negs = T.Parameter(rng.normal(size=int(rng.integers(1, 7))), "[negs]")
    assert_param_grads_match(lambda: top1_loss(pos, negs), [pos, negs], rel=1e-4)


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    counts = {"gru step": (100, _check_gru_instance),
              "pnn forward": (100, _check_pnn_instance),
              "merge network": (100, _check_arnn_instance),
              "top1 loss": (100, _check_top1_instance)}
    total = 0
    for name, (n, check) in counts.items():
        for i in range(n):
            check(10_000 + i)
        total += n
    elapsed = time.perf_counter() - started
    assert total >= 100
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    ok(1, f"gradients match finite differences on {total} instances "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: TOP1 fixed point and monotonicity


def test_criterion_2_top1_fixed_point():
    assert float(top1_loss(T.constant(0.0), T.constant(np.zeros(3))).data) == 1.0
    negs = T.constant(np.array([0.7, -0.4, 1.2]))
    grid = np.linspace(-6.0, 6.0, 50)
    values = [float(top1_loss(T.constant(x), negs).data) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    ok(2, "top1(0, zeros) == 1.0 exactly; loss strictly decreasing in the "
          "target logit over a 50-point grid")


# ---------------------------------------------------------------------------
# criteria 3 and 7: context-separation experiment and freeze contract


def _run_three_stages(dataset, out_dir, seed=1):
    plans = {stage: make_plan(stage, "synth", seed=seed) for stage in
             ("gru", "pnn", "merge")}
    run_stage(plans["gru"], dataset, out_dir)
    run_stage(plans["pnn"], dataset, out_dir)
    run_stage(plans["merge"], dataset, out_dir,
              gru_checkpoint=out_dir / "gru.npz",
              pnn_checkpoint=out_dir / "pnn.npz")


@pytest.fixture(scope="module")
def context_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("ctx")
    events, _ = generate(GeneratorSpec(n_sessions=2000, n_items=60, n_fields=6,
                                       informative=True, seed=7))
    train, test, _ = preprocess(events, gap_threshold=1800, item_coverage=1.0,
                                category_coverage=1.0, test_window=3 * 86400)
    started = time.perf_counter()
    _run_three_stages(train, out)
    elapsed = time.perf_counter() - started
    return {"out": out, "train": train, "test": test, "train_time": elapsed}


def test_criterion_3_context_separation(context_experiment):
    out = context_experiment["out"]
    test = context_experiment["test"]
    gru = load_checkpoint(out / "gru.npz")
    arnn = load_checkpoint(out / "merge.npz")
    gru_r1 = evaluate_system(gru, test, k=1)
    arnn_r1 = evaluate_system(arnn, test, k=1)
    gru_r20 = evaluate_system(gru, test, k=20)
    arnn_r20 = evaluate_system(arnn, test, k=20)
    elapsed = context_experiment["train_time"]
    assert elapsed <= 600.0, f"three-stage training took {elapsed:.0f}s"
    assert gru_r1.recall <= 0.60, f"context-blind GRU recall@1 {gru_r1.recall:.4f}"
    assert arnn_r1.recall >= 0.90, f"ARNN recall@1 {arnn_r1.recall:.4f}"
    assert arnn_r20.recall >= gru_r20.recall
    assert arnn_r20.mrr >= gru_r20.mrr
    ok(3, f"context separation: GRU recall@1 {gru_r1.recall:.4f} <= 0.60, "
          f"ARNN recall@1 {arnn_r1.recall:.4f} >= 0.90, "
          f"ARNN recall@20 {arnn_r20.recall:.4f} >= GRU {gru_r20.recall:.4f}, "
          f"ARNN mrr@20 {arnn_r20.mrr:.4f} >= GRU {gru_r20.mrr:.4f} "
          f"(training {elapsed:.0f}s)")


def test_criterion_7_freeze_contract(context_experiment):
    out = context_experiment["out"]
    gru_blocks = read_raw_tensor_bytes(out / "gru.npz")
    pnn_blocks = read_raw_tensor_bytes(out / "pnn.npz")
    merged_blocks = read_raw_tensor_bytes(out / "merge.npz")
    gru_keys = [k for k in gru_blocks if k.startswith("param/gru/")]
    assert gru_keys
    for key in gru_keys:
        assert merged_blocks[key] == gru_blocks[key], key
    bn_names = {"param/pnn/bn_gamma", "param/pnn/bn_beta",
                "state/pnn/bn_running_mean", "state/pnn/bn_running_var"}
    pnn_keys = [k for k in pnn_blocks if "/pnn/" in k]
    changed = {k for k in pnn_keys if merged_blocks[k] != pnn_blocks[k]}
    assert changed <= bn_names, f"non-bn tensors changed: {changed - bn_names}"
    ok(7, f"GRU block byte-identical after merge training ({len(gru_keys)} "
          f"tensors); PNN differs only in {sorted(changed) or 'nothing'}")


# ---------------------------------------------------------------------------
# criterion 4: context-poor regression


def test_criterion_4_context_poor_regression(tmp_path):
    events, _ = generate(GeneratorSpec(n_sessions=2000, n_items=60, n_fields=6,
                                       informative=False, seed=7))
    train, test, _ = preprocess(events, gap_threshold=1800, item_coverage=1.0,
                                category_coverage=1.0, test_window=3 * 86400)
    _run_three_stages(train, tmp_path)
    gru = load_checkpoint(tmp_path / "gru.npz")
    arnn = load_checkpoint(tmp_path / "merge.npz")
    gru_r20 = evaluate_system(gru, test, k=20)
    arnn_r20 = evaluate_system(arnn, test, k=20)
    gap = arnn_r20.recall - gru_r20.recall
    assert abs(gap) <= 0.03, f"recall@20 gap {gap:+.4f} exceeds +-0.03"
    ok(4, f"context-poor regression: ARNN recall@20 {arnn_r20.recall:.4f} vs "
          f"GRU {gru_r20.recall:.4f} (gap {gap:+.4f}, within +-0.03)")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_items = int(rng.integers(3, 15))
        k = int(rng.integers(1, n_items + 1))
        n_steps = int(rng.integers(1, 7))
        lists = [rng.choice(n_items, size=k, replace=False).tolist()
                 for _ in range(n_steps)]
        targets = rng.integers(0, n_items, size=n_steps).tolist()
        # independent brute force: literal definitions
        brute_recall = sum(1 for l, t in zip(lists, targets) if t in l) / n_steps
        brute_mrr = sum(
            (1.0 / (l.index(t) + 1)) if t in l else 0.0
            for l, t in zip(lists, targets)
        ) / n_steps
        assert recall_at_k(lists, targets, k) == brute_recall
        assert mrr_at_k(lists, targets, k) == brute_mrr
        assert mrr_at_k(lists, targets, k) <= recall_at_k(lists, targets, k)
    ok(5, "recall/mrr equal the brute-force scorer exactly on 1000 cases; "
          "mrr <= recall throughout")


# ---------------------------------------------------------------------------
# criterion 6: item-KNN oracle


def test_criterion_6_itemknn_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n_items = int(rng.integers(5, 51))
        n_sessions = int(rng.integers(3, 40))
        schema = FieldSchema([("f", ["x", "unknown"])],
                             [f"i{j}" for j in range(n_items)])
        sessions = []
        for s in range(n_sessions):
            items = rng.integers(0, n_items, size=int(rng.integers(2, 7)))
            sessions.append(Session((0,), [int(i) for i in items], start_time=s))
        ds = SessionDataset(sessions, schema)
        index = build_itemknn(ds, lam=0.0, top_m=n_items)
        incidence = np.zeros((n_sessions, n_items))
        for row, sess in enumerate(ds.sessions):
            for item in sess.items:
                incidence[row, item] = 1.0
        norms = np.sqrt(incidence.sum(axis=0))
        brute = np.zeros((n_items, n_items))
        for i in range(n_items):
            for j in range(n_items):
                if i != j and norms[i] > 0 and norms[j] > 0:
                    brute[i, j] = (incidence[:, i] @ incidence[:, j]) / (
                        norms[i] * norms[j])
        worst = max(worst, float(np.max(np.abs(index.sim - brute))))
    assert worst <= 1e-12
    ok(6, f"item-KNN equals dense brute-force cosine (worst diff {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 8: pipeline properties


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(st.sampled_from("abcdefghij"), st.integers(1, 15),
                           min_size=1),
    pair=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
)
def _coverage_monotonic(counts, pair):
    lo, hi = sorted(pair)
    events, t = [], 0
    for item, n in counts.items():
        for _ in range(n):
            events.append(RawEvent("u", item, t))
            t += 1
    kept_lo = sample_items_by_coverage(events, lo)
    kept_hi = sample_items_by_coverage(events, hi)
    assert len(kept_lo) <= len(kept_hi) and set(kept_lo) <= set(kept_hi)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def _round_trip_identity(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    fields = [(f"f{i}", [f"c{i}_{j}" for j in range(n)] + ["unknown"])
              for i, n in enumerate(sizes)]
    schema = FieldSchema(fields, ["i0"])
    positions = []
    for f, (_, cats) in enumerate(fields):
        chosen = data.draw(st.lists(st.integers(0, len(cats) - 1), min_size=1,
                                    max_size=len(cats), unique=True))
        positions.extend(schema.offsets[f] + c for c in chosen)
    positions = tuple(sorted(positions))
    assert schema.encode(schema.decode(positions)) == positions


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.integers(0, 2000), min_size=1, max_size=8),
       threshold=st.integers(1, 1000))
def _gap_boundary(gaps, threshold):
    times = np.cumsum([0] + gaps).tolist()
    events = [RawEvent("u", "i", ts) for ts in times]
    runs = mark_sessions(events, threshold)
    for run in runs:
        stamps = [e.timestamp for e in run]
        assert all(b - a <= threshold for a, b in zip(stamps, stamps[1:]))
    kept = sum(len(r) for r in runs)
    expected_breaks = [g > threshold for g in gaps]
    # reconstruct group sizes from the strict-inequality rule
    sizes, cur = [], 1
    for brk in expected_breaks:
        if brk:
            sizes.append(cur)
            cur = 1
        else:
            cur += 1
    sizes.append(cur)
    assert kept == sum(s for s in sizes if s >= 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def _cold_items_removed(data):
    day = 86400
    schema = FieldSchema([("f", ["x", "unknown"])], [f"i{j}" for j in range(8)])
    n = data.draw(st.integers(4, 16))
    sessions = []
    for s in range(n):
        start = data.draw(st.integers(0, 29)) * day + s
        items = data.draw(st.lists(st.integers(0, 7), min_size=2, max_size=5))
        sessions.append(Session((0,), items, start_time=start))
    try:
        train, test = split_train_test(sessions, schema, 3 * day)
    except SplitError:
        return
    assert test.item_set() <= train.item_set()


def test_criterion_8_pipeline_properties():
    _coverage_monotonic()
    _round_trip_identity()
    _gap_boundary()
    # exact boundary case stated by the contract: gap == threshold stays
    events = [RawEvent("u", "a", 0), RawEvent("u", "b", 3600)]
    assert len(mark_sessions(events, 3600)) == 1
    _cold_items_removed()
    ok(8, "coverage monotonicity, one-hot round trip, session-gap boundary, "
          "and cold-item removal hold over randomized inputs")


# ---------------------------------------------------------------------------
# criterion 9: end-to-end determinism


def _full_cli_run(root):
    raw, data, ckpt = root / "raw", root / "data", root / "ckpt"
    report = root / "report.tsv"
    assert main(["synth", "--out", str(raw), "--sessions", "200",
                 "--seed", "5"]) == 0
    assert main(["preprocess", "--input", str(raw / "events.tsv"),
                 "--out", str(data), "--gap-threshold-seconds", "1800",
                 "--item-coverage", "1.0", "--category-coverage", "1.0",
                 "--test-window-days", "3"]) == 0
    for stage in ("gru", "pnn", "merge"):
        assert main(["train", "--stage", stage, "--data",
                     str(data / "train.json"), "--out", str(ckpt),
                     "--profile", "synth", "--seed", "2", "--epochs", "6"]) == 0
    assert main(["evaluate", "--data", str(data / "test.json"),
                 "--train-data", str(data / "train.json"),
                 "--checkpoints", str(ckpt), "--k", "20",
                 "--out", str(report)]) == 0
    files = {"report.tsv": report.read_bytes()}
    for stage in ("gru", "pnn", "merge"):
        files[f"{stage}_history.tsv"] = (ckpt / f"{stage}_history.tsv").read_bytes()
    return files


def test_criterion_9_end_to_end_determinism(tmp_path):
    first = _full_cli_run(tmp_path / "run1")
    second = _full_cli_run(tmp_path / "run2")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    ok(9, "synth -> preprocess -> train(all stages) -> evaluate is "
          "byte-identical across two seeded runs (report + histories)")
