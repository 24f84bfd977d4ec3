import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arnn import tensor as T
from arnn import training
from arnn.batching import MiniBatch, SessionParallelIterator, negatives_for
from arnn.data import FieldSchema, Session, SessionDataset
from arnn.errors import ConfigError, DataError, NumericError, PrerequisiteError
from arnn.models import (
    ArnnModel,
    GruSessionModel,
    PnnEncoder,
    load_checkpoint,
    read_raw_tensor_bytes,
)
from arnn.training import (
    Adagrad,
    EpochStats,
    history_tsv,
    make_plan,
    run_stage,
    split_validation,
    top1_batch_loss,
    top1_loss,
)
from util import assert_param_grads_match


# ---------------------------------------------------------------------------
# TOP1 loss


def test_top1_zero_score_fixed_point():
    loss = top1_loss(T.constant(0.0), T.constant(np.zeros(1)))
    assert float(loss.data) == 1.0


def test_top1_scalar_evaluation():
    loss = top1_loss(T.constant(2.0), T.constant(np.array([0.0])))
    assert_allclose(float(loss.data), 0.61920, atol=1e-5)


def test_top1_mean_invariance():
    loss = top1_loss(T.constant(0.0), T.constant(np.zeros(3)))
    assert float(loss.data) == 1.0


def test_top1_zero_negatives_is_an_error():
    with pytest.raises(DataError):
        top1_loss(T.constant(0.0), T.constant(np.zeros(0)))


def test_top1_strictly_decreasing_in_target():
    negs = T.constant(np.array([0.3, -1.0, 2.0]))
    values = [float(top1_loss(T.constant(x), negs).data)
              for x in np.linspace(-5, 5, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_top1_gradient_matches_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pos = T.Parameter(rng.normal(size=()), "pos")
        negs = T.Parameter(rng.normal(size=4), "negs")
        assert_param_grads_match(
            lambda: top1_loss(pos, negs), [pos, negs], rel=1e-6, abs_floor=1e-10
        )


def test_top1_batch_matches_per_lane_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, v = 6, 9
        logits_np = rng.normal(size=(n, v))
        targets = rng.integers(0, v, size=n)
        batch = MiniBatch(
            prev_items=np.zeros(n, dtype=int),
            target_items=targets,
            contexts=[()] * n,
            session_boundary=np.ones(n, dtype=bool),
            lanes=np.arange(n),
        )
        cols, own = np.unique(targets, return_inverse=True)
        loss = top1_batch_loss(T.constant(logits_np[:, cols]), own)
        per_lane = []
        for row in range(n):
            negs = negatives_for(batch, row)
            if negs.size == 0:
                continue
            per_lane.append(float(top1_loss(
                T.constant(logits_np[row, targets[row]]),
                T.constant(logits_np[row, negs]),
            ).data))
        # every row has the other distinct targets as negatives, or none does
        assert len(per_lane) in (0, n)
        if per_lane:
            assert_allclose(float(loss.data), np.mean(per_lane), atol=1e-12)
        else:
            assert loss is None


def test_top1_batch_all_collisions_returns_none():
    # both rows target the batch's single distinct item
    logits = T.constant(np.zeros((2, 1)))
    assert top1_batch_loss(logits, [0, 0]) is None


def test_top1_batch_gradient():
    rng = np.random.default_rng(5)
    logits = T.Parameter(rng.normal(size=(4, 3)), "logits")
    own = np.array([0, 1, 1, 2])
    assert_param_grads_match(
        lambda: top1_batch_loss(logits, own), [logits], rel=1e-6,
        abs_floor=1e-10,
    )


def _composed_top1_batch_loss(scores, own):
    """TOP1 over in-batch negatives from composed ops: the fused node's reference."""
    scores = T.as_tensor(scores)
    n, m = scores.shape
    pos = T.take_rc(scores, np.arange(n), own)
    diff = T.sub(scores, T.reshape(pos, (n, 1)))
    terms = T.add(T.sigmoid(diff), T.sigmoid(T.mul(scores, scores)))
    weights = np.full((n, m), 1.0 / (m - 1) / n)
    weights[np.arange(n), own] = 0.0
    return T.sum_all(T.mul(terms, T.constant(weights)))


@pytest.mark.parametrize("n, m", [(2, 2), (5, 2), (6, 4), (32, 20)])
def test_top1_batch_loss_is_the_composed_graph_bit_for_bit(n, m):
    rng = np.random.default_rng(10 * n + m)
    for trial in range(20):
        # every column is some row's target, and n > m repeats targets
        own = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)]))
        values = rng.normal(scale=3.0, size=(n, m))
        values[0, 0] = 40.0 * (-1) ** trial  # saturated sigmoids
        fused, composed = T.Parameter(values, "fused"), T.Parameter(values, "composed")
        loss = top1_batch_loss(fused, own)
        reference = _composed_top1_batch_loss(composed, own)
        assert loss.data.tobytes() == reference.data.tobytes()
        T.backward(loss)
        T.backward(reference)
        assert fused.grad.tobytes() == composed.grad.tobytes()
    if n * m <= 24:
        logits = T.Parameter(rng.normal(size=(n, m)), "logits")
        assert_param_grads_match(lambda: top1_batch_loss(logits, own), [logits],
                                 rel=1e-6, abs_floor=1e-10)


# ---------------------------------------------------------------------------
# Adagrad


def test_adagrad_hand_example():
    p = T.Parameter(np.array([1.0]), "theta")
    p.grad[...] = 2.0
    opt = Adagrad([p], learning_rate=0.1)
    opt.step()
    assert_allclose(p.accumulator, [4.0])
    assert_allclose(p.value, [1.0 - 0.1 * 2.0 / (2.0 + 1e-10)])


def test_adagrad_on_a_fresh_parameter_matches_the_hand_example():
    # the optimizer comes first and backward makes the gradient
    p = T.Parameter(np.array([1.0]), "theta")
    assert p.accumulator is None
    opt = Adagrad([p], learning_rate=0.1)
    assert p.accumulator.tolist() == [0.0]
    T.backward(T.sum_all(T.mul(p, 2.0)))
    opt.step()
    assert_allclose(p.accumulator, [4.0])
    assert_allclose(p.value, [1.0 - 0.1 * 2.0 / (2.0 + 1e-10)])


def test_adagrad_zero_gradient_leaves_values():
    p = T.Parameter(np.array([3.0, -1.0]), "p")
    opt = Adagrad([p], learning_rate=0.5, weight_decay=0.0)
    opt.step()
    assert_allclose(p.value, [3.0, -1.0])


def test_adagrad_weight_decay_decoupled():
    p = T.Parameter(np.array([2.0]), "p")
    p.grad[...] = 1.0
    Adagrad([p], learning_rate=0.1, weight_decay=0.01).step()
    expected = 2.0 - 0.1 * 1.0 / (1.0 + 1e-10) - 0.1 * 0.01 * 2.0
    assert_allclose(p.value, [expected])


def test_adagrad_frozen_parameter_bit_identical():
    p = T.Parameter(np.array([0.1, 0.2, 0.3]), "frozen", frozen=True)
    before = p.value.tobytes()
    p.grad[...] = 5.0
    opt = Adagrad([p], learning_rate=1.0)
    for _ in range(10):
        p.grad[...] = 5.0
        opt.step()
    assert p.value.tobytes() == before


def test_adagrad_gradients_zeroed_after_step():
    p = T.Parameter(np.ones(2), "p")
    q = T.Parameter(np.ones(2), "q", frozen=True)
    p.grad[...] = 1.0
    q.grad[...] = 1.0
    Adagrad([p, q], learning_rate=0.1).step()
    assert_allclose(p.grad, 0.0)
    assert_allclose(q.grad, 0.0)


def test_adagrad_step_magnitude_non_increasing():
    p = T.Parameter(np.array([0.0]), "p")
    opt = Adagrad([p], learning_rate=0.1)
    deltas = []
    for _ in range(6):
        before = p.value.copy()
        p.grad[...] = 1.5
        opt.step()
        deltas.append(abs(float(p.value[0] - before[0])))
    acc = p.accumulator.copy()
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    p.grad[...] = 0.5
    opt.step()
    assert np.all(p.accumulator >= acc)


def test_adagrad_non_finite_gradient_names_parameter():
    p = T.Parameter(np.ones(2), "merge/weight")
    p.grad[...] = np.nan
    with pytest.raises(NumericError, match="merge/weight"):
        Adagrad([p], learning_rate=0.1).step()


def test_adagrad_non_finite_gradient_in_touched_rows():
    table = T.Parameter(np.ones((4, 2)), "gru/item_embedding")
    T.backward(T.sum_all(T.mul(T.embedding(table, [1, 3]), np.array([np.nan, 1.0]))))
    assert table.touched() is not ...
    with pytest.raises(NumericError, match="gru/item_embedding"):
        Adagrad([table], learning_rate=0.1).step()


def test_adagrad_sliced_step_allocates_no_table_sized_temporary():
    # the weight-decay pass over an untouched remainder reuses the step's scratch
    table = T.Parameter(np.random.default_rng(4).normal(size=(3000, 100)), "table")
    opt = Adagrad([table], learning_rate=0.1, weight_decay=1e-6)
    rows = np.array([3, 7, 7, 2999])
    T.backward(T.sum_all(T.embedding(table, rows)))
    opt.step()
    T.backward(T.sum_all(T.embedding(table, rows)))
    assert table.touched() is not ...
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.value.nbytes


def _sparse_and_dense_twins(rng):
    """Two equal copies of a [6, 5] table, its [5, 7] projection and bias."""
    values = (rng.normal(size=(6, 5)), rng.normal(size=(5, 7)), rng.normal(size=7))
    return [[T.Parameter(v.copy(), name) for v, name in zip(values, ("emb", "w", "b"))]
            for _ in range(2)]


@pytest.mark.parametrize("weight_decay", [0.0, 1e-6])
def test_adagrad_sparse_step_bit_identical_to_dense(weight_decay):
    # the same gradients, recorded as touched rows/columns on one copy and
    # as written everywhere (read through .grad) on the other
    rng = np.random.default_rng(3)
    sparse, dense = _sparse_and_dense_twins(rng)
    opt_s = Adagrad(sparse, learning_rate=0.3, weight_decay=weight_decay)
    opt_d = Adagrad(dense, learning_rate=0.3, weight_decay=weight_decay)
    for step in range(5):
        rows = rng.integers(0, 6, size=4)  # repeats on purpose
        cols = rng.integers(0, 7, size=3)
        s = rng.normal(size=(4, 3))

        def loss(emb, w, b):
            return T.sum_all(T.mul(T.affine_columns(T.embedding(emb, rows), w, b, cols), s))

        T.backward(loss(*sparse))
        T.backward(loss(*dense))
        if step % 2:  # a parameter touched sparsely and densely in one step
            T.backward(T.sum_all(T.mul(sparse[1], 0.5)))
            T.backward(T.sum_all(T.mul(dense[1], 0.5)))
            assert sparse[1].touched() is ...
        else:
            assert sparse[1].touched() is not ...
        assert sparse[0].touched() is not ... and sparse[2].touched() is not ...
        for p in dense:
            p.grad  # reading it marks the whole tensor as written
            assert p.touched() is ...
        opt_s.step()
        opt_d.step()
        for p, q in zip(sparse, dense):
            assert p.value.tobytes() == q.value.tobytes(), (step, p.name)
            assert p.accumulator.tobytes() == q.accumulator.tobytes(), (step, p.name)
            assert not p.grad.any() and not q.grad.any()
            p.zero_grad()  # reading .grad above counted as a write


# ---------------------------------------------------------------------------
# stage runner


def toy_dataset(n_sessions=20, n_items=8, seed=0, context_driven=False):
    """Deterministic successor chains; optionally two context groups."""
    rng = np.random.default_rng(seed)
    fields = [("f", ["a", "b", "unknown"])]
    schema = FieldSchema(fields, [f"i{k}" for k in range(n_items)])
    succ0 = [(i + 1) % n_items for i in range(n_items)]
    succ1 = [(i + 3) % n_items for i in range(n_items)]
    sessions = []
    for s in range(n_sessions):
        group = s % 2 if context_driven else 0
        item = int(rng.integers(n_items))
        items = [item]
        for _ in range(4):
            item = (succ1 if group else succ0)[item]
            items.append(item)
        sessions.append(Session((group,), items, start_time=s * 1000))
    return SessionDataset(sessions, schema)


def small_plan(stage, **overrides):
    defaults = dict(hidden_size=12, embed_dim=4, context_dim=12, merge_dim=12,
                    dropout=0.0, batch_lanes=4, epochs=5, patience=10,
                    eval_lanes=4)
    defaults.update(overrides)
    return make_plan(stage, "synth", seed=11, **defaults)


def test_split_validation_takes_latest_sessions():
    ds = toy_dataset(n_sessions=20)
    train, val = split_validation(ds, 0.1)
    assert len(val.sessions) == 2
    assert min(s.start_time for s in val.sessions) > max(
        s.start_time for s in train.sessions
    )


def test_run_stage_gru_loss_drops_on_memorizable_set(tmp_path):
    ds = toy_dataset()
    result = run_stage(small_plan("gru"), ds, tmp_path)
    assert len(result.history) >= 1
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_run_stage_pnn_loss_drops(tmp_path):
    ds = toy_dataset(context_driven=True)
    result = run_stage(small_plan("pnn"), ds, tmp_path)
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_run_stage_merge_requires_checkpoints(tmp_path):
    ds = toy_dataset()
    with pytest.raises(PrerequisiteError):
        run_stage(small_plan("merge"), ds, tmp_path)


def test_run_stage_merge_zero_epochs_equals_initialization(tmp_path):
    ds = toy_dataset(context_driven=True)
    run_stage(small_plan("gru", epochs=2), ds, tmp_path)
    run_stage(small_plan("pnn", epochs=2), ds, tmp_path)
    gru_path = tmp_path / "gru.npz"
    pnn_path = tmp_path / "pnn.npz"
    result = run_stage(small_plan("merge", epochs=0), ds, tmp_path,
                       gru_checkpoint=gru_path, pnn_checkpoint=pnn_path)
    assert result.history == []
    loaded = load_checkpoint(result.checkpoint_path, ds.schema.hash(), "arnn")
    # rebuild the same initialization: rng state advances identically
    from arnn.training import _build_stage_model

    fresh = _build_stage_model(small_plan("merge", epochs=0), ds,
                               np.random.default_rng(11),
                               gru_checkpoint=gru_path, pnn_checkpoint=pnn_path)
    merged = read_raw_tensor_bytes(result.checkpoint_path)
    pretrained = {**read_raw_tensor_bytes(gru_path), **read_raw_tensor_bytes(pnn_path)}
    for p, q in zip(loaded.parameters(), fresh.parameters(), strict=True):
        assert p.name == q.name
        if p.name in ArnnModel.frozen_heads:  # left unread by the load
            assert p.value is None
            assert merged[f"param/{p.name}"] == pretrained[f"param/{p.name}"], p.name
        else:
            assert p.value.tobytes() == q.value.tobytes(), p.name


def test_run_stage_merge_keeps_frozen_blocks(tmp_path):
    ds = toy_dataset(context_driven=True)
    run_stage(small_plan("gru", epochs=2), ds, tmp_path)
    run_stage(small_plan("pnn", epochs=2), ds, tmp_path)
    gru_before = load_checkpoint(tmp_path / "gru.npz")
    run_stage(small_plan("merge", epochs=3), ds, tmp_path,
              gru_checkpoint=tmp_path / "gru.npz",
              pnn_checkpoint=tmp_path / "pnn.npz")
    merged = load_checkpoint(tmp_path / "merge.npz")
    merged_raw = read_raw_tensor_bytes(tmp_path / "merge.npz")
    gru_raw = read_raw_tensor_bytes(tmp_path / "gru.npz")
    for p, q in zip(gru_before.parameters(), merged.gru.parameters(), strict=True):
        if p.name in ArnnModel.frozen_heads:  # left unread by the load
            assert q.value is None
            assert merged_raw[f"param/{p.name}"] == gru_raw[f"param/{p.name}"], p.name
        else:
            assert p.value.tobytes() == q.value.tobytes(), p.name


def test_merge_frozen_blocks_hold_no_gradient_or_accumulator(tmp_path, monkeypatch):
    ds = toy_dataset(context_driven=True)
    run_stage(small_plan("gru", epochs=2), ds, tmp_path)
    run_stage(small_plan("pnn", epochs=2), ds, tmp_path)
    built, build = [], training._build_stage_model

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(training, "_build_stage_model", keep)
    run_stage(small_plan("merge", epochs=2), ds, tmp_path,
              gru_checkpoint=tmp_path / "gru.npz", pnn_checkpoint=tmp_path / "pnn.npz")
    for p in built[0].parameters():
        if p.frozen:
            assert p._grad is None and p.accumulator is None, p.name
        else:
            assert p._grad is not None and p.accumulator.any(), p.name


def test_merge_on_constant_features_matches_step_scores(tmp_path, monkeypatch):
    ds = toy_dataset(context_driven=True)
    run_stage(small_plan("gru", epochs=2), ds, tmp_path)
    run_stage(small_plan("pnn", epochs=2), ds, tmp_path)
    pretrained = dict(gru_checkpoint=tmp_path / "gru.npz",
                      pnn_checkpoint=tmp_path / "pnn.npz")
    fast = run_stage(small_plan("merge", epochs=3), ds, tmp_path / "fast", **pretrained)

    def through_differentiable_blocks(model, batch, cols=None, training=False, rng=None):
        c = model.pnn.encode(batch.contexts, batch.prev_items, training)
        h = model.gru.step(batch.prev_items, batch.session_boundary, lane_ids=batch.lanes)
        return model.head(c, h, training, cols=cols)

    monkeypatch.setattr(ArnnModel, "logits", through_differentiable_blocks)
    ref = run_stage(small_plan("merge", epochs=3), ds, tmp_path / "ref", **pretrained)
    assert [h.train_loss for h in fast.history] == [h.train_loss for h in ref.history]
    assert history_tsv(fast.history) == history_tsv(ref.history)
    assert (read_raw_tensor_bytes(fast.checkpoint_path)
            == read_raw_tensor_bytes(ref.checkpoint_path))


def _stage_model(stage, dataset, seed):
    rng = np.random.default_rng(seed)
    n_items = len(dataset.schema.item_vocabulary)
    gru = GruSessionModel(n_items, 6, dropout=0.3, rng=rng)
    pnn = PnnEncoder.from_schema(dataset.schema, 3, 5, rng)
    if stage == "gru":
        return gru
    if stage == "pnn":
        return pnn
    return ArnnModel(pnn, gru, 7, rng)


@pytest.mark.parametrize("stage", ["gru", "pnn", "merge"])
def test_target_columns_match_full_logits(stage):
    # one training step scored on the batch's distinct targets against the
    # same step scored on every item, then gathered by an exact one-hot product
    ds = toy_dataset(n_sessions=12, n_items=9, context_driven=True)
    models = [_stage_model(stage, ds, seed=4) for _ in range(2)]
    batch = next(iter(SessionParallelIterator(ds, 6)))
    cols, own = np.unique(batch.target_items, return_inverse=True)
    assert 2 <= len(cols) < 9
    one_hot = np.zeros((9, len(cols)))
    one_hot[cols, np.arange(len(cols))] = 1.0
    results = []
    for model, cols_arg in zip(models, [cols, None]):
        model.reset(6)
        logits = model.logits(batch, cols_arg, training=True, rng=np.random.default_rng(9))
        if cols_arg is None:
            logits = T.matmul(logits, T.constant(one_hot))
        loss = top1_batch_loss(logits, own)
        T.backward(loss)
        grads = {p.name: p.grad.copy() for p in model.parameters() if not p.frozen}
        results.append((float(loss.data), grads))
    (loss_s, grads_s), (loss_d, grads_d) = results
    assert_allclose(loss_s, loss_d, rtol=1e-12, atol=0)
    for name, g in grads_d.items():
        assert_allclose(grads_s[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(),
                        err_msg=name)
    # the sparse step left every non-target output column untouched
    out = {"gru": "gru/out_weight", "pnn": "pnn/score_weight",
           "merge": "merge/out_weight"}[stage]
    others = np.setdiff1d(np.arange(9), cols)
    assert not grads_s[out][:, others].any()


def test_run_stage_deterministic_history(tmp_path):
    ds = toy_dataset(context_driven=True)
    r1 = run_stage(small_plan("gru", epochs=3), ds, tmp_path / "a")
    r2 = run_stage(small_plan("gru", epochs=3), ds, tmp_path / "b")
    assert history_tsv(r1.history) == history_tsv(r2.history)


def test_run_stage_skip_rules(tmp_path, monkeypatch):
    # two lanes over one long session and two one-step sessions that both
    # target item 1: in every session order, one batch pairs two rows with
    # target 1 and the long session ends alone in one-row batches
    schema = FieldSchema([("f", ["a", "unknown"])], [f"i{k}" for k in range(8)])
    item_lists = [[0, 1, 2, 3, 4, 5], [6, 1], [7, 1], [2, 3]]  # the last validates
    ds = SessionDataset([Session((0,), items, start_time=k)
                         for k, items in enumerate(item_lists)], schema)
    emitted, scored = [], []
    steps = []

    class Recorded(SessionParallelIterator):
        def __next__(self):
            emitted.append(super().__next__())
            return emitted[-1]

    raw_logits, raw_step = GruSessionModel.logits, Adagrad.step

    def logits(model, batch, cols=None, training=False, rng=None):
        if training:
            scored.append(batch)
        return raw_logits(model, batch, cols, training, rng)

    def step(optimizer):
        steps.append(len(scored))
        raw_step(optimizer)

    monkeypatch.setattr("arnn.training.SessionParallelIterator", Recorded)
    monkeypatch.setattr(GruSessionModel, "logits", logits)
    monkeypatch.setattr(Adagrad, "step", step)
    run_stage(small_plan("gru", batch_lanes=2, epochs=3), ds, tmp_path)
    assert any(len(b.lanes) == 1 for b in emitted)
    assert [id(b) for b in scored] == [id(b) for b in emitted if len(b.lanes) >= 2]
    shared = [i for i, b in enumerate(scored, start=1)
              if len(set(b.target_items.tolist())) == 1]
    assert shared
    # one update per scored batch with two or more distinct targets
    assert steps == [i for i in range(1, len(scored) + 1) if i not in shared]


def test_run_stage_divergence_aborts_with_checkpoint(tmp_path):
    # the product layer squares the exploded embeddings into inf - inf = nan
    ds = toy_dataset(context_driven=True)
    plan = small_plan("pnn", epochs=3)
    plan.learning_rate = 1e300
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged"):
            run_stage(plan, ds, tmp_path)
    assert (tmp_path / "pnn.npz").exists()


def test_history_tsv_format():
    text = history_tsv([EpochStats(0, 1.0, 0.5, 0.25)])
    assert text.splitlines()[0] == "epoch\ttrain_loss\tval_recall@20\tval_mrr@20"
    assert text.splitlines()[1] == "0\t1.000000\t0.500000\t0.250000"


@pytest.mark.parametrize("epochs", [-1, -3])
def test_negative_epochs_rejected(epochs):
    with pytest.raises(ConfigError, match="epochs must be non-negative"):
        make_plan("gru", "synth", 0, epochs=epochs)
    with pytest.raises(ConfigError, match=f"seed must be non-negative, got {epochs}"):
        make_plan("gru", "synth", seed=epochs)
    assert make_plan("merge", "synth", 0, epochs=0).epochs == 0
