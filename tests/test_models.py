import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arnn import tensor as T
from arnn.data import FieldSchema
from arnn.errors import CheckpointError, SchemaError, VocabularyError
from arnn.models import (
    ArnnModel,
    GruSessionModel,
    PnnEncoder,
    load_checkpoint,
    read_raw_tensor_bytes,
    save_checkpoint,
)
from arnn.training import Adagrad

RNG = np.random.default_rng(77)


def small_gru(n_items=4, hidden=3, seed=5, dropout=0.0):
    return GruSessionModel(n_items, hidden, dropout=dropout,
                           rng=np.random.default_rng(seed))


def small_pnn(field_sizes=(3, 2), embed=3, context=5, n_items=4, seed=6):
    return PnnEncoder(list(field_sizes), n_items, embed, context,
                      rng=np.random.default_rng(seed))


def contexts_for(pnn, rng, n):
    """Random single-valued context per field, as global positions."""
    out = []
    for _ in range(n):
        pos = [off + rng.integers(size)
               for off, size in zip(pnn.field_offsets, pnn.field_sizes)]
        out.append(tuple(int(p) for p in pos))
    return out


# ---------------------------------------------------------------------------
# GRU


def _scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))


def gru_oracle_step(model, prev_items, h_prev):
    """Pure-scalar recomputation of the gate equations, one lane at a time."""
    h_size = model.hidden_size
    out = np.zeros((len(prev_items), h_size))
    for b, item in enumerate(prev_items):
        x = model.item_embedding.value[item]
        h = h_prev[b]

        def gate(w, u, bias, fn):
            vals = []
            for j in range(h_size):
                acc = bias.value[j]
                for k in range(h_size):
                    acc += x[k] * w.value[k, j] + h[k] * u.value[k, j]
                vals.append(fn(acc))
            return vals

        z = gate(model.w_update, model.u_update, model.b_update, _scalar_sigmoid)
        r = gate(model.w_reset, model.u_reset, model.b_reset, _scalar_sigmoid)
        cand = []
        for j in range(h_size):
            acc = model.b_cand.value[j]
            for k in range(h_size):
                acc += x[k] * model.w_cand.value[k, j]
                acc += r[k] * h[k] * model.u_cand.value[k, j]
            cand.append(math.tanh(acc))
        for j in range(h_size):
            out[b, j] = (1.0 - z[j]) * h[j] + z[j] * cand[j]
    return out


def test_gru_step_matches_scalar_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = small_gru(seed=seed)
        model.reset(2)
        model.hidden = rng.normal(size=(2, 3))
        h0 = model.hidden.copy()
        prev = rng.integers(0, 4, size=2)
        h = model.step(prev, boundaries=[False, False])
        assert_allclose(h.data, gru_oracle_step(model, prev, h0), atol=1e-10)


def test_gru_degenerate_weights_hidden_from_biases_only():
    model = small_gru()
    for p in [model.item_embedding, model.w_update, model.u_update,
              model.w_reset, model.u_reset, model.w_cand, model.u_cand]:
        p.value[...] = 0.0
    model.b_update.value[...] = [0.3, -0.2, 1.0]
    model.b_cand.value[...] = [0.5, 0.5, -1.0]
    model.reset(2)
    h = model.step([0, 3], boundaries=[True, True]).data
    z = 1 / (1 + np.exp(-model.b_update.value))
    expected = z * np.tanh(model.b_cand.value)
    assert_allclose(h, np.tile(expected, (2, 1)), atol=1e-12)


def test_gru_boundary_resets_before_cell():
    model = small_gru(seed=11)
    model.reset(1)
    model.hidden[:] = 3.0  # stale state that must be ignored
    h_boundary = model.step([2], boundaries=[True]).data.copy()
    model.reset(1)  # explicit zero state, no boundary
    h_zero = model.step([2], boundaries=[False]).data
    assert_allclose(h_boundary, h_zero)


def test_gru_vocabulary_error():
    model = small_gru(n_items=4)
    model.reset(1)
    with pytest.raises(VocabularyError):
        model.step([4], boundaries=[True])


def test_gru_negative_item_rejected():
    model = GruSessionModel(5, 3)
    model.reset(2)
    with pytest.raises(VocabularyError, match="item index -1"):
        model.step([2, -1], boundaries=[True, True])


def test_gru_scores_identity_projection():
    model = small_gru(n_items=3, hidden=3)
    model.out_weight.value[...] = np.eye(3)
    model.out_bias.value[...] = 0.0
    model.reset(2)
    h = model.step([0, 1], boundaries=[True, True])
    assert_allclose(model.scores(h).data, h.data)


def test_gru_scores_zero_hidden_gives_bias():
    model = small_gru(n_items=5, hidden=3)
    model.out_bias.value[...] = [1, 2, 3, 4, 5]
    logits = model.scores(T.constant(np.zeros((2, 3)))).data
    assert_allclose(logits, np.tile([1, 2, 3, 4, 5], (2, 1)))


def test_gru_scores_shape_at_realistic_vocabulary():
    model = GruSessionModel(13259, 100, rng=np.random.default_rng(0))
    model.reset(2)
    h = model.step([5, 17], boundaries=[True, True])
    assert model.scores(h).data.shape == (2, 13259)


def test_gru_hidden_lane_isolation():
    model = small_gru(seed=3)
    model.reset(2)
    model.step([0, 1], boundaries=[True, True])
    trajectory = [model.hidden[0].copy()]
    model.step([2, 3], boundaries=[False, False])
    trajectory.append(model.hidden[0].copy())

    model2 = small_gru(seed=3)
    model2.reset(2)
    model2.step([0, 2], boundaries=[True, True])  # lane 1 differs
    assert_allclose(model2.hidden[0], trajectory[0])
    model2.step([2, 0], boundaries=[False, True])
    assert_allclose(model2.hidden[0], trajectory[1])


# ---------------------------------------------------------------------------
# PNN


def test_pnn_product_signal_length_four_fields():
    pnn = small_pnn(field_sizes=(2, 2, 2))  # 3 context fields + item = 4
    assert pnn.n_fields == 4
    f = pnn.n_fields
    assert f * (f - 1) // 2 == 6
    in_dim = f * pnn.embed_dim + 6
    assert pnn.fc_weight.value.shape == (in_dim, pnn.context_dim)


def test_pnn_product_signal_length_368_fields():
    rng = np.random.default_rng(0)
    fields = [T.constant(rng.normal(size=(1, 2))) for _ in range(368)]
    assert T.pairwise_inner(fields).data.shape == (1, 67528)


def test_pnn_dimension_profile():
    # 3 context fields + previous item = 4 fields at embedding 10
    pnn = PnnEncoder([4, 4, 4], n_items=20, embed_dim=10,
                     context_dim=300, rng=np.random.default_rng(1))
    assert pnn.fc_weight.value.shape == (4 * 10 + 6, 300)
    rng = np.random.default_rng(2)
    ctx = contexts_for(pnn, rng, 3)
    c = pnn.encode(ctx, [0, 1, 2], training=True)
    assert c.data.shape == (3, 300)


def test_pnn_multivalued_field_averages_embeddings():
    pnn = small_pnn(field_sizes=(4,), embed=3)
    ctx = [(1, 3)]  # two active categories in the single field
    c1 = pnn.encode(ctx, [0], training=False).data
    # averaging by hand: the field's rows 1 and 3, then item 0 at row 4
    table = pnn.embedding.value
    mean_row = (table[1] + table[3]) / 2.0
    linear = np.concatenate([mean_row, table[4]])
    prod = np.dot(mean_row, table[4])
    pre = np.concatenate([linear, [prod]])[None, :]
    h = np.maximum(pre @ pnn.fc_weight.value + pnn.fc_bias.value, 0.0)
    expected = (h - pnn.bn.running_mean) / np.sqrt(pnn.bn.running_var + 1e-5)
    assert_allclose(c1, expected, atol=1e-12)


def _composed_embeds(pnn, contexts, prev):
    """Each field's embedding: a bag mean over its row block of the one table,
    then the gathered item rows."""
    indices, bags, counts = split_contexts_reference(pnn, contexts, prev)
    f_count = pnn.n_fields
    embeds = [T.embedding_bag_mean(pnn.embedding,
                                   [i for i, b in zip(indices, bags) if b % f_count == f],
                                   np.concatenate([[0], np.cumsum(counts[:, f])]))
              for f in range(f_count - 1)]
    embeds.append(T.embedding(pnn.embedding, pnn.one_hot_length + np.asarray(prev)))
    return embeds


def _composed_features(pnn, contexts, prev):
    """Pre-norm features from the composed ops: the product-layer node's reference."""
    embeds = _composed_embeds(pnn, contexts, prev)
    x = T.concat([T.concat(embeds, axis=1), T.pairwise_inner(embeds)], axis=1)
    return T.relu(T.affine(x, pnn.fc_weight, pnn.fc_bias))


def test_pnn_embedding_is_the_per_field_draws_then_the_items():
    sizes, n_items, e, seed = [3, 1, 4], 5, 2, 13
    pnn = PnnEncoder(sizes, n_items, e, 6, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    blocks = [T.glorot_uniform((size, e), rng) for size in [*sizes, n_items]]
    assert pnn.parameters()[0] is pnn.embedding
    assert pnn.embedding.name == "pnn/embedding"
    assert pnn.embedding.value.shape == (8 + n_items, e)
    starts = [0, 3, 4, 8, 8 + n_items]
    for block, lo, hi in zip(blocks, starts, starts[1:]):
        assert pnn.embedding.value[lo:hi].tobytes() == block.tobytes()
    # the next draw is the FC weight's, as when each block was its own table
    in_dim = 4 * e + 6
    assert pnn.fc_weight.value.tobytes() == T.glorot_uniform((in_dim, 6), rng).tobytes()


def test_product_layer_node_is_the_composed_ops_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(10):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 5))).tolist()
        fused, composed = (small_pnn(field_sizes=sizes, embed=4, context=7, n_items=6,
                                     seed=trial) for _ in range(2))
        contexts = []  # multi-valued fields, positions in any order
        for _ in range(int(rng.integers(2, 9))):
            ctx = [int(off + i) for off, size in zip(fused.field_offsets, sizes)
                   for i in rng.choice(size, int(rng.integers(1, size + 1)), replace=False)]
            contexts.append(tuple(rng.permutation(ctx).tolist()))
        prev = rng.integers(0, 6, size=len(contexts))  # repeats on purpose
        weights = T.constant(rng.normal(size=(len(contexts), 7)))
        out = fused.features(contexts, prev)
        reference = _composed_features(composed, contexts, prev)
        assert out.data.tobytes() == reference.data.tobytes()
        T.backward(T.sum_all(T.mul(out, weights)))
        T.backward(T.sum_all(T.mul(reference, weights)))
        assert fused.embedding.touched() is not ...  # the gathered rows only
        for p, q in zip(fused.parameters(), composed.parameters()):
            assert str(p.touched()) == str(q.touched()), p.name
            assert p.grad.tobytes() == q.grad.tobytes(), p.name


def test_pnn_empty_field_errors():
    pnn = small_pnn(field_sizes=(3, 2))
    with pytest.raises(SchemaError):
        pnn.encode([(0,)], [0], training=False)  # second field inactive


def test_pnn_scores_zero_input_gives_bias():
    pnn = small_pnn()
    pnn.score_bias.value[...] = [9, 8, 7, 6]
    logits = pnn.scores(T.constant(np.zeros((2, pnn.context_dim)))).data
    assert_allclose(logits, np.tile([9, 8, 7, 6], (2, 1)))


def test_pnn_pairwise_products_symmetric_under_field_swap():
    pnn = small_pnn(field_sizes=(3, 3), embed=4)
    ctx = [(0, 3)]  # same local index in both fields, so the swap exchanges them
    prev = [1]

    def products():
        return T.pairwise_inner(_composed_embeds(pnn, ctx, prev)).data.ravel()

    before = products()
    table = pnn.embedding.value
    table[:6] = np.concatenate([table[3:6], table[:3]])  # swap the two field blocks
    after = products()
    assert_allclose(np.sort(before), np.sort(after), atol=1e-12)


def test_pnn_vocabulary_error():
    pnn = small_pnn(n_items=4)
    with pytest.raises(VocabularyError):
        pnn.encode([(0, 3)], [4], training=False)


def test_pnn_negative_item_rejected():
    pnn = small_pnn(n_items=4)
    with pytest.raises(VocabularyError, match="item index -1"):
        pnn.encode([(0, 3), (1, 4)], [0, -1], training=False)


def split_contexts_reference(pnn, contexts, prev):
    """One position at a time: table row and (row, field) bag, in batch order,
    then each row's item entry."""
    n_fields = pnn.n_fields
    indices, bags = [], []
    counts = np.zeros((len(contexts), n_fields), dtype=np.int64)
    for row, ctx in enumerate(contexts):
        for p in ctx:
            f = max(f for f in range(n_fields - 1) if pnn.field_offsets[f] <= p)
            indices.append(p)
            bags.append(row * n_fields + f)
            counts[row, f] += 1
    for row, item in enumerate(prev):
        indices.append(pnn.one_hot_length + item)
        bags.append(row * n_fields + n_fields - 1)
        counts[row, n_fields - 1] += 1
    return indices, bags, counts


def test_split_contexts_matches_reference_loop():
    rng = np.random.default_rng(21)
    for _ in range(50):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 5))).tolist()
        pnn = small_pnn(field_sizes=sizes)
        contexts = []
        for _ in range(int(rng.integers(1, 8))):
            ctx = []
            for off, size in zip(pnn.field_offsets, sizes):
                k = int(rng.integers(1, size + 1))
                ctx.extend(int(off + i) for i in rng.choice(size, k, replace=False))
            rng.shuffle(ctx)  # positions need not be grouped by field
            contexts.append(tuple(ctx))
        prev = rng.integers(0, pnn.n_items, size=len(contexts)).tolist()
        got = pnn._split_contexts(contexts, prev)
        want = split_contexts_reference(pnn, contexts, prev)
        assert all(a.dtype == np.int64 for a in got)
        assert got[0].tolist() == want[0]
        assert got[1].tolist() == want[1]
        assert got[2].tolist() == want[2].tolist()


@pytest.mark.parametrize("contexts, message", [
    ([(0, 3), (1, 5)], "position 5 outside"),          # past the end
    ([(0, 3), (-1, 0, 4)], "position -1 outside"),     # negative
    ([(0, 3), (1,)], "field 1 has no active position"),
    ([(3,), (0, 7)], "field 0 has no active position"),  # earlier context first
    ([(0, 3), (2, 9)], "position 9 outside"),          # stray before empty field
])
def test_split_contexts_errors(contexts, message):
    pnn = small_pnn(field_sizes=(3, 2))
    with pytest.raises(SchemaError, match=message):
        pnn._split_contexts(contexts, [0] * len(contexts))


# ---------------------------------------------------------------------------
# ARNN


def build_arnn(seed=0, merge_dim=6):
    pnn = small_pnn(seed=seed)
    gru = small_gru(seed=seed + 1)
    return ArnnModel(pnn, gru, merge_dim, rng=np.random.default_rng(seed + 2))


def test_arnn_freeze_flags():
    model = build_arnn()
    assert all(p.frozen for p in model.gru.parameters())
    for p in model.pnn.parameters():
        if p.name in ("pnn/bn_gamma", "pnn/bn_beta"):
            assert not p.frozen
        else:
            assert p.frozen
    assert not model.merge_weight.frozen
    assert not model.out_weight.frozen


def test_arnn_merge_input_length_profile():
    pnn = PnnEncoder([3, 3], n_items=10, embed_dim=4, context_dim=300,
                     rng=np.random.default_rng(0))
    gru = GruSessionModel(10, 1000, rng=np.random.default_rng(1))
    model = ArnnModel(pnn, gru, merge_dim=1000, rng=np.random.default_rng(2))
    assert model.merge_weight.value.shape == (1300, 1000)


def test_arnn_forward_shape_and_gradient_routing():
    model = build_arnn()
    model.reset(3)
    rng = np.random.default_rng(4)
    ctx = contexts_for(model.pnn, rng, 3)
    logits = model.step_scores([0, 1, 2], ctx, [True, True, True], training=True)
    assert logits.data.shape == (3, 4)
    T.backward(T.sum_all(logits))
    # gradients exist even on frozen parameters
    assert np.abs(model.gru.out_weight.grad).sum() == 0.0  # head unused by merge path
    assert np.abs(model.gru.w_update.grad).sum() > 0.0
    assert np.abs(model.merge_weight.grad).sum() > 0.0


def test_arnn_head_on_constant_features_matches_step_scores():
    ref, fast = build_arnn(seed=3), build_arnn(seed=3)
    ref.reset(3)
    fast.reset(3)
    ctx = contexts_for(ref.pnn, np.random.default_rng(8), 3)
    prev, first = [0, 1, 2], [True, True, True]
    want = ref.step_scores(prev, ctx, first, training=True)
    c = fast.pnn.bn(T.constant(fast.pnn.features(ctx, prev).data), True)
    h = T.constant(fast.gru.step(prev, first).data)
    got = fast.head(c, h, True)
    assert got.data.tobytes() == want.data.tobytes()
    T.backward(T.sum_all(want))
    T.backward(T.sum_all(got))
    for p, q in zip(ref.parameters(), fast.parameters()):
        if p.frozen:
            assert not q.grad.any(), q.name  # constants: nothing flows back
        else:
            assert p.grad.tobytes() == q.grad.tobytes(), p.name
    assert ref.pnn.bn.running_mean.tobytes() == fast.pnn.bn.running_mean.tobytes()


def test_arnn_vocab_mismatch_rejected():
    pnn = small_pnn(n_items=4)
    gru = small_gru(n_items=5)
    with pytest.raises(CheckpointError):
        ArnnModel(pnn, gru, 6)


# ---------------------------------------------------------------------------
# checkpoints


SEEDED = {"gru": lambda: small_gru(seed=1), "pnn": lambda: small_pnn(seed=2),
          "arnn": lambda: build_arnn(seed=3)}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _unread(model, p) -> bool:
    """Whether a load leaves parameter `p` of `model` unread."""
    return model.kind == "arnn" and p.name in ArnnModel.frozen_heads


def _npy_bytes(a) -> bytes:
    """An array's bytes as ``np.savez`` stores them, header included."""
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def _assert_loaded_tables(model, loaded, path):
    """Every table the load read has the saved bits; every table it left
    unread holds no array, and the archive holds the saved bits for it."""
    raw = read_raw_tensor_bytes(path)
    for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
        assert p.name == q.name
        if _unread(model, p):
            assert q.value is None, p.name
            assert raw[f"param/{p.name}"] == _npy_bytes(p.value), p.name
        else:
            assert _same_bits(p.value, q.value), p.name


def test_checkpoint_round_trip_each_kind(tmp_path):
    schema_hash = "a" * 64
    for build in SEEDED.values():
        model = build()
        path = tmp_path / f"{model.kind}.npz"
        save_checkpoint(path, model, schema_hash)
        loaded = load_checkpoint(path, schema_hash, model.kind)
        _assert_loaded_tables(model, loaded, path)
        for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
            assert p.frozen == q.frozen, p.name
        assert model.state_arrays().keys() == loaded.state_arrays().keys()
        for name, arr in model.state_arrays().items():
            assert _same_bits(arr, loaded.state_arrays()[name]), name


def test_model_built_without_rng_holds_zero_tables():
    pnn, gru = PnnEncoder([3, 2], 4, 3, 5), GruSessionModel(4, 3)
    for model in (gru, pnn, ArnnModel(pnn, gru, 6)):
        tables = [p for p in model.parameters() if p.value.ndim == 2]
        assert tables and all(p.value.dtype == np.float64 for p in tables)
        assert not any(p.value.any() for p in tables), model.kind
    # a seeded build draws every table
    for build in SEEDED.values():
        assert all(p.value.all() for p in build().parameters() if p.value.ndim == 2)


@pytest.mark.parametrize("kind", SEEDED)
def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch, kind):
    model = SEEDED[kind]()
    path = tmp_path / f"{kind}.npz"
    save_checkpoint(path, model, "a" * 64)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    # Generator's methods cannot be patched (an immutable extension type), so
    # no generator may be made at all
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_checkpoint(path, "a" * 64, kind)
    _assert_loaded_tables(model, loaded, path)


@pytest.mark.parametrize("kind", SEEDED)
def test_checkpoint_load_keeps_the_arrays_it_read(tmp_path, monkeypatch, kind):
    path = tmp_path / f"{kind}.npz"
    model = SEEDED[kind]()
    save_checkpoint(path, model, "a" * 64)
    read = {}
    original = np.lib.npyio.NpzFile.__getitem__

    def recording(self, key):
        read[key] = original(self, key)
        return read[key]

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
    loaded = load_checkpoint(path, "a" * 64, kind)
    # every member once, but none of an arnn model's four frozen heads: merge
    # training loads gru and pnn checkpoints and saves their heads again
    unread = {f"param/{p.name}" for p in model.parameters() if _unread(model, p)}
    assert len(unread) == (4 if kind == "arnn" else 0)
    assert sorted(read) == sorted(set(np.load(path).files) - unread)
    for p in loaded.parameters():
        if not _unread(loaded, p):
            assert p.value is read[f"param/{p.name}"], p.name
    _assert_loaded_tables(model, loaded, path)


def test_loaded_arnn_model_cannot_be_saved(tmp_path):
    path = tmp_path / "arnn.npz"
    save_checkpoint(path, SEEDED["arnn"](), "a" * 64)
    loaded = load_checkpoint(path, "a" * 64, "arnn")
    out = tmp_path / "out" / "again.npz"
    out.parent.mkdir()
    with pytest.raises(CheckpointError, match="cannot save a model loaded without"):
        save_checkpoint(out, loaded, "a" * 64)
    assert list(out.parent.iterdir()) == []
    # nor over an existing checkpoint, which stays as it was
    before = path.read_bytes()
    with pytest.raises(CheckpointError):
        save_checkpoint(path, loaded, "a" * 64)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arnn.npz", "out"]


def test_checkpoint_member_in_fortran_order_loads_c_contiguous(tmp_path):
    model = small_gru(seed=1)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, "a" * 64)
    stored = dict(np.load(path))
    stored["param/gru/out_weight"] = np.asfortranarray(stored["param/gru/out_weight"])
    np.savez(path, **stored)
    assert not np.load(path)["param/gru/out_weight"].flags.c_contiguous
    w = load_checkpoint(path, "a" * 64, "gru").out_weight.value
    assert w.flags.c_contiguous
    assert _same_bits(w, model.out_weight.value)


def test_adagrad_updates_a_loaded_encoders_batch_norm_scale_in_place(tmp_path):
    path = tmp_path / "pnn.npz"
    save_checkpoint(path, small_pnn(seed=2), "a" * 64)
    pnn = load_checkpoint(path, "a" * 64, "pnn")
    model = ArnnModel(pnn, small_gru(seed=1), 6, rng=np.random.default_rng(3))
    gamma = pnn.bn.gamma
    table, before = gamma.value, gamma.value.copy()
    opt = Adagrad(model.parameters(), learning_rate=0.1)
    gamma.grad[...] = 1.0
    opt.step()
    assert gamma.value is table
    assert (table < before).all()


@pytest.mark.parametrize("kind, member", [
    ("gru", "gru/u_reset"),
    ("pnn", "pnn/embedding"),
    ("arnn", "merge/out_weight"),
])
def test_checkpoint_missing_tensor_rejected(tmp_path, kind, member):
    path = tmp_path / f"{kind}.npz"
    save_checkpoint(path, SEEDED[kind](), "a" * 64)
    stored = dict(np.load(path))
    del stored[f"param/{member}"]
    np.savez(path, **stored)
    with pytest.raises(CheckpointError, match=f"missing tensor '{member}'"):
        load_checkpoint(path, "a" * 64, kind)


def test_checkpoint_schema_hash_mismatch(tmp_path):
    model = small_gru()
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, "a" * 64)
    with pytest.raises(CheckpointError, match="schema hash"):
        load_checkpoint(path, "b" * 64)


def test_checkpoint_kind_mismatch(tmp_path):
    model = small_gru()
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, "a" * 64)
    with pytest.raises(CheckpointError, match="expected 'pnn'"):
        load_checkpoint(path, "a" * 64, "pnn")


def test_checkpoint_dimension_mismatch_names_tensor(tmp_path):
    model = small_gru()
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, "a" * 64)
    stored = dict(np.load(path))
    stored["param/gru/w_update"] = np.zeros((2, 2))
    np.savez(path, **stored)
    with pytest.raises(CheckpointError, match="gru/w_update"):
        load_checkpoint(path, "a" * 64)


@pytest.mark.parametrize("edit, message", [
    ({"kind": "narm"}, "cannot build a 'narm' model"),
    ({"hyperparameters": {"hidden": 4}}, "cannot build a 'gru' model"),
    ({"hyperparameters": [4]}, "cannot build a 'gru' model"),
    ({"format_version": 0}, "unsupported format 0"),
    ({"hyperparameters": {"n_items": 4, "hidden_size": -1, "dropout": 0.0}},
     "cannot build a 'gru' model"),
])
def test_checkpoint_bad_meta_rejected(tmp_path, edit, message):
    path = tmp_path / "m.npz"
    save_checkpoint(path, small_gru(), "a" * 64)
    stored = dict(np.load(path))
    meta = {**json.loads(bytes(stored["meta"])), **edit}
    stored["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **stored)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_write_failure_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "m.npz"
    save_checkpoint(path, small_gru(seed=1), "a" * 64)
    before = path.read_bytes()

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, small_gru(seed=2), "a" * 64)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]


def test_checkpoint_appends_npz_suffix(tmp_path):
    save_checkpoint(tmp_path / "m", small_gru(), "a" * 64)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]


def test_checkpoint_raw_bytes_stable(tmp_path):
    model = small_gru(seed=9)
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(p1, model, "a" * 64)
    save_checkpoint(p2, model, "a" * 64)
    b1, b2 = read_raw_tensor_bytes(p1), read_raw_tensor_bytes(p2)
    assert set(b1) == set(b2)
    for key in b1:
        assert b1[key] == b2[key], key
