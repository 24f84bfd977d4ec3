import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from arnn import tensor as T
from arnn.cli import softmax
from arnn.errors import DegenerateBatchError, NumericError, ShapeError
from util import assert_param_grads_match

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# affine


def test_affine_identity():
    out = T.affine([[1.0, 0.0]], np.eye(2), np.zeros(2))
    assert_allclose(out.data, [[1.0, 0.0]])


def test_affine_bias_shift():
    out = T.affine([[1.0, 2.0]], np.eye(2), [3.0, 4.0])
    assert_allclose(out.data, [[4.0, 6.0]])


def test_affine_hand_matmul():
    out = T.affine([[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
    assert_allclose(out.data, [[7.0, 10.0]])


def test_affine_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
        T.affine(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2))


def test_affine_columns_equals_affine_then_gather():
    x = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(4, 7))
    b = RNG.normal(size=7)
    cols = np.array([5, 0, 5, 2])
    full = T.affine(x, w, b).data
    assert_allclose(T.affine_columns(x, w, b, cols).data, full[:, cols], rtol=1e-14)


def test_affine_values_are_matmul_plus_bias_bit_for_bit():
    x = RNG.normal(size=(5, 4))
    w = RNG.normal(size=(4, 9))
    b = RNG.normal(size=9) * 1e3
    assert_array_equal(T.affine(x, w, b).data, x @ w + b)
    cols = np.array([8, 0, 8, 3])
    assert_array_equal(T.affine_columns(x, w, b, cols).data, x @ w[:, cols] + b[cols])


@pytest.mark.parametrize("cols", [[6, 1, 3], [2, 5, 2, 0, 5]])
def test_grad_affine_columns(cols):
    # the second case repeats columns, whose gradients must add up
    w = T.Parameter(RNG.normal(size=(4, 7)), "w")
    b = T.Parameter(RNG.normal(size=7), "b")
    x = T.Parameter(RNG.normal(size=(3, 4)), "x")
    s = RNG.normal(size=(3, len(cols)))
    assert_param_grads_match(
        lambda: T.sum_all(T.mul(T.affine_columns(x, w, b, cols), s)), [w, b, x]
    )


def test_affine_columns_writes_only_its_columns():
    w = T.Parameter(RNG.normal(size=(4, 7)), "w")
    b = T.Parameter(RNG.normal(size=7), "b")
    out = T.affine_columns(RNG.normal(size=(3, 4)), w, b, [5, 1, 5])
    T.backward(T.sum_all(T.mul(out, RNG.normal(size=(3, 3)))))
    assert_array_equal(w.touched()[1], [1, 5])
    assert_array_equal(b.touched()[0], [1, 5])
    untouched = np.ones(7, dtype=bool)
    untouched[[1, 5]] = False
    assert not w.grad[:, untouched].any() and not b.grad[untouched].any()


def test_affine_columns_shape_mismatch():
    with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
        T.affine_columns(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2), [0])


# ---------------------------------------------------------------------------
# touched entries


def test_touched_records_embedding_rows():
    table = T.Parameter(RNG.normal(size=(6, 2)), "emb")
    assert table.touched()[0].size == 0  # nothing written yet
    T.backward(T.sum_all(T.embedding(table, [4, 0, 4])))
    where = table.touched()
    assert_array_equal(where[0], [0, 4])
    table.zero_grad()
    assert table.touched()[0].size == 0


def test_grad_read_before_backward_is_zeros_and_a_whole_write():
    table = T.Parameter(RNG.normal(size=(4, 3)), "emb")
    assert table.touched()[0].size == 0
    g = table.grad
    assert g.shape == (4, 3) and not g.any()
    assert table.touched() is ...
    T.backward(T.sum_all(T.embedding(table, [2])))
    assert table.grad is g  # backward wrote into the array that was read
    assert_array_equal(g[2], 1.0)
    assert not g[[0, 1, 3]].any()
    assert table.touched() is ...


@pytest.mark.parametrize("dense_first", [True, False])
def test_leaves_of_one_parameter_accumulate_into_one_buffer(dense_first):
    table = T.Parameter(RNG.normal(size=(5, 2)), "emb")
    a, b = table.as_tensor(), table.as_tensor()  # neither has a buffer yet
    dense, rows = T.sum_all(T.mul(a, 2.0)), T.sum_all(T.embedding(b, [1, 3, 1]))
    T.backward(T.add(dense, rows) if dense_first else T.add(rows, dense))
    want = np.full((5, 2), 2.0)
    want[[1, 3]] += [[2.0], [1.0]]
    assert a.grad is b.grad
    assert_array_equal(table.grad, want)


def test_leaves_of_one_parameter_keep_row_marks():
    table = T.Parameter(RNG.normal(size=(5, 2)), "emb")
    a, b = table.as_tensor(), table.as_tensor()
    T.backward(T.add(T.sum_all(T.embedding(a, [4])), T.sum_all(T.embedding(b, [0]))))
    assert_array_equal(table.touched()[0], [0, 4])
    where, g = table.touched_grad()
    assert_array_equal(g, np.ones((2, 2)))


def test_touched_is_everything_after_a_dense_write():
    table = T.Parameter(RNG.normal(size=(6, 2)), "emb")
    loss = T.add(T.sum_all(T.embedding(table, [1])), T.sum_all(T.mul(table, 2.0)))
    T.backward(loss)
    assert table.touched() is ...


def test_touched_is_everything_after_writes_along_two_axes():
    w = T.Parameter(RNG.normal(size=(5, 5)), "w")
    rows = T.embedding(w, [0])
    cols = T.affine_columns(np.ones((1, 5)), w, np.zeros(5), [2])
    T.backward(T.add(T.sum_all(rows), T.sum_all(cols)))
    assert w.touched() is ...


def test_reading_grad_counts_as_writing_everything():
    table = T.Parameter(RNG.normal(size=(6, 2)), "emb")
    T.backward(T.sum_all(T.embedding(table, [3])))
    table.grad[5] = 1.0  # by hand, outside the recorded rows
    assert table.touched() is ...
    table.zero_grad()
    assert not table.grad.any()


# ---------------------------------------------------------------------------
# softmax (forward only, beside its caller `recommend`)


def test_softmax_uniform():
    out = softmax([0.0, 0.0, 0.0])
    assert_allclose(out, [1 / 3] * 3)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(4, 6))
    assert_allclose(softmax(x + 13.7), softmax(x), atol=1e-12)


def test_softmax_scalar_evaluation():
    out = softmax([1.0, 2.0, 3.0])
    assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_rows_sum_to_one():
    x = RNG.normal(scale=5.0, size=(8, 5))
    p = softmax(x)
    assert_allclose(p.sum(axis=1), np.ones(8), atol=1e-9)
    assert np.all(p > 0) and np.all(p < 1)


def test_softmax_stable_for_extreme_logits():
    p = softmax(np.array([[1e4, -1e4, 0.0]]))
    assert np.all(np.isfinite(p))
    assert_allclose(p.sum(axis=1), [1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# batch norm


def _bn_params(d):
    gamma = T.Parameter(np.ones(d), "gamma")
    beta = T.Parameter(np.zeros(d), "beta")
    return gamma, beta, np.zeros(d), np.ones(d)


def test_batch_norm_already_normalized():
    x = np.array([[1.0, -1.0], [-1.0, 1.0]])  # mean 0, var 1 per column
    gamma, beta, rm, rv = _bn_params(2)
    out = T.batch_norm(x, gamma, beta, rm, rv, training=True)
    assert_allclose(out.data, x, atol=1e-4)


def test_batch_norm_scale_collapse():
    x = RNG.normal(size=(5, 3))
    gamma = T.Parameter(np.zeros(3))
    beta = T.Parameter(np.full(3, 2.5))
    out = T.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
    assert_allclose(out.data, np.full((5, 3), 2.5))


def test_batch_norm_hand_computed_column():
    gamma, beta, rm, rv = _bn_params(1)
    out = T.batch_norm([[1.0], [3.0]], gamma, beta, rm, rv, training=True)
    assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_degenerate_batch():
    gamma, beta, rm, rv = _bn_params(2)
    with pytest.raises(DegenerateBatchError):
        T.batch_norm(np.zeros((1, 2)), gamma, beta, rm, rv, training=True)


def test_batch_norm_train_output_statistics():
    x = RNG.normal(loc=3.0, scale=2.0, size=(64, 4))
    gamma, beta, rm, rv = _bn_params(4)
    out = T.batch_norm(x, gamma, beta, rm, rv, training=True).data
    assert np.all(np.abs(out.mean(axis=0)) <= 1e-6)
    assert_allclose(out.var(axis=0), np.ones(4), atol=1e-4)


def test_batch_norm_running_stats_and_inference():
    x = RNG.normal(loc=1.0, size=(32, 3))
    gamma, beta, rm, rv = _bn_params(3)
    T.batch_norm(x, gamma, beta, rm, rv, training=True)
    assert_allclose(rm, 0.1 * x.mean(axis=0), atol=1e-12)
    assert_allclose(rv, 0.9 + 0.1 * x.var(axis=0), atol=1e-12)
    # inference mode must not touch the running stats
    rm2, rv2 = rm.copy(), rv.copy()
    out = T.batch_norm(x, gamma, beta, rm, rv, training=False).data
    assert_allclose(rm, rm2)
    assert_allclose(rv, rv2)
    expected = (x - rm) / np.sqrt(rv + 1e-5)
    assert_allclose(out, expected)


# ---------------------------------------------------------------------------
# elementwise


def test_elementwise_values():
    assert T.sigmoid(np.array(0.0)).data == 0.5
    assert_allclose(T.relu(np.array([-1.0, 2.0])).data, [0.0, 2.0])
    assert_allclose(T.sigmoid(np.array(-2.0)).data, 0.11920, atol=1e-5)
    assert T.tanh(np.array(0.0)).data == 0.0


def test_sigmoid_extreme_inputs_are_stable():
    out = T.sigmoid(np.array([-1e4, 1e4])).data
    assert_allclose(out, [0.0, 1.0], atol=1e-12)


def _piecewise_sigmoid(x):
    """1/(1+exp(-x)) on x >= 0, exp(x)/(1+exp(x)) elsewhere, by masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_values_are_the_piecewise_reference_bit_for_bit():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
             np.inf, -np.inf]
    edges += [s * v for v in (709.0, 710.0, 745.0, 746.0) for s in (1, -1)]
    x = np.concatenate([edges, RNG.normal(scale=30.0, size=200_000)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = T._sigmoid_values(x)
    assert got.tobytes() == _piecewise_sigmoid(x).tobytes()
    for shape in [(32, 48), (3, 1), ()]:  # sizes that leave SIMD tails
        y = RNG.normal(scale=5.0, size=shape)
        assert T._sigmoid_values(y).tobytes() == _piecewise_sigmoid(np.atleast_1d(y)).tobytes()
    assert np.isnan(T._sigmoid_values(np.array([np.nan]))).all()


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_linear_gradient():
    x = np.array([[2.0, -3.0, 0.5]])
    w = T.Parameter(np.ones((1, 3)), "w")
    loss = T.sum_all(T.mul(w, x))
    T.backward(loss)
    assert_allclose(w.grad, x)


def test_backward_requires_scalar():
    w = T.Parameter(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        T.backward(T.mul(w, 2.0))


def test_gradients_accumulate_until_zeroed():
    w = T.Parameter(np.ones(3), "w")
    x = np.array([1.0, 2.0, 3.0])
    T.backward(T.sum_all(T.mul(w, x)))
    T.backward(T.sum_all(T.mul(w, x)))
    assert_allclose(w.grad, 2 * x)
    w.zero_grad()
    assert_allclose(w.grad, np.zeros(3))


def test_frozen_parameter_still_gets_gradient():
    w = T.Parameter(np.ones(2), frozen=True)
    T.backward(T.sum_all(T.mul(w, np.array([5.0, -1.0]))))
    assert_allclose(w.grad, [5.0, -1.0])


def test_check_finite_mode():
    T.set_check_finite(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.mul(np.array([1e308]), np.array([1e308]))
    finally:
        T.set_check_finite(False)


# ---------------------------------------------------------------------------
# finite-difference checks, op by op


def test_grad_affine():
    w = T.Parameter(RNG.normal(size=(4, 3)), "w")
    b = T.Parameter(RNG.normal(size=3), "b")
    x = RNG.normal(size=(5, 4))
    s = RNG.normal(size=(5, 3))
    assert_param_grads_match(lambda: T.sum_all(T.mul(T.affine(x, w, b), s)), [w, b])


def test_grad_batch_norm_train_and_inference():
    gamma = T.Parameter(RNG.normal(size=4) + 1.0, "gamma")
    beta = T.Parameter(RNG.normal(size=4), "beta")
    xp = T.Parameter(RNG.normal(size=(6, 4)), "x")
    s = RNG.normal(size=(6, 4))
    rm, rv = np.zeros(4), np.ones(4)

    def loss_train():
        return T.sum_all(T.mul(T.batch_norm(xp, gamma, beta, rm, rv, training=True), s))

    assert_param_grads_match(loss_train, [gamma, beta, xp])

    rm2, rv2 = RNG.normal(size=4), np.abs(RNG.normal(size=4)) + 0.5

    def loss_inf():
        return T.sum_all(T.mul(T.batch_norm(xp, gamma, beta, rm2, rv2, training=False), s))

    assert_param_grads_match(loss_inf, [gamma, beta, xp])


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu"])
def test_grad_elementwise(kind):
    op = {"sigmoid": T.sigmoid, "tanh": T.tanh, "relu": T.relu}[kind]
    # keep values away from relu's kink, where finite differences are invalid
    base = RNG.normal(size=(3, 4))
    base[np.abs(base) < 0.05] = 0.5
    w = T.Parameter(base, "w")
    s = RNG.normal(size=(3, 4))
    assert_param_grads_match(lambda: T.sum_all(T.mul(op(w), s)), [w])


def test_grad_matmul_add_sub_mul_broadcast():
    a = T.Parameter(RNG.normal(size=(3, 4)), "a")
    b = T.Parameter(RNG.normal(size=(4, 2)), "b")
    c = T.Parameter(RNG.normal(size=(1, 2)), "c")  # broadcast over rows
    s = RNG.normal(size=(3, 2))

    def loss():
        y = T.matmul(a, b)
        y = T.sub(T.add(y, c), T.mul(y, c))
        return T.sum_all(T.mul(y, s))

    assert_param_grads_match(loss, [a, b, c])


def test_grad_concat_reshape_mean():
    a = T.Parameter(RNG.normal(size=(2, 3)), "a")
    b = T.Parameter(RNG.normal(size=(2, 2)), "b")

    def loss():
        y = T.concat([a, b], axis=1)
        return T.mean_all(T.reshape(y, (10,)))

    assert_param_grads_match(loss, [a, b])


def test_grad_embedding_with_duplicate_rows():
    table = T.Parameter(RNG.normal(size=(5, 3)), "emb")
    idx = np.array([0, 2, 2, 4])
    s = RNG.normal(size=(4, 3))
    assert_param_grads_match(lambda: T.sum_all(T.mul(T.embedding(table, idx), s)), [table])


def test_grad_embedding_bag_mean():
    table = T.Parameter(RNG.normal(size=(6, 3)), "emb")
    flat = np.array([0, 1, 2, 2, 5])
    offsets = np.array([0, 2, 5])  # bag sizes 2 and 3
    s = RNG.normal(size=(2, 3))
    out = T.embedding_bag_mean(table, flat, offsets)
    assert_allclose(out.data[0], table.value[[0, 1]].mean(axis=0))
    assert_param_grads_match(
        lambda: T.sum_all(T.mul(T.embedding_bag_mean(table, flat, offsets), s)), [table]
    )


def test_grad_pairwise_inner():
    fields = [T.Parameter(RNG.normal(size=(3, 4)), f"f{i}") for i in range(4)]
    s = RNG.normal(size=(3, 6))
    assert_param_grads_match(
        lambda: T.sum_all(T.mul(T.pairwise_inner(fields), s)), fields
    )


def test_pairwise_inner_values():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 4.0]])
    c = np.array([[5.0, 6.0]])
    out = T.pairwise_inner([T.constant(a), T.constant(b), T.constant(c)])
    assert_allclose(out.data, [[11.0, 17.0, 39.0]])


def test_grad_gathers():
    x = T.Parameter(RNG.normal(size=(4, 5)), "x")
    rows = np.array([0, 2, 0])
    rcs = np.array([4, 4, 4])
    s3 = RNG.normal(size=3)

    def loss():
        return T.sum_all(T.mul(T.take_rc(x, rows, rcs), s3))

    assert_param_grads_match(loss, [x])


def test_grad_composed_random_graphs():
    # random small compositions touching most ops at once
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        w1 = T.Parameter(rng.normal(size=(4, 5)), "w1")
        b1 = T.Parameter(rng.normal(size=5), "b1")
        w2 = T.Parameter(rng.normal(size=(5, 3)), "w2")
        b2 = T.Parameter(rng.normal(size=3), "b2")
        x = rng.normal(size=(3, 4))
        s = rng.normal(size=(3, 3))

        def loss():
            h = T.tanh(T.affine(x, w1, b1))
            y = T.sigmoid(T.affine(h, w2, b2))
            return T.sum_all(T.mul(y, s))

        assert_param_grads_match(loss, [w1, b1, w2, b2])


def test_dropout_mask_and_scale():
    x = T.Parameter(np.ones((200, 10)), "x")
    out = T.dropout(x, 0.2, np.random.default_rng(7))
    kept = out.data != 0
    assert_allclose(out.data[kept], 1.0 / 0.8)
    assert 0.7 < kept.mean() < 0.9
    T.backward(T.sum_all(out))
    assert_allclose(x.grad[kept], 1.0 / 0.8)
    assert_allclose(x.grad[~kept], 0.0)


def test_constant_blocks_gradient():
    w = T.Parameter(np.ones(3), "w")
    y = T.constant(T.mul(w, 2.0).data)
    loss = T.sum_all(T.mul(y, 3.0))
    T.backward(loss)
    assert_allclose(w.grad, np.zeros(3))
