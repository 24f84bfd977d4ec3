"""Dense tensors with reverse-mode gradient accumulation on numpy.

Every operation returns a new Tensor that remembers its inputs and a
backward closure; ``backward(loss)`` walks the recorded graph once in
reverse topological order and accumulates gradients into the Parameter
buffers that fed it.  Gradients accumulate across calls until explicitly
zeroed, which is what truncated backpropagation needs.

Only the broadcasting the model code actually uses is supported (bias
rows, per-row scalars); there are no GPU kernels or graph rewrites.
Arrays are float64, so finite-difference checks have headroom.

A Parameter holds the float array it is given, not a copy.  It allocates
its dense gradient array on the first backward write or ``grad`` read, and
an optimizer its accumulator, so a model that only evaluates holds its
values alone.  A Parameter records where backward wrote into its gradient:
``embedding``, ``embedding_bag_mean`` and ``product_layer`` mark the rows
they gathered, ``affine_columns`` the weight columns and bias entries it
read, every other op the whole tensor.  An optimizer can then update only
the touched slices.

``product_layer`` is one node for PNN's chain of the other ops (field means,
item gather, concat, ``pairwise_inner``), with their arithmetic in their
order; those ops stay as its reference, and as the TOP1 node's in training.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBatchError, NumericError, ShapeError

DEFAULT_DTYPE = np.float64

_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op output (off by default)."""
    global _check_finite
    _check_finite = bool(enabled)


class Tensor:
    """Immutable dense array node in a computation graph."""

    __slots__ = ("data", "grad", "param", "_parents", "_backward", "_needs_grad")

    def __init__(self, data, parents=(), backward=None, needs_grad=None):
        if isinstance(data, np.ndarray):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self._parents = tuple(parents)
        self._backward = backward
        if needs_grad is None:
            needs_grad = any(p._needs_grad for p in self._parents)
        self._needs_grad = needs_grad
        self.grad = None
        self.param = None  # the Parameter behind a leaf, which records touched entries

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """Trainable value with gradient and optimizer-accumulator slots.

    The value is the caller's float array, not a copy (other input becomes
    float64).  Both slots start empty: the gradient, zeros of the value's
    shape, until the first backward write or ``grad`` read; the accumulator
    until an optimizer allocates it.  A frozen parameter still receives
    gradients from backward(); optimizers must leave its value untouched.

    The parameter also records which entries backward wrote into since the
    gradient was last zeroed (see ``touched``).  Reading ``grad`` counts as
    writing all of it, because the caller may set the gradient by hand.
    """

    __slots__ = ("value", "_grad", "accumulator", "frozen", "name", "_marks")

    def __init__(self, value, name: str = "", frozen: bool = False):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(DEFAULT_DTYPE)
        self._grad = None
        self.accumulator = None
        self.frozen = frozen
        self.name = name
        # axis -> bool mask of the indices written along it; None: everything
        self._marks: dict[int, np.ndarray] | None = {}

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        self._marks = None
        return self.grad_buffer()

    def grad_buffer(self) -> np.ndarray:
        """The gradient array, allocated as zeros on first use; no write is recorded."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def mark(self, axis: int | None = None, index=None) -> None:
        """Record a gradient write at `index` along `axis` (None: anywhere)."""
        if self._marks is None:
            return
        if axis is None:
            self._marks = None
            return
        mask = self._marks.get(axis)
        if mask is None:
            mask = self._marks[axis] = np.zeros(self.value.shape[axis], dtype=bool)
        mask[index] = True

    def touched(self):
        """Index expression covering every entry whose gradient may be nonzero.

        ``...`` when the whole tensor may be; otherwise the sorted distinct
        indices written along one axis (empty when nothing was written).
        Writes along two different axes count as the whole tensor, and so
        does anything about a 0-d value.
        """
        if self._marks is None or len(self._marks) > 1 or self.value.ndim == 0:
            return ...
        if not self._marks:
            return (np.empty(0, dtype=np.int64),)
        (axis, mask), = self._marks.items()
        return (slice(None),) * axis + (np.flatnonzero(mask),)

    def touched_grad(self):
        """``touched()`` and the gradient there (a copy unless that is
        everything); unlike ``grad``, this does not count as a write."""
        where = self.touched()
        return where, self.grad_buffer()[where]

    def as_tensor(self) -> Tensor:
        """Leaf node whose grad buffer is this parameter's (shared reference,
        taken when backward first writes into the leaf)."""
        t = Tensor(self.value, needs_grad=True)
        t.param = self
        return t

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[self.touched()] = 0.0
        self._marks = {}

    def __repr__(self):
        return f"Parameter({self.name or '?'}, shape={self.value.shape}, frozen={self.frozen})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        return x.as_tensor()
    return Tensor(x, needs_grad=False)


def constant(data) -> Tensor:
    """Graph constant; never receives a gradient."""
    return Tensor(np.asarray(data, dtype=DEFAULT_DTYPE), needs_grad=False)


def _node(data, parents, backward, op: str) -> Tensor:
    if _check_finite and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    return Tensor(data, parents=parents, backward=backward)


def _grad_buffer(t: Tensor, axis: int | None = None, index=None) -> np.ndarray:
    """t's gradient buffer for a write at `index` along `axis` (None: anywhere).

    A parameter's leaf writes into the parameter's own buffer, so leaves of
    one parameter accumulate together.
    """
    if t.grad is None:
        t.grad = np.zeros_like(t.data) if t.param is None else t.param.grad_buffer()
    if t.param is not None:
        t.param.mark(axis, index)
    return t.grad


def _acc(t: Tensor, g) -> None:
    if t._needs_grad:
        buf = _grad_buffer(t)
        buf += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(parameter) into every reachable Parameter's grad.

    loss must be scalar (size 1).  Gradients add onto whatever is already
    stored; call Parameter.zero_grad() (or an optimizer step) to reset.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._needs_grad:
                stack.append((p, False))
    _acc(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _node(out, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return _node(out, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), bwd, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _node(out, (a, b), bwd, "matmul")


def _affine_inputs(x, weight, bias) -> tuple[Tensor, Tensor, Tensor]:
    x, w, b = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine shapes do not agree: input {x.data.shape}, weight {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine bias shape {b.data.shape} does not match weight {w.data.shape}")
    return x, w, b


def affine(x, weight, bias) -> Tensor:
    """x[B,I] @ weight[I,O] + bias[O]."""
    x, w, b = _affine_inputs(x, weight, bias)
    out = x.data @ w.data
    out += b.data  # in place: one [B, O] array, the same additions

    def bwd(g):
        _acc(x, g @ w.data.T)
        _acc(w, x.data.T @ g)
        _acc(b, g.sum(axis=0))

    return _node(out, (x, w, b), bwd, "affine")


def affine_columns(x, weight, bias, cols) -> Tensor:
    """x[B,I] @ weight[:, cols] + bias[cols] (duplicate columns allowed).

    Backward writes only the selected weight columns and bias entries and
    records them as the touched ones on their Parameters.
    """
    x, w, b = _affine_inputs(x, weight, bias)
    cols = np.asarray(cols, dtype=np.int64)
    w_cols = w.data[:, cols]
    out = x.data @ w_cols
    out += b.data[cols]
    sorted_cols = np.sort(cols)
    distinct = not np.any(sorted_cols[1:] == sorted_cols[:-1])

    def scatter(t, at, piece):
        buf = _grad_buffer(t, t.data.ndim - 1, cols)
        if distinct:
            buf[at] += piece  # np.add.at is about 3x slower
        else:
            np.add.at(buf, at, piece)

    def bwd(g):
        _acc(x, g @ w_cols.T)
        if w._needs_grad:
            scatter(w, (slice(None), cols), x.data.T @ g)
        if b._needs_grad:
            scatter(b, cols, g.sum(axis=0))

    return _node(out, (x, w, b), bwd, "affine_columns")


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def bwd(g):
        _acc(x, g.reshape(x.data.shape))

    return _node(out, (x,), bwd, "reshape")


def concat(tensors, axis: int = 1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            _acc(t, piece)

    return _node(out, tuple(ts), bwd, "concat")


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    out = np.asarray(x.data.sum())

    def bwd(g):
        _acc(x, np.broadcast_to(g, x.data.shape))

    return _node(out, (x,), bwd, "sum")


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    out = np.asarray(x.data.mean())

    def bwd(g):
        _acc(x, np.broadcast_to(g / n, x.data.shape))

    return _node(out, (x,), bwd, "mean")


# ---------------------------------------------------------------------------
# activations


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below: exp never
    # overflows, and both sides are computed everywhere, with no masked gathers
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid_values(x.data)

    def bwd(g):
        _acc(x, g * s * (1.0 - s))

    return _node(s, (x,), bwd, "sigmoid")


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)

    def bwd(g):
        _acc(x, g * (1.0 - t * t))

    return _node(t, (x,), bwd, "tanh")


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        _acc(x, g * (x.data > 0))

    return _node(out, (x,), bwd, "relu")


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    x = as_tensor(x)
    keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    out = x.data * mask

    def bwd(g):
        _acc(x, g * mask)

    return _node(out, (x,), bwd, "dropout")


# ---------------------------------------------------------------------------
# batch normalization

BN_MOMENTUM = 0.1  # weight of each batch in the running statistics
BN_EPS = 1e-5


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool) -> Tensor:
    """Per-feature batch normalization over rows of x[B,D].

    Training mode normalizes by the batch mean and biased variance and
    updates the running statistics in place; inference mode normalizes by
    the running statistics.  Training needs B >= 2.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm expects a 2-D input, got shape {x.data.shape}")
    if training:
        n = x.data.shape[0]
        if n < 2:
            raise DegenerateBatchError(f"batch_norm training mode needs at least 2 rows, got {n}")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.data - mu) * inv_std
        running_mean[...] = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
        running_var[...] = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
        out = gamma.data * xhat + beta.data

        def bwd(g):
            _acc(gamma, (g * xhat).sum(axis=0))
            _acc(beta, g.sum(axis=0))
            gx = (gamma.data * inv_std) * (
                g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0)
            )
            _acc(x, gx)

    else:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = (x.data - running_mean) * inv_std
        out = gamma.data * xhat + beta.data

        def bwd(g):
            _acc(gamma, (g * xhat).sum(axis=0))
            _acc(beta, g.sum(axis=0))
            _acc(x, g * gamma.data * inv_std)

    return _node(out, (x, gamma, beta), bwd, "batch_norm")


# ---------------------------------------------------------------------------
# gathers


def embedding(table, indices) -> Tensor:
    """Row gather: out[i] = table[indices[i]]."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    out = table.data[idx]

    def bwd(g):
        if table._needs_grad:
            np.add.at(_grad_buffer(table, 0, idx), idx, g)

    return _node(out, (table,), bwd, "embedding")


def embedding_bag_mean(table, flat_indices, offsets) -> Tensor:
    """Mean of table rows per bag; bag b covers flat_indices[offsets[b]:offsets[b+1]].

    Every bag must be non-empty.
    """
    table = as_tensor(table)
    flat = np.asarray(flat_indices, dtype=np.int64)
    offs = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offs)
    if np.any(counts < 1):
        raise ShapeError("embedding_bag_mean: every bag needs at least one index")
    n_bags = len(counts)
    seg = np.repeat(np.arange(n_bags), counts)
    sums = np.zeros((n_bags, table.data.shape[1]), dtype=table.data.dtype)
    np.add.at(sums, seg, table.data[flat])
    out = sums / counts[:, None]

    def bwd(g):
        if table._needs_grad:
            contrib = g[seg] / counts[seg][:, None]
            np.add.at(_grad_buffer(table, 0, flat), flat, contrib)

    return _node(out, (table,), bwd, "embedding_bag_mean")


def pairwise_inner(fields) -> Tensor:
    """Inner products over all unordered pairs of field embeddings.

    fields: list of F tensors, each [B,E].  Output [B, F*(F-1)/2] with pair
    order (0,1), (0,2), ..., (F-2,F-1).
    """
    ts = [as_tensor(f) for f in fields]
    f_count = len(ts)
    if f_count < 2:
        raise ShapeError("pairwise_inner needs at least two fields")
    stacked = np.stack([t.data for t in ts], axis=1)  # [B,F,E]
    gram = np.einsum("bfe,bge->bfg", stacked, stacked)
    iu, ju = np.triu_indices(f_count, k=1)
    out = gram[:, iu, ju]

    def bwd(g):
        b = stacked.shape[0]
        w = np.zeros((b, f_count, f_count), dtype=stacked.dtype)
        w[:, iu, ju] = g
        w[:, ju, iu] = g
        gx = np.einsum("bfg,bge->bfe", w, stacked)
        for i, t in enumerate(ts):
            _acc(t, gx[:, i, :])

    return _node(out, tuple(ts), bwd, "pairwise_inner")


def product_layer(table, indices, bags, counts) -> Tensor:
    """PNN input rows [fields | pairwise_inner(fields)] as one node.

    Field f of row i is the mean of the ``counts[i, f]`` rows ``table[indices[k]]``
    whose bag ``bags[k]`` is ``i * F + f``; values, gradients and touched marks
    are bit for bit those of ``embedding_bag_mean`` per field, ``embedding``,
    ``concat`` and ``pairwise_inner``.
    """
    table = as_tensor(table)
    idx, bags, counts = (np.asarray(a, dtype=np.int64) for a in (indices, bags, counts))
    (n, f_count), e = counts.shape, table.data.shape[1]
    # bincount adds each slot's entries in order onto 0.0, as np.add.at does
    sums = np.bincount((bags[:, None] * e + np.arange(e)).ravel(), table.data[idx].ravel(),
                       n * f_count * e)
    stacked = sums.reshape(n, f_count, e) / counts[:, :, None]  # [B,F,E]
    gram = np.einsum("bfe,bge->bfg", stacked, stacked)
    iu, ju = np.triu_indices(f_count, k=1)
    out = np.concatenate([stacked.reshape(n, -1), gram[:, iu, ju]], axis=1)

    def bwd(g):
        w = np.zeros((n, f_count, f_count))
        w[:, iu, ju] = w[:, ju, iu] = g[:, f_count * e:]
        gx = g[:, :f_count * e].reshape(n, f_count, e) + np.einsum("bfg,bge->bfe", w, stacked)
        contrib = gx.reshape(-1, e)[bags] / counts.reshape(-1)[bags][:, None]
        np.add.at(_grad_buffer(table, 0, idx), idx, contrib)

    return _node(out, (table,), bwd, "product_layer")


def take_rc(x, rows, cols) -> Tensor:
    """1-D gather of x[rows[k], cols[k]]."""
    x = as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = x.data[rows, cols]

    def bwd(g):
        if x._needs_grad:
            np.add.at(_grad_buffer(x), (rows, cols), g)

    return _node(out, (x,), bwd, "take_rc")


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(shape, rng: np.random.Generator | None) -> np.ndarray:
    """Uniform in +-sqrt(6/(fan_in+fan_out)) over a 2-D shape; zeros if rng is None."""
    if rng is None:
        return np.zeros(shape, dtype=DEFAULT_DTYPE)
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    # the copy frees the draw, which raises glibc's mmap threshold: fewer faults in training
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)
