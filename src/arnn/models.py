"""The three networks, their common scoring protocol, and their checkpoints.

GruSessionModel: item embedding -> GRU cell -> item-score projection, with
per-lane hidden state that resets at session boundaries.

PnnEncoder: per-field category embeddings (previous item is one more
field), a product layer of all pairwise inner products next to the
concatenated embeddings (one graph node, ``T.product_layer``, whose
reference is the composed ops), then FC -> ReLU -> batch norm producing the
context feature vector; a score projection on top is used only for
pretraining and the standalone baseline.

ArnnModel: both networks as frozen feature extractors (score heads
unused), a trainable merge layer (FC -> ReLU -> batch norm) over the
concatenated features, and a fresh item-score projection.  During merge
training only the merge layers and the encoder's batch-norm scale/shift
receive optimizer updates; the encoder's batch-norm running statistics
keep updating as well.

Training, evaluation and ``recommend`` drive every model, and the item-KNN
baseline, through one protocol: a ``kind`` name, ``reset(n_lanes)`` before
a pass over session-parallel batches, and ``logits(batch, cols, training,
rng)``, the batch rows' scores for every item or for the item columns
``cols``.  A batch holds one row per active lane, and ``batch.lanes`` picks
each row's recurrent state.  ``ArnnModel.logits`` feeds the frozen blocks'
outputs to the head as constants; ``step_scores`` is its differentiable
reference.
"""

from __future__ import annotations

import itertools
import json
import os
import zipfile

import numpy as np

from . import tensor as T
from .data import FieldSchema
from .errors import CheckpointError, SchemaError, VocabularyError

CHECKPOINT_VERSION = 1


def _check_items(items, n_items: int) -> np.ndarray:
    items = np.asarray(items, dtype=np.int64)
    outside = items[(items < 0) | (items >= n_items)]
    if outside.size:
        raise VocabularyError(
            f"item index {int(outside[0])} outside vocabulary of {n_items}"
        )
    return items


def _item_scores(x, weight, bias, cols) -> T.Tensor:
    """Scores of every item, or of the item columns `cols` only."""
    if cols is None:
        return T.affine(x, weight, bias)
    return T.affine_columns(x, weight, bias, cols)


class BatchNorm:
    """Batch normalization layer owning scale/shift and running statistics."""

    def __init__(self, dim: int, prefix: str):
        self.gamma = T.Parameter(np.ones(dim), f"{prefix}_gamma")
        self.beta = T.Parameter(np.zeros(dim), f"{prefix}_beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.prefix = prefix

    def __call__(self, x, training: bool) -> T.Tensor:
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, training)

    def parameters(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        return {
            f"{self.prefix}_running_mean": self.running_mean,
            f"{self.prefix}_running_var": self.running_var,
        }


class GruSessionModel:
    """Gated recurrent session model scoring the next item from history."""

    kind = "gru"

    def __init__(self, n_items: int, hidden_size: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.n_items = n_items
        self.hidden_size = hidden_size
        self.dropout = dropout
        v, h = n_items, hidden_size

        def p(name, shape):
            return T.Parameter(T.glorot_uniform(shape, rng), f"gru/{name}")

        # input embedding dimension is tied to the hidden size
        self.item_embedding = p("item_embedding", (v, h))
        self.w_update, self.u_update = p("w_update", (h, h)), p("u_update", (h, h))
        self.b_update = T.Parameter(np.zeros(h), "gru/b_update")
        self.w_reset, self.u_reset = p("w_reset", (h, h)), p("u_reset", (h, h))
        self.b_reset = T.Parameter(np.zeros(h), "gru/b_reset")
        self.w_cand, self.u_cand = p("w_cand", (h, h)), p("u_cand", (h, h))
        self.b_cand = T.Parameter(np.zeros(h), "gru/b_cand")
        self.out_weight = p("out_weight", (h, v))
        self.out_bias = T.Parameter(np.zeros(v), "gru/out_bias")
        self.hidden: np.ndarray | None = None

    def parameters(self):
        return [
            self.item_embedding,
            self.w_update, self.u_update, self.b_update,
            self.w_reset, self.u_reset, self.b_reset,
            self.w_cand, self.u_cand, self.b_cand,
            self.out_weight, self.out_bias,
        ]

    def state_arrays(self):
        return {}

    def hyperparameters(self):
        return {"n_items": self.n_items, "hidden_size": self.hidden_size,
                "dropout": self.dropout}

    def reset(self, n_lanes: int) -> None:
        self.hidden = np.zeros((n_lanes, self.hidden_size))

    def step(self, prev_items, boundaries, lane_ids=None) -> T.Tensor:
        """Advance the per-lane hidden state one step and return it.

        Lanes whose boundary flag is set start from a zero hidden state.
        The carried state is detached: gradients do not flow across steps.
        """
        prev_items = _check_items(prev_items, self.n_items)
        if lane_ids is None:
            lane_ids = np.arange(len(prev_items))
        if self.hidden is None:
            raise RuntimeError("call reset(n_lanes) before stepping")
        h_prev = self.hidden[lane_ids]  # fancy indexing copies
        h_prev[np.asarray(boundaries, dtype=bool)] = 0.0
        hp = T.constant(h_prev)
        x = T.embedding(self.item_embedding, prev_items)
        z = T.sigmoid(T.add(T.affine(x, self.w_update, self.b_update),
                            T.matmul(hp, self.u_update)))
        r = T.sigmoid(T.add(T.affine(x, self.w_reset, self.b_reset),
                            T.matmul(hp, self.u_reset)))
        cand = T.tanh(T.add(T.affine(x, self.w_cand, self.b_cand),
                            T.matmul(T.mul(r, hp), self.u_cand)))
        one = T.constant(np.ones_like(h_prev))
        h = T.add(T.mul(T.sub(one, z), hp), T.mul(z, cand))
        self.hidden[lane_ids] = h.data
        return h

    def scores(self, hidden: T.Tensor, training: bool = False,
               rng: np.random.Generator | None = None, cols=None) -> T.Tensor:
        """Item scores from hidden states; all items, or the columns `cols`."""
        h = hidden
        if training and self.dropout > 0:
            h = T.dropout(h, self.dropout, rng)
        return _item_scores(h, self.out_weight, self.out_bias, cols)

    def logits(self, batch, cols=None, training=False, rng=None) -> T.Tensor:
        h = self.step(batch.prev_items, batch.session_boundary, lane_ids=batch.lanes)
        return self.scores(h, training=training, rng=rng, cols=cols)


class PnnEncoder:
    """Product-based encoder of (user context, previous item) pairs."""

    kind = "pnn"

    def __init__(self, field_sizes: list[int], field_offsets: list[int],
                 n_items: int, embed_dim: int, context_dim: int,
                 rng: np.random.Generator | None = None):
        if not field_sizes:
            raise SchemaError("the context encoder needs at least one context field, "
                              "and the schema has none")
        rng = rng or np.random.default_rng(0)
        self.field_sizes = list(field_sizes)
        self.field_offsets = list(field_offsets)
        self.n_items = n_items
        self.embed_dim = embed_dim
        self.context_dim = context_dim
        e = embed_dim
        self.field_embeddings = [
            T.Parameter(T.glorot_uniform((size, e), rng), f"pnn/field{i}_embedding")
            for i, size in enumerate(self.field_sizes)
        ]
        self.item_embedding = T.Parameter(
            T.glorot_uniform((n_items, e), rng), "pnn/item_embedding"
        )
        f = self.n_fields
        in_dim = f * e + f * (f - 1) // 2
        self.fc_weight = T.Parameter(T.glorot_uniform((in_dim, context_dim), rng),
                                     "pnn/fc_weight")
        self.fc_bias = T.Parameter(np.zeros(context_dim), "pnn/fc_bias")
        self.bn = BatchNorm(context_dim, "pnn/bn")
        self.score_weight = T.Parameter(T.glorot_uniform((context_dim, n_items), rng),
                                        "pnn/score_weight")
        self.score_bias = T.Parameter(np.zeros(n_items), "pnn/score_bias")

    @classmethod
    def from_schema(cls, schema: FieldSchema, embed_dim: int, context_dim: int,
                    rng: np.random.Generator | None = None) -> "PnnEncoder":
        return cls(schema.field_sizes, schema.offsets, len(schema.item_vocabulary),
                   embed_dim, context_dim, rng)

    @property
    def n_fields(self) -> int:
        # context fields plus the previous-item field
        return len(self.field_sizes) + 1

    def parameters(self):
        return (self.field_embeddings + [self.item_embedding, self.fc_weight,
                self.fc_bias] + self.bn.parameters() +
                [self.score_weight, self.score_bias])

    def state_arrays(self):
        return self.bn.state_arrays()

    def hyperparameters(self):
        return {
            "field_sizes": self.field_sizes,
            "field_offsets": self.field_offsets,
            "n_items": self.n_items,
            "embed_dim": self.embed_dim,
            "context_dim": self.context_dim,
        }

    def _split_contexts(self, contexts) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per field: flat local indices plus bag offsets over the batch.

        Within a field, indices keep batch order and each context's own order.
        """
        n_fields = len(self.field_sizes)
        n_rows = len(contexts)
        row_len = np.fromiter((len(ctx) for ctx in contexts), np.int64, n_rows)
        positions = np.fromiter(itertools.chain.from_iterable(contexts), np.int64,
                                int(row_len.sum()))
        bounds = self.field_offsets + [self.field_offsets[-1] + self.field_sizes[-1]]
        fields = np.searchsorted(bounds, positions, side="right") - 1
        rows = np.repeat(np.arange(n_rows), row_len)
        outside = (fields < 0) | (fields >= n_fields)
        counts = np.bincount(rows[~outside] * n_fields + fields[~outside],
                             minlength=n_rows * n_fields).reshape(n_rows, n_fields)
        # report the first offending context; within it a stray position
        # comes before an empty field
        bad_pos = np.flatnonzero(outside)
        empty_rows = np.flatnonzero((counts == 0).any(axis=1))
        if bad_pos.size and (not empty_rows.size or rows[bad_pos[0]] <= empty_rows[0]):
            raise SchemaError(
                f"context position {positions[bad_pos[0]]} outside the one-hot layout"
            )
        if empty_rows.size:
            f = int(np.flatnonzero(counts[empty_rows[0]] == 0)[0])
            raise SchemaError(f"field {f} has no active position and no fallback slot")
        order = np.argsort(fields, kind="stable")
        local = positions[order] - np.asarray(self.field_offsets, dtype=np.int64)[fields[order]]
        per_field = np.split(local, np.cumsum(counts.sum(axis=0))[:-1])
        zero = np.zeros((1, n_fields), dtype=np.int64)
        offsets = np.concatenate([zero, np.cumsum(counts, axis=0)])
        return [(per_field[f], offsets[:, f].copy()) for f in range(n_fields)]

    def features(self, contexts, prev_items) -> T.Tensor:
        """Pre-norm context features: FC -> ReLU over the field embeddings
        and their pairwise products.

        Multi-valued fields average their active category embeddings so each
        field contributes exactly one embedding to the product layer.
        """
        prev_items = _check_items(prev_items, self.n_items)
        x = T.product_layer(self.field_embeddings, self._split_contexts(contexts),
                            self.item_embedding, prev_items)
        return T.relu(T.affine(x, self.fc_weight, self.fc_bias))

    def encode(self, contexts, prev_items, training: bool) -> T.Tensor:
        """Context feature vector: the batch-normalised features."""
        return self.bn(self.features(contexts, prev_items), training)

    def scores(self, encoded: T.Tensor, cols=None) -> T.Tensor:
        """Item scores from encoded contexts; all items, or the columns `cols`."""
        return _item_scores(encoded, self.score_weight, self.score_bias, cols)

    def reset(self, n_lanes: int) -> None:
        """Stateless: a step depends on its own context and previous item only."""

    def logits(self, batch, cols=None, training=False, rng=None) -> T.Tensor:
        c = self.encode(batch.contexts, batch.prev_items, training)
        return self.scores(c, cols=cols)


class ArnnModel:
    """Frozen GRU and context encoder merged by a trainable scoring head."""

    kind = "arnn"

    def __init__(self, pnn: PnnEncoder, gru: GruSessionModel, merge_dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        if pnn.n_items != gru.n_items:
            raise CheckpointError(
                f"vocabulary mismatch: encoder has {pnn.n_items} items, "
                f"session model has {gru.n_items}"
            )
        self.pnn = pnn
        self.gru = gru
        self.merge_dim = merge_dim
        self.n_items = gru.n_items
        for p in pnn.parameters():
            p.frozen = True
        # scale/shift of the encoder's batch norm stays trainable
        pnn.bn.gamma.frozen = False
        pnn.bn.beta.frozen = False
        for p in gru.parameters():
            p.frozen = True
        in_dim = pnn.context_dim + gru.hidden_size
        self.merge_weight = T.Parameter(T.glorot_uniform((in_dim, merge_dim), rng),
                                        "merge/weight")
        self.merge_bias = T.Parameter(np.zeros(merge_dim), "merge/bias")
        self.bn = BatchNorm(merge_dim, "merge/bn")
        self.out_weight = T.Parameter(T.glorot_uniform((merge_dim, self.n_items), rng),
                                      "merge/out_weight")
        self.out_bias = T.Parameter(np.zeros(self.n_items), "merge/out_bias")

    def parameters(self):
        return (self.pnn.parameters() + self.gru.parameters() +
                [self.merge_weight, self.merge_bias] + self.bn.parameters() +
                [self.out_weight, self.out_bias])

    def state_arrays(self):
        out = dict(self.pnn.state_arrays())
        out.update(self.gru.state_arrays())
        out.update(self.bn.state_arrays())
        return out

    def hyperparameters(self):
        return {
            "merge_dim": self.merge_dim,
            "pnn": self.pnn.hyperparameters(),
            "gru": self.gru.hyperparameters(),
        }

    def reset(self, n_lanes: int) -> None:
        self.gru.reset(n_lanes)

    def head(self, c, h, training: bool, cols=None) -> T.Tensor:
        """Item scores from context features c and GRU hidden states h; all
        items, or the columns `cols`."""
        m = self.bn(T.relu(T.affine(T.concat([c, h], axis=1),
                                    self.merge_weight, self.merge_bias)), training)
        return _item_scores(m, self.out_weight, self.out_bias, cols)

    def step_scores(self, prev_items, contexts, boundaries, lane_ids=None,
                    training: bool = False) -> T.Tensor:
        """One step through every block; gradients reach frozen parameters too."""
        c = self.pnn.encode(contexts, prev_items, training)
        h = self.gru.step(prev_items, boundaries, lane_ids)
        return self.head(c, h, training)

    def logits(self, batch, cols=None, training=False, rng=None) -> T.Tensor:
        """``step_scores`` values; backward reaches only the trainable layers."""
        features = self.pnn.features(batch.contexts, batch.prev_items)
        c = self.pnn.bn(T.constant(features.data), training)
        h = self.gru.step(batch.prev_items, batch.session_boundary, lane_ids=batch.lanes)
        return self.head(c, T.constant(h.data), training, cols=cols)


# ---------------------------------------------------------------------------
# checkpoints


def _members(model) -> dict[str, np.ndarray]:
    """Every stored array by member name: parameters, then running statistics."""
    out = {f"param/{p.name}": p.value for p in model.parameters()}
    out.update((f"state/{name}", arr) for name, arr in model.state_arrays().items())
    return out


def save_checkpoint(path, model, schema_hash: str) -> None:
    """Write the model to an .npz archive with a JSON meta member.

    Stores every parameter (frozen ones included) and the batch-norm
    running statistics, so frozen blocks round-trip byte-identically.  The
    archive is written to a temporary file in the same directory and then
    renamed over `path`, so an interrupted write leaves any previous
    checkpoint intact.  As with ``np.savez``, ``.npz`` is appended to a path
    without it.
    """
    arrays = _members(model)
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "schema_hash": schema_hash,
        "hyperparameters": model.hyperparameters(),
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_raw_tensor_bytes(path) -> dict[str, bytes]:
    """Raw serialized bytes of every stored array, keyed by member name.

    Lets callers compare blocks for bit-identity without relying on zip
    metadata.
    """
    out = {}
    with zipfile.ZipFile(path) as zf:
        for name in zf.namelist():
            out[name.removesuffix(".npy")] = zf.read(name)
    return out


def _fill(model, stored: dict, path) -> None:
    for key, target in _members(model).items():
        name = key.partition("/")[2]
        if key not in stored:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if stored[key].shape != target.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {stored[key].shape}, "
                f"expected {target.shape}"
            )
        target[...] = stored[key]


# model kind -> builder from the stored hyperparameters
KINDS = {
    "gru": GruSessionModel,
    "pnn": PnnEncoder,
    "arnn": lambda pnn, gru, merge_dim: ArnnModel(KINDS["pnn"](**pnn),
                                                  KINDS["gru"](**gru), merge_dim),
}


def load_checkpoint(path, expected_schema_hash: str | None = None,
                    expected_kind: str | None = None):
    """Rebuild a model from a checkpoint, failing loudly on any mismatch.

    A file that is not a readable archive with a JSON meta member (missing,
    truncated, or not an archive at all) raises CheckpointError as well.
    """
    try:
        with np.load(path) as zf:
            stored = {k: zf[k] for k in zf.files}
        meta = json.loads(bytes(stored.pop("meta")))
        version, kind = meta["format_version"], meta["kind"]
        schema_hash, hp = meta["schema_hash"], meta["hyperparameters"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format {version}")
    if expected_schema_hash is not None and schema_hash != expected_schema_hash:
        raise CheckpointError(
            f"{path}: schema hash {schema_hash[:12]}... does not match "
            f"the dataset's {expected_schema_hash[:12]}..."
        )
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint is {kind!r}, expected {expected_kind!r}")
    try:
        model = KINDS[kind](**hp)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: cannot build a {kind!r} model: {exc!r}") from exc
    _fill(model, stored, path)
    return model
