"""TOP1 ranking loss, Adagrad, and the three training stages.

The protocol is pretrain-then-merge: the GRU session model and the context
encoder are each trained alone against the TOP1 loss over in-batch
negatives, then a merge head is trained on top of both with their
parameters frozen (the encoder's batch-norm scale/shift stays live).
Hidden state carries across batch steps but is detached, so
backpropagation is truncated to a single step.

Every stage scores only the batch's distinct target items: TOP1 reads
nothing else, so the logits are [rows, distinct targets] instead of
[rows, items], and ``top1_batch_loss`` takes them with each row's position
among those columns.  Backward then writes only those columns of the output
table and bias (and the gathered rows of the embedding tables), and Adagrad
updates only what backward wrote, plus one dense weight-decay pass when the
decay is nonzero.  Validation and evaluation still score every item.

A stage drives its model through the protocol of ``models``: ``reset``
per epoch, ``logits(batch, cols)`` per batch.  A one-row batch is skipped
unscored.  A batch whose rows share one target is scored, so the hidden
state and the dropout draws advance, but it has no loss and no update.
Merge training's ``logits`` treats the frozen blocks as constants: the GRU
hidden states and the encoder's pre-norm features enter the graph as
values, so backward and the optimizer touch only the encoder's batch norm
and the merge head.
``ArnnModel.step_scores`` remains the differentiable reference through
every block; both give the same losses and checkpoints.
``top1_batch_loss`` is one graph node whose values and gradients are, bit for
bit, those of the composed ``take_rc``, ``sub``, ``sigmoid``, ``mul`` and
``sum_all`` graph, its reference (with ``top1_loss``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .batching import SessionParallelIterator
from .data import SessionDataset
from .errors import ConfigError, DataError, NumericError, PrerequisiteError
from .evaluate import evaluate_system
from .models import ArnnModel, GruSessionModel, PnnEncoder, load_checkpoint, save_checkpoint

STAGES = ("gru", "pnn", "merge")
EVAL_K = 20  # validation recall@k and MRR@k, and the history's column names


# ---------------------------------------------------------------------------
# loss


def top1_loss(target_logit, negative_logits) -> T.Tensor:
    """Mean over negatives of sigmoid(neg - pos) + sigmoid(neg^2)."""
    pos = T.as_tensor(target_logit)
    negs = T.as_tensor(negative_logits)
    if negs.data.size == 0:
        raise DataError("TOP1 loss is undefined with zero negatives")
    terms = T.add(T.sigmoid(T.sub(negs, pos)), T.sigmoid(T.mul(negs, negs)))
    return T.mean_all(terms)


def top1_batch_loss(logits: T.Tensor, own) -> T.Tensor | None:
    """TOP1 over in-batch negatives, averaged across the batch's rows.

    The m columns of logits are the batch's distinct targets, and own[i] is
    row i's target among them.  Row i's negatives are the other rows'
    distinct targets minus any equal to its own, which are the other m - 1
    columns; with one distinct target there are none and the loss is None.
    """
    x = T.as_tensor(logits)                                    # [n,m]
    n, m = x.shape
    if m < 2:
        return None
    rows = np.arange(n)
    sd = T._sigmoid_values(x.data - x.data[rows, own][:, None])
    ss = T._sigmoid_values(x.data * x.data)
    weights = np.full((n, m), 1.0 / (m - 1) / n)
    weights[rows, own] = 0.0

    def bwd(g):
        w = g * weights
        gx = w * sd * (1.0 - sd)
        gs = w * ss * (1.0 - ss)
        # the composed graph's order: the difference, its positive, then the square twice
        np.add.at(gx, (rows, own), (-gx).sum(axis=1))
        gx += gs * x.data
        gx += gs * x.data
        T._acc(x, gx)

    return T._node(np.asarray(((sd + ss) * weights).sum()), (x,), bwd, "top1_batch_loss")


# ---------------------------------------------------------------------------
# optimizer

ADAGRAD_EPS = 1e-10
DECAY_BLOCK = 16384  # entries per block of the weight-decay pass over a sliced table


class Adagrad:
    """Adaptive-gradient steps with decoupled weight decay.

    Per unfrozen parameter: acc += g^2; value -= lr * g / (sqrt(acc) + eps)
    + lr * wd * value.  Frozen parameters are left untouched.  Gradients
    are zeroed after the step.  A parameter with no accumulator yet gets a
    zero one when the optimizer is built.

    Only the entries backward wrote into (``Parameter.touched``) go through
    that formula, with the same operations as a dense step.  Every other
    entry has g = 0, where the formula leaves acc as it is and reduces to
    value -= lr * wd * value: one pass when wd > 0, over blocks of whole rows
    of about ``DECAY_BLOCK`` entries, nothing when wd = 0 (the same values;
    only a -0.0 entry could come out as +0.0).  Temporaries go to two
    preallocated arrays, so a step allocates nothing table-sized.
    """

    def __init__(self, params, learning_rate: float, weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        for p in self.params:
            if p.accumulator is None:
                p.accumulator = np.zeros_like(p.value)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        # two arrays the size of the largest parameter, for every step's temporaries
        self._scratch = np.empty((2, max((p.value.size for p in self.params), default=0)))

    def step(self) -> None:
        lr, wd = self.learning_rate, self.weight_decay
        for p in self.params:
            if not p.frozen:
                where, g = p.touched_grad()
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite gradient for parameter {p.name!r}")
                # views when `where` is everything, copies of the slices otherwise
                acc, value = p.accumulator[where], p.value[where]
                # the formula's operations, one by one, in place in the scratch arrays
                t1, t2 = self._scratch[:, :g.size].reshape((2,) + g.shape)
                acc += np.multiply(g, g, out=t1)
                np.sqrt(acc, out=t2)
                t2 += ADAGRAD_EPS
                np.multiply(g, lr, out=t1)
                t1 /= t2
                if wd > 0:
                    t1 += np.multiply(value, lr * wd, out=t2)
                value -= t1
                if where is not ...:
                    p.accumulator[where] = acc
                    if wd > 0:
                        row = max(1, p.value.size // max(1, len(p.value)))  # entries per row
                        rows = max(1, DECAY_BLOCK // row)
                        for i in range(0, len(p.value), rows):
                            block = p.value[i:i + rows]
                            decay = self._scratch[0, :block.size].reshape(block.shape)
                            block -= np.multiply(block, lr * wd, out=decay)
                    p.value[where] = value
            p.zero_grad()


# ---------------------------------------------------------------------------
# plans and profiles


@dataclass
class TrainPlan:
    stage: str
    epochs: int
    batch_lanes: int
    seed: int
    learning_rate: float
    weight_decay: float
    patience: int
    hidden_size: int
    embed_dim: int
    context_dim: int
    merge_dim: int
    dropout: float
    eval_lanes: int = 50
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}; expected one of {STAGES}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


# hidden/context/merge sizes and dropout per published profile; learning
# rates and decay are package defaults, exposed through configuration
PROFILES: dict[str, dict] = {
    "xing": dict(hidden_size=100, embed_dim=10, context_dim=100, merge_dim=100,
                 dropout=0.2, batch_lanes=50, epochs=10, patience=3,
                 lr_pretrain=0.05, lr_merge=0.01, weight_decay=1e-6),
    "tmall": dict(hidden_size=1000, embed_dim=10, context_dim=300, merge_dim=1000,
                  dropout=0.0, batch_lanes=50, epochs=10, patience=3,
                  lr_pretrain=0.05, lr_merge=0.01, weight_decay=1e-6),
    # desk-scale profile for the synthetic experiments; patience equals the
    # epoch budget because recall@20 saturates instantly on 60 items
    "synth": dict(hidden_size=48, embed_dim=16, context_dim=192, merge_dim=128,
                  dropout=0.0, batch_lanes=32, epochs=50, patience=50,
                  lr_pretrain=0.2, lr_merge=0.1, weight_decay=0.0),
}


def make_plan(stage: str, profile: str, seed: int, **overrides) -> TrainPlan:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    p = dict(PROFILES[profile])
    lr = p.pop("lr_merge") if stage == "merge" else p.pop("lr_pretrain")
    p.pop("lr_merge", None)
    p.pop("lr_pretrain", None)
    plan = TrainPlan(stage=stage, seed=seed, learning_rate=lr, **p)
    if overrides:
        plan = replace(plan, **overrides)
    return plan


# ---------------------------------------------------------------------------
# stage runner


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_recall: float
    val_mrr: float


@dataclass
class StageResult:
    checkpoint_path: str
    history: list[EpochStats] = field(default_factory=list)
    best_recall: float = float("-inf")
    best_mrr: float = float("-inf")


def history_tsv(history: list[EpochStats]) -> str:
    lines = [f"epoch\ttrain_loss\tval_recall@{EVAL_K}\tval_mrr@{EVAL_K}"]
    for h in history:
        lines.append(
            f"{h.epoch}\t{h.train_loss:.6f}\t{h.val_recall:.6f}\t{h.val_mrr:.6f}"
        )
    return "\n".join(lines) + "\n"


def split_validation(dataset: SessionDataset, fraction: float
                     ) -> tuple[SessionDataset, SessionDataset]:
    """Hold out the last `fraction` of sessions by start time for validation."""
    n = len(dataset.sessions)
    n_val = min(max(1, int(round(n * fraction))), n - 1)
    order = sorted(range(n), key=lambda i: (dataset.sessions[i].start_time, i))
    val_idx = set(order[n - n_val:])
    train = [s for i, s in enumerate(dataset.sessions) if i not in val_idx]
    val = [s for i, s in enumerate(dataset.sessions) if i in val_idx]
    return (SessionDataset(train, dataset.schema), SessionDataset(val, dataset.schema))


def _build_stage_model(plan: TrainPlan, dataset: SessionDataset, rng,
                       gru_checkpoint=None, pnn_checkpoint=None):
    schema = dataset.schema
    if plan.stage == "gru":
        return GruSessionModel(len(schema.item_vocabulary), plan.hidden_size, plan.dropout, rng)
    if plan.stage == "pnn":
        return PnnEncoder.from_schema(schema, plan.embed_dim, plan.context_dim, rng)
    if gru_checkpoint is None or pnn_checkpoint is None:
        raise PrerequisiteError("the merge stage needs both pretraining checkpoints")
    for path, kind in ((gru_checkpoint, "gru"), (pnn_checkpoint, "pnn")):
        if not os.path.exists(path):
            raise PrerequisiteError(f"missing {kind} checkpoint: {path}")
    gru = load_checkpoint(gru_checkpoint, schema.hash(), "gru")
    pnn = load_checkpoint(pnn_checkpoint, schema.hash(), "pnn")
    return ArnnModel(pnn, gru, plan.merge_dim, rng)


def run_stage(plan: TrainPlan, dataset: SessionDataset, out_dir,
              gru_checkpoint=None, pnn_checkpoint=None) -> StageResult:
    """Train one stage and keep the checkpoint with the best validation recall.

    The initial model is written immediately, so a divergence abort always
    leaves the last good state on disk.  Training stops early when
    validation Recall@EVAL_K has not improved for `patience` epochs.
    """
    rng = np.random.default_rng(plan.seed)
    train, val = split_validation(dataset, plan.validation_fraction)
    schema_hash = dataset.schema.hash()
    model = _build_stage_model(plan, dataset, rng, gru_checkpoint, pnn_checkpoint)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"{plan.stage}.npz")
    save_checkpoint(ckpt_path, model, schema_hash)
    optimizer = Adagrad([p for p in model.parameters() if not p.frozen],
                        plan.learning_rate, plan.weight_decay)
    result = StageResult(checkpoint_path=ckpt_path)
    bad_epochs = 0
    for epoch in range(plan.epochs):
        order = rng.permutation(len(train.sessions))
        model.reset(plan.batch_lanes)
        losses = []
        for batch in SessionParallelIterator(train, plan.batch_lanes, order):
            if len(batch.lanes) < 2:
                continue
            # score only the batch's distinct targets: they are every row's
            # positive and negatives
            cols, own = np.unique(batch.target_items, return_inverse=True)
            logits = model.logits(batch, cols, training=True, rng=rng)
            loss = top1_batch_loss(logits, own)
            if loss is None:
                continue
            if not np.isfinite(loss.data):
                raise NumericError(
                    f"training diverged in epoch {epoch}; "
                    f"last good checkpoint kept at {ckpt_path}"
                )
            T.backward(loss)
            optimizer.step()
            losses.append(float(loss.data))
        report = evaluate_system(model, val, k=EVAL_K, lanes=plan.eval_lanes)
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        result.history.append(
            EpochStats(epoch, mean_loss, report.recall, report.mrr)
        )
        improved_recall = report.recall > result.best_recall
        # best checkpoint by (recall, mrr): mrr keeps discriminating once
        # recall@k saturates on small vocabularies
        if improved_recall or (report.recall == result.best_recall
                               and report.mrr > result.best_mrr):
            result.best_recall = report.recall
            result.best_mrr = report.mrr
            save_checkpoint(ckpt_path, model, schema_hash)
        if improved_recall:
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > plan.patience:
                break
    return result
