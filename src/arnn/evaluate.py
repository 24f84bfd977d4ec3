"""Ranking metrics, the item-to-item baseline, and test-set evaluation.

Evaluation walks every test session left to right; from the second step on
the system scores all items conditioned on the observed prefix only,
through the model protocol of ``models`` (``reset``, then ``logits``; the
merge model's equal its reference ``step_scores``).  The recurrent systems
carry hidden state within a session, the item-KNN and context-encoder
baselines condition on the previous step alone.  Ties in the ranking break
deterministically by ascending item index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .batching import SessionParallelIterator
from .data import SessionDataset
from .errors import EvaluationError


# ---------------------------------------------------------------------------
# metrics


def recall_at_k(ranked_lists, targets, k: int) -> float:
    """Fraction of steps whose target appears in the step's top-k list."""
    if len(ranked_lists) == 0 or len(ranked_lists) != len(targets):
        raise EvaluationError(
            f"need matching non-empty lists, got {len(ranked_lists)} lists "
            f"and {len(targets)} targets"
        )
    hits = 0
    for items, target in zip(ranked_lists, targets):
        if len(set(items)) > k:
            raise EvaluationError(f"ranked list has more than k={k} distinct items")
        if target in items:
            hits += 1
    return hits / len(targets)


def mrr_at_k(ranked_lists, targets, k: int) -> float:
    """Mean reciprocal rank of the target within top-k, zero on miss."""
    if len(ranked_lists) == 0 or len(ranked_lists) != len(targets):
        raise EvaluationError(
            f"need matching non-empty lists, got {len(ranked_lists)} lists "
            f"and {len(targets)} targets"
        )
    total = 0.0
    for items, target in zip(ranked_lists, targets):
        if len(set(items)) > k:
            raise EvaluationError(f"ranked list has more than k={k} distinct items")
        items = list(items)
        if target in items:
            total += 1.0 / (items.index(target) + 1)
    return total / len(targets)


def rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under descending score, ties by index."""
    s = scores[target]
    better = int(np.sum(scores > s))
    equal_before = int(np.sum(scores[:target] == s))
    return better + equal_before + 1


def top_k_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, descending, ties by ascending index."""
    order = np.argsort(-scores, kind="stable")
    return order[: min(k, len(scores))]


# ---------------------------------------------------------------------------
# item-KNN baseline


@dataclass
class ItemKnnIndex:
    """Cosine similarity over binary session-incidence vectors, top-M per item."""

    sim: np.ndarray  # [V,V], zero diagonal, zero outside each row's top-M
    lam: float
    top_m: int

    kind = "itemknn"

    def scores(self, prev_item: int) -> np.ndarray:
        return self.sim[prev_item]

    def reset(self, n_lanes: int) -> None:
        """Stateless: a step depends on its previous item only."""

    def logits(self, batch, active, cols=None, training=False, rng=None) -> T.Tensor:
        rows = self.sim[batch.prev_items[active]]
        return T.constant(rows if cols is None else rows[:, cols])


# rows of the item-KNN table built at a time: bounds the [rows, V]
# co-occurrence and sort temporaries, so only the [V, V] result is held whole
KNN_BLOCK_ROWS = 256


def build_itemknn(train: SessionDataset, lam: float = 20.0, top_m: int = 100
                  ) -> ItemKnnIndex:
    """sim(i,j) = |sessions with both| / (sqrt(n_i) * sqrt(n_j) + lam).

    Co-occurrences are counted from the item pairs within each session, not
    from a [sessions, V] incidence product, and the table is filled a block
    of rows at a time.
    """
    if not train.sessions:
        raise EvaluationError("cannot build an item index from an empty dataset")
    n_items = len(train.schema.item_vocabulary)
    sessions = train.sessions
    incidence = np.zeros((len(sessions), n_items), dtype=bool)
    incidence[np.repeat(np.arange(len(sessions)), [len(s.steps) for s in sessions]),
              [item for s in sessions for _, item in s.steps]] = True
    root = np.sqrt(incidence.sum(axis=0))
    # each session's distinct items, session by session
    session, item = np.divmod(np.flatnonzero(incidence), n_items)
    basket_size = incidence.sum(axis=1)
    basket_begin = np.cumsum(basket_size) - basket_size
    # every ordered pair (i, j) of items sharing a session, i == j included,
    # as the key i * V + j: entry e pairs with each entry of its own basket
    size = basket_size[session]
    partner = np.repeat(basket_begin[session] - (np.cumsum(size) - size), size)
    partner += np.arange(len(partner))
    key = np.repeat(item, size)
    key *= n_items
    key += item[partner]
    del partner
    sim = np.zeros((n_items, n_items))
    for start in range(0, n_items, KNN_BLOCK_ROWS):
        stop = min(start + KNN_BLOCK_ROWS, n_items)
        rows = np.arange(stop - start)
        lo, hi = start * n_items, stop * n_items
        co = np.bincount(key[(key >= lo) & (key < hi)] - lo,
                         minlength=hi - lo).reshape(len(rows), n_items)
        denom = root[start:stop, None] * root[None, :] + lam
        with np.errstate(invalid="ignore", divide="ignore"):
            part = np.where(denom > 0, co / denom, 0.0)
        part[rows, rows + start] = 0.0
        if top_m < n_items:
            top = np.argsort(-part, axis=1, kind="stable")[:, :top_m]
            sim[start + rows[:, None], top] = part[rows[:, None], top]
        else:
            sim[start:stop] = part
    return ItemKnnIndex(sim=sim, lam=lam, top_m=top_m)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SystemReport:
    system: str
    k: int
    recall: float
    mrr: float
    n_recs: int
    n_hits: int


@dataclass
class EvalReport:
    rows: list[SystemReport]

    HEADER = "system\tk\trecall\tmrr\tn_recs\tn_hits"

    def to_tsv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(
                f"{r.system}\t{r.k}\t{r.recall:.6f}\t{r.mrr:.6f}\t{r.n_recs}\t{r.n_hits}"
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        widths = (10, 4, 10, 10, 8, 8)
        cols = ("system", "k", "recall", "mrr", "n_recs", "n_hits")
        out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        for r in self.rows:
            cells = (r.system, str(r.k), f"{r.recall:.4f}", f"{r.mrr:.4f}",
                     str(r.n_recs), str(r.n_hits))
            out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(out)


def evaluate_system(system, test: SessionDataset, k: int = 20,
                    lanes: int = 50, name: str | None = None) -> SystemReport:
    """Walk every test session and aggregate Recall@k and MRR@k.

    The first step of each session produces no prediction (there is no
    antecedent); every later step counts one recommendation attempt.
    """
    if not test.sessions:
        raise EvaluationError("empty test dataset")
    lanes = max(2, min(lanes, len(test.sessions)))
    system.reset(lanes)
    n_recs = n_hits = 0
    rr_sum = 0.0
    for batch in SessionParallelIterator(test, lanes):
        active = np.flatnonzero(batch.active)
        scores = system.logits(batch, active).data
        for row, lane in enumerate(active):
            rank = rank_of(scores[row], int(batch.target_items[lane]))
            n_recs += 1
            if rank <= k:
                n_hits += 1
                rr_sum += 1.0 / rank
    return SystemReport(system=name or system.kind, k=k,
                        recall=n_hits / n_recs, mrr=rr_sum / n_recs,
                        n_recs=n_recs, n_hits=n_hits)
