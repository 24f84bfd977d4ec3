"""Ranking metrics, the item-to-item baseline, and test-set evaluation.

Evaluation walks every test session left to right; from the second step on
the system scores all items conditioned on the observed prefix only,
through the model protocol of ``models`` (``reset``, then ``logits(batch)``
with one row of scores per batch row; the merge model's equal its reference
``step_scores``).  The recurrent systems carry hidden state within a
session, the item-KNN and context-encoder baselines condition on the
previous step alone.  Ties in the ranking break deterministically by
ascending item index.

The item-KNN table keeps only each row's top-M entries, in CSR arrays
(``indptr``, ``indices``, ``values``); its dense [V, V] form exists only as
the ``ItemKnnIndex.sim`` view, which costs O(V^2) per access.
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
    """1-based rank of the target under descending score, ties by index.

    One plus the items scoring above the target plus the tied items before
    it, so a NaN target ranks 1.  ``np.count_nonzero`` counts each in one C
    loop (``np.sum`` reduces through Python and casts to int64).  Called once
    per recommendation: ``perfbench`` times ranking per ``rank_of`` call, so
    ranking a batch at once needs a benchmark change first.
    """
    s = scores[target]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:target] == s)) + 1


def top_k_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, descending, ties by ascending index."""
    order = np.argsort(-scores, kind="stable")
    return order[: min(k, len(scores))]


# ---------------------------------------------------------------------------
# item-KNN baseline


@dataclass
class ItemKnnIndex:
    """Cosine similarity over binary session-incidence vectors, top-M per item.

    The kept entries are stored in CSR form: row i's columns and values are
    ``indices[indptr[i]:indptr[i + 1]]`` and ``values[...]`` over the same
    slice, and every other entry of the row is +0.0.  Scores for a batch are
    scattered into a zeroed [n, V] block, so memory is O(V * M) and never
    [V, V].  ``sim`` is the whole [V, V] table, built on each access; it is
    an O(V^2) view for tests to check against, not for program paths.
    """

    indptr: np.ndarray  # [V+1]
    indices: np.ndarray  # [nnz]
    values: np.ndarray  # [nnz]
    lam: float
    top_m: int

    kind = "itemknn"

    def _rows(self, items) -> np.ndarray:
        """The table's rows for `items`, as a new [len(items), V] array."""
        items = np.asarray(items, dtype=np.int64)
        n, v = len(items), len(self.indptr) - 1
        begin = self.indptr[items]
        size = self.indptr[items + 1] - begin
        at = np.repeat(begin - (np.cumsum(size) - size), size) + np.arange(size.sum())
        out = np.zeros((n, v))
        # flat positions: a 1-D scatter is about 3x faster than a (row, column) one
        flat = np.repeat(np.arange(0, n * v, v), size) + self.indices[at]
        out.reshape(-1)[flat] = self.values[at]
        return out

    @property
    def sim(self) -> np.ndarray:
        """The dense [V, V] table, zero diagonal, zero outside each row's top M."""
        return self._rows(np.arange(len(self.indptr) - 1))

    def scores(self, prev_item: int) -> np.ndarray:
        return self._rows([prev_item])[0]

    def reset(self, n_lanes: int) -> None:
        """Stateless: a step depends on its previous item only."""

    def logits(self, batch, cols=None, training=False, rng=None) -> T.Tensor:
        rows = self._rows(batch.prev_items)
        return T.constant(rows if cols is None else rows[:, cols])


def build_itemknn(train: SessionDataset, lam: float = 20.0, top_m: int = 100
                  ) -> ItemKnnIndex:
    """sim(i,j) = |sessions with both| / (sqrt(n_i) * sqrt(n_j) + lam).

    Every nonzero entry comes from two distinct items sharing a session, so
    the table is built from those pairs alone: each ordered pair (i, j) is
    counted once per session, its value computed, and the pairs sorted by
    row, then value descending, then column ascending.  The first top_m of
    each row are kept, which breaks ties at the cut by ascending column, and
    are the CSR entries in that order.  No [sessions, V] or [V, V] array is
    made.  lam must be finite and non-negative, top_m at least 1.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise EvaluationError(f"lam must be finite and non-negative, got {lam}")
    if top_m < 1:
        raise EvaluationError(f"top_m must be at least 1, got {top_m}")
    if not train.sessions:
        raise EvaluationError("cannot build an item index from an empty dataset")
    n_items = len(train.schema.item_vocabulary)
    # each session's distinct items, sorted by session, then item
    session = np.repeat(np.arange(len(train.sessions)), [len(s.items) for s in train.sessions])
    step_item = [item for s in train.sessions for item in s.items]
    session, item = np.divmod(np.unique(session * n_items + step_item), n_items)
    root = np.sqrt(np.bincount(item, minlength=n_items))
    # pair each entry with every entry of its own session, itself included
    begin = np.searchsorted(session, session)
    size = np.searchsorted(session, session, side="right") - begin
    partner = np.repeat(begin - (np.cumsum(size) - size), size) + np.arange(size.sum())
    pair, co = np.unique(np.repeat(item, size) * n_items + item[partner],
                         return_counts=True)
    i, j = np.divmod(pair, n_items)
    off_diagonal = i != j
    i, j, co = i[off_diagonal], j[off_diagonal], co[off_diagonal]
    # co >= 1 and n_i, n_j >= 1, so no denominator is below 1 for lam >= 0
    value = co / (root[i] * root[j] + lam)
    order = np.lexsort((j, -value, i))
    i, j, value = i[order], j[order], value[order]
    keep = np.arange(len(i)) - np.searchsorted(i, i) < top_m
    indptr = np.searchsorted(i[keep], np.arange(n_items + 1))
    return ItemKnnIndex(indptr, j[keep], value[keep], lam=lam, top_m=top_m)


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
        scores = system.logits(batch).data
        for row_scores, target in zip(scores, batch.target_items.tolist()):
            rank = rank_of(row_scores, target)
            n_recs += 1
            if rank <= k:
                n_hits += 1
                rr_sum += 1.0 / rank
    return SystemReport(system=name or system.kind, k=k,
                        recall=n_hits / n_recs, mrr=rr_sum / n_recs,
                        n_recs=n_recs, n_hits=n_hits)
