"""Output checks, each computed apart from the program or stated as a
property of the method.  Every check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
import zipfile
from collections import Counter

import numpy as np

from arnn import data, models
from workloads import RECOMMEND_K, SYSTEMS, Paths, Round, position_owner

KNN_SAMPLED_ROWS = 10
GRU_CAP_SIGMAS = 4.0


def transitions(ds: data.SessionDataset, truth: dict, skippable: set[str],
                label: str) -> list[str]:
    """Each step's successor is the ground-truth walk under the session's
    context; in the test split the walk may pass over items the cold-item
    filter removed (those absent from the training split)."""
    owner = position_owner(ds.schema)
    vocab = ds.schema.item_vocabulary
    bits = truth["bit_of_category"]
    fields = truth["field_names"]
    limit = truth["spec"]["max_len"]
    for n, s in enumerate(ds.sessions):
        category = dict(owner[p] for p in s.steps[0][0])
        for (_, a), (_, b) in zip(s.steps, s.steps[1:]):
            item, want = vocab[a], vocab[b]
            for _ in range(limit):
                layer = truth["layer_of_item"][item]
                item = truth["successors"][item][bits[category[fields[layer]]]]
                if item == want or item not in skippable:
                    break
            if item != want:
                return [f"{label} session {n}: {vocab[a]} -> {want} is not a "
                        f"ground-truth step (expected {item})"]
    return []


def test_subset(train: data.SessionDataset, test: data.SessionDataset) -> list[str]:
    extra = test.item_set() - train.item_set()
    return [f"{len(extra)} test items never occur in train"] if extra else []


def _rank(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based ranks under descending score, exact ties by ascending index."""
    own = scores[np.arange(len(targets)), targets][:, None]
    before = np.arange(scores.shape[1])[None, :] < targets[:, None]
    return 1 + (scores > own).sum(axis=1) + ((scores == own) & before).sum(axis=1)


def replay_ranks(system, test: data.SessionDataset) -> np.ndarray:
    """Walk all test sessions side by side through the system's public
    scoring calls and rank every step's target."""
    sessions = test.sessions
    ranks = []
    if hasattr(system, "reset"):
        system.reset(len(sessions))
    for t in range(max(len(s.steps) for s in sessions) - 1):
        lanes = np.array([i for i, s in enumerate(sessions) if len(s.steps) > t + 1])
        prev = np.array([sessions[i].steps[t][1] for i in lanes])
        target = np.array([sessions[i].steps[t + 1][1] for i in lanes])
        contexts = [sessions[i].steps[t][0] for i in lanes]
        first = np.full(len(lanes), t == 0)
        if isinstance(system, models.ArnnModel):
            scores = system.step_scores(prev, contexts, first, lane_ids=lanes).data
        elif isinstance(system, models.GruSessionModel):
            scores = system.scores(system.step(prev, first, lane_ids=lanes)).data
        elif isinstance(system, models.PnnEncoder):
            scores = system.scores(system.encode(contexts, prev, training=False)).data
        else:
            scores = np.stack([system.scores(int(p)) for p in prev])
        ranks.append(_rank(scores, target))
    return np.concatenate(ranks)


def report_matches(name: str, report, ranks: np.ndarray, test) -> list[str]:
    out = []
    n_recs = sum(len(s.steps) - 1 for s in test.sessions)
    if report.n_recs != n_recs:
        out.append(f"{name}: n_recs {report.n_recs} != sum(len - 1) = {n_recs}")
    hits = ranks <= report.k
    if report.n_hits != int(hits.sum()):
        out.append(f"{name}@{report.k}: {report.n_hits} hits, replay counts {int(hits.sum())}")
    mrr = float(np.sum(1.0 / ranks[hits])) / len(ranks)
    if not math.isclose(report.mrr, mrr, rel_tol=1e-9, abs_tol=1e-12):
        out.append(f"{name}@{report.k}: mrr {report.mrr} != replay {mrr}")
    if not report.mrr <= report.recall:
        out.append(f"{name}@{report.k}: mrr {report.mrr} > recall {report.recall}")
    if report.k == 1 and report.recall != report.mrr:
        out.append(f"{name}@1: recall {report.recall} != mrr {report.mrr}")
    return out


def itemknn_rows(index, train: data.SessionDataset, seed: int) -> list[str]:
    """Sampled rows equal a brute-force cosine with shrinkage lambda."""
    n_items = len(train.schema.item_vocabulary)
    baskets = [{item for _, item in s.steps} for s in train.sessions]
    count = Counter(i for b in baskets for i in b)
    rng = np.random.default_rng(seed)
    for i in rng.choice(n_items, size=min(KNN_SAMPLED_ROWS, n_items), replace=False):
        i = int(i)
        co = Counter(j for b in baskets if i in b for j in b if j != i)
        row = np.zeros(n_items)
        for j, c in co.items():
            row[j] = c / (math.sqrt(count[i]) * math.sqrt(count[j]) + index.lam)
        if index.top_m < n_items:
            keep = sorted(range(n_items), key=lambda j: (-row[j], j))[:index.top_m]
            kept = np.zeros(n_items)
            kept[keep] = row[keep]
            row = kept
        if not np.allclose(index.sim[i], row, rtol=1e-12, atol=1e-15):
            return [f"item-KNN row {i} differs from the brute-force cosine"]
    return []


def losses(r: Round) -> list[str]:
    out = []
    for stage, history in r.stage_losses.items():
        if not (history and math.isfinite(history[-1]) and history[-1] < 1.0):
            out.append(f"{stage}: last mean training loss {history} is not finite "
                       f"and below TOP1 at zero logits (1.0)")
    return out


def freeze_contract(paths: Paths) -> list[str]:
    with zipfile.ZipFile(paths.checkpoint("gru")) as a, \
            zipfile.ZipFile(paths.checkpoint("merge")) as b:
        names = [n for n in a.namelist() if n.startswith("param/gru/")]
        changed = [n for n in names if a.read(n) != b.read(n)]
    if not names:
        return ["gru.npz holds no GRU parameters"]
    return [f"GRU tensors changed by merge training: {changed}"] if changed else []


def context_separation(gru_r1, arnn_r1) -> list[str]:
    """Context-blind GRU is capped at 1/2 top-1 accuracy by construction."""
    cap = 0.5 + GRU_CAP_SIGMAS * math.sqrt(0.25 / gru_r1.n_recs)
    out = []
    if gru_r1.recall > cap:
        out.append(f"GRU recall@1 {gru_r1.recall:.4f} above the 1/2 cap slack {cap:.4f}")
    if not arnn_r1.recall > gru_r1.recall:
        out.append(f"ARNN recall@1 {arnn_r1.recall:.4f} does not exceed GRU's "
                   f"{gru_r1.recall:.4f}")
    return out


def recommendations(r: Round, arnn) -> list[str]:
    """k distinct items, probabilities non-increasing in [0, 1], and the top
    item is the best of the benchmark's own replay of the prefix."""
    vocab = r.train.schema.item_vocabulary
    index = {item: i for i, item in enumerate(vocab)}
    k = min(RECOMMEND_K, len(vocab))
    out = []
    for session, prefix, code, text in r.recommend_runs:
        if code != 0:
            continue  # counted as a failed operation
        rows = [line.split("\t") for line in text.splitlines()]
        items = [row[1] for row in rows]
        probs = [float(row[2]) for row in rows]
        where = f"recommend session {session} prefix {prefix}"
        if len(rows) != k or len(set(items)) != k or not set(items) <= set(vocab):
            out.append(f"{where}: expected {k} distinct vocabulary items, got {items}")
            continue
        if any(not 0.0 <= p <= 1.0 for p in probs) or any(
                a < b for a, b in zip(probs, probs[1:])):
            out.append(f"{where}: probabilities {probs} not non-increasing in [0, 1]")
        steps = r.test.sessions[session].steps[:prefix]
        arnn.reset(1)
        for t, (ctx, item) in enumerate(steps):
            logits = arnn.step_scores([item], [ctx], [t == 0]).data[0]
        own = np.exp(logits - logits.max())
        own /= own.sum()
        if own[index[items[0]]] != own.max():
            out.append(f"{where}: top item {items[0]} is not the replay's best "
                       f"{vocab[int(np.argmax(own))]}")
        if not np.allclose([own[index[i]] for i in items], probs, atol=1e-6, rtol=0):
            out.append(f"{where}: printed probabilities differ from the replay")
    return out


def run_all(w, seed: int, paths: Paths, r: Round, k1: dict) -> list[str]:
    """All checks on the last round's outputs; k1 maps "gru" and "arnn" to
    the program's Recall@1 reports."""
    with open(paths.truth, encoding="utf-8") as fh:
        truth = json.load(fh)
    vocab = r.train.schema.item_vocabulary
    cold = set(vocab) - {vocab[i] for i in r.train.item_set()}
    failures = (transitions(r.train, truth, set(), "train")
                + transitions(r.test, truth, cold, "test")
                + test_subset(r.train, r.test))
    for name in SYSTEMS:
        ranks = replay_ranks(r.systems[name], r.test)
        failures += report_matches(name, r.reports[name], ranks, r.test)
        if name in k1:
            failures += report_matches(name, k1[name], ranks, r.test)
    failures += itemknn_rows(r.systems["itemknn"], r.train, seed)
    failures += losses(r)
    failures += freeze_contract(paths)
    if w.name == "desk":
        failures += context_separation(k1["gru"], k1["arnn"])
    failures += recommendations(r, r.systems["arnn"])
    return failures
