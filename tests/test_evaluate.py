import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arnn.batching import SessionParallelIterator
from arnn.data import FieldSchema, Session, SessionDataset
from arnn.errors import EvaluationError
from arnn.evaluate import (
    EvalReport,
    ItemKnnIndex,
    SystemReport,
    build_itemknn,
    evaluate_system,
    mrr_at_k,
    rank_of,
    recall_at_k,
    top_k_items,
)
from arnn.models import (
    ArnnModel,
    GruSessionModel,
    PnnEncoder,
    load_checkpoint,
    save_checkpoint,
)


def make_dataset(item_lists, n_items=10, n_cats=2):
    cats = [f"c{i}" for i in range(n_cats)] + ["unknown"]
    schema = FieldSchema([("f", cats)], [f"i{k}" for k in range(n_items)])
    sessions = [
        Session(steps=[((k % n_cats,), i) for i in items], start_time=k)
        for k, items in enumerate(item_lists)
    ]
    return SessionDataset(sessions, schema)


# ---------------------------------------------------------------------------
# metrics


def test_recall_half():
    assert recall_at_k([[0, 5], [7, 8]], [0, 1], k=2) == 0.5


def test_recall_rank_one_everywhere():
    assert recall_at_k([[3], [4]], [3, 4], k=1) == 1.0


def test_recall_empty_input_errors():
    with pytest.raises(EvaluationError):
        recall_at_k([], [], k=5)


def test_recall_random_lists_match_chance():
    rng = np.random.default_rng(0)
    lists = [rng.choice(100, size=20, replace=False).tolist() for _ in range(1000)]
    targets = rng.integers(0, 100, size=1000).tolist()
    assert abs(recall_at_k(lists, targets, k=20) - 0.2) < 0.04


def test_mrr_hand_computation():
    lists = [[5, 1], [2, 6], [9, 9 - 1]]
    targets = [5, 6, 0]  # ranks 1, 2, miss
    assert_allclose(mrr_at_k(lists, targets, k=2), 0.5)


def test_mrr_equals_recall_when_all_rank_one():
    lists = [[1, 2], [3, 4]]
    targets = [1, 3]
    assert mrr_at_k(lists, targets, 2) == recall_at_k(lists, targets, 2) == 1.0


def test_mrr_never_exceeds_recall():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = rng.integers(1, 8)
        lists = [rng.choice(12, size=4, replace=False).tolist() for _ in range(n)]
        targets = rng.integers(0, 12, size=n).tolist()
        assert mrr_at_k(lists, targets, 4) <= recall_at_k(lists, targets, 4)


def test_rank_of_breaks_ties_by_index():
    scores = np.array([1.0, 3.0, 3.0, 0.5])
    assert rank_of(scores, 1) == 1
    assert rank_of(scores, 2) == 2
    assert rank_of(scores, 0) == 3
    assert rank_of(scores, 3) == 4


# a few exact values, signed zeros among them, make ties common
_SCORE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCORE, min_size=1, max_size=40), st.data())
def test_rank_of_is_the_stable_descending_position(values, data):
    # independent oracle: position in a stable descending sort
    scores = np.array(values)
    order = np.argsort(-scores, kind="stable").tolist()
    v = len(values)
    for target in {0, v - 1, data.draw(st.integers(0, v - 1))}:
        rank = rank_of(scores, target)
        assert type(rank) is int
        assert rank == order.index(target) + 1


def test_rank_of_nan_target_ranks_first():
    # no comparison with NaN holds, so nothing beats or ties a NaN target
    scores = np.array([1.0, np.nan, 2.0, np.nan])
    assert rank_of(scores, 1) == 1
    assert rank_of(scores, 3) == 1
    assert rank_of(scores, 0) == 2
    assert rank_of(scores, 2) == 1


def test_top_k_matches_rank_of():
    rng = np.random.default_rng(8)
    for _ in range(50):
        scores = rng.integers(0, 4, size=9).astype(float)  # many ties
        order = top_k_items(scores, 9)
        for pos, item in enumerate(order):
            assert rank_of(scores, int(item)) == pos + 1


# ---------------------------------------------------------------------------
# item-KNN


def test_itemknn_identical_incidence():
    ds = make_dataset([[0, 1], [0, 1], [1, 0]])
    index = build_itemknn(ds, lam=0.0)
    assert_allclose(index.sim[0, 1], 1.0)
    assert_allclose(index.sim[1, 0], 1.0)


def test_itemknn_never_cooccurring():
    ds = make_dataset([[0, 1], [2, 3]])
    index = build_itemknn(ds, lam=0.0)
    assert index.sim[0, 2] == 0.0
    assert index.sim[1, 3] == 0.0


def test_itemknn_matches_brute_force_cosine():
    rng = np.random.default_rng(5)
    item_lists = [
        rng.integers(0, 10, size=rng.integers(2, 6)).tolist() for _ in range(10)
    ]
    ds = make_dataset(item_lists)
    index = build_itemknn(ds, lam=0.0, top_m=10)
    incidence = np.zeros((10, 10))
    for row, items in enumerate(item_lists):
        for i in items:
            incidence[row, i] = 1.0
    brute = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            if i == j:
                continue
            ni, nj = incidence[:, i].sum(), incidence[:, j].sum()
            if ni and nj:
                both = float((incidence[:, i] * incidence[:, j]).sum())
                brute[i, j] = both / (np.sqrt(ni) * np.sqrt(nj))
    assert np.max(np.abs(index.sim - brute)) < 1e-12


def test_itemknn_regularizer_shrinks_rare_pairs():
    ds = make_dataset([[0, 1], [0, 1]])
    plain = build_itemknn(ds, lam=0.0)
    damped = build_itemknn(ds, lam=20.0)
    assert damped.sim[0, 1] < plain.sim[0, 1]


def test_itemknn_top_m_cap():
    ds = make_dataset([[0, 1, 2], [0, 1], [0, 2]])
    index = build_itemknn(ds, lam=0.0, top_m=1)
    assert np.count_nonzero(index.sim[0]) == 1


def _random_item_lists():
    rng = np.random.default_rng(12)
    return [rng.integers(0, 600, size=rng.integers(2, 9)).tolist() for _ in range(400)]


# the random sessions leave some of the 600 items out, and at lam = 0 the
# reference below divides 0 by 0 for those: the lam = 0 case adds sessions
# that hold every item
_EVERY_ITEM = [[k, k + 1] for k in range(0, 600, 2)]


def _whole_table(item_lists, n_items, lam):
    # the whole [V, V] table from the dense incidence product
    incidence = np.zeros((len(item_lists), n_items))
    for row, items in enumerate(item_lists):
        incidence[row, items] = 1.0
    co = incidence.T @ incidence
    counts = np.diag(co).copy()
    denom = np.sqrt(counts)[:, None] * np.sqrt(counts)[None, :] + lam
    full = co / denom
    np.fill_diagonal(full, 0.0)
    return full


def _cut(full, top_m):
    # each row's top_m on its own, ties by ascending column, into a zero table
    want = np.zeros_like(full)
    for i in range(len(full)):
        top = np.argsort(-full[i], kind="stable")[:top_m]
        want[i, top] = full[i, top]
    return want


@pytest.mark.parametrize("item_lists, n_items, lam, top_m", [
    (_random_item_lists(), 600, 2.0, 25),
    (_random_item_lists(), 600, 20.0, 100),  # the values the CLI and the benchmark use
    (_random_item_lists() + _EVERY_ITEM, 600, 0.0, 1),
    # a session of one repeated item, and item 600 in no session
    (_random_item_lists() + [[7, 7, 7]], 601, 2.0, 25),
], ids=["lam2-top25", "lam20-top100", "lam0-top1", "repeat-and-unheld"])
def test_itemknn_matches_the_whole_table_build(item_lists, n_items, lam, top_m):
    ds = make_dataset(item_lists, n_items=n_items)
    full = _whole_table(item_lists, n_items, lam)
    got = build_itemknn(ds, lam=lam, top_m=top_m).sim
    assert got.tobytes() == _cut(full, top_m).tobytes()
    assert build_itemknn(ds, lam=lam, top_m=n_items).sim.tobytes() == full.tobytes()


@pytest.mark.parametrize("top_m", [1, 5, 12])
def test_itemknn_csr_scores_are_the_dense_table_bit_for_bit(top_m):
    # two-item sessions over 12 items: equal co-counts and item counts make
    # ties within rows, and at top_m = 1 and 5 across the cut
    rng = np.random.default_rng(1)
    item_lists = [rng.choice(12, size=2, replace=False).tolist() for _ in range(40)]
    ds = make_dataset(item_lists, n_items=12)
    full = _whole_table(item_lists, 12, 1.0)
    ranked = -np.sort(-full, axis=1)
    if top_m < 12:
        assert np.any((ranked[:, top_m - 1] > 0) & (ranked[:, top_m - 1] == ranked[:, top_m]))
    want = _cut(full, top_m)
    index = build_itemknn(ds, lam=1.0, top_m=top_m)
    for i in range(12):
        assert index.scores(i).tobytes() == want[i].tobytes()
    index.reset(3)
    for batch in SessionParallelIterator(ds, 3):
        cols = rng.integers(0, 12, size=7)  # with repeats
        assert index.logits(batch).data.tobytes() == want[batch.prev_items].tobytes()
        assert (index.logits(batch, cols).data.tobytes()
                == want[batch.prev_items][:, cols].tobytes())


def test_build_itemknn_peaks_below_one_dense_table():
    rng = np.random.default_rng(3)
    n_items = 2000
    item_lists = [rng.integers(0, n_items, size=rng.integers(2, 9)).tolist()
                  for _ in range(3000)]
    ds = make_dataset(item_lists, n_items=n_items)
    tracemalloc.start()
    try:
        index = build_itemknn(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_items * n_items * 8
    assert index.indices.size > 0


@pytest.mark.parametrize("lam, top_m", [(-1.0, 100), (float("nan"), 100), (float("inf"), 100),
                                        (20.0, 0), (20.0, -3)],
                         ids=["lam-negative", "lam-nan", "lam-inf", "top0", "top-negative"])
def test_build_itemknn_rejects_bad_settings(lam, top_m):
    ds = make_dataset([[0, 1], [1, 2]])
    with pytest.raises(EvaluationError):
        build_itemknn(ds, lam=lam, top_m=top_m)


# ---------------------------------------------------------------------------
# evaluate_system


def _index(sim):
    """An item-KNN index holding the nonzero entries of a dense table."""
    i, j = np.nonzero(sim)
    return ItemKnnIndex(np.searchsorted(i, np.arange(len(sim) + 1)), j, sim[i, j], 0.0, 10)


def test_constant_perfect_predictor():
    # sessions follow i -> i+1; a similarity table encoding that is perfect
    ds = make_dataset([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    sim = np.zeros((10, 10))
    for i in range(9):
        sim[i, i + 1] = 1.0
    report = evaluate_system(_index(sim), ds, k=5)
    assert report.recall == 1.0 and report.mrr == 1.0
    assert report.n_recs == 6 and report.n_hits == 6


def test_first_step_produces_no_prediction():
    ds = make_dataset([[0, 1], [2, 3]])
    report = evaluate_system(_index(np.zeros((10, 10))), ds, k=3)
    assert report.n_recs == 2  # one prediction per two-step session


def test_recall_mrr_equal_at_k_one():
    ds = make_dataset([[0, 1, 2], [3, 4, 5]])
    model = GruSessionModel(10, 6, rng=np.random.default_rng(0))
    report = evaluate_system(model, ds, k=1)
    assert report.recall == report.mrr


def test_evaluate_empty_dataset_errors():
    ds = make_dataset([[0, 1]])
    ds.sessions = []
    with pytest.raises(EvaluationError):
        evaluate_system(_index(np.zeros((10, 10))), ds, k=3)


def test_evaluation_deterministic_across_runs():
    ds = make_dataset([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 0], [1, 2]])
    model = GruSessionModel(10, 8, rng=np.random.default_rng(3))
    r1 = evaluate_system(model, ds, k=4)
    r2 = evaluate_system(model, ds, k=4)
    assert r1 == r2


def _collect_scores(system, ds, n_batches):
    lanes = max(2, min(50, len(ds.sessions)))
    system.reset(lanes)
    out = []
    for i, batch in enumerate(SessionParallelIterator(ds, lanes)):
        if i == n_batches:
            break
        out.append(system.logits(batch).data.copy())
    return out


def test_prefix_only_conditioning_gru_and_arnn():
    # permuting a session's future steps must not change earlier predictions
    base = make_dataset([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    permuted = make_dataset([[0, 1, 4, 3, 2], [5, 6, 9, 8, 7]])
    gru = GruSessionModel(10, 6, rng=np.random.default_rng(1))
    for a, b in zip(_collect_scores(gru, base, 2), _collect_scores(gru, permuted, 2)):
        assert_allclose(a, b)
    pnn = PnnEncoder.from_schema(base.schema, 4, 8, rng=np.random.default_rng(2))
    arnn = ArnnModel(pnn, GruSessionModel(10, 6, rng=np.random.default_rng(3)), 8,
                     rng=np.random.default_rng(4))
    for a, b in zip(_collect_scores(arnn, base, 2), _collect_scores(arnn, permuted, 2)):
        assert_allclose(a, b)


# each kind's scoring call outside the protocol: (system, prev items,
# contexts, boundary flags, lane ids) -> scores
REFERENCE_PATHS = {
    "itemknn": lambda s, prev, ctx, first, lanes: s.sim[prev],
    "gru": lambda s, prev, ctx, first, lanes: s.scores(s.step(prev, first, lane_ids=lanes)).data,
    "pnn": lambda s, prev, ctx, first, lanes: s.scores(s.encode(ctx, prev, training=False)).data,
    "arnn": lambda s, prev, ctx, first, lanes: s.step_scores(prev, ctx, first, lane_ids=lanes,
                                                             training=False).data,
}


def _build_system(kind, ds):
    if kind == "itemknn":
        return build_itemknn(ds, lam=1.0, top_m=4)
    gru = GruSessionModel(10, 6, dropout=0.3, rng=np.random.default_rng(1))
    pnn = PnnEncoder.from_schema(ds.schema, 4, 8, rng=np.random.default_rng(2))
    return {"gru": gru, "pnn": pnn,
            "arnn": ArnnModel(pnn, gru, 8, rng=np.random.default_rng(3))}[kind]


@pytest.mark.parametrize("kind", sorted(REFERENCE_PATHS))
def test_logits_equal_reference_path(kind):
    # three lanes over sessions of unequal length: lanes start, end and drop
    # out of the batches mid-stream
    ds = make_dataset([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 0, 1], [2, 3], [5, 9, 1]])
    system, reference = _build_system(kind, ds), _build_system(kind, ds)
    assert system.kind == kind
    system.reset(3)
    reference.reset(3)
    for batch in SessionParallelIterator(ds, 3):
        want = REFERENCE_PATHS[kind](reference, batch.prev_items, batch.contexts,
                                     batch.session_boundary, batch.lanes)
        assert system.logits(batch).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["gru", "pnn", "arnn"])
def test_loaded_model_evaluates_without_gradient_or_accumulator(kind, tmp_path):
    ds = make_dataset([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 0, 1]])
    path = tmp_path / f"{kind}.npz"
    save_checkpoint(path, _build_system(kind, ds), "a" * 64)
    model = load_checkpoint(path, "a" * 64, kind)
    evaluate_system(model, ds, k=3)
    for p in model.parameters():
        assert p._grad is None and p.accumulator is None, p.name


def test_report_formats():
    report = EvalReport([SystemReport("gru", 20, 0.5, 0.25, 100, 50)])
    tsv = report.to_tsv()
    assert tsv.startswith("system\tk\trecall\tmrr\tn_recs\tn_hits\n")
    assert "gru\t20\t0.500000\t0.250000\t100\t50" in tsv
    table = report.format_table()
    assert "gru" in table and "0.5000" in table
