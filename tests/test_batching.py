import numpy as np
import pytest

from arnn.batching import MiniBatch, SessionParallelIterator
from arnn.data import FieldSchema, Session, SessionDataset
from arnn.errors import ConfigError
from reference import negatives_for


def make_dataset(item_lists, n_items=10):
    schema = FieldSchema([("a", ["x", "unknown"])], [f"i{k}" for k in range(n_items)])
    sessions = [
        Session((0,), items, start_time=k)
        for k, items in enumerate(item_lists)
    ]
    return SessionDataset(sessions, schema)


def test_lane_walk_matches_protocol():
    a, b, c, d, e = 0, 1, 2, 3, 4
    ds = make_dataset([[a, b, c], [d, e]])
    batches = list(SessionParallelIterator(ds, 2))
    assert len(batches) == 2
    b1, b2 = batches
    assert b1.prev_items.tolist() == [a, d]
    assert b1.target_items.tolist() == [b, e]
    assert b1.session_boundary.tolist() == [True, True]
    assert b1.lanes.tolist() == [0, 1]
    # lane 1's session ended; nothing left to load, so only lane 0 has a row
    assert b2.prev_items.tolist() == [b] and b2.target_items.tolist() == [c]
    assert b2.session_boundary.tolist() == [False]
    assert b2.lanes.tolist() == [0]


def test_lane_refill_sets_boundary():
    ds = make_dataset([[0, 1], [2, 3, 4], [5, 6, 7]])
    batches = list(SessionParallelIterator(ds, 2))
    # lane 0 finishes [0,1] after batch 1 and reloads [5,6,7]
    assert batches[1].session_boundary.tolist() == [True, False]
    assert batches[1].prev_items.tolist() == [5, 3]
    assert batches[1].lanes.tolist() == [0, 1]


def test_finished_lane_leaves_no_row():
    ds = make_dataset([[0, 1, 2], [3, 4], [5, 6, 7]])
    batches = list(SessionParallelIterator(ds, 3))
    # lane 1's session ends after the first batch; lanes 0 and 2 keep their ids
    assert [b.lanes.tolist() for b in batches] == [[0, 1, 2], [0, 2]]
    assert batches[1].prev_items.tolist() == [1, 6]
    assert batches[1].target_items.tolist() == [2, 7]
    assert batches[1].contexts == [(0,), (0,)]


def test_negatives_are_other_lane_targets():
    batch = MiniBatch(
        prev_items=np.array([0, 1]),
        target_items=np.array([1, 4]),
        contexts=[(), ()],
        session_boundary=np.array([True, True]),
        lanes=np.arange(2),
    )
    assert negatives_for(batch, 0).tolist() == [4]


def test_negatives_remove_self_collisions():
    batch = MiniBatch(
        prev_items=np.zeros(3, dtype=int),
        target_items=np.array([1, 4, 1]),  # lane 2 collides with lane 0
        contexts=[(), (), ()],
        session_boundary=np.ones(3, dtype=bool),
        lanes=np.arange(3),
    )
    assert negatives_for(batch, 0).tolist() == [4]
    assert sorted(negatives_for(batch, 1).tolist()) == [1]
    assert negatives_for(batch, 2).tolist() == [4]


def test_negatives_empty_on_full_collision():
    batch = MiniBatch(
        prev_items=np.zeros(2, dtype=int),
        target_items=np.array([3, 3]),
        contexts=[(), ()],
        session_boundary=np.ones(2, dtype=bool),
        lanes=np.arange(2),
    )
    assert negatives_for(batch, 0).size == 0
    assert negatives_for(batch, 1).size == 0


def test_batch_lanes_minimum():
    ds = make_dataset([[0, 1], [2, 3]])
    with pytest.raises(ConfigError):
        SessionParallelIterator(ds, 1)


def test_every_pair_emitted_exactly_once_per_epoch():
    rng = np.random.default_rng(3)
    item_lists = [
        rng.integers(0, 10, size=rng.integers(2, 7)).tolist() for _ in range(17)
    ]
    ds = make_dataset(item_lists)
    expected = []
    for items in item_lists:
        expected.extend(zip(items[:-1], items[1:]))
    seen = []
    for batch in SessionParallelIterator(ds, 4, order=rng.permutation(17)):
        seen.extend(zip(batch.prev_items, batch.target_items))
    assert sorted(seen) == sorted(expected)


def test_negative_count_bounded_by_lanes():
    ds = make_dataset([[0, 1, 2], [3, 4], [5, 6, 7], [8, 9]])
    for batch in SessionParallelIterator(ds, 3):
        for row in range(len(batch.lanes)):
            assert len(negatives_for(batch, row)) <= len(batch.lanes) - 1


def test_fixed_order_gives_identical_streams():
    ds = make_dataset([[0, 1, 2], [3, 4], [5, 6, 7], [8, 9]])
    order = np.random.default_rng(9).permutation(4)

    def stream():
        return [
            (b.prev_items.tolist(), b.target_items.tolist(),
             b.session_boundary.tolist(), b.lanes.tolist())
            for b in SessionParallelIterator(ds, 3, order=order)
        ]

    assert stream() == stream()


def test_contexts_follow_the_previous_step():
    schema = FieldSchema([("a", ["x", "y", "unknown"])], ["i0", "i1", "i2"])
    sessions = [Session((0,), [0, 1, 2], start_time=0),
                Session((1,), [2, 0], start_time=1)]
    ds = SessionDataset(sessions, schema)
    batches = list(SessionParallelIterator(ds, 2))
    assert batches[0].contexts == [(0,), (1,)]
    assert batches[1].contexts[0] == (0,)
