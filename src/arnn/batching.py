"""Session-parallel mini-batches with in-batch negative items.

Each of B lanes walks one session's items a step at a time; a batch pairs
every active lane's previous item with its next item and its session's
context, one row per active lane in ascending lane order, and ``lanes``
names each row's lane (the recurrent model's per-lane state).  When a
lane's session runs out it loads the next unstarted session, whose first
row sets the boundary flag so the recurrent state gets reset, and the lane
drops out of the batches once none remain.
The other rows' target items double as the negative samples, minus any that
collide with a row's own target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SessionDataset
from .errors import ConfigError


@dataclass
class MiniBatch:
    prev_items: np.ndarray        # int [n]
    target_items: np.ndarray      # int [n]
    contexts: list                # position tuple per row: its session's context
    session_boundary: np.ndarray  # bool [n]; True = the row starts a session
    lanes: np.ndarray             # int [n]; each row's lane, ascending


def negatives_for(batch: MiniBatch, row: int) -> np.ndarray:
    """Other rows' targets, minus collisions with this row's target."""
    keep = batch.target_items != batch.target_items[row]
    keep[row] = False
    return np.unique(batch.target_items[keep])


class SessionParallelIterator:
    """One epoch of session-parallel batches over a dataset.

    Session-to-lane assignment follows ``order`` (pass a permutation for a
    shuffled epoch); with a fixed order the batch stream is deterministic.
    """

    def __init__(self, dataset: SessionDataset, batch_lanes: int,
                 order: np.ndarray | None = None):
        if batch_lanes < 2:
            raise ConfigError(f"batch_lanes must be at least 2, got {batch_lanes}")
        self.dataset = dataset
        n = len(dataset.sessions)
        self.order = np.arange(n) if order is None else np.asarray(order)
        self._next = 0
        self._lane_session = [-1] * batch_lanes  # index into order
        self._lane_pos = [0] * batch_lanes
        for lane in range(batch_lanes):
            self._load_next(lane)

    def _load_next(self, lane: int) -> None:
        if self._next < len(self.order):
            self._lane_session[lane] = int(self.order[self._next])
            self._lane_pos[lane] = 0
            self._next += 1
        else:
            self._lane_session[lane] = -1

    def __iter__(self):
        return self

    def __next__(self) -> MiniBatch:
        lanes = [lane for lane, si in enumerate(self._lane_session) if si >= 0]
        if not lanes:
            raise StopIteration
        prev, target, contexts, boundary = [], [], [], []
        for lane in lanes:
            session = self.dataset.sessions[self._lane_session[lane]]
            items, pos = session.items, self._lane_pos[lane]
            prev.append(items[pos])
            target.append(items[pos + 1])
            contexts.append(session.context)
            boundary.append(pos == 0)
            if pos + 2 >= len(items):
                self._load_next(lane)
            else:
                self._lane_pos[lane] = pos + 1
        return MiniBatch(np.array(prev, dtype=np.int64), np.array(target, dtype=np.int64),
                         contexts, np.array(boundary), np.array(lanes, dtype=np.int64))
