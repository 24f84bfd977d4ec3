"""In-memory spans around the public calls of each `arnn` module.

The tracer wraps functions and methods from the outside (module and class
attributes are swapped while a traced round runs and restored after it), so
the program itself carries no tracing code.  A span is [name, start, end,
parent index, returned]; `returned` is false when the call raised (a
session iterator's final StopIteration, for one).  A layer's self time is
its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

from arnn import batching, cli, data, evaluate, models, tensor, training

# (owner, attribute, span name).  Names imported into another module's
# namespace are patched there too, because that is where the caller looks
# them up.
TARGETS = [
    (batching.SessionParallelIterator, "__next__", "batching.next"),
    (models.GruSessionModel, "step", "models.gru_step"),
    (models.GruSessionModel, "scores", "models.gru_scores"),
    (models.PnnEncoder, "encode", "models.pnn_encode"),
    (models.PnnEncoder, "scores", "models.pnn_scores"),
    (models.ArnnModel, "step_scores", "models.arnn_step_scores"),
    (training, "save_checkpoint", "models.save_checkpoint"),
    (models, "load_checkpoint", "models.load_checkpoint"),
    (training, "load_checkpoint", "models.load_checkpoint"),
    (cli, "load_checkpoint", "models.load_checkpoint"),
    (tensor, "backward", "tensor.backward"),
    (training, "top1_batch_loss", "training.top1_batch_loss"),
    (training.Adagrad, "step", "training.adagrad_step"),
    (training, "evaluate_system", "training.validation"),
    (evaluate, "rank_of", "evaluate.rank_of"),
    (evaluate, "build_itemknn", "evaluate.build_itemknn"),
    (data, "read_events", "data.read_events"),
    (data, "preprocess", "data.preprocess"),
    (data.SessionDataset, "load", "data.dataset_load"),
    (data.SessionDataset, "save", "data.dataset_save"),
]


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield
            s[4] = True
        finally:
            self._close(s)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
                s[4] = True
                return out
            finally:
                self._close(s)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    # SessionDataset.load: wrap the bound class method
                    setattr(owner, attr, staticmethod(self.wrap(name, getattr(owner, attr))))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def since(self, first: int) -> "SpanTable":
        return SpanTable(self.spans, first)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanTable:
    """Self times and counts of the spans recorded from index `first` up to
    the table's creation."""

    def __init__(self, spans, first: int):
        self.spans = spans
        self.first = first
        self.end = len(spans)
        self.self_time = {}
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        for i in range(first, self.end):
            name, start, end, parent, _ = spans[i]
            self.by_name[name].append(i)
            if parent >= first:
                child_time[parent] += end - start
        for i in range(first, self.end):
            _, start, end, _, _ = spans[i]
            self.self_time[i] = end - start - child_time[i]

    def indices(self, name):
        return self.by_name.get(name, [])

    def count(self, name) -> int:
        """Calls of `name` that returned."""
        return sum(1 for i in self.indices(name) if self.spans[i][4])

    def self_total(self, name) -> float:
        return sum(self.self_time[i] for i in self.indices(name))

    def parent_name(self, i) -> str | None:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None

    def nesting_errors(self) -> list[str]:
        errors = []
        for i in range(self.first, self.end):
            name, start, end, parent, _ = self.spans[i]
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    errors.append(f"span {i} {name} lies outside its parent {p[0]}")
        return errors
