"""Synthetic context-dependent navigation data with declared ground truth.

Items live on a cycle of layers; an item in layer L has exactly two
successors in layer L+1, and which of the two a session takes is decided
by one bit of the user context: layer L consults context field L.  Every
field's categories split evenly between the two bit values and are drawn
uniformly per session, so the two successors of every item are balanced.

Sessions are kept shorter than one full trip around the layer cycle, so
each prediction step consults a context field that no earlier step in the
session has used.  History therefore carries no information about the
live bit: a model without access to the context is capped at 1/2 top-1
accuracy no matter how much capacity it has, while the context bits
determine the walk exactly.

With ``informative=False`` the successor bit is drawn per step instead,
detached from the context, which makes the context fields pure noise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import DELIMITER, MULTI_DELIMITER, RawEvent, replacing
from .errors import ConfigError

BASE_TIMESTAMP = 1_600_000_000
STEP_SECONDS = 60


@dataclass
class GeneratorSpec:
    n_sessions: int = 2000
    n_items: int = 60
    n_fields: int = 6
    categories_per_field: int = 4
    min_len: int = 4
    max_len: int = 7
    span_days: int = 30
    informative: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_sessions", 1), ("n_items", 1), ("n_fields", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.n_items % self.n_fields != 0:
            raise ConfigError(
                f"items ({self.n_items}) must divide evenly into {self.n_fields} layers"
            )
        if self.categories_per_field % 2 != 0:
            raise ConfigError("categories_per_field must be even")
        if not 2 <= self.min_len <= self.max_len:
            raise ConfigError("need 2 <= min_len <= max_len")
        if self.max_len > self.n_fields + 1:
            raise ConfigError(
                f"max_len {self.max_len} would revisit a layer; "
                f"cap it at {self.n_fields + 1}"
            )


def _item_id(i: int) -> str:
    return f"item{i:03d}"


def _field_name(f: int) -> str:
    return f"f{f}"


def _category(c: int) -> str:
    return f"cat{c}"


def generate(spec: GeneratorSpec) -> tuple[list[RawEvent], dict]:
    """Return the raw event log and the ground-truth description."""
    rng = np.random.default_rng(spec.seed)
    per_layer = spec.n_items // spec.n_fields
    layer_of = [i // per_layer for i in range(spec.n_items)]

    successors = []
    for i in range(spec.n_items):
        nxt = (layer_of[i] + 1) % spec.n_fields
        pool = np.arange(nxt * per_layer, (nxt + 1) * per_layer)
        pair = rng.choice(pool, size=2, replace=False)
        successors.append((int(pair[0]), int(pair[1])))

    half = spec.categories_per_field // 2
    events: list[RawEvent] = []
    span_seconds = spec.span_days * 86400
    for s in range(spec.n_sessions):
        cats = rng.integers(0, spec.categories_per_field, size=spec.n_fields)
        bits = (cats >= half).astype(int)
        attributes = {
            _field_name(f): [_category(int(cats[f]))] for f in range(spec.n_fields)
        }
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        start = BASE_TIMESTAMP + int(rng.integers(0, span_seconds))
        item = int(rng.integers(spec.n_items))
        user = f"u{s:05d}"
        for t in range(length):
            events.append(RawEvent(user, _item_id(item), start + t * STEP_SECONDS,
                                   {k: list(v) for k, v in attributes.items()}))
            if spec.informative:
                bit = int(bits[layer_of[item]])
            else:
                bit = int(rng.integers(2))
            item = successors[item][bit]

    truth = {
        "spec": asdict(spec),
        "counts": {
            "n_users": spec.n_sessions,
            "n_items": len({e.item_id for e in events}),
            "n_sessions": spec.n_sessions,
            "n_transactions": len(events),
        },
        "field_names": [_field_name(f) for f in range(spec.n_fields)],
        "categories": [_category(c) for c in range(spec.categories_per_field)],
        "bit_of_category": {
            _category(c): int(c >= half) for c in range(spec.categories_per_field)
        },
        "layer_of_item": {_item_id(i): layer_of[i] for i in range(spec.n_items)},
        "successors": {
            _item_id(i): [_item_id(a), _item_id(b)]
            for i, (a, b) in enumerate(successors)
        },
    }
    return events, truth


def expected_next(truth: dict, attributes: dict[str, list[str]], prev_item: str) -> str:
    """Ground-truth next item for a context and previous item (informative mode)."""
    layer = truth["layer_of_item"][prev_item]
    field = truth["field_names"][layer]
    category = attributes[field][0]
    bit = truth["bit_of_category"][category]
    return truth["successors"][prev_item][bit]


def write_events(events: list[RawEvent], path, field_names: list[str]) -> None:
    with replacing(path) as fh:
        fh.write(DELIMITER.join(["user_id", "item_id", "timestamp"] + field_names) + "\n")
        for e in events:
            cells = [e.user_id, e.item_id, str(e.timestamp)]
            cells += [MULTI_DELIMITER.join(e.attributes.get(name, [])) for name in field_names]
            fh.write(DELIMITER.join(cells) + "\n")


def write_truth(truth: dict, path) -> None:
    with replacing(path) as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
