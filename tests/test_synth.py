import collections

import numpy as np
import pytest

from arnn.errors import ConfigError
from arnn.synth import GeneratorSpec, expected_next, generate

SPEC = GeneratorSpec(n_sessions=300, seed=4)


def sessions_of(events):
    by_user = collections.defaultdict(list)
    for e in events:
        by_user[e.user_id].append(e)
    return list(by_user.values())


def test_each_item_has_two_distinct_successors_in_next_layer():
    _, truth = generate(SPEC)
    per_layer = SPEC.n_items // SPEC.n_fields
    for item, (a, b) in truth["successors"].items():
        assert a != b
        layer = truth["layer_of_item"][item]
        nxt = (layer + 1) % SPEC.n_fields
        assert truth["layer_of_item"][a] == nxt
        assert truth["layer_of_item"][b] == nxt
    assert len(truth["successors"]) == SPEC.n_items
    assert per_layer * SPEC.n_fields == SPEC.n_items


def test_walks_follow_the_declared_successors():
    events, truth = generate(SPEC)
    for run in sessions_of(events):
        attrs = run[0].attributes
        for prev, cur in zip(run, run[1:]):
            assert cur.item_id == expected_next(truth, attrs, prev.item_id)


def test_context_is_constant_within_a_session():
    events, _ = generate(SPEC)
    for run in sessions_of(events):
        assert all(e.attributes == run[0].attributes for e in run)


def test_successor_choices_are_balanced():
    events, truth = generate(GeneratorSpec(n_sessions=3000, seed=9))
    taken = collections.Counter()
    for run in sessions_of(events):
        for prev, cur in zip(run, run[1:]):
            pair = truth["successors"][prev.item_id]
            taken[(prev.item_id, pair.index(cur.item_id))] += 1
    by_item = collections.defaultdict(lambda: [0, 0])
    for (item, side), n in taken.items():
        by_item[item][side] = n
    fractions = [a / (a + b) for a, b in by_item.values() if a + b >= 50]
    assert fractions, "need items with enough transitions"
    assert 0.35 < np.mean(fractions) < 0.65


def test_sessions_never_reuse_a_context_field():
    events, truth = generate(SPEC)
    for run in sessions_of(events):
        fields = [truth["layer_of_item"][e.item_id] for e in run[:-1]]
        assert len(fields) == len(set(fields))


def test_random_mode_breaks_context_dependence():
    events, truth = generate(
        GeneratorSpec(n_sessions=400, seed=5, informative=False)
    )
    mismatches = 0
    total = 0
    for run in sessions_of(events):
        attrs = run[0].attributes
        for prev, cur in zip(run, run[1:]):
            total += 1
            if cur.item_id != expected_next(truth, attrs, prev.item_id):
                mismatches += 1
    assert mismatches / total > 0.25


def test_generation_is_deterministic():
    e1, t1 = generate(SPEC)
    e2, t2 = generate(SPEC)
    assert t1 == t2
    assert [(e.user_id, e.item_id, e.timestamp, e.attributes) for e in e1] == [
        (e.user_id, e.item_id, e.timestamp, e.attributes) for e in e2
    ]


def test_counts_match_declared():
    events, truth = generate(SPEC)
    c = truth["counts"]
    assert c["n_transactions"] == len(events)
    assert c["n_users"] == len({e.user_id for e in events})
    assert c["n_items"] == len({e.item_id for e in events})


def test_bad_specs_rejected():
    with pytest.raises(ConfigError):
        GeneratorSpec(n_items=61)
    with pytest.raises(ConfigError):
        GeneratorSpec(max_len=20)
    with pytest.raises(ConfigError):
        GeneratorSpec(categories_per_field=3)


@pytest.mark.parametrize("value, field", [
    *[(value, field) for value in (0, -6) for field in ("n_sessions", "n_items", "n_fields")],
    (-1, "seed"),
])
def test_sizes_below_one_rejected(field, value):
    low = 0 if field == "seed" else 1
    with pytest.raises(ConfigError, match=f"{field} must be at least {low}, got {value}"):
        GeneratorSpec(**{field: value})
