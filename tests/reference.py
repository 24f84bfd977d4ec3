"""Reference definitions that tests check the package against."""

import numpy as np

from arnn.batching import MiniBatch


def negatives_for(batch: MiniBatch, row: int) -> np.ndarray:
    """Other rows' targets, minus collisions with this row's target."""
    keep = batch.target_items != batch.target_items[row]
    keep[row] = False
    return np.unique(batch.target_items[keep])


def expected_next(truth: dict, attributes: dict[str, list[str]], prev_item: str) -> str:
    """Ground-truth next item for a context and previous item (informative mode)."""
    layer = truth["layer_of_item"][prev_item]
    field = truth["field_names"][layer]
    category = attributes[field][0]
    bit = truth["bit_of_category"][category]
    return truth["successors"][prev_item][bit]


def events_text(events, field_names: list[str]) -> str:
    """The text of an event log, with each event's cells joined on their own."""
    lines = ["\t".join(["user_id", "item_id", "timestamp"] + field_names)]
    for e in events:
        cells = [e.user_id, e.item_id, str(e.timestamp)]
        cells += ["|".join(e.attributes.get(name, [])) for name in field_names]
        lines.append("\t".join(cells))
    return "".join(line + "\n" for line in lines)
