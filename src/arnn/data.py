"""Interaction-log ingestion and the session preprocessing pipeline.

Raw events (user, item, timestamp, categorical attributes) become train and
test SessionDatasets through: per-user session marking by inactivity gap,
popularity-coverage item sampling, capping of multi-valued categorical
fields, one-hot schema construction, sparse context encoding, and a
time-based train/test split.

Boundary rules fixed here: a gap strictly greater than the threshold starts
a new session (a gap equal to the threshold does not); popularity ties
break by first-seen order; a user's context is taken from the session's
first event, held constant for the whole session and stored once per session.

Events share their parsed cells: ``read_events`` gives every event whose
attribute cells have the same text one attributes dict, and equal user or
item ids one string.  A shared attributes dict is read-only, apart from
``cap_multivalued``'s rewrite.  The stages whose result does not depend on
how many events carry an attributes dict (field names, the multi-valued
scan, the schema, the encoding) visit each distinct dict once.

A saved dataset is JSON Lines: the schema and the number of sessions on
line 1, then one session per line, so reading the schema reads no session
and a file cut short at a line boundary does not load.

Every output file is written through ``replacing``: to a temporary file
that then replaces the target, so an interrupted write leaves the previous
file intact.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import (
    DataError,
    OrderingError,
    ParseError,
    SchemaError,
    SplitError,
)

UNKNOWN = "unknown"
# event-log columns, and the values within a multi-valued attribute cell
DELIMITER = "\t"
MULTI_DELIMITER = "|"
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips around a value


@dataclass(slots=True)
class RawEvent:
    """One logged interaction and its user's context attributes.

    Events may share one ``attributes`` dict: ``read_events`` gives every
    event with the same attribute cells one dict, and ``synth.generate``
    gives the events of a session one.  So the dict and its lists are
    read-only; a changed context needs a new dict.  Only ``cap_multivalued``
    rewrites them in place (see there).
    """

    user_id: str
    item_id: str
    timestamp: int
    attributes: dict[str, list[str]] = field(default_factory=dict)


class FieldSchema:
    """Layout of the concatenated one-hot context vector plus the item vocabulary.

    fields: ordered (name, ordered category list) pairs; categories within a
    field index densely from its offset in the concatenated vector.
    """

    def __init__(self, fields: list[tuple[str, list[str]]], item_vocabulary: list[str]):
        self.fields = [(name, list(cats)) for name, cats in fields]
        self.item_vocabulary = list(item_vocabulary)
        self.offsets = []
        pos = 0
        for _, cats in self.fields:
            self.offsets.append(pos)
            pos += len(cats)
        self.one_hot_length = pos
        self._category_index = [
            {c: i for i, c in enumerate(cats)} for _, cats in self.fields
        ]
        self._item_index = {item: i for i, item in enumerate(self.item_vocabulary)}
        if len(self._item_index) != len(self.item_vocabulary):
            raise SchemaError("duplicate item ids in vocabulary")

    @property
    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    @property
    def field_sizes(self) -> list[int]:
        return [len(cats) for _, cats in self.fields]

    def item_index(self, item_id: str) -> int:
        return self._item_index[item_id]

    def has_item(self, item_id: str) -> bool:
        return item_id in self._item_index

    def encode(self, attributes: dict[str, list[str]]) -> tuple[int, ...]:
        """Active positions of the concatenated one-hot vector, sorted.

        A missing field, or a category not in the schema, falls back to the
        field's ``unknown`` slot; if the field has none, that is a schema
        error.  So is an attribute name that is not a schema field.
        """
        stray = sorted(set(attributes) - set(self.field_names))
        if stray:
            raise SchemaError(f"fields not in the schema: {', '.join(stray)}")
        positions = []
        for f, (name, _) in enumerate(self.fields):
            cat_index = self._category_index[f]
            values = attributes.get(name) or []
            local = set()
            for v in values:
                if v in cat_index:
                    local.add(cat_index[v])
                elif UNKNOWN in cat_index:
                    local.add(cat_index[UNKNOWN])
                else:
                    raise SchemaError(
                        f"category {v!r} not in field {name!r} and no '{UNKNOWN}' slot"
                    )
            if not local:
                if UNKNOWN not in cat_index:
                    raise SchemaError(f"no value for field {name!r} and no '{UNKNOWN}' slot")
                local.add(cat_index[UNKNOWN])
            positions.extend(self.offsets[f] + i for i in sorted(local))
        return tuple(positions)

    def decode(self, positions) -> dict[str, list[str]]:
        """Inverse of encode: positions back to per-field category lists."""
        out: dict[str, list[str]] = {name: [] for name, _ in self.fields}
        for p in positions:
            if not 0 <= p < self.one_hot_length:
                raise SchemaError(f"position {p} outside the one-hot layout")
            f = bisect.bisect_right(self.offsets, p) - 1
            name, cats = self.fields[f]
            out[name].append(cats[p - self.offsets[f]])
        return out

    def to_dict(self) -> dict:
        return {
            "fields": [[name, cats] for name, cats in self.fields],
            "item_vocabulary": self.item_vocabulary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FieldSchema":
        return cls([(name, cats) for name, cats in d["fields"]], d["item_vocabulary"])

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Session:
    """Encoded session: the active context positions every step shares, and
    the item index of each step."""

    context: tuple[int, ...]
    items: list[int]
    start_time: int

    @property
    def steps(self) -> list[tuple[tuple[int, ...], int]]:
        """(context, item) per step, for the benchmark's checks in `perfbench/`."""
        return [(self.context, i) for i in self.items]


@dataclass
class SessionDataset:
    sessions: list[Session]
    schema: FieldSchema

    def __post_init__(self):
        n_items = len(self.schema.item_vocabulary)
        for n, s in enumerate(self.sessions):
            if len(s.items) < 2:
                raise DataError(f"session {n}: fewer than 2 items")
            for item in s.items:
                if not 0 <= item < n_items:
                    raise DataError(f"session {n}: item index {item} outside "
                                    f"vocabulary of {n_items}")

    def item_set(self) -> set[int]:
        return {item for s in self.sessions for item in s.items}

    def save(self, path) -> None:
        """Write JSON Lines: the schema's keys and ``"sessions"``, their number,
        on line 1, then one ``{"start", "context", "items"}`` session per line."""
        lines = [{**self.schema.to_dict(), "sessions": len(self.sessions)}] + [
            {"start": s.start_time, "context": list(s.context), "items": s.items}
            for s in self.sessions
        ]
        with replacing(path) as fh:
            fh.writelines(json.dumps(v, separators=(",", ":")) + "\n" for v in lines)

    @classmethod
    def load(cls, path) -> "SessionDataset":
        """Read a saved dataset; each context has a position in every field and none outside.

        Each line after the schema line is parsed on its own.  A line that
        is not one JSON value, or not an object with an integer ``start``, a
        ``context`` list of integer positions and an ``items`` list of
        integer indices, raises DataError naming the file and the session,
        as does a session that the dataset itself rejects.  So does a number
        of session lines other than line 1's count.
        """
        schema, count, lines = _read_dataset(path, sessions=True)
        width, n_fields = schema.one_hot_length, len(schema.fields)
        raw_decode = json.JSONDecoder().raw_decode  # json.loads less its wrapper's cost
        sessions = []
        for n, line in enumerate(lines):
            try:  # one value between JSON whitespace, as json.loads reads it
                s, end = raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
                rest = line[end:].lstrip(_JSON_SPACE)
                if rest:
                    raise json.JSONDecodeError("Extra data", line, len(line) - len(rest))
            except ValueError as exc:
                raise DataError(f"{path}: session {n}: not JSON: {exc}") from None
            # `type(v) is int`: a JSON bool or float is not an index
            if not (isinstance(s, dict) and type(s.get("start")) is int
                    and isinstance(s.get("context"), list) and isinstance(s.get("items"), list)
                    and all(type(v) is int for v in s["context"] + s["items"])):
                raise DataError(f"{path}: session {n}: not an object with an integer 'start' "
                                f"and 'context' and 'items' lists of integers")
            ctx = tuple(s["context"])
            outside = [p for p in ctx if not 0 <= p < width]
            if outside:
                raise SchemaError(f"{path}: session {n}: context position {outside[0]} "
                                  f"outside the one-hot layout of length {width}")
            empty = set(range(n_fields)).difference(
                bisect.bisect_right(schema.offsets, p) - 1 for p in ctx)
            if empty:
                raise SchemaError(f"{path}: session {n}: field {min(empty)} "
                                  f"({schema.fields[min(empty)][0]!r}) has no position")
            sessions.append(Session(ctx, s["items"], s["start"]))
        if len(sessions) != count:
            raise DataError(f"{path}: {len(sessions)} session lines, but line 1 says "
                            f"{count}: the file is cut short or has lines added")
        try:
            return cls(sessions=sessions, schema=schema)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def _read_dataset(path, sessions: bool) -> tuple[FieldSchema, int, list[str]]:
    """The schema and the session count from a saved dataset's first line,
    and its session lines unparsed; with ``sessions=False`` none is read.

    A file that cannot be opened or decoded, or whose first line is not a
    JSON schema with a session count, raises DataError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            head = fh.readline()
            lines = fh.readlines() if sessions else []
        doc = json.loads(head)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: unreadable dataset: {exc}") from None
    try:
        schema, count = FieldSchema.from_dict(doc), doc["sessions"]
        if type(count) is not int or count < 0:
            raise ValueError(f"session count {count!r}")
        return schema, count, lines
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a saved dataset: bad schema line: {exc!r}") from None


def read_schema(path) -> FieldSchema:
    """The schema of a saved dataset, from its first line; no other line is read."""
    return _read_dataset(path, sessions=False)[0]


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Open a temporary file beside `path` for writing (UTF-8 in a text mode).

    When the block ends, the file replaces `path`; when the block raises, it
    is removed and `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# ingestion


def read_events(path) -> list[RawEvent]:
    """Parse a tab-separated event log with a header row.

    Columns: user_id, item_id, timestamp, then one column per context field.
    The timestamp is plain ASCII decimal digits.  Multi-valued attributes
    separate values with ``|``; empty cells mean no value.  Each distinct
    row of attribute cells is parsed once: the events whose cells have the
    same text share one attributes dict, read-only (see ``RawEvent``), and
    equal ids are one string.
    A file that cannot be opened or decoded as UTF-8 raises DataError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_events(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable events file: {exc}") from None


def _is_digits(text: str) -> bool:
    """Only ASCII 0-9, at least one: no sign, space, ``_`` or other script's digit."""
    return text.isascii() and text.isdigit()


def _parse_events(fh, path) -> list[RawEvent]:
    events = []
    header = fh.readline().rstrip("\n")
    if not header:
        raise ParseError(f"{path}: empty file")
    cols = header.split(DELIMITER)
    if cols[:3] != ["user_id", "item_id", "timestamp"]:
        raise ParseError(
            f"{path}:1: header must start with user_id, item_id, timestamp; got {cols[:3]}"
        )
    repeated = sorted({c for c in cols if cols.count(c) > 1})
    if repeated:
        raise ParseError(f"{path}:1: header names a column more than once: {repeated}")
    field_names = cols[3:]
    # the attribute cells' text (None: no cells) -> their parsed dict; id -> one string
    rows: dict[str | None, dict[str, list[str]]] = {}
    ids: dict[str, str] = {}
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(DELIMITER, 3)
        cells = parts[3] if len(parts) == 4 else None
        # a row seen before had the right column count; fewer than 3 parts never has
        attrs = rows.get(cells) if len(parts) >= 3 else None
        if attrs is None:
            values = [] if cells is None else cells.split(DELIMITER)
            n_cols = min(len(parts), 3) + len(values)
            if n_cols != len(cols):
                raise ParseError(f"{path}:{lineno}: expected {len(cols)} columns, got {n_cols}")
            attrs = rows[cells] = {
                name: [v for v in cell.split(MULTI_DELIMITER) if v] if cell else []
                for name, cell in zip(field_names, values)}
        user_id, item_id, ts_raw = parts[0], parts[1], parts[2]
        if not item_id:
            raise ParseError(f"{path}:{lineno}: empty item_id")
        if not _is_digits(ts_raw):
            if ts_raw[:1] == "-" and _is_digits(ts_raw[1:]):
                raise ParseError(f"{path}:{lineno}: negative timestamp {ts_raw}")
            raise ParseError(f"{path}:{lineno}: bad timestamp {ts_raw!r}")
        events.append(RawEvent(ids.setdefault(user_id, user_id),
                               ids.setdefault(item_id, item_id), int(ts_raw), attrs))
    return events


def _distinct_attributes(events: list[RawEvent]) -> list[dict[str, list[str]]]:
    """Each distinct attributes dict of the events, once, in first-seen order."""
    return list({id(e.attributes): e.attributes for e in events}.values())


def field_names_of(events: list[RawEvent]) -> list[str]:
    names: list[str] = []
    for attributes in _distinct_attributes(events):
        for name in attributes:
            if name not in names:
                names.append(name)
    return names


# ---------------------------------------------------------------------------
# pipeline stages


def mark_sessions(events: list[RawEvent], gap_threshold: float) -> list[list[RawEvent]]:
    """Group each user's time-sorted events into sessions of raw events.

    A new session starts when the gap to the previous event is strictly
    greater than gap_threshold seconds.  Runs shorter than 2 events are
    dropped.  Events must already be sorted ascending by timestamp within
    each user (ties keep input order).
    """
    by_user: dict[str, list[RawEvent]] = defaultdict(list)
    for e in events:
        if by_user[e.user_id] and e.timestamp < by_user[e.user_id][-1].timestamp:
            raise OrderingError(
                f"events for user {e.user_id!r} are not sorted by timestamp"
            )
        by_user[e.user_id].append(e)
    sessions = []
    for user_events in by_user.values():
        run = [user_events[0]]
        for e in user_events[1:]:
            if e.timestamp - run[-1].timestamp > gap_threshold:
                if len(run) >= 2:
                    sessions.append(run)
                run = [e]
            else:
                run.append(e)
        if len(run) >= 2:
            sessions.append(run)
    return sessions


def _coverage_prefix(counts: Counter, first_seen: dict, coverage: float) -> list:
    """Shortest count-sorted prefix with cumulative count >= coverage * total.

    Ties on count break by first-seen order.
    """
    total = sum(counts.values())
    ranked = sorted(counts, key=lambda k: (-counts[k], first_seen[k]))
    kept, acc = [], 0
    for key in ranked:
        if acc >= coverage * total:
            break
        kept.append(key)
        acc += counts[key]
    return kept


def sample_items_by_coverage(events: list[RawEvent], coverage: float) -> list[str]:
    """Most-popular items whose transactions reach the coverage fraction.

    Returns the retained items in popularity order (ties first-seen).  The
    caller removes events touching dropped items.
    """
    if not events:
        raise DataError("cannot sample items from an empty event list")
    if not 0 < coverage <= 1:
        raise DataError(f"item coverage must be in (0, 1], got {coverage}")
    counts: Counter = Counter()
    first_seen: dict[str, int] = {}
    for i, e in enumerate(events):
        counts[e.item_id] += 1
        first_seen.setdefault(e.item_id, i)
    return _coverage_prefix(counts, first_seen, coverage)


def cap_multivalued(events: list[RawEvent], field_name: str, coverage: float
                    ) -> tuple[list[RawEvent], list[str]]:
    """Keep a field's most popular categories up to the coverage fraction.

    Categories are counted per event.  Categories outside the kept prefix
    are rewritten to ``unknown`` in place; duplicate unknowns within one
    event collapse.  Each distinct attributes dict is rewritten once, and
    every event that shares it sees that rewrite: the one a rewrite per
    event would give, since equal cells get equal rewrites and a second
    rewrite changes nothing.  Returns the same event list and the kept
    category names (popularity order).
    """
    if not 0 < coverage <= 1:
        raise DataError(f"category coverage must be in (0, 1], got {coverage}")
    counts: Counter = Counter()
    first_seen: dict[str, int] = {}
    present = False
    for i, e in enumerate(events):
        for v in e.attributes.get(field_name, []):
            counts[v] += 1
            first_seen.setdefault(v, i)
        if field_name in e.attributes:
            present = True
    if not present:
        raise SchemaError(f"unknown field {field_name!r}")
    kept = _coverage_prefix(counts, first_seen, coverage)
    kept_set = set(kept)
    for attributes in _distinct_attributes(events):
        values = attributes.get(field_name)
        if not values:
            continue
        rewritten = []
        for v in values:
            v = v if v in kept_set else UNKNOWN
            if v not in rewritten:
                rewritten.append(v)
        attributes[field_name] = rewritten
    return events, kept


def build_schema(events: list[RawEvent], field_names: list[str],
                 item_vocabulary: list[str]) -> FieldSchema:
    """Schema over observed categories; every field gets an ``unknown`` slot.

    Categories are ordered lexicographically with ``unknown`` last, so the
    layout is independent of event order.
    """
    observed: dict[str, set[str]] = {name: set() for name in field_names}
    for attributes in _distinct_attributes(events):
        for name in field_names:
            observed[name].update(v for v in attributes.get(name, []) if v != UNKNOWN)
    fields = [(name, sorted(observed[name]) + [UNKNOWN]) for name in field_names]
    return FieldSchema(fields, item_vocabulary)


def encode_sessions(event_sessions: list[list[RawEvent]], schema: FieldSchema) -> list[Session]:
    """Encode raw-event sessions; the first event's context covers all steps.

    Each distinct attributes dict is encoded once, and its sessions share
    the position tuple.
    """
    contexts = {id(a): schema.encode(a)
                for a in _distinct_attributes([run[0] for run in event_sessions])}
    return [Session(contexts[id(run[0].attributes)],
                    [schema.item_index(e.item_id) for e in run], run[0].timestamp)
            for run in event_sessions]


def split_train_test(sessions: list[Session], schema: FieldSchema,
                     test_window: float) -> tuple[SessionDataset, SessionDataset]:
    """Time split: sessions starting within the final test_window seconds go to test.

    Test steps whose items never appear in a train session are removed;
    test sessions that shrink below 2 steps are dropped.
    """
    if not sessions:
        raise SplitError("no sessions to split")
    end = max(s.start_time for s in sessions)
    cutoff = end - test_window
    train_sessions = [s for s in sessions if s.start_time <= cutoff]
    test_sessions = [s for s in sessions if s.start_time > cutoff]
    if not train_sessions or not test_sessions:
        raise SplitError(
            f"degenerate split: {len(train_sessions)} train / {len(test_sessions)} test sessions"
        )
    train_items = {item for s in train_sessions for item in s.items}
    filtered_test = []
    for s in test_sessions:
        items = [item for item in s.items if item in train_items]
        if len(items) >= 2:
            filtered_test.append(Session(s.context, items, s.start_time))
    if not filtered_test:
        raise SplitError(
            f"no test sessions survive the cold-item filter "
            f"({len(train_sessions)} train sessions)"
        )
    return (
        SessionDataset(train_sessions, schema),
        SessionDataset(filtered_test, schema),
    )


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class PreprocessSummary:
    n_users: int
    n_items: int
    n_sessions: int
    n_transactions: int
    n_context_fields: int
    n_train_sessions: int
    n_test_sessions: int

    def lines(self) -> list[str]:
        return [
            f"users:          {self.n_users}",
            f"items:          {self.n_items}",
            f"sessions:       {self.n_sessions}",
            f"transactions:   {self.n_transactions}",
            f"context fields: {self.n_context_fields}",
            f"train sessions: {self.n_train_sessions}",
            f"test sessions:  {self.n_test_sessions}",
        ]


def preprocess(events: list[RawEvent], gap_threshold: float, item_coverage: float,
               category_coverage: float, test_window: float
               ) -> tuple[SessionDataset, SessionDataset, PreprocessSummary]:
    """Full pipeline: mark, sample, cap, encode, split.

    Item coverage is computed over the whole post-marking log, before the
    time split.  Capping applies only to fields observed multi-valued.
    After item filtering, surviving events stay in their original session
    (no re-marking); sessions shorter than 2 are dropped.
    """
    field_names = field_names_of(events)
    events = sorted(events, key=lambda e: e.timestamp)  # stable: ties keep input order
    event_sessions = mark_sessions(events, gap_threshold)
    flat = [e for run in event_sessions for e in run]
    if not flat:
        raise DataError("no sessions of length >= 2 in the input")

    retained_items = sample_items_by_coverage(flat, item_coverage)
    retained_set = set(retained_items)
    event_sessions = [
        kept for run in event_sessions
        if len(kept := [e for e in run if e.item_id in retained_set]) >= 2
    ]
    flat = [e for run in event_sessions for e in run]
    if not flat:
        raise DataError("item sampling removed every session")

    multi_valued = {name for attributes in _distinct_attributes(flat)
                    for name, values in attributes.items() if len(values) > 1}
    for name in field_names:
        if name in multi_valued:
            cap_multivalued(flat, name, category_coverage)

    surviving = {e.item_id for e in flat}
    vocabulary = [i for i in retained_items if i in surviving]
    schema = build_schema(flat, field_names, vocabulary)
    sessions = encode_sessions(event_sessions, schema)
    train, test = split_train_test(sessions, schema, test_window)

    summary = PreprocessSummary(
        n_users=len({e.user_id for e in flat}),
        n_items=len(vocabulary),
        n_sessions=len(sessions),
        n_transactions=sum(len(run) for run in event_sessions),
        n_context_fields=len(field_names),
        n_train_sessions=len(train.sessions),
        n_test_sessions=len(test.sessions),
    )
    return train, test, summary
