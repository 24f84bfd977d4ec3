import json
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnn import data as D
from arnn.errors import (
    DataError,
    OrderingError,
    ParseError,
    SchemaError,
    SplitError,
)
from util import edit_dataset


def ev(user, item, ts, **attrs):
    return D.RawEvent(user, item, ts, {k: list(v) for k, v in attrs.items()})


# ---------------------------------------------------------------------------
# session marking


def test_mark_sessions_splits_on_gap():
    events = [ev("u", "a", 0), ev("u", "b", 1800), ev("u", "c", 7300)]
    sessions = D.mark_sessions(events, gap_threshold=3600)
    # 7300 - 1800 = 5500 > 3600 splits; the singleton [7300] is dropped
    assert len(sessions) == 1
    assert [e.timestamp for e in sessions[0]] == [0, 1800]


def test_mark_sessions_gap_equal_to_threshold_keeps_session():
    events = [ev("u", "a", 0), ev("u", "b", 3600)]
    sessions = D.mark_sessions(events, gap_threshold=3600)
    assert len(sessions) == 1 and len(sessions[0]) == 2


def test_mark_sessions_drops_singletons():
    assert D.mark_sessions([ev("u", "a", 5)], gap_threshold=10) == []


def test_mark_sessions_rejects_unsorted():
    with pytest.raises(OrderingError):
        D.mark_sessions([ev("u", "a", 10), ev("u", "b", 5)], gap_threshold=100)


def test_mark_sessions_users_are_independent():
    events = [ev("u1", "a", 0), ev("u2", "x", 1), ev("u1", "b", 2), ev("u2", "y", 3)]
    sessions = D.mark_sessions(events, gap_threshold=10)
    assert sorted(len(s) for s in sessions) == [2, 2]


# ---------------------------------------------------------------------------
# popularity coverage


def _counted_events(counts):
    events = []
    t = 0
    for item, n in counts.items():
        for _ in range(n):
            events.append(ev("u", item, t))
            t += 1
    return events


def test_sample_items_half_coverage():
    events = _counted_events({"A": 5, "B": 3, "C": 2})
    assert D.sample_items_by_coverage(events, 0.5) == ["A"]


def test_sample_items_full_coverage():
    events = _counted_events({"A": 5, "B": 3, "C": 2})
    assert set(D.sample_items_by_coverage(events, 1.0)) == {"A", "B", "C"}


def test_sample_items_cumulative_prefix():
    events = _counted_events({"A": 5, "B": 3, "C": 2})
    assert D.sample_items_by_coverage(events, 0.6) == ["A", "B"]


def test_sample_items_tie_break_first_seen():
    events = _counted_events({"B": 2, "A": 2, "C": 1})
    assert D.sample_items_by_coverage(events, 0.5) == ["B", "A"]


def test_sample_items_empty_input():
    with pytest.raises(DataError):
        D.sample_items_by_coverage([], 0.5)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 20), min_size=1),
    cov_lo=st.floats(0.05, 1.0),
    cov_hi=st.floats(0.05, 1.0),
)
def test_sample_items_coverage_monotonic(counts, cov_lo, cov_hi):
    if cov_lo > cov_hi:
        cov_lo, cov_hi = cov_hi, cov_lo
    events = _counted_events(counts)
    lo = D.sample_items_by_coverage(events, cov_lo)
    hi = D.sample_items_by_coverage(events, cov_hi)
    assert len(lo) <= len(hi)
    assert set(lo) <= set(hi)


# ---------------------------------------------------------------------------
# multi-valued capping


def _jobrole_events(counts):
    events = []
    t = 0
    for cat, n in counts.items():
        for _ in range(n):
            events.append(ev("u", "i", t, jobroles=[cat]))
            t += 1
    return events


def test_cap_multivalued_prefix():
    events = _jobrole_events({"x": 6, "y": 3, "z": 1})
    _, kept = D.cap_multivalued(events, "jobroles", 0.75)
    assert kept == ["x", "y"]
    rewritten = {v for e in events for v in e.attributes["jobroles"]}
    assert rewritten == {"x", "y", D.UNKNOWN}


def test_cap_multivalued_full_coverage_keeps_all():
    events = _jobrole_events({"x": 6, "y": 3, "z": 1})
    _, kept = D.cap_multivalued(events, "jobroles", 1.0)
    assert set(kept) == {"x", "y", "z"}
    assert all(D.UNKNOWN not in e.attributes["jobroles"] for e in events)


def test_cap_multivalued_collapses_duplicate_unknown():
    events = [ev("u", "i", t, jobroles=["x"]) for t in range(8)]
    events.append(ev("u", "i", 8, jobroles=["z", "z2"]))
    D.cap_multivalued(events, "jobroles", 0.75)
    assert events[-1].attributes["jobroles"] == [D.UNKNOWN]


def test_cap_multivalued_on_shared_attributes_matches_copies():
    rows = [{"j": ["x", "z", "z2"]}, {"j": ["y"]}, {"j": ["x", "y", "z"]}, {"j": []}, {"k": ["z"]}]
    pattern = [0, 0, 1, 2, 0, 3, 1, 1, 2, 0, 4, 2]
    shared = [D.RawEvent("u", "i", t, rows[k]) for t, k in enumerate(pattern)]
    copies = [ev("u", "i", t, **rows[k]) for t, k in enumerate(pattern)]
    assert D.cap_multivalued(shared, "j", 0.6)[1] == D.cap_multivalued(copies, "j", 0.6)[1]
    assert [e.attributes for e in shared] == [e.attributes for e in copies]
    assert shared[0].attributes == {"j": ["x", "z", D.UNKNOWN]}
    # the rewrite went into the shared dicts
    assert shared[0].attributes is shared[1].attributes is rows[0]


def test_cap_multivalued_unknown_field():
    with pytest.raises(SchemaError):
        D.cap_multivalued([ev("u", "i", 0, a=["1"])], "nope", 0.5)


# ---------------------------------------------------------------------------
# encoding


def test_encode_gender_location_layout():
    schema = D.FieldSchema(
        [("Gender", ["Female", "Male"]),
         ("Location", ["Canada", "Mexico", "U.S.", "d", "e", "f", "g", "h"])],
        item_vocabulary=["i0"],
    )
    pos = schema.encode({"Gender": ["Female"], "Location": ["U.S."]})
    assert pos == (0, 4)
    one_hot = [1 if i in pos else 0 for i in range(schema.one_hot_length)]
    assert one_hot == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_encode_empty_attributes_uses_unknown_everywhere():
    schema = D.FieldSchema(
        [("a", ["x", D.UNKNOWN]), ("b", ["y", "z", D.UNKNOWN])], ["i0"]
    )
    assert schema.encode({}) == (1, 4)


def test_encode_single_field_offset_zero():
    schema = D.FieldSchema([("a", ["c0", "c1", "c2", "c3", "c4"])], ["i0"])
    assert schema.encode({"a": ["c3"]}) == (3,)


def test_encode_unseen_category_without_unknown_slot():
    schema = D.FieldSchema([("a", ["x"])], ["i0"])
    with pytest.raises(SchemaError):
        schema.encode({"a": ["other"]})


def test_encode_rejects_field_not_in_schema():
    # even with an unknown slot to fall back on: a misspelt field is an error
    schema = D.FieldSchema([("a", ["x", D.UNKNOWN])], ["i0"])
    with pytest.raises(SchemaError, match="not in the schema: b, c"):
        schema.encode({"a": ["x"], "c": ["y"], "b": []})


def test_encode_decode_round_trip():
    schema = D.FieldSchema(
        [("a", ["x", "y", D.UNKNOWN]), ("b", ["p", "q", "r", D.UNKNOWN])], ["i0"]
    )
    for attrs in [{"a": ["x"], "b": ["q", "r"]}, {"a": ["y"]}, {}]:
        pos = schema.encode(attrs)
        assert schema.encode(schema.decode(pos)) == pos


@pytest.mark.parametrize("sizes, position", [
    ((2, 3), -1),  # -1 would wrap to the last field's 'u'
    ((2, 2), -1),  # -1 would raise a bare IndexError
    ((2, 3), -5),
    ((2, 3), 5),
])
def test_decode_rejects_a_position_outside_the_layout(sizes, position):
    cats = [["x", "y"], ["u", "v", "w"]]
    schema = D.FieldSchema([(name, c[:n]) for name, c, n in zip("ab", cats, sizes)], ["i0"])
    with pytest.raises(SchemaError, match=f"position {position} outside the one-hot layout"):
        schema.decode([0, position])


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
)
def test_round_trip_is_identity_on_valid_positions(data, sizes):
    fields = [
        (f"f{i}", [f"c{i}_{j}" for j in range(n)] + [D.UNKNOWN])
        for i, n in enumerate(sizes)
    ]
    schema = D.FieldSchema(fields, ["i0"])
    # one or more active per field
    positions = []
    for f, (_, cats) in enumerate(fields):
        k = data.draw(st.integers(1, len(cats)))
        chosen = data.draw(
            st.lists(st.integers(0, len(cats) - 1), min_size=k, max_size=k, unique=True)
        )
        positions.extend(schema.offsets[f] + c for c in chosen)
    positions = tuple(sorted(positions))
    assert schema.encode(schema.decode(positions)) == positions


# ---------------------------------------------------------------------------
# split


def _session(start, items, n_items=50):
    return D.Session((0,), items, start_time=start)


def _schema(n_items=50):
    return D.FieldSchema([("a", ["x", D.UNKNOWN])], [f"i{k}" for k in range(n_items)])


def test_session_steps_pair_the_context_with_each_item():
    s = _session(0, [3, 1, 3])
    assert s.steps == [((0,), 3), ((0,), 1), ((0,), 3)]


def test_split_takes_last_window():
    day = 86400
    sessions = [_session(d * day, [d % 5, (d + 1) % 5]) for d in range(30)]
    train, test = D.split_train_test(sessions, _schema(), 3 * day)
    assert sorted(s.start_time // day for s in test.sessions) == [27, 28, 29]
    assert len(train.sessions) == 27


def test_split_drops_cold_item_sessions():
    day = 86400
    sessions = [
        _session(0, [0, 1]),
        _session(1 * day, [1, 2]),
        _session(29 * day, [40, 41]),  # items never in train
        _session(29 * day + 5, [0, 2]),
    ]
    train, test = D.split_train_test(sessions, _schema(), 3 * day)
    assert len(test.sessions) == 1
    assert test.sessions[0].items == [0, 2]


def test_split_cold_steps_removed_but_session_kept():
    day = 86400
    sessions = [
        _session(0, [0, 1, 2]),
        _session(29 * day, [0, 40, 2]),
    ]
    _, test = D.split_train_test(sessions, _schema(), 3 * day)
    assert test.sessions[0].items == [0, 2]


def test_split_zero_window_errors():
    sessions = [_session(0, [0, 1]), _session(100, [1, 2])]
    with pytest.raises(SplitError):
        D.split_train_test(sessions, _schema(), 0)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_split_test_items_always_in_train(data):
    day = 86400
    n_sessions = data.draw(st.integers(4, 20))
    sessions = []
    for k in range(n_sessions):
        start = data.draw(st.integers(0, 29)) * day + k
        items = data.draw(st.lists(st.integers(0, 9), min_size=2, max_size=5))
        sessions.append(_session(start, items, n_items=10))
    try:
        train, test = D.split_train_test(sessions, _schema(10), 3 * day)
    except SplitError:
        return
    train_items = train.item_set()
    assert test.item_set() <= train_items


# ---------------------------------------------------------------------------
# files


def test_read_events(tmp_path):
    p = tmp_path / "events.tsv"
    p.write_text(
        "user_id\titem_id\ttimestamp\tGender\tjobroles\n"
        "u1\ti1\t100\tF\ta|b\n"
        "u1\ti2\t200\tF\t\n",
        encoding="utf-8",
    )
    events = D.read_events(p)
    assert len(events) == 2
    assert events[0].attributes == {"Gender": ["F"], "jobroles": ["a", "b"]}
    assert events[1].attributes == {"Gender": ["F"], "jobroles": []}


def test_read_events_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(
        "user_id\titem_id\ttimestamp\n"
        "u1\ti1\t100\n"
        "u1\ti2\tnot_a_number\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="bad.tsv:3"):
        D.read_events(p)


@pytest.mark.parametrize("repeated", ["f0", "user_id"])
def test_read_events_rejects_a_repeated_header_column(tmp_path, repeated):
    p = tmp_path / "dup.tsv"
    p.write_text(
        f"user_id\titem_id\ttimestamp\tf0\t{repeated}\n"
        "u1\ti1\t100\ta\tb\n"
        "u1\ti2\t200\ta\tb\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=f"dup.tsv:1: .*more than once: \\['{repeated}'\\]"):
        D.read_events(p)


@pytest.mark.parametrize("text", ["1_600", " 12", "12 ", "+12", "１２", "٣", "", "1e3", "12.0",
                                  "-", "--12", "-+12", "-１２", "- 12"])
def test_read_events_timestamp_is_ascii_digits(tmp_path, text):
    p = tmp_path / "bad.tsv"
    p.write_text(f"user_id\titem_id\ttimestamp\nu1\ti1\t100\nu1\ti2\t{text}\n",
                 encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: bad timestamp "
                                         f"{re.escape(repr(text))}$"):
        D.read_events(p)


@pytest.mark.parametrize("text", ["-12", "-0", "-007"])
def test_read_events_negative_timestamp(tmp_path, text):
    p = tmp_path / "bad.tsv"
    p.write_text(f"user_id\titem_id\ttimestamp\nu1\ti1\t{text}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:2: negative timestamp {text}$"):
        D.read_events(p)


def test_read_events_reads_plain_digits(tmp_path):
    p = tmp_path / "events.tsv"
    p.write_text("user_id\titem_id\ttimestamp\nu\ta\t0\nu\tb\t007\nu\tc\t1600000000\n",
                 encoding="utf-8")
    assert [e.timestamp for e in D.read_events(p)] == [0, 7, 1600000000]


@pytest.mark.parametrize("header, lines, got", [
    ("", ["u\ti\t1", "u\ti"], 2),
    ("", ["u\ti\t1", "u\ti\t2\t"], 4),
    ("\tf0", ["u\ti\t1\ta", "u\ti\t2\ta\tb"], 5),
    ("\tf0", ["u\ti\t1\ta", "u\ti\t2"], 3),
    ("\tf0", ["u\ti\t1\ta", "u\ti"], 2),
    ("\tf0\tf1", ["u\ti\t1\ta\tb", "u\ti\t2\ta\tb", "u\ti\t3\ta"], 4),
])
def test_read_events_counts_columns_after_a_row_it_has_seen(tmp_path, header, lines, got):
    p = tmp_path / "cols.tsv"
    p.write_text("".join(line + "\n" for line in [f"user_id\titem_id\ttimestamp{header}"] + lines),
                 encoding="utf-8")
    n = 3 + header.count("\t")
    with pytest.raises(ParseError, match=f"cols.tsv:{len(lines) + 1}: expected {n} columns, got {got}$"):
        D.read_events(p)


def _parse_per_line(text):
    """Events of a well-formed log, parsed a line at a time into new objects."""
    head, *lines = text.splitlines()
    names = head.split("\t")[3:]
    events = []
    for line in lines:
        user_id, item_id, ts, *cells = line.split("\t")
        events.append(D.RawEvent(user_id, item_id, int(ts), {
            name: [v for v in cell.split("|") if v] for name, cell in zip(names, cells)}))
    return events


def test_read_events_shares_each_distinct_row(tmp_path):
    # "F\ta|b" and "F\ta||b" parse equal, but their texts differ
    rows = ["F\ta|b", "M\t", "F\ta|b", "\tunknown", "M\t", "F\ta||b", "\t"]
    lines = [f"u{k % 3}x\ti{k % 4}x\t{100 + k}\t{rows[k % len(rows)]}" for k in range(60)]
    text = "".join(line + "\n" for line in ["user_id\titem_id\ttimestamp\tg\tj"] + lines)
    p = tmp_path / "events.tsv"
    p.write_text(text, encoding="utf-8")
    events = D.read_events(p)
    assert events == _parse_per_line(text)
    by_text = {}
    for line, e in zip(lines, events):
        assert by_text.setdefault(line.split("\t", 3)[3], e.attributes) is e.attributes
    assert len({id(a) for a in by_text.values()}) == len(by_text) == 5
    ids = {}
    for e in events:
        assert ids.setdefault(e.user_id, e.user_id) is e.user_id
        assert ids.setdefault(e.item_id, e.item_id) is e.item_id
    assert len(ids) == 3 + 4


def test_read_events_holds_little_per_event(tmp_path):
    # 5000 events of 1000 users over 50 distinct rows of six attribute cells
    rows = ["\t".join(f"cat{(r >> k) % 4}" if k else f"cat{r}" for k in range(6))
            for r in range(50)]
    p = tmp_path / "events.tsv"
    p.write_text("".join(
        [f"user_id\titem_id\ttimestamp\t" + "\t".join(f"f{k}" for k in range(6)) + "\n"]
        + [f"u{n // 5:05d}\titem{n % 60:03d}\t{1_600_000_000 + 60 * n}\t{rows[n // 5 % 50]}\n"
           for n in range(5000)]), encoding="utf-8")
    tracemalloc.start()
    try:
        events = D.read_events(p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(events) == 5000 and len({id(e.attributes) for e in events}) == 50
    assert held / len(events) < 250


def test_dataset_file_round_trip(tmp_path):
    schema = _schema(5)
    ds = D.SessionDataset(
        [D.Session((0,), [1, 2], 100),
         D.Session((1,), [0, 4, 2], 7)],
        schema,
    )
    path = tmp_path / "ds.json"
    ds.save(path)
    loaded = D.SessionDataset.load(path)
    assert loaded.schema.to_dict() == schema.to_dict()
    assert loaded.schema.hash() == schema.hash()
    assert [(s.start_time, s.context, s.items) for s in loaded.sessions] == [
        (100, (0,), [1, 2]), (7, (1,), [0, 4, 2])
    ]
    # JSON Lines: the schema and the session count, then one compact session per line
    assert path.read_text().splitlines() == [
        json.dumps({**schema.to_dict(), "sessions": 2}, separators=(",", ":")),
        '{"start":100,"context":[0],"items":[1,2]}',
        '{"start":7,"context":[1],"items":[0,4,2]}',
    ]
    # exact byte round-trip when re-saved
    path2 = tmp_path / "ds2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("position", [-1, 2, 7])
def test_dataset_load_rejects_out_of_layout_context(tmp_path, position):
    ds = D.SessionDataset([D.Session((0,), [1, 2], 100)], _schema(5))
    path = tmp_path / "ds.json"
    ds.save(path)
    edit_dataset(path, path, lambda schema, sessions: sessions[0].update(
        context=[1, position]))  # layout is [0, 2)
    with pytest.raises(DataError, match=f"session 0: context position {position} outside"):
        D.SessionDataset.load(path)


def test_read_schema_matches_full_load(tmp_path):
    ds = D.SessionDataset([D.Session((0,), [1, 2], 100)], _schema(5))
    path = tmp_path / "ds.json"
    ds.save(path)
    schema = D.read_schema(path)
    assert schema.hash() == D.SessionDataset.load(path).schema.hash()
    assert schema.has_item("i4") and not schema.has_item("i5")


def test_read_schema_parses_no_session(tmp_path):
    path = tmp_path / "ds.json"
    D.SessionDataset([D.Session((0,), [1, 2], 100)], _schema(5)).save(path)
    head = path.read_text().splitlines()[0]
    path.write_text(head + "\n{not json\n")
    assert D.read_schema(path).hash() == _schema(5).hash()
    with pytest.raises(DataError, match=f"^{path}: session 0: not JSON"):
        D.SessionDataset.load(path)


def test_read_schema_reads_line_1_only(tmp_path):
    path = tmp_path / "ds.json"
    # a session line far longer than one read buffer, then a line that is not UTF-8
    D.SessionDataset([D.Session((0,), [1, 2] * 50_000, 100)], _schema(5)).save(path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe{\n")
    assert D.read_schema(path).hash() == _schema(5).hash()
    with pytest.raises(DataError, match=f"^{path}: unreadable dataset"):
        D.SessionDataset.load(path)


def test_dataset_cut_or_grown_at_a_line_boundary_does_not_load(tmp_path):
    path = tmp_path / "ds.json"
    sessions = [D.Session((n % 2,), [n % 5, (n + 1) % 5], n) for n in range(4)]
    D.SessionDataset(sessions, _schema(5)).save(path)
    lines = _session_lines(path)
    assert json.loads(lines[0])["sessions"] == 4
    for keep in range(1, len(lines)):  # line 1 and the first keep - 1 sessions
        path.write_text("".join(lines[:keep]))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {keep - 1} "
                                            f"session lines, but line 1 says 4"):
            D.SessionDataset.load(path)
        assert D.read_schema(path).hash() == _schema(5).hash()
    path.write_text("".join(lines + lines[1:2]))
    with pytest.raises(DataError, match="5 session lines, but line 1 says 4"):
        D.SessionDataset.load(path)
    path.write_text("".join(lines))
    assert len(D.SessionDataset.load(path).sessions) == 4


def _session_lines(path):
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("bad_lines", [
    # two sessions on one line
    ['{"start":1,"context":[1],"items":[0,4]},{"start":2,"context":[0],"items":[3,1]}\n'],
    ["\n"],
    # the first two lines are not JSON alone, though joined with a comma they make
    # one value; with the third, the lines still join into one value per line
    ['{"start":1,"context":[1],"items":[0,4],"x":[{"a":1}\n', '{"b":2}]}\n',
     '{"start":2,"context":[1],"items":[0,4]},{"start":3,"context":[0],"items":[3,1]}\n'],
])
def test_dataset_load_names_a_line_that_is_not_one_session(tmp_path, bad_lines):
    path = tmp_path / "ds.json"
    D.SessionDataset([D.Session((0,), [1, 2], 0), D.Session((1,), [2, 3], 1)],
                     _schema(5)).save(path)
    lines = _session_lines(path)
    path.write_text("".join([*lines[:2], *bad_lines, *lines[2:]]))
    with pytest.raises(DataError, match=f"^{path}: session 1: not JSON"):
        D.SessionDataset.load(path)


@pytest.mark.parametrize("line", [" {} ,{}\n", "{}\t\r\n", "\x0c{}\n", "{} x"])
def test_dataset_load_reads_a_line_as_json_loads_does(tmp_path, line):
    path = tmp_path / "ds.json"
    D.SessionDataset([D.Session((0,), [1, 2], 0)], _schema(5)).save(path)
    path.write_text(_session_lines(path)[0] + line)
    try:
        json.loads(line)
    except ValueError as exc:
        expected = f"session 0: not JSON: {exc}"
    else:
        expected = "session 0: not an object"
    with pytest.raises(DataError, match=f"^{path}: " + re.escape(expected)):
        D.SessionDataset.load(path)


def test_dataset_load_gives_one_session_per_line(tmp_path):
    path = tmp_path / "ds.json"
    sessions = [D.Session((n % 2,), [n % 5, (n + 1) % 5, 2], 10 * n) for n in range(7)]
    D.SessionDataset(sessions, _schema(5)).save(path)
    loaded = D.SessionDataset.load(path).sessions
    expected = [json.loads(line) for line in _session_lines(path)[1:]]
    assert [(s.start_time, list(s.context), s.items) for s in loaded] == [
        (e["start"], e["context"], e["items"]) for e in expected]


_NOT_DATASETS = {
    "missing": None,
    "directory": "dir",
    "not json": b"user_id\titem_id\ttimestamp\n",
    "not utf-8": b"\xff\xfe\x00{",
    "schema only": b'{"schema": 1}',
    "top level list": b"[1, 2]",
    "sessions not a list": b'{"schema": {"fields": [], "item_vocabulary": []}, "sessions": 1}',
    "bad schema": b'{"schema": 1, "sessions": []}',
    # the layout of a schema line without its session count
    "no session count": b'{"fields": [["a", ["x"]]], "item_vocabulary": ["i0", "i1"]}\n',
    "session count not an integer":
        b'{"fields": [["a", ["x"]]], "item_vocabulary": ["i0", "i1"], "sessions": "0"}\n',
    "negative session count":
        b'{"fields": [["a", ["x"]]], "item_vocabulary": ["i0", "i1"], "sessions": -1}\n',
}

# a saved dataset's second session, malformed; only `load` reads sessions
_BAD_SESSIONS = {
    "session without steps": {"start": 0, "context": [0]},
    "session not an object": [[0], [1, 2]],
    "float start": {"start": 0.5, "context": [0], "items": [1, 2]},
    "context not a list": {"start": 0, "context": 0, "items": [1, 2]},
    "string item": {"start": 0, "context": [0], "items": ["i1", 2]},
    "float item": {"start": 0, "context": [0], "items": [1.5, 2]},
    "bool item": {"start": 0, "context": [0], "items": [True, 2]},
    "string position": {"start": 0, "context": ["a"], "items": [1, 2]},
    "old steps shape": {"start": 0, "steps": [[[0], 1], [[0], 2]]},
    "one item": {"start": 0, "context": [0], "items": [1]},
    "item outside vocabulary": {"start": 0, "context": [0], "items": [1, 7]},
}


@pytest.mark.parametrize("how, reader", [
    *[(how, reader) for how in sorted(_NOT_DATASETS)
      for reader in (D.SessionDataset.load, D.read_schema)],
    *[(how, D.SessionDataset.load) for how in sorted(_BAD_SESSIONS)],
])
def test_dataset_readers_raise_data_error(tmp_path, reader, how):
    path = tmp_path / "ds.json"
    content = _NOT_DATASETS.get(how)
    if how in _BAD_SESSIONS:
        D.SessionDataset([D.Session((0,), [1, 2], 0)], _schema(5)).save(path)
        edit_dataset(path, path, lambda schema, sessions: sessions.append(_BAD_SESSIONS[how]))
    elif content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    session = "session 1: " if how in _BAD_SESSIONS else ""
    with pytest.raises(DataError, match=f"^{path}: {session}"):
        reader(path)


@pytest.mark.parametrize("how", ["missing", "directory", "not utf-8"])
def test_read_events_raises_data_error_for_unreadable_file(tmp_path, how):
    path = tmp_path / "events.tsv"
    if how == "directory":
        path.mkdir()
    elif how == "not utf-8":
        path.write_bytes(b"user_id\titem_id\ttimestamp\nu\t\xff\t1\n")
    with pytest.raises(DataError, match=f"^{path}: unreadable events file"):
        D.read_events(path)


def test_preprocess_end_to_end():
    day = 86400
    events = []
    # 8 users, one session each over 30 days, 3 events per session
    for u in range(8):
        base = u * 4 * day
        for t in range(3):
            events.append(
                ev(f"u{u}", f"i{(u + t) % 4}", base + t * 60, Gender=["F" if u % 2 else "M"])
            )
    train, test, summary = D.preprocess(
        events, gap_threshold=3600, item_coverage=1.0,
        category_coverage=1.0, test_window=3 * day,
    )
    assert summary.n_users == 8
    assert summary.n_sessions == 8
    assert summary.n_transactions == 24
    assert summary.n_context_fields == 1
    assert summary.n_train_sessions + summary.n_test_sessions == 8
    assert test.item_set() <= train.item_set()


_CELLS = st.lists(st.sampled_from(["a", "b", "c", "d", D.UNKNOWN]), max_size=3).map("|".join)


def _preprocessed(events, item_coverage, category_coverage):
    """The saved train and test files and the summary, or the error's message."""
    try:
        train, test, summary = D.preprocess(
            events, gap_threshold=3600, item_coverage=item_coverage,
            category_coverage=category_coverage, test_window=2 * 86400)
    except DataError as exc:
        return type(exc), str(exc)
    with tempfile.TemporaryDirectory() as root:
        train.save(f"{root}/train.json")
        test.save(f"{root}/test.json")
        with open(f"{root}/train.json", "rb") as a, open(f"{root}/test.json", "rb") as b:
            return a.read(), b.read(), summary.lines()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_preprocess_of_shared_events_saves_what_unshared_copies_save(data):
    rows = data.draw(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), min_size=1, max_size=5))
    lines = ["user_id\titem_id\ttimestamp\tg\tj\tr"]
    for u in range(data.draw(st.integers(3, 10))):
        t = u * 86400
        for _ in range(data.draw(st.integers(1, 6))):
            t += data.draw(st.sampled_from([60, 600, 5000]))
            row = "\t".join(data.draw(st.sampled_from(rows)))
            lines.append(f"u{u}\ti{data.draw(st.integers(0, 7))}\t{t}\t{row}")
    item_coverage = data.draw(st.sampled_from([0.7, 1.0]))
    category_coverage = data.draw(st.sampled_from([0.3, 0.6, 0.9]))
    with tempfile.TemporaryDirectory() as root:
        with open(f"{root}/events.tsv", "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        shared = D.read_events(f"{root}/events.tsv")
    copies = [D.RawEvent(e.user_id, e.item_id, e.timestamp,
                         {k: list(v) for k, v in e.attributes.items()}) for e in shared]
    assert len({id(e.attributes) for e in shared}) <= len(rows)
    assert (_preprocessed(shared, item_coverage, category_coverage)
            == _preprocessed(copies, item_coverage, category_coverage))


def test_dataset_rejects_short_sessions():
    with pytest.raises(DataError):
        D.SessionDataset([D.Session((0,), [0], 0)], _schema(5))
