import builtins
import hashlib
import json
import os

import numpy as np
import pytest

from arnn import cli
from arnn import tensor as T
from arnn.cli import main, softmax
from arnn.data import SessionDataset, read_schema
from arnn.evaluate import top_k_items
from arnn.models import ArnnModel, load_checkpoint
from arnn.synth import GeneratorSpec, generate, write_events, write_truth
from util import edit_dataset


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Small generated corpus, preprocessed and trained for two epochs."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    data = root / "data"
    ckpt = root / "ckpt"
    assert main(["synth", "--out", str(raw), "--sessions", "80", "--seed", "3"]) == 0
    assert main([
        "preprocess", "--input", str(raw / "events.tsv"), "--out", str(data),
        "--gap-threshold-seconds", "1800", "--item-coverage", "1.0",
        "--category-coverage", "1.0", "--test-window-days", "3",
    ]) == 0
    for stage in ("gru", "pnn", "merge"):
        assert main([
            "train", "--stage", stage, "--data", str(data / "train.json"),
            "--out", str(ckpt), "--profile", "synth", "--seed", "1",
            "--epochs", "2",
        ]) == 0
    return {"raw": raw, "data": data, "ckpt": ckpt}


def test_synth_writes_declared_counts(synth_dir):
    truth = json.loads((synth_dir["raw"] / "truth.json").read_text())
    lines = (synth_dir["raw"] / "events.tsv").read_text().splitlines()
    assert len(lines) - 1 == truth["counts"]["n_transactions"]


def test_preprocess_summary_matches_generator(synth_dir):
    truth = json.loads((synth_dir["raw"] / "truth.json").read_text())
    summary = (synth_dir["data"] / "summary.txt").read_text()
    stats = {}
    for line in summary.splitlines():
        key, _, value = line.partition(":")
        stats[key.strip()] = int(value.strip())
    assert stats["users"] == truth["counts"]["n_users"]
    assert stats["sessions"] == truth["counts"]["n_sessions"]
    assert stats["transactions"] == truth["counts"]["n_transactions"]
    assert stats["items"] == truth["counts"]["n_items"]
    assert stats["context fields"] == len(truth["field_names"])


def test_preprocess_degenerate_config_single_session_per_user(tmp_path, synth_dir):
    out = tmp_path / "d"
    assert main([
        "preprocess", "--input", str(synth_dir["raw"] / "events.tsv"),
        "--out", str(out), "--gap-threshold-seconds", "inf",
        "--item-coverage", "1.0", "--category-coverage", "1.0",
        "--test-window-days", "3",
    ]) == 0
    truth = json.loads((synth_dir["raw"] / "truth.json").read_text())
    train = SessionDataset.load(out / "train.json")
    test = SessionDataset.load(out / "test.json")
    assert len(train.sessions) + len(test.sessions) == truth["counts"]["n_sessions"]
    assert len(train.schema.item_vocabulary) == truth["counts"]["n_items"]


def test_train_stages_produce_checkpoints(synth_dir):
    for stage in ("gru", "pnn", "merge"):
        assert (synth_dir["ckpt"] / f"{stage}.npz").exists()
        assert (synth_dir["ckpt"] / f"{stage}_history.tsv").exists()


def test_train_merge_without_pretraining_fails(tmp_path, synth_dir):
    code = main([
        "train", "--stage", "merge", "--data",
        str(synth_dir["data"] / "train.json"), "--out", str(tmp_path / "empty"),
        "--profile", "synth", "--epochs", "1",
    ])
    assert code == 2


def test_evaluate_all_systems(tmp_path, synth_dir, capsys):
    report_path = tmp_path / "report.tsv"
    assert main([
        "evaluate", "--data", str(synth_dir["data"] / "test.json"),
        "--train-data", str(synth_dir["data"] / "train.json"),
        "--checkpoints", str(synth_dir["ckpt"]),
        "--k", "20", "--out", str(report_path),
    ]) == 0
    lines = report_path.read_text().splitlines()
    assert lines[0] == "system\tk\trecall\tmrr\tn_recs\tn_hits"
    systems = [line.split("\t")[0] for line in lines[1:]]
    assert systems == ["itemknn", "gru", "pnn", "arnn"]
    table = capsys.readouterr().out
    assert "arnn" in table


def test_evaluate_k1_recall_equals_mrr(tmp_path, synth_dir):
    report_path = tmp_path / "r1.tsv"
    assert main([
        "evaluate", "--data", str(synth_dir["data"] / "test.json"),
        "--train-data", str(synth_dir["data"] / "train.json"),
        "--checkpoints", str(synth_dir["ckpt"]),
        "--k", "1", "--out", str(report_path),
    ]) == 0
    for line in report_path.read_text().splitlines()[1:]:
        cells = line.split("\t")
        assert cells[2] == cells[3]


def test_evaluate_is_repeatable(tmp_path, synth_dir):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for p in paths:
        assert main([
            "evaluate", "--data", str(synth_dir["data"] / "test.json"),
            "--train-data", str(synth_dir["data"] / "train.json"),
            "--checkpoints", str(synth_dir["ckpt"]), "--out", str(p),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_recommend_contract(synth_dir, capsys):
    train = SessionDataset.load(synth_dir["data"] / "train.json")
    item = train.schema.item_vocabulary[0]
    assert main([
        "recommend", "--checkpoint", str(synth_dir["ckpt"] / "merge.npz"),
        "--data", str(synth_dir["data"] / "train.json"),
        "--items", item, "--attrs", "f0=cat0;f1=cat1;f2=cat0;f3=cat3;f4=cat2;f5=cat1",
        "--k", "5",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    scores = [float(line.split("\t")[2]) for line in lines]
    assert scores == sorted(scores, reverse=True)


def test_recommend_k_clamped_to_vocabulary(synth_dir, capsys):
    train = SessionDataset.load(synth_dir["data"] / "train.json")
    vocab = len(train.schema.item_vocabulary)
    item = train.schema.item_vocabulary[0]
    assert main([
        "recommend", "--checkpoint", str(synth_dir["ckpt"] / "gru.npz"),
        "--data", str(synth_dir["data"] / "train.json"),
        "--items", item, "--k", str(vocab + 50),
    ]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == vocab


def test_recommend_unknown_item_exits_3(synth_dir, capsys):
    code = main([
        "recommend", "--checkpoint", str(synth_dir["ckpt"] / "gru.npz"),
        "--data", str(synth_dir["data"] / "train.json"),
        "--items", "no_such_item", "--k", "3",
    ])
    assert code == 3
    assert "no_such_item" in capsys.readouterr().err


def test_recommend_pnn_scores_the_last_item_only(synth_dir, capsys):
    # the encoder is stateless: a prefix scores as its last item alone
    schema = read_schema(synth_dir["data"] / "train.json")
    items = schema.item_vocabulary[:3]
    attrs = "f0=cat0;f1=cat1"
    assert main([
        "recommend", "--checkpoint", str(synth_dir["ckpt"] / "pnn.npz"),
        "--data", str(synth_dir["data"] / "train.json"),
        "--items", ",".join(items), "--attrs", attrs, "--k", "7",
    ]) == 0
    pnn = load_checkpoint(synth_dir["ckpt"] / "pnn.npz", schema.hash(), "pnn")
    context = schema.encode(cli._parse_attrs(attrs))
    c = pnn.encode([context], [schema.item_index(items[-1])], training=False)
    probs = softmax(pnn.scores(c).data)[0]
    want = "".join(f"{rank}\t{schema.item_vocabulary[i]}\t{probs[i]:.6f}\n"
                   for rank, i in enumerate(top_k_items(probs, 7), start=1))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_k_below_one_exits_2(synth_dir, capsys, command, k):
    data = str(synth_dir["data"] / "train.json")
    argv = {
        "recommend": ["recommend", "--checkpoint", str(synth_dir["ckpt"] / "gru.npz"),
                      "--data", data, "--items", read_schema(data).item_vocabulary[0]],
        "evaluate": ["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                     "--checkpoints", str(synth_dir["ckpt"]), "--systems", "gru"],
    }[command]
    assert main(argv + ["--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k must be at least 1" in captured.err


def test_recommend_unknown_attribute_field_exits_3(synth_dir, capsys):
    data = str(synth_dir["data"] / "train.json")
    code = main(["recommend", "--checkpoint", str(synth_dir["ckpt"] / "gru.npz"),
                 "--data", data, "--items", read_schema(data).item_vocabulary[0],
                 "--attrs", "f0=cat0;nosuchfield=abc"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "nosuchfield" in captured.err


def _write_bad_checkpoint(path, how, good):
    """Write `path` spoilt as `how` says, from the good checkpoint `good`;
    "missing" writes nothing."""
    if how == "not an archive":
        path.write_text("epoch\ttrain_loss\n")
    elif how == "truncated":
        raw = good.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
    elif how in ("no meta", "bad meta"):
        stored = dict(np.load(good))
        if how == "no meta":
            del stored["meta"]
        else:
            stored["meta"] = np.frombuffer(b"{not json", dtype=np.uint8)
        np.savez(path, **stored)


@pytest.mark.parametrize("how", ["missing", "not an archive", "truncated", "no meta",
                                 "bad meta"])
def test_unreadable_checkpoint_exits_3(synth_dir, tmp_path, capsys, how):
    bad = tmp_path / "gru.npz"
    _write_bad_checkpoint(bad, how, synth_dir["ckpt"] / "gru.npz")
    data = str(synth_dir["data"] / "train.json")
    assert main(["recommend", "--checkpoint", str(bad), "--data", data,
                 "--items", read_schema(data).item_vocabulary[0]]) == 3
    assert main(["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                 "--checkpoints", str(tmp_path), "--systems", "gru"]) == 3
    err = capsys.readouterr().err
    assert err.count(f"data error: {bad}: unreadable checkpoint") == 2


def test_evaluate_out_of_layout_context_exits_3(synth_dir, tmp_path, capsys):
    width = read_schema(synth_dir["data"] / "test.json").one_hot_length
    bad = tmp_path / "test.json"
    edit_dataset(synth_dir["data"] / "test.json", bad,
                 lambda schema, sessions: sessions[0]["context"].append(width))
    code = main(["evaluate", "--data", str(bad), "--checkpoints",
                 str(synth_dir["ckpt"]), "--systems", "gru"])
    assert code == 3
    assert f"position {width} outside" in capsys.readouterr().err


def test_evaluate_float_item_exits_3(synth_dir, tmp_path, capsys):
    # read as an index, 1.5 would pass the vocabulary check and score as item 1
    def float_item(schema, sessions):
        sessions[0]["items"][0] = 1.5

    bad = tmp_path / "test.json"
    edit_dataset(synth_dir["data"] / "test.json", bad, float_item)
    code = main(["evaluate", "--data", str(bad), "--checkpoints",
                 str(synth_dir["ckpt"]), "--systems", "gru"])
    err = capsys.readouterr().err
    assert code == 3 and _one_line(err, f"data error: {bad}: session 0: ")


def test_dataset_in_the_old_steps_shape_exits_3(synth_dir, tmp_path, capsys):
    # each step a [context, item] pair, the context repeated on every step
    def to_steps(schema, sessions):
        sessions[:] = [{"start": s["start"], "steps": [[s["context"], i] for i in s["items"]]}
                       for s in sessions]

    bad = tmp_path / "test.json"
    edit_dataset(synth_dir["data"] / "test.json", bad, to_steps)
    code = main(["evaluate", "--data", str(bad), "--checkpoints",
                 str(synth_dir["ckpt"]), "--systems", "gru"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert _one_line(captured.err, f"data error: {bad}: session 0: not an object")


def test_dataset_in_the_single_document_layout_exits_3(synth_dir, tmp_path, capsys):
    # the layout before JSON Lines: one object holding the schema and a session list
    for name in ("train.json", "test.json"):
        schema, *sessions = [json.loads(line)
                             for line in (synth_dir["data"] / name).read_text().splitlines()]
        (tmp_path / name).write_text(json.dumps({"schema": schema, "sessions": sessions},
                                                separators=(",", ":")))
    train, test, out = tmp_path / "train.json", tmp_path / "test.json", tmp_path / "ckpt"
    for argv, bad in ((["train", "--stage", "gru", "--data", str(train), "--out", str(out),
                        "--epochs", "1"], train),
                      (["evaluate", "--data", str(test), "--train-data", str(train),
                        "--checkpoints", str(synth_dir["ckpt"])], test),
                      (["recommend", "--checkpoint", str(synth_dir["ckpt"] / "merge.npz"),
                        "--data", str(train), "--items", "item000"], train)):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line(captured.err, f"data error: {bad}: not a saved dataset: ")
    assert not out.exists()


def _overflow():
    with np.errstate(over="ignore"):
        T.mul(np.array([1e308]), np.array([1e308]))


@pytest.mark.parametrize("flag, code", [(True, 4), (False, 0)])
def test_train_check_finite(synth_dir, tmp_path, monkeypatch, flag, code):
    real = cli.run_stage

    def overflowing_stage(*args, **kwargs):
        _overflow()  # inf: an error only under the guard
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_stage", overflowing_stage)
    argv = ["train", "--stage", "gru", "--data", str(synth_dir["data"] / "train.json"),
            "--out", str(tmp_path), "--profile", "synth", "--epochs", "1"]
    assert main(argv + (["--check-finite"] if flag else [])) == code
    assert not T._check_finite  # off again for later in-process callers


@pytest.mark.parametrize("flag, code", [(True, 4), (False, 0)])
def test_evaluate_check_finite(synth_dir, monkeypatch, flag, code):
    real = cli.evaluate_system

    def overflowing_evaluation(*args, **kwargs):
        _overflow()
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_system", overflowing_evaluation)
    argv = ["evaluate", "--data", str(synth_dir["data"] / "test.json"),
            "--checkpoints", str(synth_dir["ckpt"]), "--systems", "gru"]
    assert main(argv + (["--check-finite"] if flag else [])) == code
    assert not T._check_finite


def test_check_finite_from_config_file(synth_dir, tmp_path, monkeypatch):
    seen = []
    real = cli.evaluate_system

    def spy(*args, **kwargs):
        seen.append(T._check_finite)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_system", spy)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("check_finite=true\n")
    assert main(["evaluate", "--config", str(cfg),
                 "--data", str(synth_dir["data"] / "test.json"),
                 "--checkpoints", str(synth_dir["ckpt"]), "--systems", "gru"]) == 0
    assert seen == [True] and not T._check_finite


def test_unknown_config_key_rejected(tmp_path, synth_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sessions=5\nnot_a_key=1\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()  # validation precedes side effects


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment\nsessions=30\nseed=9\n")
    out = tmp_path / "y"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--sessions", "40"]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["spec"]["n_sessions"] == 40  # flag beats file
    assert truth["spec"]["seed"] == 9


def test_missing_input_exits_3(tmp_path):
    assert main(["preprocess", "--input", str(tmp_path / "nope.tsv"),
                 "--out", str(tmp_path / "o")]) == 3


def test_preprocess_repeated_header_column_exits_3(tmp_path, capsys):
    events = tmp_path / "events.tsv"
    events.write_text("user_id\titem_id\ttimestamp\tf0\tf0\n" + "".join(
        f"u{k % 2}\ti{k % 3}\t{100 * k}\ta\tb\n" for k in range(6)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(events), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert _one_line(err, "data error: ") and "events.tsv:1: header names a column" in err
    assert not out.exists()


@pytest.mark.parametrize("stamp, message", [
    ("1_600", "bad timestamp '1_600'"), ("１２", "bad timestamp '１２'"),
    ("-12", "negative timestamp -12"),
])
def test_preprocess_timestamp_not_plain_digits_exits_3(tmp_path, capsys, stamp, message):
    events = tmp_path / "events.tsv"
    events.write_text("user_id\titem_id\ttimestamp\n" + "".join(
        f"u{k % 2}\ti{k % 3}\t{100 * k}\n" for k in range(6)) + f"u0\ti0\t{stamp}\n",
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(events), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert _one_line(err, "data error: ") and f"events.tsv:8: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["gap_threshold_seconds", "test_window_days"])
@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_preprocess_nan_or_negative_setting_exits_2(tmp_path, capsys, key, value):
    # the input does not exist: the setting is rejected before it is read
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(tmp_path / "nope.tsv"), "--out", str(out),
                 f"--{key.replace('_', '-')}={value}"]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "configuration error: ")
    assert f"{key} must be non-negative, got {float(value)}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["item_coverage", "category_coverage"])
@pytest.mark.parametrize("value", ["0", "nan", "7", "1.5", "-0.5"])
def test_preprocess_coverage_out_of_range_exits_2(tmp_path, capsys, key, value):
    # the input does not exist: the setting is rejected before it is read
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(tmp_path / "nope.tsv"), "--out", str(out),
                 f"--{key.replace('_', '-')}={value}"]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "configuration error: ")
    assert f"{key} must be in (0, 1], got {float(value)}" in err
    assert not out.exists()


def test_preprocess_coverage_checked_without_multivalued_fields(tmp_path, capsys):
    # no field is multi-valued, so preprocess itself never looks at the setting
    events = tmp_path / "events.tsv"
    events.write_text("user_id\titem_id\ttimestamp\tf0\n" + "".join(
        f"u{u}\ti{(u + k) % 4}\t{u * 86400 + k * 60}\ta\n" for u in range(10) for k in range(3)),
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(events), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert main(["preprocess", "--input", str(events), "--out", str(out),
                 "--category-coverage", "0"]) == 2
    assert _one_line(capsys.readouterr().err, "configuration error: category_coverage")
    assert not out.exists()


def test_missing_required_key_exits_2():
    assert main(["synth"]) == 2


@pytest.fixture(scope="module")
def other_data(tmp_path_factory):
    """A 30-item corpus: its schema differs from synth_dir's 60-item one."""
    root = tmp_path_factory.mktemp("other")
    assert main(["synth", "--out", str(root / "raw"), "--sessions", "60",
                 "--items", "30", "--seed", "4"]) == 0
    assert main([
        "preprocess", "--input", str(root / "raw" / "events.tsv"),
        "--out", str(root / "data"), "--item-coverage", "1.0",
        "--category-coverage", "1.0", "--gap-threshold-seconds", "1800",
    ]) == 0
    return root / "data"


def test_evaluate_schema_mismatch_exits_3(other_data, synth_dir):
    code = main([
        "evaluate", "--data", str(other_data / "test.json"),
        "--systems", "gru", "--checkpoints", str(synth_dir["ckpt"]),
    ])
    assert code == 3


@pytest.mark.parametrize("train_items", [30, 60])
def test_evaluate_itemknn_on_another_schema_exits_3(other_data, synth_dir, capsys,
                                                    train_items):
    # item-KNN trained on 30 items and tested on 60, and the other way round
    data = {30: other_data, 60: synth_dir["data"]}
    train, test = data[train_items] / "train.json", data[90 - train_items] / "test.json"
    assert main(["evaluate", "--data", str(test), "--train-data", str(train),
                 "--systems", "itemknn"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, f"data error: {train} and {test} have different schemas")


# ---------------------------------------------------------------------------
# option tables, argument checks and loader errors


def _one_line(err: str, prefix: str) -> bool:
    return err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


def test_missing_train_data_exits_3(synth_dir, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                 "--train-data", str(missing), "--systems", "itemknn"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, f"data error: {missing}: unreadable dataset")


@pytest.mark.parametrize("content", ["user_id\titem_id\ttimestamp\n", '{"schema": 1}'])
@pytest.mark.parametrize("command", ["train", "evaluate", "recommend"])
def test_not_a_dataset_exits_3(synth_dir, tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--stage", "gru", "--data", str(bad), "--out", str(out),
                  "--epochs", "1"],
        "evaluate": ["evaluate", "--data", str(bad), "--checkpoints",
                     str(synth_dir["ckpt"]), "--systems", "gru", "--out", str(out)],
        "recommend": ["recommend", "--checkpoint", str(synth_dir["ckpt"] / "gru.npz"),
                      "--data", str(bad), "--items", "item000"],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err, f"data error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--stage", "bogus"], "unknown stage 'bogus'"),
    (["train", "--stage", "gru", "--profile", "bogus"], "unknown profile 'bogus'"),
    (["synth", "--context-mode", "bogus"], "context_mode must be"),
    # argparse reads a value that starts with '-' and is no plain number as a flag
    (["preprocess", "--input", "in.tsv", "--gap-threshold-seconds", "-1e3"],
     "argument --gap-threshold-seconds: expected one argument"),
    (["preprocess", "--input", "in.tsv", "--gap-threshold-seconds", "-inf"],
     "argument --gap-threshold-seconds: expected one argument"),
    (["train", "--stage", "gru", "--epochs", "abc"], "invalid int value: 'abc'"),
    (["synth", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
])
def test_bad_choice_returns_2(synth_dir, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    data = ["--data", str(synth_dir["data"] / "train.json")] if argv[0] == "train" else []
    # returned by main, not raised by argparse as SystemExit
    assert main(argv + data + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "configuration error: ") and message in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0 and "--stage" in capsys.readouterr().out


def _sample(key: str, kind):
    return {int: 7, float: 2.5, str: f"{key}-value", bool: True}[kind]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_table_key_is_a_flag_and_a_config_key(command, tmp_path, monkeypatch):
    _, table, help_text = cli.COMMANDS[command]
    assert set(vars(cli.build_parser().parse_args([command]))) == {"command", "config", *table}
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command,
                        (lambda cfg: seen.append(cfg) or 0, table, help_text))
    flags, lines = [], []
    for key, (kind, default) in table.items():
        value = _sample(key, kind)
        assert value != default
        flag = "--" + key.replace("_", "-")
        flags += [flag] if kind is bool else [flag, str(value)]
        lines.append(f"{key}={value}")
    cfg = tmp_path / "all.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([command] + flags) == 0
    assert main([command, "--config", str(cfg)]) == 0
    want = {key: _sample(key, kind) for key, (kind, _) in table.items()}
    assert seen == [want, want]


@pytest.mark.parametrize("items, attrs",
                         [(",", "f0=cat0"), ("item000", "f0"), ("item000", "=cat0")])
def test_recommend_checks_arguments_before_files(synth_dir, tmp_path, capsys, items, attrs):
    code = main(["recommend", "--checkpoint", str(tmp_path / "missing.npz"),
                 "--data", str(synth_dir["data"] / "train.json"),
                 "--items", items, "--attrs", attrs])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err, "configuration error: ")


def test_negative_epochs_exits_2(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--stage", "gru", "--data", str(synth_dir["data"] / "train.json"),
                 "--out", str(out), "--epochs", "-3"]) == 2
    assert "epochs must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["train", "--stage", "gru", "--data", str(synth_dir["data"] / "train.json"),
                 "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "configuration error: ") and "seed must be non-negative, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--sessions", "n_sessions"), ("--items", "n_items"),
                                        ("--fields", "n_fields"), ("--seed", "seed")])
def test_synth_sizes_below_one_exit_2(tmp_path, capsys, flag, name):
    out = tmp_path / "out"
    low = 0 if name == "seed" else 1
    assert main(["synth", "--out", str(out), flag, str(low - 1)]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "configuration error: ") and f"{name} must be at least {low}" in err
    assert not out.exists()


def test_train_pnn_without_context_fields_exits_3(tmp_path, capsys):
    events = tmp_path / "events.tsv"
    events.write_text("user_id\titem_id\ttimestamp\n" + "".join(
        f"u{u}\ti{(u + k) % 5}\t{u * 86400 + k * 60}\n" for u in range(30) for k in range(4)),
        encoding="utf-8")
    data = tmp_path / "data"
    assert main(["preprocess", "--input", str(events), "--out", str(data),
                 "--item-coverage", "1.0"]) == 0
    capsys.readouterr()
    out = tmp_path / "ckpt"
    assert main(["train", "--stage", "pnn", "--data", str(data / "train.json"),
                 "--out", str(out), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert _one_line(err, "data error: ") and "at least one context field" in err
    assert not (out / "pnn.npz").exists()


@pytest.mark.parametrize("fields", [1, 2, 3, 5])
def test_synth_fewer_than_six_fields(tmp_path, fields):
    # a session visits each of the fields' layers at most once
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--fields", str(fields), "--items", "60",
                 "--sessions", "50"]) == 0
    users = [line.split("\t")[0]
             for line in (out / "events.tsv").read_text().splitlines()[1:]]
    lengths = np.unique(users, return_counts=True)[1]
    assert len(lengths) == 50
    assert lengths.max() <= fields + 1
    assert lengths.min() >= min(4, fields + 1)


def test_synth_default_fields_output_is_unchanged(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--sessions", "40", "--seed", "3"]) == 0
    digests = {name: hashlib.md5((out / name).read_bytes()).hexdigest()
               for name in ("events.tsv", "truth.json")}
    assert digests == {"events.tsv": "2773409bae3957754c1853395dd19954",
                       "truth.json": "6eff9210301e5387cdb6b7b48e2e8490"}


def _edit_meta(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit(meta)` applied to its meta."""
    stored = dict(np.load(src))
    meta = json.loads(bytes(stored["meta"]))
    edit(meta)
    stored["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **stored)


@pytest.mark.parametrize("system, name, key, change, message", [
    ("arnn", "merge.npz", "n_items", 61, "vocabulary mismatch"),
])
def test_inconsistent_pnn_meta_exits_3_naming_the_file(synth_dir, tmp_path, capsys,
                                                       system, name, key, change, message):
    def spoil(meta):
        hp = meta["hyperparameters"]
        (hp["pnn"] if system == "arnn" else hp)[key] = change

    bad = tmp_path / name
    _edit_meta(synth_dir["ckpt"] / name, bad, spoil)
    assert main(["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                 "--checkpoints", str(tmp_path), "--systems", system]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, f"data error: {bad}: cannot build a '{system}' model")
    assert message in captured.err


@pytest.mark.parametrize("name", ["pnn.npz", "merge.npz"])
def test_format_1_checkpoint_exits_3(synth_dir, tmp_path, capsys, name):
    # and format 2, whose PNN hyperparameters held the field offsets too
    bad = tmp_path / name
    data = str(synth_dir["data"] / "train.json")
    for version in (1, 2):
        _edit_meta(synth_dir["ckpt"] / name, bad,
                   lambda meta: meta.update(format_version=version))
        assert main(["recommend", "--checkpoint", str(bad), "--data", data,
                     "--items", read_schema(data).item_vocabulary[0]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line(captured.err, f"data error: {bad}: unsupported format {version}")


@pytest.mark.parametrize("spoil, problem", [
    (lambda bias: np.where(np.arange(bias.size) == 3, np.nan, bias), "holds NaN or Inf"),
    (lambda bias: np.where(np.arange(bias.size) == 3, np.inf, bias), "holds NaN or Inf"),
    (lambda bias: bias.astype(str), "has shape"),
], ids=["nan", "inf", "str"])
def test_checkpoint_holding_a_bad_tensor_exits_3(synth_dir, tmp_path, capsys, spoil, problem):
    # ranked, a NaN target score would count as rank 1 and read as a perfect MRR
    stored = dict(np.load(synth_dir["ckpt"] / "gru.npz"))
    stored["param/gru/out_bias"] = spoil(stored["param/gru/out_bias"])
    np.savez(tmp_path / "gru.npz", **stored)
    data = str(synth_dir["data"] / "train.json")
    message = f"data error: {tmp_path / 'gru.npz'}: tensor 'gru/out_bias' {problem}"
    for argv in (["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                  "--checkpoints", str(tmp_path), "--systems", "gru"],
                 ["recommend", "--checkpoint", str(tmp_path / "gru.npz"), "--data", data,
                  "--items", read_schema(data).item_vocabulary[0]]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and _one_line(captured.err, message)


@pytest.mark.parametrize("stage", ["gru", "pnn"])
def test_train_on_a_context_with_an_empty_field_exits_3(synth_dir, tmp_path, capsys, stage):
    def empty_field_1(schema, sessions):
        sizes = [len(cats) for _, cats in schema["fields"]]
        lo, hi = sizes[0], sizes[0] + sizes[1]  # field 1's positions
        sessions[3]["context"] = [p for p in sessions[3]["context"] if not lo <= p < hi]

    bad = tmp_path / "train.json"
    edit_dataset(synth_dir["data"] / "train.json", bad, empty_field_1)
    out = tmp_path / "ckpt"
    assert main(["train", "--stage", stage, "--data", str(bad), "--out", str(out),
                 "--epochs", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, f"data error: {bad}: session 3: field 1 ('f1')")
    assert not out.exists()


def test_recommend_repeated_attribute_field_exits_2(synth_dir, capsys):
    data = str(synth_dir["data"] / "train.json")
    code = main(["recommend", "--checkpoint", str(synth_dir["ckpt"] / "pnn.npz"),
                 "--data", data, "--items", read_schema(data).item_vocabulary[0],
                 "--attrs", "f0=cat0;f0=cat3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, "configuration error: field 'f0' given twice")


def test_evaluate_on_a_cut_dataset_exits_3(synth_dir, tmp_path, capsys):
    lines = (synth_dir["data"] / "test.json").read_text().splitlines(keepends=True)
    cut = tmp_path / "test.json"
    cut.write_text("".join(lines[:3]))  # as `head -n 3` cuts it
    assert main(["evaluate", "--data", str(cut), "--systems", "itemknn",
                 "--train-data", str(synth_dir["data"] / "train.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err, f"data error: {cut}: 2 session lines, "
                                   f"but line 1 says {len(lines) - 1}")


@pytest.mark.parametrize("head", ArnnModel.frozen_heads)
def test_merge_checkpoint_without_a_frozen_head_exits_3(synth_dir, tmp_path, capsys, head):
    # the load reads no frozen head, but it still checks that each is there
    stored = dict(np.load(synth_dir["ckpt"] / "merge.npz"))
    del stored[f"param/{head}"]
    bad = tmp_path / "merge.npz"
    np.savez(bad, **stored)
    data = str(synth_dir["data"] / "train.json")
    for argv in (["evaluate", "--data", str(synth_dir["data"] / "test.json"),
                  "--checkpoints", str(tmp_path), "--systems", "arnn"],
                 ["recommend", "--checkpoint", str(bad), "--data", data,
                  "--items", read_schema(data).item_vocabulary[0]]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line(captured.err, f"data error: {bad}: missing tensor '{head}'")


class _TornFile:
    """A file open for writing whose every write stops halfway with OSError."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _write_dataset(dirs, target):
    SessionDataset.load(dirs["data"] / "train.json").save(target)


def _write_events(dirs, target):
    events, truth = generate(GeneratorSpec(n_sessions=20, seed=1))
    write_events(events, target, truth["field_names"])


def _write_truth(dirs, target):
    write_truth(generate(GeneratorSpec(n_sessions=20, seed=1))[1], target)


def _write_history(dirs, target):
    main(["train", "--stage", "gru", "--data", str(dirs["data"] / "train.json"),
          "--out", str(target.parent), "--epochs", "1"])


def _write_report(dirs, target):
    main(["evaluate", "--data", str(dirs["data"] / "test.json"), "--systems", "itemknn",
          "--train-data", str(dirs["data"] / "train.json"), "--out", str(target)])


def _write_summary(dirs, target):
    main(["preprocess", "--input", str(dirs["raw"] / "events.tsv"),
          "--out", str(target.parent), "--item-coverage", "1.0"])


# output file name -> a call that writes it; checkpoints have a test of their own
_WRITERS = {
    "train.json": _write_dataset,
    "events.tsv": _write_events,
    "truth.json": _write_truth,
    "gru_history.tsv": _write_history,
    "report.tsv": _write_report,
    "summary.txt": _write_summary,
}


@pytest.mark.parametrize("name", _WRITERS)
def test_a_write_that_fails_halfway_keeps_the_previous_file(synth_dir, tmp_path,
                                                            monkeypatch, name):
    target = tmp_path / "out" / name
    target.parent.mkdir()
    target.write_bytes(b"previous\n")
    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        # the target, or a temporary file beside it
        if "w" in mode and os.fspath(file).startswith(str(target)):
            return _TornFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", torn_open)
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[name](synth_dir, target)
    assert target.read_bytes() == b"previous\n"
    assert not [p.name for p in target.parent.iterdir() if p.name.endswith(".tmp")]
