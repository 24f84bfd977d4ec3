"""Command-line front door: preprocess, synth, train, evaluate, recommend.

Each command's options are declared once, in its table of
``key: (type, default)`` (``PREPROCESS``, ``SYNTH``, ``TRAIN``, ``EVALUATE``,
``RECOMMEND``).  The table builds the command's parser and names the keys a
``--config`` file may set.  A key's flag is ``--`` plus the key with ``-`` for
``_`` (``gap_threshold_seconds`` is ``--gap-threshold-seconds``); a ``bool``
key is a switch.  Flags beat file values, and file values beat defaults.  A
table with a ``check_finite`` key runs its command under the non-finite guard
when that key is true, so the first NaN or Inf an operation produces exits 4.

Every command validates its configuration before it writes anything.  Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import tensor as T
from .batching import MiniBatch
from .config import REQUIRED, parse_config_file, resolve
from .data import SessionDataset, preprocess, read_events, read_schema
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    SchemaError,
    VocabularyError,
)
from .evaluate import EvalReport, build_itemknn, evaluate_system, top_k_items
from .models import load_checkpoint
from .synth import GeneratorSpec, generate, write_events, write_truth
from .training import history_tsv, make_plan, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SYSTEMS = ("itemknn", "gru", "pnn", "arnn")


@contextlib.contextmanager
def _finite_guard(enabled: bool):
    """Check every op output for NaN/Inf while the command runs.

    The guard is module state, so it is switched off again on the way out:
    callers of ``main`` in the same process get the default back.
    """
    T.set_check_finite(enabled)
    try:
        yield
    finally:
        T.set_check_finite(False)


# ---------------------------------------------------------------------------
# commands

PREPROCESS = {
    "input": (str, REQUIRED),
    "out": (str, REQUIRED),
    "gap_threshold_seconds": (float, 3600.0),
    "item_coverage": (float, 0.5),
    "category_coverage": (float, 0.75),
    "test_window_days": (float, 3.0),
}


def cmd_preprocess(cfg) -> int:
    for key in ("gap_threshold_seconds", "test_window_days"):
        if not cfg[key] >= 0:  # NaN fails every comparison
            raise ConfigError(f"{key} must be non-negative, got {cfg[key]}")
    for key in ("item_coverage", "category_coverage"):
        if not 0 < cfg[key] <= 1:
            raise ConfigError(f"{key} must be in (0, 1], got {cfg[key]}")
    events = read_events(cfg["input"])
    train, test, summary = preprocess(
        events,
        gap_threshold=cfg["gap_threshold_seconds"],
        item_coverage=cfg["item_coverage"],
        category_coverage=cfg["category_coverage"],
        test_window=cfg["test_window_days"] * 86400.0,
    )
    os.makedirs(cfg["out"], exist_ok=True)
    train.save(os.path.join(cfg["out"], "train.json"))
    test.save(os.path.join(cfg["out"], "test.json"))
    text = "\n".join(summary.lines()) + "\n"
    with open(os.path.join(cfg["out"], "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


SYNTH = {
    "out": (str, REQUIRED),
    "sessions": (int, 2000),
    "items": (int, 60),
    "fields": (int, 6),
    "seed": (int, 0),
    "context_mode": (str, "informative"),
}


def cmd_synth(cfg) -> int:
    if cfg["context_mode"] not in ("informative", "random"):
        raise ConfigError(
            f"context_mode must be 'informative' or 'random', got {cfg['context_mode']!r}"
        )
    # a session visits each layer at most once, so it is at most fields + 1 long
    max_len = min(7, cfg["fields"] + 1)
    spec = GeneratorSpec(
        n_sessions=cfg["sessions"], n_items=cfg["items"], n_fields=cfg["fields"],
        min_len=min(4, max_len), max_len=max_len,
        informative=cfg["context_mode"] == "informative", seed=cfg["seed"],
    )
    events, truth = generate(spec)
    os.makedirs(cfg["out"], exist_ok=True)
    write_events(events, os.path.join(cfg["out"], "events.tsv"), truth["field_names"])
    write_truth(truth, os.path.join(cfg["out"], "truth.json"))
    c = truth["counts"]
    print(f"wrote {c['n_transactions']} events over {c['n_sessions']} sessions "
          f"({c['n_items']} items) to {cfg['out']}")
    return EXIT_OK


TRAIN = {
    "stage": (str, REQUIRED),
    "data": (str, REQUIRED),
    "out": (str, REQUIRED),
    "profile": (str, "synth"),
    "seed": (int, 0),
    "epochs": (int, None),
    "gru_checkpoint": (str, None),
    "pnn_checkpoint": (str, None),
    "check_finite": (bool, False),
}


def cmd_train(cfg) -> int:
    overrides = {}
    if cfg["epochs"] is not None:
        overrides["epochs"] = cfg["epochs"]
    plan = make_plan(cfg["stage"], cfg["profile"], cfg["seed"], **overrides)
    dataset = SessionDataset.load(cfg["data"])
    gru_ckpt = cfg["gru_checkpoint"] or os.path.join(cfg["out"], "gru.npz")
    pnn_ckpt = cfg["pnn_checkpoint"] or os.path.join(cfg["out"], "pnn.npz")
    result = run_stage(plan, dataset, cfg["out"],
                       gru_checkpoint=gru_ckpt, pnn_checkpoint=pnn_ckpt)
    history_path = os.path.join(cfg["out"], f"{cfg['stage']}_history.tsv")
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write(history_tsv(result.history, k=plan.eval_k))
    print(f"stage {cfg['stage']}: checkpoint {result.checkpoint_path}, "
          f"best validation recall@{plan.eval_k} "
          f"{result.best_recall if result.history else float('nan'):.4f}")
    return EXIT_OK


def _load_system(name: str, checkpoint_dir: str, schema_hash: str, train_data):
    if name == "itemknn":
        return build_itemknn(train_data)
    path = os.path.join(checkpoint_dir, "merge.npz" if name == "arnn" else f"{name}.npz")
    return load_checkpoint(path, schema_hash, name)


EVALUATE = {
    "data": (str, REQUIRED),
    "train_data": (str, None),
    "checkpoints": (str, None),
    "systems": (str, ",".join(SYSTEMS)),
    "k": (int, 20),
    "out": (str, None),
    "check_finite": (bool, False),
}


def cmd_evaluate(cfg) -> int:
    systems = [s.strip() for s in cfg["systems"].split(",") if s.strip()]
    if not systems:
        raise ConfigError("no systems requested")
    if cfg["k"] < 1:
        raise ConfigError(f"k must be at least 1, got {cfg['k']}")
    for name in systems:
        if name not in SYSTEMS:
            raise ConfigError(f"unknown system {name!r}")
    if "itemknn" in systems and not cfg["train_data"]:
        raise ConfigError("system 'itemknn' needs --train-data")
    if any(s != "itemknn" for s in systems) and not cfg["checkpoints"]:
        raise ConfigError("model systems need --checkpoints")
    test = SessionDataset.load(cfg["data"])
    train = SessionDataset.load(cfg["train_data"]) if cfg["train_data"] else None
    if train is not None and train.schema.hash() != test.schema.hash():
        raise SchemaError(f"{cfg['train_data']} and {cfg['data']} have different schemas")
    rows = []
    for name in systems:
        system = _load_system(name, cfg["checkpoints"], test.schema.hash(), train)
        rows.append(evaluate_system(system, test, k=cfg["k"], name=name))
    report = EvalReport(rows)
    print(report.format_table())
    if cfg["out"]:
        os.makedirs(os.path.dirname(cfg["out"]) or ".", exist_ok=True)
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    return EXIT_OK


def _parse_attrs(text: str) -> dict[str, list[str]]:
    attrs: dict[str, list[str]] = {}
    if not text:
        return attrs
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"attributes must be field=value pairs, got {part!r}")
        name, _, value = part.partition("=")
        attrs[name.strip()] = [v for v in value.strip().split("|") if v]
    return attrs


def softmax(x) -> np.ndarray:
    """Row-wise softmax with max-subtraction; 1-D input is one row."""
    x = np.asarray(x, dtype=float)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


RECOMMEND = {
    "checkpoint": (str, REQUIRED),
    "data": (str, REQUIRED),
    "items": (str, REQUIRED),
    "attrs": (str, ""),
    "k": (int, 10),
}


def cmd_recommend(cfg) -> int:
    if cfg["k"] < 1:
        raise ConfigError(f"k must be at least 1, got {cfg['k']}")
    item_ids = [s.strip() for s in cfg["items"].split(",") if s.strip()]
    if not item_ids:
        raise ConfigError("need at least one item in the session prefix")
    attrs = _parse_attrs(cfg["attrs"])
    schema = read_schema(cfg["data"])
    model = load_checkpoint(cfg["checkpoint"], schema.hash())
    unknown = [i for i in item_ids if not schema.has_item(i)]
    if unknown:
        raise VocabularyError(f"items not in the vocabulary: {', '.join(unknown)}")
    indices = [schema.item_index(i) for i in item_ids]
    context = schema.encode(attrs)
    # the prefix as a one-lane session, a step at a time
    model.reset(1)
    for step, item in enumerate(indices):
        batch = MiniBatch(np.array([item]), np.zeros(1, dtype=np.int64), [context],
                          np.array([step == 0]), np.zeros(1, dtype=np.int64))
        logits = model.logits(batch)
    probs = softmax(logits.data)[0]
    k = min(cfg["k"], len(schema.item_vocabulary))
    for rank, idx in enumerate(top_k_items(probs, k), start=1):
        print(f"{rank}\t{schema.item_vocabulary[int(idx)]}\t{probs[int(idx)]:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# name -> (handler, option table, help)
COMMANDS = {
    "preprocess": (cmd_preprocess, PREPROCESS, "events file -> train/test datasets"),
    "synth": (cmd_synth, SYNTH, "generate synthetic context-dependent sessions"),
    "train": (cmd_train, TRAIN, "train one stage (gru, pnn, or merge)"),
    "evaluate": (cmd_evaluate, EVALUATE, "score systems on a test dataset"),
    "recommend": (cmd_recommend, RECOMMEND, "top-k next items for a session prefix"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arnn",
        description="Session recommender: context-augmented recurrent model tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config")
        for key, (kind, _) in table.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=kind)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, table, _ = COMMANDS[args.command]
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve(table, file_values, {k: getattr(args, k) for k in table})
        guard = _finite_guard(cfg["check_finite"]) if "check_finite" in cfg else None
        with guard or contextlib.nullcontext():
            return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
