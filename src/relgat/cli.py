"""Command-line entry point: prepare, train, eval, predict, stats.

Settings come from an optional key=value config file overridden by
flags. Every config key is also a ``--key-name`` flag, whose value is
parsed and checked exactly like the file's. Exit codes: 0 success, 1
runtime failure, 2 usage or config error. All JSON outputs are UTF-8
with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import LABELS, CorpusError, build_vocabs, parse_conllu_annotated
from .features import (
    FeatureError, FileEmbeddingProvider, HashedEmbeddingProvider, build_dref_table, file_record,
)
from .graph import subgraph_size_histograms
from .model import ModelConfig
from .train_eval import (
    TrainerConfig,
    dev_split,
    entity_distance,
    evaluate,
    gold_labels,
    predict,
    score_predictions,
    span_bucket_eval,
    train,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation, config or missing input: exit code 2."""


def _field_types(cls, skip=()) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


_MODEL_KEYS = _field_types(ModelConfig)
_TRAINER_KEYS = _field_types(TrainerConfig, skip=("stop_at_train_accuracy",))
_PATH_KEYS = ("train", "test", "embeddings", "out_dir")
# Every key a config file may set, with the type its value parses to.
_KEY_TYPES = {
    **_MODEL_KEYS, **_TRAINER_KEYS, **dict.fromkeys(_PATH_KEYS, str), "embedding_seed": int,
}
_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, raw: str):
    """A flag's or config file's string value as its key's type; the error names the key."""
    kind = _KEY_TYPES[key]
    if kind is bool:
        low = raw.strip().lower()
        if low not in _BOOL_STRINGS:
            raise UsageError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[low]
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise UsageError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    return raw.strip()


def _existing(path: str, what: str) -> str:
    """``path``, if a file is there; else a UsageError naming it as the ``what``."""
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _decode(data: bytes, source: str, error: type[Exception]) -> str:
    """``data`` as UTF-8 text with universal newlines, as ``open(path, encoding="utf-8")`` reads it.

    An undecodable byte raises ``error`` naming ``source`` and the byte's line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{source}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path: str, what: str, error: type[Exception]) -> str:
    """The ``_decode``d text of the ``what`` file at ``path``."""
    with open(_existing(path, what), "rb") as f:
        return _decode(f.read(), path, error)


def _read_config_file(path: str) -> dict:
    values, line_of = {}, {}
    for lineno, line in enumerate(_read_text(path, "config file", UsageError).split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in line_of:
            raise UsageError(f"{path}:{lineno}: repeated config key {key!r} (first at line {line_of[key]})")
        line_of[key] = lineno
        values[key] = _parse_value(key, raw.strip())
    return values


@dataclass
class RunConfig:
    model: ModelConfig
    trainer: TrainerConfig
    train: str | None
    test: str | None
    embeddings: str | None
    out_dir: str | None
    embedding_seed: int

    @classmethod
    def merge(cls, args: argparse.Namespace) -> "RunConfig":
        """Config-file values overridden by flags, both parsed by ``_parse_value``.

        The config dataclasses' own checks are the only range checks.
        """
        values = _read_config_file(args.config) if args.config else {}
        for key in _KEY_TYPES:
            raw = getattr(args, key, None)
            if raw is not None:
                values[key] = _parse_value(key, raw)
        try:
            model = ModelConfig(**{k: values[k] for k in _MODEL_KEYS if k in values})
            trainer = TrainerConfig(**{k: values[k] for k in _TRAINER_KEYS if k in values})
        except ValueError as exc:  # ModelConfig's ConfigError is one too
            raise UsageError(str(exc)) from None
        paths = {k: values.get(k) for k in _PATH_KEYS}
        return cls(model, trainer, **paths, embedding_seed=values.get("embedding_seed", 0))


@contextlib.contextmanager
def _naming(source: str):
    """Put ``source`` in front of a CorpusError raised in the block."""
    try:
        yield
    except CorpusError as exc:
        raise CorpusError(f"{source}: {exc}") from None


def _read_corpus(path: str | None, what: str):
    """The annotated CoNLL-U sentences of the ``what`` file; a CorpusError names it.

    A corpus must be named and hold a sentence. Only predict's ``input``
    may be empty, and reads stdin, named ``<stdin>``, for ``-``.
    """
    predict = what == "input"
    if not (path or predict):
        raise UsageError(f"missing {what} path")
    if predict and path == "-":
        path, text = "<stdin>", _decode(sys.stdin.buffer.read(), "<stdin>", CorpusError)
    else:
        text = _read_text(path, what, CorpusError)
    with _naming(path):
        sentences = parse_conllu_annotated(text)
    if not (sentences or predict):
        raise CorpusError(f"{path}: empty corpus")
    return sentences


def _provider(embeddings: str | None, dim: int, seed: int):
    """Vectors from the ``embeddings`` file if one is given, else hashed ones."""
    if embeddings:
        return FileEmbeddingProvider(_read_text(embeddings, "embeddings file", FeatureError), dim, embeddings)
    return HashedEmbeddingProvider(dim, seed)


def _provider_for_checkpoint(model, embeddings_path: str | None):
    """The provider a loaded model was trained with; ``--embeddings`` must be the file it read.

    The file's digest is compared with the checkpoint's record before any line is parsed.
    """
    record, dim = model.embedding, model.config.d_ctx
    if record["kind"] == "hashed":
        if embeddings_path:
            raise UsageError("checkpoint was trained on hashed embeddings; drop --embeddings")
        return HashedEmbeddingProvider(dim, record["seed"])
    if not embeddings_path:
        raise UsageError("checkpoint was trained on file embeddings; pass --embeddings")
    text = _read_text(embeddings_path, "embeddings file", FeatureError)
    if file_record(text) != record:
        raise UsageError(f"{embeddings_path}: not the embeddings file the checkpoint was trained on")
    return FileEmbeddingProvider(text, dim, embeddings_path)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_json_text(payload))


def _ensure_out_dir(run: RunConfig) -> str:
    if not run.out_dir:
        raise UsageError("missing output directory (--out-dir)")
    os.makedirs(run.out_dir, exist_ok=True)
    return run.out_dir


# ---------------------------------------------------------------------------
# Subcommands


def cmd_prepare(args: argparse.Namespace) -> int:
    run = RunConfig.merge(args)
    sentences = _read_corpus(run.train, "train corpus")
    out = _ensure_out_dir(run)
    vocabs = build_vocabs(sentences)
    table = build_dref_table(sentences, run.model.d_e)
    distances = [entity_distance(s) for s in sentences]
    label_counts: dict[str, int] = {}
    for s in sentences:
        key = str(s.label) if s.label is not None else "<unlabeled>"
        label_counts[key] = label_counts.get(key, 0) + 1
    _write_json(os.path.join(out, "dref.json"), table.to_json_dict())
    _write_json(
        os.path.join(out, "vocabs.json"),
        {
            "pos": vocabs.pos.symbols(),
            "deprel": vocabs.deprel.symbols(),
            "ner": vocabs.ner.symbols(),
            "label": [str(label) for label in LABELS],
        },
    )
    _write_json(
        os.path.join(out, "stats.json"),
        {
            "sentences": len(sentences),
            "tokens": sum(len(s) for s in sentences),
            "labels": label_counts,
            "entity_distance": {
                "mean": float(sum(distances)) / len(distances),
                "min": min(distances),
                "max": max(distances),
            },
            "subgraph_sizes": subgraph_size_histograms(sentences, run.model.expansion_order),
        },
    )
    print(f"prepared {len(sentences)} sentences -> {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.merge(args)
    sentences = _read_corpus(run.train, "train corpus")
    test = _read_corpus(run.test, "test corpus") if run.test else None
    provider = _provider(run.embeddings, run.model.d_ctx, run.embedding_seed)
    out = _ensure_out_dir(run)
    with _naming(run.train):
        model, log = train(sentences, run.model, run.trainer, provider)
    if test is None:
        # no test set given: the final report scores the held-out dev split
        _, dev_idx = dev_split(len(sentences), run.trainer.dev_fraction, run.trainer.seed)
        final = evaluate(model, [sentences[i] for i in dev_idx], provider)
    else:
        with _naming(run.test):
            final = evaluate(model, test, provider)
    checkpoint_path = os.path.join(out, "model.ckpt")
    save_checkpoint(model, checkpoint_path)
    config = {"model": asdict(run.model), "trainer": asdict(run.trainer)}
    _write_json(os.path.join(out, "metrics.json"), {"config": config, **log.to_dict(), "final": final.to_dict()})
    print(f"best dev macro-F1 (excluding Other): {log.best_dev_f1:.4f}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(_existing(args.checkpoint, "checkpoint"))
    sentences = _read_corpus(args.test, "test corpus")
    provider = _provider_for_checkpoint(model, args.embeddings)
    with _naming(args.test):
        golds = gold_labels(sentences)
        preds = predict(model, sentences, provider)
    report = score_predictions(golds, preds)
    payload = report.to_dict()
    if args.span_buckets:
        payload["span_buckets"] = span_bucket_eval(sentences, preds)
    if args.out:
        _write_json(args.out, payload)
    print(f"macro-F1 (excluding Other): {report.macro_f1:.4f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_checkpoint(_existing(args.checkpoint, "checkpoint"))
    sentences = _read_corpus(args.input, "input")
    provider = _provider_for_checkpoint(model, args.embeddings)
    for label in predict(model, sentences, provider):
        print(str(label))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    sentences = _read_corpus(args.data, "data corpus")
    payload = {
        "sentences": len(sentences),
        "expansion_order": args.expansion_order,
        "subgraph_sizes": subgraph_size_histograms(sentences, args.expansion_order),
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        sys.stdout.write(_json_text(payload))
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


def _add_key_flags(p: argparse.ArgumentParser, keys) -> None:
    """One ``--key-name`` flag per config key, kept as a string for ``RunConfig.merge``."""
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgat",
        description="Relation extraction over dependency sub-graphs with an edge-featured graph attention network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="write dref.json, vocabs.json and stats.json for a corpus")
    p.add_argument("--config")
    _add_key_flags(p, ("train", "out_dir", "d_e", "expansion_order"))
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics JSON")
    p.add_argument("--config")
    _add_key_flags(p, _KEY_TYPES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a test corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--out")
    p.add_argument("--span-buckets", dest="span_buckets", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print one relation label per input sentence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", default="-")
    p.add_argument("--embeddings")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stats", help="emit per-corpus sub-graph size histograms as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--expansion-order", dest="expansion_order", type=int, choices=[0, 1, 2], default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
