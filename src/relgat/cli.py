"""Command-line entry point: prepare, train, eval, predict, stats.

Settings come from an optional key=value config file overridden by
flags. Exit codes: 0 success, 1 runtime failure, 2 usage or config
error. All JSON outputs are UTF-8 with sorted keys so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, fields

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import build_vocabs, parse_conllu_annotated
from .features import EDGE_MODES, FileEmbeddingProvider, HashedEmbeddingProvider, build_dref_table
from .graph import subgraph_size_histograms
from .model import GRAPH_LAYERS, GRAPH_MODES, ConfigError, ModelConfig
from .train_eval import (
    SpanBuckets,
    TrainerConfig,
    dev_split,
    entity_distance,
    evaluate,
    metrics_json,
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
    kind = _KEY_TYPES[key]
    if kind is bool:
        low = raw.strip().lower()
        if low not in _BOOL_STRINGS:
            raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[low]
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise UsageError(f"config key {key}: bad value {raw!r}") from None
    return raw.strip()


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, raw = body.partition("=")
            key = key.strip()
            if key not in _KEY_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
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
        file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

        def pick(key, fallback):
            flag = getattr(args, key, None)
            if flag is not None:
                return flag
            return file_values.get(key, fallback)

        try:
            model = ModelConfig(
                **{k: pick(k, getattr(ModelConfig(), k)) for k in _MODEL_KEYS}
            )
            trainer = TrainerConfig(
                **{k: pick(k, getattr(TrainerConfig(), k)) for k in _TRAINER_KEYS}
            )
        except (ConfigError, ValueError) as exc:
            raise UsageError(str(exc)) from None
        return cls(
            model=model,
            trainer=trainer,
            train=pick("train", None),
            test=pick("test", None),
            embeddings=pick("embeddings", None),
            out_dir=pick("out_dir", None),
            embedding_seed=pick("embedding_seed", 0),
        )


def _load_corpus(path: str | None, what: str):
    if not path:
        raise UsageError(f"missing {what} corpus path")
    if not os.path.exists(path):
        raise UsageError(f"{what} corpus not found: {path}")
    with open(path, encoding="utf-8") as f:
        return parse_conllu_annotated(f.read())


def _make_provider(run: RunConfig):
    if run.embeddings:
        if not os.path.exists(run.embeddings):
            raise UsageError(f"embeddings file not found: {run.embeddings}")
        return FileEmbeddingProvider.from_path(run.embeddings, run.model.d_ctx), {
            "kind": "file",
            "dim": run.model.d_ctx,
        }
    info = {"kind": "hashed", "dim": run.model.d_ctx, "seed": run.embedding_seed}
    return HashedEmbeddingProvider(run.model.d_ctx, run.embedding_seed), info


def _provider_for_checkpoint(model, embeddings_path: str | None):
    info = getattr(model, "embedding_info", None) or {}
    dim = info.get("dim", model.config.d_ctx)
    if embeddings_path:
        if not os.path.exists(embeddings_path):
            raise UsageError(f"embeddings file not found: {embeddings_path}")
        return FileEmbeddingProvider.from_path(embeddings_path, dim)
    if info.get("kind") == "file":
        raise UsageError("checkpoint was trained on file embeddings; pass --embeddings")
    return HashedEmbeddingProvider(dim, info.get("seed", 0))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _ensure_out_dir(run: RunConfig) -> str:
    if not run.out_dir:
        raise UsageError("missing output directory (--out-dir)")
    os.makedirs(run.out_dir, exist_ok=True)
    return run.out_dir


# ---------------------------------------------------------------------------
# Subcommands


def cmd_prepare(args: argparse.Namespace) -> int:
    run = RunConfig.merge(args)
    sentences = _load_corpus(run.train, "train")
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
            "label": vocabs.label.symbols(),
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
    sentences = _load_corpus(run.train, "train")
    out = _ensure_out_dir(run)
    provider, embedding_info = _make_provider(run)
    model, log = train(sentences, run.model, run.trainer, provider)
    if run.test:
        final = evaluate(model, _load_corpus(run.test, "test"), provider)
    else:
        # no test set given: the final report scores the held-out dev split
        _, dev_idx = dev_split(len(sentences), run.trainer.dev_fraction, run.trainer.seed)
        final = evaluate(model, [sentences[i] for i in dev_idx], provider)
    checkpoint_path = os.path.join(out, "model.ckpt")
    save_checkpoint(model, checkpoint_path, embedding_info)
    with open(os.path.join(out, "metrics.json"), "w", encoding="utf-8", newline="\n") as f:
        f.write(metrics_json(run.model, run.trainer, log, final))
    print(f"best dev macro-F1 (excluding Other): {log.best_dev_f1:.4f}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not os.path.exists(args.checkpoint):
        raise UsageError(f"checkpoint not found: {args.checkpoint}")
    model = load_checkpoint(args.checkpoint)
    sentences = _load_corpus(args.test, "test")
    provider = _provider_for_checkpoint(model, args.embeddings)
    report = evaluate(model, sentences, provider)
    payload = report.to_dict()
    if args.span_buckets:
        buckets = SpanBuckets.from_sentences(sentences)
        payload["span_buckets"] = span_bucket_eval(model, sentences, buckets, provider)
    if args.out:
        _write_json(args.out, payload)
    print(f"macro-F1 (excluding Other): {report.macro_f1:.4f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if not os.path.exists(args.checkpoint):
        raise UsageError(f"checkpoint not found: {args.checkpoint}")
    model = load_checkpoint(args.checkpoint)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        if not os.path.exists(args.input):
            raise UsageError(f"input not found: {args.input}")
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    sentences = parse_conllu_annotated(text)
    provider = _provider_for_checkpoint(model, args.embeddings)
    from .graph import sentence_subgraphs

    for sentence in sentences:
        sgs = sentence_subgraphs(sentence, model.config.expansion_order)
        index = model.predict_index(sentence, sgs, provider)
        print(str(model.vocabs.label_at(index)))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    sentences = _load_corpus(args.data, "data")
    payload = {
        "sentences": len(sentences),
        "expansion_order": args.expansion_order,
        "subgraph_sizes": subgraph_size_histograms(sentences, args.expansion_order),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-ctx", dest="d_ctx", type=int)
    p.add_argument("--d-f", dest="d_f", type=int)
    p.add_argument("--d-wt", dest="d_wt", type=int)
    p.add_argument("--d-lstm", dest="d_lstm", type=int)
    p.add_argument("--d-g", dest="d_g", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--d-e", dest="d_e", type=int)
    p.add_argument("--graph-layer", dest="graph_layer", choices=GRAPH_LAYERS)
    p.add_argument("--graph-depth", dest="graph_depth", type=int)
    p.add_argument("--contextual", type=_bool_flag)
    p.add_argument("--graph-mode", dest="graph_mode", choices=GRAPH_MODES)
    p.add_argument("--edge-mode", dest="edge_mode", choices=EDGE_MODES)
    p.add_argument("--expansion-order", dest="expansion_order", type=int, choices=[0, 1, 2])
    p.add_argument("--dref-scale-by-ratio", dest="dref_scale_by_ratio", type=_bool_flag)


def _add_trainer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--lr-decay", dest="lr_decay", type=float)
    p.add_argument("--decay-patience", dest="decay_patience", type=int)
    p.add_argument("--dev-fraction", dest="dev_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--gradient-clip-norm", dest="gradient_clip_norm", type=float)
    p.add_argument("--budget-unit", dest="budget_unit", choices=["epoch", "step"])


def _bool_flag(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in _BOOL_STRINGS:
        raise argparse.ArgumentTypeError(f"expected a boolean, got {raw!r}")
    return _BOOL_STRINGS[low]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgat",
        description="Relation extraction over dependency sub-graphs with an edge-featured graph attention network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="write dref.json, vocabs.json and stats.json for a corpus")
    p.add_argument("--config")
    p.add_argument("--train")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--d-e", dest="d_e", type=int)
    p.add_argument("--expansion-order", dest="expansion_order", type=int, choices=[0, 1, 2])
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics JSON")
    p.add_argument("--config")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--embeddings")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--embedding-seed", dest="embedding_seed", type=int)
    _add_model_flags(p)
    _add_trainer_flags(p)
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
