"""Mini-batch SGD training, official-style scoring, and analysis sweeps.

Scoring follows the shared-task convention: per base relation,
precision and recall count a prediction as correct only when base and
direction both match, wrong-direction predictions still inflate both
denominators, and the reported score is the mean F1 over the 9 bases
with Other excluded (percentages).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nm
from .corpus import (
    RELATION_BASES,
    RelationLabel,
    Sentence,
    all_labels,
    build_vocabs,
)
from .features import EmbeddingProvider, HashedEmbeddingProvider, build_dref_table
from .graph import SubGraphSet, sentence_subgraphs
from .model import Model, ModelConfig

__all__ = [
    "TrainerConfig",
    "TrainingDiverged",
    "EpochRecord",
    "TrainLog",
    "EvalReport",
    "SpanBuckets",
    "train",
    "dev_split",
    "evaluate",
    "score_predictions",
    "entity_distance",
    "span_bucket_eval",
    "row_name",
    "ablation_sweep",
    "clip_gradients",
    "metrics_json",
]


EVAL_CHUNK = 32  # sentences per batched forward in evaluation


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainerConfig:
    """Training-loop settings; a setting out of range raises ValueError naming it.

    ``epochs=0`` trains nothing and ``learning_rate=0`` steps nowhere, both
    legal; ``gradient_clip_norm=0`` turns clipping off.
    """

    batch_size: int = 50
    epochs: int = 200
    learning_rate: float = 0.1
    lr_decay: float = 0.9
    decay_patience: int = 10
    dev_fraction: float = 0.10
    seed: int = 1
    gradient_clip_norm: float = 5.0
    budget_unit: str = "epoch"  # interpret `epochs` as epochs or batch steps
    stop_at_train_accuracy: float | None = None

    def __post_init__(self):
        # written as "not (in range)" so that NaN is rejected too
        if not self.epochs >= 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not self.gradient_clip_norm >= 0:
            raise ValueError(
                f"gradient_clip_norm must be >= 0 (0 turns clipping off), got {self.gradient_clip_norm}"
            )
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_patience < 1:
            raise ValueError(f"decay_patience must be >= 1, got {self.decay_patience}")
        if not 0 < self.dev_fraction < 1:
            raise ValueError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.budget_unit not in ("epoch", "step"):
            raise ValueError(f"budget_unit must be 'epoch' or 'step', got {self.budget_unit!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochRecord:
    epoch: int
    learning_rate: float
    train_loss: float
    train_accuracy: float
    dev_macro_f1: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_f1: float = 0.0
    stopped_early: bool = False

    def to_dict(self) -> dict:
        return {
            "per_epoch": [asdict(r) for r in self.records],
            "best_epoch": self.best_epoch,
            "best_dev_f1": self.best_dev_f1,
            "stopped_early": self.stopped_early,
        }


# ---------------------------------------------------------------------------
# Scoring


@dataclass
class EvalReport:
    n: int
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: dict[str, dict]
    confusion: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": self.per_class,
            "confusion": self.confusion,
        }


def score_predictions(
    golds: list[RelationLabel], preds: list[RelationLabel]
) -> EvalReport:
    """Direction-aware per-base P/R/F1, macro-averaged over the 9 bases.

    A wrong-direction prediction of base b counts in both the gold and
    prediction totals of b but never as correct. Other is scored in
    accuracy and the confusion matrix only.
    """
    if len(golds) != len(preds):
        raise ValueError(f"{len(golds)} golds vs {len(preds)} predictions")
    label_order = {name: i for i, name in enumerate(all_labels())}
    confusion = [[0] * len(label_order) for _ in label_order]
    exact = 0
    for g, p in zip(golds, preds):
        confusion[label_order[str(g)]][label_order[str(p)]] += 1
        if g == p:
            exact += 1

    per_class = {}
    p_sum = r_sum = f_sum = 0.0
    for base in RELATION_BASES:
        gold_count = sum(1 for g in golds if g.base == base)
        pred_count = sum(1 for p in preds if p.base == base)
        correct = sum(1 for g, p in zip(golds, preds) if g == p and g.base == base)
        precision = correct / pred_count if pred_count else 0.0
        recall = correct / gold_count if gold_count else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[base] = {
            "precision": 100.0 * precision,
            "recall": 100.0 * recall,
            "f1": 100.0 * f1,
            "gold": gold_count,
            "predicted": pred_count,
            "correct": correct,
        }
        p_sum += precision
        r_sum += recall
        f_sum += f1

    k = len(RELATION_BASES)
    return EvalReport(
        n=len(golds),
        accuracy=100.0 * exact / len(golds) if golds else 0.0,
        macro_precision=100.0 * p_sum / k,
        macro_recall=100.0 * r_sum / k,
        macro_f1=100.0 * f_sum / k,
        per_class=per_class,
        confusion=confusion,
    )


# ---------------------------------------------------------------------------
# Training


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm.

    Pure rescaling: the aggregate gradient direction is unchanged; a
    max_norm of 0 leaves them as they are. Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.vdot(p.grad, p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def _dev_split(n: int, fraction: float, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    order = rng.permutation(n).tolist()
    dev_count = min(n - 1, max(1, round(fraction * n)))
    return order[dev_count:], order[:dev_count]


def dev_split(n: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """The (train, dev) index split a trainer with this seed will use."""
    return _dev_split(n, fraction, np.random.default_rng(seed))


def train(
    sentences: list[Sentence],
    model_config: ModelConfig,
    trainer_config: TrainerConfig,
    provider: EmbeddingProvider | None = None,
) -> tuple[Model, TrainLog]:
    """Train on `sentences` minus a seeded dev split; keep the best-dev model.

    Deterministic for a fixed seed: the dev split, parameter init and
    per-epoch shuffles all come from one seeded generator consumed in a
    fixed order. Raises ValueError on a sentence without a gold label and
    TrainingDiverged on a non-finite loss.
    """
    if len(sentences) < 2:
        raise ValueError("training needs at least two sentences")
    for s in sentences:
        if s.label is None:
            raise ValueError(f"instance {s.instance_id}: no gold label to train on")
    if provider is None:
        provider = HashedEmbeddingProvider(model_config.d_ctx, seed=0)

    rng = np.random.default_rng(trainer_config.seed)
    train_idx, dev_idx = _dev_split(len(sentences), trainer_config.dev_fraction, rng)
    model_seed = int(rng.integers(2**31 - 1))

    vocabs = build_vocabs(sentences)
    dref = build_dref_table(sentences, model_config.d_e) if model_config.uses_dref else None
    model = Model(model_config, vocabs, dref, seed=model_seed)
    params = list(model.parameters().values())

    graphs = [sentence_subgraphs(s, model_config.expansion_order) for s in sentences]
    dev_sentences = [sentences[i] for i in dev_idx]
    dev_graphs = [graphs[i] for i in dev_idx]

    log = TrainLog()
    lr = trainer_config.learning_rate
    best_f1 = -1.0
    best_params: dict[str, np.ndarray] = {}
    wait = 0
    steps_done = 0
    epoch = 0
    budget = trainer_config.epochs
    out_of_budget = budget <= 0

    while not out_of_budget:
        epoch += 1
        order = list(train_idx)
        rng.shuffle(order)
        loss_sum = 0.0
        seen = correct = 0
        for start in range(0, len(order), trainer_config.batch_size):
            batch = order[start : start + trainer_config.batch_size]
            nm.zero_grads(params)
            detail = model.forward([(sentences[i], graphs[i]) for i in batch], provider)
            golds = [model.vocabs.label_index(sentences[i].label) for i in batch]
            loss = nm.cross_entropy(detail.logits, golds)
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch starting at item {start}"
                )
            loss_sum += loss.item() * len(batch)  # the batch mean, weighted by its size
            seen += len(batch)
            correct += int(np.sum(np.argmax(detail.logits.value, axis=1) == golds))
            loss.backward()
            clip_gradients(params, trainer_config.gradient_clip_norm)
            for p in params:
                if p.grad is not None:
                    p.grad *= lr  # the step itself, scaled in place: no temporary
                    p.value -= p.grad
            steps_done += 1
            if trainer_config.budget_unit == "step" and steps_done >= budget:
                out_of_budget = True
                break

        dev_report = _evaluate_graphs(model, dev_sentences, dev_graphs, provider)
        record = EpochRecord(
            epoch=epoch,
            learning_rate=lr,
            train_loss=loss_sum / seen if seen else 0.0,
            train_accuracy=correct / seen if seen else 0.0,
            dev_macro_f1=dev_report.macro_f1,
        )
        log.records.append(record)

        if dev_report.macro_f1 > best_f1 + 1e-12:
            best_f1 = dev_report.macro_f1
            log.best_epoch = epoch
            best_params = {n: p.value.copy() for n, p in model.parameters().items()}
            wait = 0
        else:
            wait += 1
            if wait >= trainer_config.decay_patience:
                lr *= trainer_config.lr_decay
                wait = 0

        if (
            trainer_config.stop_at_train_accuracy is not None
            and record.train_accuracy >= trainer_config.stop_at_train_accuracy
        ):
            log.stopped_early = True
            break
        if trainer_config.budget_unit == "epoch" and epoch >= budget:
            break

    log.best_dev_f1 = max(best_f1, 0.0)
    for name, p in model.parameters().items():
        if name in best_params:
            p.value = best_params[name]
    return model, log


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(model: Model, sentences: list[Sentence], provider: EmbeddingProvider) -> EvalReport:
    graphs = [sentence_subgraphs(s, model.config.expansion_order) for s in sentences]
    return _evaluate_graphs(model, sentences, graphs, provider)


def _evaluate_graphs(
    model: Model,
    sentences: list[Sentence],
    graphs: list[SubGraphSet],
    provider: EmbeddingProvider,
) -> EvalReport:
    """``evaluate`` over sentences whose sub-graph sets are already derived."""
    if not sentences:
        return score_predictions([], [])
    for s in sentences:
        if s.label is None:
            raise ValueError(f"instance {s.instance_id}: no gold label to score against")
    instances = list(zip(sentences, graphs))
    preds = []
    for start in range(0, len(instances), EVAL_CHUNK):
        logits = model.forward(instances[start : start + EVAL_CHUNK], provider).logits.value
        preds.extend(model.vocabs.label_at(int(i)) for i in np.argmax(logits, axis=1))
    return score_predictions([s.label for s in sentences], preds)


# ---------------------------------------------------------------------------
# Span buckets


def entity_distance(sentence: Sentence) -> int:
    """Number of tokens strictly between the two entity spans."""
    if sentence.e1.end < sentence.e2.start:
        return sentence.e2.start - sentence.e1.end - 1
    return sentence.e1.start - sentence.e2.end - 1


@dataclass
class SpanBuckets:
    """Thresholds splitting an evaluation set by entity distance.

    short: k <= low; long: k >= high; medium in between. By default the
    thresholds are mean +/- std of the distances in the data; literal
    thresholds may make a bucket empty, which is reported, not an error.
    """

    low: float
    high: float
    mean: float | None = None
    std: float | None = None

    BUCKETS = ("short", "medium", "long")

    @classmethod
    def from_sentences(cls, sentences: list[Sentence]) -> "SpanBuckets":
        ks = np.array([entity_distance(s) for s in sentences], dtype=np.float64)
        mu = float(np.mean(ks))
        sigma = float(np.std(ks))
        return cls(low=mu - sigma, high=mu + sigma, mean=mu, std=sigma)

    def bucket(self, k: int) -> str:
        if k <= self.low:
            return "short"
        if k >= self.high:
            return "long"
        return "medium"


def span_bucket_eval(
    model: Model,
    sentences: list[Sentence],
    buckets: SpanBuckets,
    provider: EmbeddingProvider,
) -> dict:
    """One report per bucket; empty buckets are flagged rather than scored."""
    if not sentences:
        raise ValueError("span_bucket_eval needs a non-empty evaluation set")
    grouped: dict[str, list[Sentence]] = {b: [] for b in SpanBuckets.BUCKETS}
    for s in sentences:
        grouped[buckets.bucket(entity_distance(s))].append(s)
    out = {
        "thresholds": {"low": buckets.low, "high": buckets.high, "mean": buckets.mean, "std": buckets.std},
        "buckets": {},
    }
    for name in SpanBuckets.BUCKETS:
        members = grouped[name]
        out["buckets"][name] = {
            "size": len(members),
            "empty": not members,
            "report": evaluate(model, members, provider).to_dict() if members else None,
        }
    return out


# ---------------------------------------------------------------------------
# Ablation sweep


_GRID_AXES = ("graph_layer", "contextual", "graph_mode", "edge_mode", "expansion_order")


def row_name(config: ModelConfig) -> str:
    """Table row name like c+gat+mg+dref, with _1/_2 for expanded graphs."""
    parts = []
    if config.contextual:
        parts.append("c")
    parts.append(config.graph_layer)
    parts.append("mg" if config.graph_mode == "multi" else "sg")
    if config.edge_mode == "ctef":
        parts.append("ctef")
    elif config.edge_mode == "dref":
        parts.append("dref")
    elif config.edge_mode == "dref+ctef":
        parts.extend(["ctef", "dref"])
    name = "+".join(parts)
    if config.expansion_order:
        name += f"_{config.expansion_order}"
    return name


def ablation_sweep(
    train_sentences: list[Sentence],
    test_sentences: list[Sentence],
    base_model: ModelConfig,
    trainer_config: TrainerConfig,
    grid: dict[str, list],
    provider: EmbeddingProvider | None = None,
    csv_path: str | None = None,
) -> list[dict]:
    """Train and evaluate one model per grid cell; rows carry table-style names.

    `grid` maps a subset of {graph_layer, contextual, graph_mode,
    edge_mode, expansion_order} to the values to sweep; missing axes stay
    at the base config value.
    """
    for axis in grid:
        if axis not in _GRID_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
    if provider is None:
        provider = HashedEmbeddingProvider(base_model.d_ctx, seed=0)
    axes = [(axis, grid.get(axis, [getattr(base_model, axis)])) for axis in _GRID_AXES]
    rows = []
    for values in itertools.product(*(v for _, v in axes)):
        cell = dict(zip((a for a, _ in axes), values))
        config = replace(base_model, **cell)
        model, _ = train(train_sentences, config, trainer_config, provider)
        report = evaluate(model, test_sentences, provider)
        rows.append(
            {
                "name": row_name(config),
                **cell,
                "precision": report.macro_precision,
                "recall": report.macro_recall,
                "f1": report.macro_f1,
            }
        )
    if csv_path is not None:
        fieldnames = ["name", *_GRID_AXES, "precision", "recall", "f1"]
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# Metrics serialization


def metrics_json(
    model_config: ModelConfig,
    trainer_config: TrainerConfig,
    log: TrainLog,
    final: EvalReport,
) -> str:
    payload = {
        "config": {"model": model_config.to_dict(), "trainer": trainer_config.to_dict()},
        **log.to_dict(),
        "final": final.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
