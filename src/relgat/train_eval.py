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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nm
from .corpus import LABEL_INDEX, LABELS, RELATION_BASES, CorpusError, RelationLabel, Sentence, build_vocabs
from .features import EmbeddingProvider, HashedEmbeddingProvider, build_dref_table
# sentence_subgraphs is not called here: bench/tracing.py looks it up under this module's name
from .graph import batch_layout, sentence_subgraphs
from .model import Inputs, InstanceRows, Model, ModelConfig, check_integers, forward_inputs

__all__ = [
    "TrainerConfig",
    "TrainingDiverged",
    "EpochRecord",
    "TrainLog",
    "EvalReport",
    "train",
    "dev_split",
    "evaluate",
    "predict",
    "chunk_inputs",
    "gold_labels",
    "score_predictions",
    "entity_distance",
    "span_bucket_eval",
    "row_name",
    "ablation_sweep",
    "clip_gradients",
]


EVAL_CHUNK = 32  # sentences per batched forward in evaluation
# (9, 19): 1 where a label (column) has the base of the row
_BASE_LABELS = np.array([[label.base == base for label in LABELS] for base in RELATION_BASES], dtype=np.intp)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainerConfig:
    """Training-loop settings; a setting out of range or of the wrong kind raises ValueError naming it.

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
    stop_at_train_accuracy: float | None = None

    def __post_init__(self):
        check_integers(self, ("batch_size", "epochs", "decay_patience", "seed"))
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
        return asdict(self)


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
    size = len(LABELS)
    gold_ids = np.array([LABEL_INDEX[g] for g in golds], dtype=np.intp)
    pred_ids = np.array([LABEL_INDEX[p] for p in preds], dtype=np.intp)
    confusion = np.bincount(gold_ids * size + pred_ids, minlength=size * size).reshape(size, size)
    # per base: golds are its rows, predictions its columns, correct ones its diagonal entries
    counts = zip(
        (_BASE_LABELS @ confusion.sum(axis=1)).tolist(),
        (_BASE_LABELS @ confusion.sum(axis=0)).tolist(),
        (_BASE_LABELS @ confusion.diagonal()).tolist(),
    )

    per_class = {}
    p_sum = r_sum = f_sum = 0.0
    for base, (gold_count, pred_count, correct) in zip(RELATION_BASES, counts):
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
        accuracy=100.0 * int(confusion.trace()) / len(golds) if golds else 0.0,
        macro_precision=100.0 * p_sum / k,
        macro_recall=100.0 * r_sum / k,
        macro_f1=100.0 * f_sum / k,
        per_class=per_class,
        confusion=confusion.tolist(),
    )


# ---------------------------------------------------------------------------
# Training


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm.

    Pure rescaling: the aggregate gradient direction is unchanged; a
    max_norm of 0 leaves them as they are. Returns the pre-clip norm.

    The norm and the scaling run over each gradient's ``nm.storage``: a
    row-padded gradient buffer is read and scaled whole, padding
    included, which is zero and stays zero, so it adds nothing to the
    norm. BLAS sums the longer run in another order, so the norm may
    differ from that of an unpadded copy in its last bits.
    """
    grads = [nm.storage(p.grad) for p in params if p.grad is not None]
    norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
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
    fixed order. The model's ``embedding`` is the provider's record.
    Raises CorpusError on fewer than two sentences or one without a gold
    label, and TrainingDiverged on a non-finite loss.

    Before the first step the training split is cut, coded and paired
    once (``forward_inputs`` of its ``batch_layout``), and so is the dev
    split (``chunk_inputs``), so a sentence the cut rejects raises its
    GraphError before any forward runs; each minibatch gathers its
    instances' rows (``InstanceRows.take``), and each epoch scores the
    dev split's chunks through ``evaluate``.

    For the length of the call every parameter has one gradient buffer
    (``nm.Node.grad_buffer``) that each step's backward writes into, and
    the best-dev parameters are copied into one snapshot allocated once.
    Both take the value's layout (``nm.padded_zeros`` of its shape), so
    the step, the clip and the snapshot copy each run over contiguous
    ``nm.storage``, and a row-padded value stays padded, with zero
    padding, in the returned model. That model carries only its
    parameters: no gradient and no buffer.
    """
    if len(sentences) < 2:
        raise CorpusError("training needs at least two sentences")
    for s in sentences:
        if s.label is None:
            raise CorpusError(f"instance {s.instance_id}: no gold label to train on")
    if provider is None:
        provider = HashedEmbeddingProvider(model_config.d_ctx, seed=0)

    rng = np.random.default_rng(trainer_config.seed)
    train_idx, dev_idx = _dev_split(len(sentences), trainer_config.dev_fraction, rng)
    model_seed = int(rng.integers(2**31 - 1))

    vocabs = build_vocabs(sentences)
    dref = build_dref_table(sentences, model_config.d_e) if model_config.uses_dref else None
    model = Model(model_config, vocabs, dref, seed=model_seed)
    model.embedding = provider.record
    params = list(model.parameters().values())
    for p in params:
        p.grad_buffer = nm.padded_zeros(p.value.shape, p.value.dtype)
    # (value, gradient) storage of every parameter, for the step
    steps = [(nm.storage(p.value), nm.storage(p.grad_buffer)) for p in params]

    multi = model_config.graph_mode == "multi"
    split = [sentences[i] for i in train_idx]
    rows = InstanceRows(forward_inputs(batch_layout(split, model_config.expansion_order, multi), vocabs))
    labels = np.array([LABEL_INDEX[s.label] for s in split], dtype=np.intp)
    dev_sentences = [sentences[i] for i in dev_idx]
    dev_chunks = chunk_inputs(model, dev_sentences)

    log = TrainLog()
    lr = trainer_config.learning_rate
    best_f1 = -1.0
    best_values: list[np.ndarray] = []  # allocated at the first improvement
    wait = 0

    for epoch in range(1, trainer_config.epochs + 1):
        order = list(range(len(split)))
        rng.shuffle(order)
        loss_sum = 0.0
        seen = correct = 0
        for start in range(0, len(order), trainer_config.batch_size):
            batch = order[start : start + trainer_config.batch_size]
            nm.zero_grads(params)
            detail = model.forward(rows.take(batch), provider)
            golds = labels[batch]
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
            for p, (value, grad) in zip(params, steps):
                if p.grad is not None:
                    grad *= lr  # the step itself, scaled in place: no temporary
                    value -= grad

        dev_report = evaluate(model, dev_sentences, provider, dev_chunks)
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
            if not best_values:
                best_values = [nm.padded_zeros(p.value.shape, p.value.dtype) for p in params]
            for best, (value, _) in zip(best_values, steps):
                np.copyto(nm.storage(best), value)
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

    log.best_dev_f1 = max(best_f1, 0.0)
    for p in params:
        p.grad = p.grad_buffer = None
    for best, p in zip(best_values, params):
        p.value = best
    return model, log


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(
    model: Model, sentences: list[Sentence], provider: EmbeddingProvider, chunks: list[Inputs] | None = None
) -> EvalReport:
    """Score ``predict``'s labels against the gold ones; CorpusError if one is missing.

    ``chunks``, when given, is ``chunk_inputs(model, sentences)``, built once by the caller.
    """
    golds = gold_labels(sentences)
    return score_predictions(golds, predict(model, sentences, provider, chunks))


def gold_labels(sentences: list[Sentence]) -> list[RelationLabel]:
    """The gold label of every sentence; CorpusError if one is missing."""
    for s in sentences:
        if s.label is None:
            raise CorpusError(f"instance {s.instance_id}: no gold label to score against")
    return [s.label for s in sentences]


def chunk_inputs(model: Model, sentences: list[Sentence]) -> list[Inputs]:
    """The ``Inputs`` of ``sentences``' ``EVAL_CHUNK``-sentence chunks, in order, from one cut.

    The sentences are cut by one ``batch_layout`` and their inputs built
    by one ``forward_inputs``; each chunk of more than one gathers its
    rows (``InstanceRows.take``), equal to ``forward_inputs`` of the
    chunk's own layout.
    """
    if not sentences:
        return []
    layout = batch_layout(sentences, model.config.expansion_order, model.config.graph_mode == "multi")
    inputs = forward_inputs(layout, model.vocabs)
    if len(sentences) <= EVAL_CHUNK:
        return [inputs]
    rows = InstanceRows(inputs)
    return [
        rows.take(np.arange(start, min(start + EVAL_CHUNK, len(sentences))))
        for start in range(0, len(sentences), EVAL_CHUNK)
    ]


def predict(
    model: Model, sentences: list[Sentence], provider: EmbeddingProvider, chunks: list[Inputs] | None = None
) -> list[RelationLabel]:
    """The predicted label of every sentence, ``EVAL_CHUNK`` sentences per no-grad forward.

    ``chunks`` is ``chunk_inputs(model, sentences)``, built here when None.
    """
    if chunks is None:
        chunks = chunk_inputs(model, sentences)
    labels = []
    with nm.no_grad():
        for inputs in chunks:
            logits = model.forward(inputs, provider).logits.value
            labels.extend(LABELS[i] for i in np.argmax(logits, axis=1))
    return labels


# ---------------------------------------------------------------------------
# Span buckets


def entity_distance(sentence: Sentence) -> int:
    """Number of tokens strictly between the two entity spans."""
    if sentence.e1.end < sentence.e2.start:
        return sentence.e2.start - sentence.e1.end - 1
    return sentence.e1.start - sentence.e2.end - 1


def span_bucket_eval(sentences: list[Sentence], preds: list[RelationLabel]) -> dict:
    """Score ``preds`` per bucket of entity distance k; empty buckets are flagged rather than scored.

    With the mean and std of k over the (non-empty) sentences: short is
    k <= mean - std, long is k >= mean + std, medium lies in between.
    """
    if not sentences:
        raise ValueError("span buckets need at least one sentence")
    golds = gold_labels(sentences)
    ks = np.array([entity_distance(s) for s in sentences], dtype=np.float64)
    mean, std = float(np.mean(ks)), float(np.std(ks))
    low, high = mean - std, mean + std
    members: dict[str, list[tuple[RelationLabel, RelationLabel]]] = {"short": [], "medium": [], "long": []}
    for k, gold, pred in zip(ks, golds, preds, strict=True):
        members["short" if k <= low else "long" if k >= high else "medium"].append((gold, pred))
    buckets = {}
    for name, pairs in members.items():
        report = score_predictions([g for g, _ in pairs], [p for _, p in pairs]).to_dict() if pairs else None
        buckets[name] = {"size": len(pairs), "empty": not pairs, "report": report}
    return {"thresholds": {"low": low, "high": high, "mean": mean, "std": std}, "buckets": buckets}


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
