"""The three benchmark workloads, driven through relgat's public API.

Every call into the program goes through a module attribute
(`corpus.parse_conllu_annotated`, `train_eval.train`, ...) so a traced run
sees it once `tracing.Tracer.install()` has swapped that attribute.

A workload has four steps:
  prepare  make the inputs from the seed (untimed; the program's own
           output such as a checkpoint counts as input here)
  setup    what a user pays before the first timed call (`setup_s`)
  unit     the workload's main call, timed as a whole (`sent_per_s`)
  predict  the `relgat predict` path with the unit's model, one sentence
           at a time, each timed (`predict_ms_p50`, `predict_ms_p95`)
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import synth
from relgat import checkpoint, corpus, features, graph, model, train_eval


@dataclass
class Gates:
    """Operations attempted and the failures among them, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.reasons.append(reason)


@dataclass
class State:
    sentences: list
    provider: features.HashedEmbeddingProvider
    model: model.Model | None = None


@dataclass
class Unit:
    sentences: int  # sentences the main call processed
    wall_s: float
    outcome: object  # comparable result: the train log or the eval report
    model: model.Model | None  # the model the predict path then serves


def predict_sentence(model_: model.Model, sentence, provider) -> str:
    """`relgat predict` for one sentence: cut its sub-graphs, run one forward."""
    sgs = graph.sentence_subgraphs(sentence, model_.config.expansion_order)
    return str(model_.vocabs.label_at(model_.predict_index(sentence, sgs, provider)))


class Workload:
    name: str
    why: str
    call: str  # the public function the unit times
    throughput_name: str  # what `sent_per_s` is called on this workload
    model_config: model.ModelConfig
    predict_passes: int = 1

    def prepare(self, seed: int, root: str, out_dir: str) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> State:
        raise NotImplementedError

    def slices(self, state: State) -> list[list]:
        """The sentence lists one round passes to `unit`, one call each."""
        return [state.sentences]

    def unit(self, state: State, sentences: list, inputs: dict, gates: Gates) -> Unit:
        raise NotImplementedError

    def check_predictions(self, state: State, outcomes: list, labels: list[str], gates: Gates) -> None:
        pass

    def cleanup(self, inputs: dict) -> None:
        pass


class TrainWorkload(Workload):
    """`train()` on a corpus; the trained model then serves the predict path."""

    call = "train"
    throughput_name = "train_sent_per_s"

    def __init__(self, name, why, model_config, trainer_config, corpus_spec=None,
                 require_full_accuracy=False, predict_passes=1):
        self.name = name
        self.why = why
        self.model_config = model_config
        self.trainer_config = trainer_config
        self.corpus_spec = corpus_spec  # None: the shipped toy corpus
        self.require_full_accuracy = require_full_accuracy
        self.predict_passes = predict_passes

    def prepare(self, seed, root, out_dir):
        if self.corpus_spec is None:
            with open(os.path.join(root, "data", "toy_train.conllu"), encoding="utf-8") as f:
                text = f.read()
            info = {"corpus": "data/toy_train.conllu", "digest": synth.digest(text)}
        else:
            text = synth.generate(self.corpus_spec, seed)
            info = synth.check(text, self.model_config.expansion_order)
        return {"text": text, "seed": seed, "corpus": info}

    def setup(self, inputs):
        # The stages train() runs before its first step, through the same calls.
        cfg = self.model_config
        sentences = corpus.parse_conllu_annotated(inputs["text"])
        vocabs = corpus.build_vocabs(sentences)
        dref = features.build_dref_table(sentences, cfg.d_e) if cfg.uses_dref else None
        model.Model(cfg, vocabs, dref, seed=0)
        for sentence in sentences:
            graph.sentence_subgraphs(sentence, cfg.expansion_order)
        return State(sentences, features.HashedEmbeddingProvider(cfg.d_ctx, seed=0))

    def unit(self, state, sentences, inputs, gates):
        trainer = train_eval.TrainerConfig(**{**self.trainer_config, "seed": inputs["seed"]})
        start = time.perf_counter()
        try:
            trained, log = train_eval.train(sentences, self.model_config, trainer, state.provider)
        except train_eval.TrainingDiverged as exc:
            gates.check(False, f"{self.name}: {exc}")
            return Unit(0, time.perf_counter() - start, None, None)
        wall = time.perf_counter() - start
        n_train = len(train_eval.dev_split(len(sentences), trainer.dev_fraction, trainer.seed)[0])
        stepped = n_train * len(log.records)
        gates.check(
            all(math.isfinite(r.train_loss) for r in log.records),
            f"{self.name}: non-finite training loss", stepped,
        )
        if self.require_full_accuracy:
            best = max(r.train_accuracy for r in log.records)
            gates.check(best == 1.0, f"{self.name}: train accuracy peaked at {best}")
        return Unit(stepped, wall, log.to_dict(), trained)


class InferWorkload(Workload):
    """`evaluate()` and the predict path with a checkpointed, untrained model."""

    call = "evaluate"
    throughput_name = "infer_sent_per_s"

    MODEL_SEED = 0

    def __init__(self, name, why, model_config, corpus_spec, slice_size, predict_passes=1):
        self.name = name
        self.why = why
        self.model_config = model_config
        self.corpus_spec = corpus_spec
        self.slice_size = slice_size
        self.predict_passes = predict_passes

    def prepare(self, seed, root, out_dir):
        text = synth.generate(self.corpus_spec, seed)
        info = synth.check(text, self.model_config.expansion_order)
        sentences = corpus.parse_conllu_annotated(text)
        cfg = self.model_config
        dref = features.build_dref_table(sentences, cfg.d_e) if cfg.uses_dref else None
        built = model.Model(cfg, corpus.build_vocabs(sentences), dref, seed=self.MODEL_SEED)
        path = os.path.join(out_dir, f"{self.name}-{seed}-{os.getpid()}.ckpt")
        checkpoint.save_checkpoint(built, path)
        return {"text": text, "seed": seed, "corpus": info, "checkpoint": path}

    def setup(self, inputs):
        sentences = corpus.parse_conllu_annotated(inputs["text"])
        loaded = checkpoint.load_checkpoint(inputs["checkpoint"])
        provider = features.HashedEmbeddingProvider(loaded.config.d_ctx, seed=0)
        return State(sentences, provider, loaded)

    def slices(self, state):
        # Several evaluate() calls per pass, so the machine's speed is
        # sampled every slice_size sentences (see speed.py).
        n = self.slice_size
        return [state.sentences[i : i + n] for i in range(0, len(state.sentences), n)]

    def unit(self, state, sentences, inputs, gates):
        start = time.perf_counter()
        report = train_eval.evaluate(state.model, sentences, state.provider)
        wall = time.perf_counter() - start
        gates.check(report.n == len(sentences), f"{self.name}: evaluate() scored {report.n} sentences")
        return Unit(len(sentences), wall, report.to_dict(), state.model)

    def check_predictions(self, state, outcomes, labels, gates):
        """Each evaluate() report equals the score of the predict-path labels."""
        start = 0
        for part, outcome in zip(self.slices(state), outcomes):
            golds = [s.label for s in part]
            preds = [corpus.RelationLabel.parse(label) for label in labels[start : start + len(part)]]
            start += len(part)
            same = train_eval.score_predictions(golds, preds).to_dict() == outcome
            gates.check(same, f"{self.name}: evaluate() and the predict path disagree")

    def cleanup(self, inputs):
        if os.path.exists(inputs["checkpoint"]):
            os.remove(inputs["checkpoint"])


SMALL_DIMS = dict(d_ctx=32, d_f=8, d_wt=4, d_lstm=16, d_g=16, d_e=8)

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train-paper",
            "train() at the paper's dims (768/256/256, 4 heads, dref) on the toy corpus: "
            "the autodiff backward and its large GEMMs dominate",
            model.ModelConfig(edge_mode="dref"),
            dict(batch_size=6, epochs=10, stop_at_train_accuracy=1.0),
            require_full_accuracy=True,
            predict_passes=3,
        ),
        InferWorkload(
            "infer-long",
            "evaluate() and the predict path at small dims on long synthetic trees "
            "(order-2 paths, dref+ctef, GAT): BiLSTM, GAT loops, edge features, sub-graphs",
            model.ModelConfig(**SMALL_DIMS, heads=2, edge_mode="dref+ctef", expansion_order=2),
            synth.CorpusSpec(sentences=240),
            slice_size=24,
        ),
        TrainWorkload(
            "train-long",
            "train() at small dims with a depth-2 GCN and ctef on long synthetic trees: "
            "per-node backward overhead and the only GCN path",
            model.ModelConfig(
                **SMALL_DIMS, heads=2, graph_layer="gcn", graph_depth=2, edge_mode="ctef", expansion_order=1
            ),
            dict(batch_size=8, epochs=1),
            corpus_spec=synth.CorpusSpec(sentences=160),
        ),
    )
}
