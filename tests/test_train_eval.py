"""Training loop, official-style scorer, span buckets, ablation rows."""

import functools
from collections import Counter

import numpy as np
import pytest

from relgat import numerics as nm
from relgat import train_eval
from relgat.corpus import RELATION_BASES, RelationLabel, all_labels, parse_conllu_annotated
from relgat.features import EmbeddingProvider, HashedEmbeddingProvider
from relgat.model import Model, ModelConfig
from relgat.train_eval import (
    SpanBuckets,
    TrainerConfig,
    TrainingDiverged,
    ablation_sweep,
    clip_gradients,
    dev_split,
    entity_distance,
    evaluate,
    metrics_json,
    row_name,
    score_predictions,
    span_bucket_eval,
    train,
)
from conftest import conllu_block

TINY = dict(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def labels(*names):
    return [RelationLabel.parse(n) for n in names]


# ---------------------------------------------------------------------------
# Scorer


class TestScorer:
    def test_perfect_predictions_score_100(self):
        golds = labels(*all_labels())
        report = score_predictions(golds, list(golds))
        assert report.macro_f1 == 100.0
        assert report.accuracy == 100.0

    def test_all_other_scores_zero(self):
        golds = labels("Cause-Effect(e1,e2)", "Component-Whole(e2,e1)", "Other")
        preds = labels("Other", "Other", "Other")
        report = score_predictions(golds, preds)
        assert report.macro_f1 == 0.0

    def test_hand_scored_twelve_instance_fixture(self):
        golds = labels(
            "Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)",
            "Component-Whole(e1,e2)", "Component-Whole(e1,e2)", "Component-Whole(e2,e1)",
            "Other", "Other", "Instrument-Agency(e1,e2)", "Instrument-Agency(e2,e1)",
            "Other", "Cause-Effect(e1,e2)",
        )
        preds = labels(
            "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)", "Cause-Effect(e2,e1)",
            "Cause-Effect(e1,e2)", "Component-Whole(e1,e2)", "Other",
            "Other", "Cause-Effect(e1,e2)", "Instrument-Agency(e1,e2)",
            "Instrument-Agency(e1,e2)", "Component-Whole(e1,e2)", "Instrument-Agency(e2,e1)",
        )
        report = score_predictions(golds, preds)
        # by hand: CE P=2/5 R=2/4 F=4/9; CW P=1/2 R=1/3 F=2/5; IA P=1/3 R=1/2 F=2/5
        assert report.per_class["Cause-Effect"]["precision"] == pytest.approx(40.0)
        assert report.per_class["Cause-Effect"]["recall"] == pytest.approx(50.0)
        assert report.per_class["Component-Whole"]["f1"] == pytest.approx(40.0)
        assert report.per_class["Instrument-Agency"]["f1"] == pytest.approx(40.0)
        assert report.macro_f1 == pytest.approx(13.8272, abs=5e-5)

    def test_wrong_direction_counts_in_both_denominators(self):
        golds = labels("Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)")
        preds = labels("Cause-Effect(e2,e1)", "Cause-Effect(e1,e2)")
        report = score_predictions(golds, preds)
        cell = report.per_class["Cause-Effect"]
        assert cell["gold"] == 2 and cell["predicted"] == 2 and cell["correct"] == 1
        assert cell["precision"] == pytest.approx(50.0)

    def test_matches_count_based_recomputation(self):
        rng = np.random.default_rng(19)
        space = all_labels()
        golds = [RelationLabel.parse(space[i]) for i in rng.integers(0, 19, size=200)]
        preds = [RelationLabel.parse(space[i]) for i in rng.integers(0, 19, size=200)]
        report = score_predictions(golds, preds)

        gold_count = Counter(g.base for g in golds)
        pred_count = Counter(p.base for p in preds)
        correct = Counter(g.base for g, p in zip(golds, preds) if g == p)
        total = 0.0
        for base in RELATION_BASES:
            p = correct[base] / pred_count[base] if pred_count[base] else 0.0
            r = correct[base] / gold_count[base] if gold_count[base] else 0.0
            total += 2 * p * r / (p + r) if p + r else 0.0
        assert report.macro_f1 == pytest.approx(100.0 * total / 9, abs=1e-9)

    def test_confusion_matrix_counts(self):
        golds = labels("Cause-Effect(e1,e2)", "Other")
        preds = labels("Other", "Other")
        report = score_predictions(golds, preds)
        order = all_labels()
        assert report.confusion[order.index("Cause-Effect(e1,e2)")][order.index("Other")] == 1
        assert report.confusion[order.index("Other")][order.index("Other")] == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_predictions(labels("Other"), [])


# ---------------------------------------------------------------------------
# Training mechanics


class TestTraining:
    def test_dev_split_disjoint_and_stable(self):
        a_train, a_dev = dev_split(20, 0.10, seed=5)
        b_train, b_dev = dev_split(20, 0.10, seed=5)
        assert a_train == b_train and a_dev == b_dev
        assert set(a_train) & set(a_dev) == set()
        assert sorted(a_train + a_dev) == list(range(20))
        assert len(a_dev) == 2

    def test_zero_learning_rate_keeps_parameters(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        tc = TrainerConfig(epochs=1, learning_rate=0.0, seed=3)
        model, _ = train(toy_corpus, cfg, tc)
        reference, _ = train(toy_corpus, cfg, TrainerConfig(epochs=0, seed=3))
        # epochs=0 runs no updates; zero-lr training must match it exactly
        for (name, p), (_, q) in zip(model.parameters().items(), reference.parameters().items()):
            assert np.array_equal(p.value, q.value), name

    def test_same_seed_identical_parameters(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        tc = TrainerConfig(epochs=3, seed=11)
        a, log_a = train(toy_corpus, cfg, tc)
        b, log_b = train(toy_corpus, cfg, tc)
        for (name, p), (_, q) in zip(a.parameters().items(), b.parameters().items()):
            assert np.array_equal(p.value, q.value), name
        assert log_a.to_dict() == log_b.to_dict()

    def test_step_budget(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        tc = TrainerConfig(epochs=3, budget_unit="step", batch_size=5, seed=1)
        _, log = train(toy_corpus, cfg, tc)
        # 18 training sentences in batches of 5 -> 3 steps end inside epoch 1
        assert len(log.records) == 1

    def test_train_loss_is_mean_of_row_losses(self, toy_corpus, monkeypatch):
        # train() weights each batch's mean loss by its size: with 18 training
        # sentences in batches of 5, 5, 5 and 3 the epoch loss is still the
        # mean of the per-row losses, to rounding in a float64 model
        batches = []
        loss_of = nm.cross_entropy

        def recorded(logits, labels):
            batches.append((logits.value.copy(), list(labels)))
            return loss_of(logits, labels)

        monkeypatch.setattr(nm, "cross_entropy", recorded)
        monkeypatch.setattr(train_eval, "Model", functools.partial(Model, dtype=np.float64))
        _, log = train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=2, batch_size=5, seed=4))
        assert [len(labels) for _, labels in batches] == [5, 5, 5, 3] * 2
        for epoch, record in enumerate(log.records):
            rows = [
                loss_of(nm.constant(logits[b : b + 1]), [label]).item()
                for logits, labels in batches[4 * epoch : 4 * epoch + 4]
                for b, label in enumerate(labels)
            ]
            assert record.train_loss == pytest.approx(np.mean(rows), rel=1e-12, abs=0)

    def test_subgraphs_derived_once_per_sentence(self, toy_corpus, monkeypatch):
        # the per-epoch dev evaluation reuses the sub-graphs train() derived
        calls = []
        derive = train_eval.sentence_subgraphs

        def counted(sentence, order=0):
            calls.append(sentence)
            return derive(sentence, order)

        monkeypatch.setattr(train_eval, "sentence_subgraphs", counted)
        _, log = train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=3, seed=1))
        assert len(log.records) == 3
        assert len(calls) == len(toy_corpus)

    def test_divergence_reported_with_position(self, toy_corpus):
        class NanProvider(EmbeddingProvider):
            dim = 6

            def vectors(self, sentence):
                return np.full((len(sentence), self.dim), np.nan)

        provider = NanProvider()
        cfg = ModelConfig(**TINY)
        with pytest.raises(TrainingDiverged) as err:
            train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1), provider)
        assert "epoch 1" in str(err.value)

    def test_unlabeled_sentence_rejected_before_setup(self, toy_corpus, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("train() built its vocabularies before checking labels")

        monkeypatch.setattr(train_eval, "build_vocabs", unreachable)
        toy_corpus[3].label = None
        with pytest.raises(ValueError) as err:
            train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=1, seed=1))
        assert f"instance {toy_corpus[3].instance_id}" in str(err.value)
        assert "label" in str(err.value)

    def test_small_toy_overfits_quickly(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        tc = TrainerConfig(epochs=60, learning_rate=0.2, seed=5, stop_at_train_accuracy=1.0)
        _, log = train(toy_corpus, cfg, tc)
        assert max(r.train_accuracy for r in log.records) == 1.0

    def test_clip_preserves_direction(self):
        rng = np.random.default_rng(21)
        params = [nm.parameter(np.zeros((3, 3))) for _ in range(3)]
        grads = [rng.standard_normal((3, 3)) * 10 for _ in range(3)]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        norm = clip_gradients(params, max_norm=1.0)
        flat_before = np.concatenate([g.reshape(-1) for g in grads])
        flat_after = np.concatenate([p.grad.reshape(-1) for p in params])
        assert norm == pytest.approx(np.linalg.norm(flat_before))
        np.testing.assert_allclose(flat_after, flat_before / norm, atol=1e-12)
        cosine = flat_after @ flat_before / (np.linalg.norm(flat_after) * np.linalg.norm(flat_before))
        assert cosine == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        p = nm.parameter(np.zeros(3))
        p.grad = np.array([0.3, 0.0, 0.4])
        clip_gradients([p], max_norm=5.0)
        np.testing.assert_array_equal(p.grad, [0.3, 0.0, 0.4])

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(dev_fraction=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(dev_fraction=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(budget_unit="sample")
        for field, value in [
            ("epochs", -1), ("learning_rate", -0.1), ("learning_rate", float("nan")),
            ("gradient_clip_norm", -5.0), ("lr_decay", 0.0), ("lr_decay", 7.0),
            ("decay_patience", 0),
        ]:
            with pytest.raises(ValueError, match=field):
                TrainerConfig(**{field: value})
        # the edges of each range stay legal: no epochs, no step, no clipping, no decay
        TrainerConfig(epochs=0, learning_rate=0.0, gradient_clip_norm=0.0, lr_decay=1.0, decay_patience=1)

    def test_evaluate_requires_labels(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        model, _ = train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1))
        stripped = parse_conllu_annotated(
            conllu_block(0, [("a", "NOUN", 2, "nsubj"), ("b", "VERB", 0, "root")], (0, 0), (1, 1))
        )
        with pytest.raises(ValueError):
            evaluate(model, stripped, HashedEmbeddingProvider(cfg.d_ctx, 0))


# ---------------------------------------------------------------------------
# Span buckets


class TestSpanBuckets:
    def test_literal_thresholds_can_empty_short_bucket(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        model, _ = train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1))
        buckets = SpanBuckets(low=3 - 9, high=3 + 9)
        out = span_bucket_eval(model, toy_corpus, buckets, HashedEmbeddingProvider(cfg.d_ctx, 0))
        assert out["buckets"]["short"]["empty"] is True
        assert out["buckets"]["short"]["report"] is None
        assert out["buckets"]["medium"]["size"] == len(toy_corpus)

    def test_data_derived_thresholds_partition(self):
        blocks = []
        for i, gap in enumerate([0, 1, 2, 5, 8, 11]):
            # every non-root token hangs off the verb at 1-based position gap+2
            middle = [("w", "ADV", gap + 2, "advmod")] * gap
            rows = (
                [("left", "NOUN", gap + 2, "nsubj")]
                + middle
                + [("sat", "VERB", 0, "root"), ("right", "NOUN", gap + 2, "obj")]
            )
            blocks.append(conllu_block(i, rows, (0, 0), (len(rows) - 1, len(rows) - 1), "Other"))
        corpus = parse_conllu_annotated("".join(blocks))
        buckets = SpanBuckets.from_sentences(corpus)
        names = [buckets.bucket(entity_distance(s)) for s in corpus]
        assert set(names) <= {"short", "medium", "long"}
        assert len(names) == len(corpus)
        assert "short" in names and "long" in names

    def test_single_sentence_lands_in_one_bucket(self, toy_corpus):
        only = toy_corpus[:1]
        buckets = SpanBuckets.from_sentences(only)
        assert buckets.bucket(entity_distance(only[0])) == "short"

    def test_entity_distance(self, toy_corpus):
        # the <n1> verb the <n2>: two tokens sit strictly between the spans
        assert entity_distance(toy_corpus[0]) == 2


# ---------------------------------------------------------------------------
# Ablation sweep


class TestSweep:
    def test_row_names(self):
        assert row_name(ModelConfig(**TINY, graph_layer="gat", contextual=True,
                                    graph_mode="multi", edge_mode="dref")) == "c+gat+mg+dref"
        assert row_name(ModelConfig(**TINY, graph_layer="gcn", contextual=False,
                                    graph_mode="single", edge_mode="none")) == "gcn+sg"
        assert row_name(ModelConfig(**TINY, edge_mode="dref+ctef")) == "c+gat+mg+ctef+dref"
        assert row_name(ModelConfig(**TINY, edge_mode="dref", expansion_order=1)) == "c+gat+mg+dref_1"
        assert row_name(ModelConfig(**TINY, edge_mode="dref", expansion_order=2)) == "c+gat+mg+dref_2"

    def test_two_cell_sweep(self, toy_corpus, tmp_path):
        base = ModelConfig(**TINY)
        tc = TrainerConfig(epochs=1, seed=1)
        csv_path = str(tmp_path / "sweep.csv")
        rows = ablation_sweep(
            toy_corpus, toy_corpus, base, tc, {"graph_layer": ["gat", "gcn"]}, csv_path=csv_path
        )
        assert [r["name"] for r in rows] == ["c+gat+mg", "c+gcn+mg"]
        assert all(0.0 <= r["f1"] <= 100.0 for r in rows)
        header = open(csv_path, encoding="utf-8").readline().strip().split(",")
        assert header[0] == "name" and "f1" in header

    def test_unknown_axis_rejected(self, toy_corpus):
        with pytest.raises(ValueError):
            ablation_sweep(toy_corpus, toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=1), {"depth": [1]})


def test_metrics_json_deterministic(toy_corpus):
    cfg = ModelConfig(**TINY)
    tc = TrainerConfig(epochs=2, seed=4)
    model_a, log_a = train(toy_corpus, cfg, tc)
    model_b, log_b = train(toy_corpus, cfg, tc)
    provider = HashedEmbeddingProvider(cfg.d_ctx, 0)
    text_a = metrics_json(cfg, tc, log_a, evaluate(model_a, toy_corpus, provider))
    text_b = metrics_json(cfg, tc, log_b, evaluate(model_b, toy_corpus, provider))
    assert text_a == text_b
