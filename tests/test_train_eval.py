"""Training loop, official-style scorer, span buckets, ablation rows."""

import functools
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from relgat import numerics as nm
from relgat import graph, train_eval
from relgat.corpus import (
    LABEL_INDEX, LABELS, RELATION_BASES, RelationLabel, build_vocabs, parse_conllu_annotated,
)
from relgat.features import EmbeddingProvider, HashedEmbeddingProvider, build_dref_table
from relgat.graph import GraphError, sentence_subgraphs
from relgat.model import Model, ModelConfig, forward_inputs
from relgat.train_eval import (
    EVAL_CHUNK,
    TrainerConfig,
    TrainingDiverged,
    ablation_sweep,
    chunk_inputs,
    clip_gradients,
    dev_split,
    entity_distance,
    evaluate,
    predict,
    row_name,
    score_predictions,
    span_bucket_eval,
    train,
)
from conftest import build_structure_corpus, conllu_block, graph_nodes, laid_out

TINY = dict(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def labels(*names):
    return [RelationLabel.parse(n) for n in names]


# ---------------------------------------------------------------------------
# Scorer


class TestScorer:
    def test_perfect_predictions_score_100(self):
        golds = list(LABELS)
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
        golds = [LABELS[i] for i in rng.integers(0, 19, size=200)]
        preds = [LABELS[i] for i in rng.integers(0, 19, size=200)]
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
        cause, other = (LABEL_INDEX[label] for label in labels("Cause-Effect(e1,e2)", "Other"))
        assert report.confusion[cause][other] == 1
        assert report.confusion[other][other] == 1

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

    def test_trained_model_is_bare_and_equals_a_plain_loop(self, toy_corpus, monkeypatch):
        # train() steps through gradient buffers and a best-dev snapshot; the
        # reference steps through gradients adopted fresh every backward. At
        # this seed the snapshot is refreshed at epochs 1 and 2, and epoch 2's
        # parameters are restored after epoch 3.
        monkeypatch.setattr(train_eval, "Model", functools.partial(Model, dtype=np.float64))
        config = ModelConfig(**TINY, edge_mode="dref")
        trainer = TrainerConfig(epochs=3, batch_size=5, seed=10, learning_rate=0.5, gradient_clip_norm=0.05)
        model, log = train(toy_corpus, config, trainer)
        for name, p in model.parameters().items():
            assert p.grad is None and p.grad_buffer is None, name

        rng = np.random.default_rng(trainer.seed)
        train_idx, _ = train_eval._dev_split(len(toy_corpus), trainer.dev_fraction, rng)
        dref = build_dref_table(toy_corpus, config.d_e)
        reference = Model(config, build_vocabs(toy_corpus), dref, int(rng.integers(2**31 - 1)), np.float64)
        params = reference.parameters()
        provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
        graphs = [sentence_subgraphs(s) for s in toy_corpus]
        per_epoch = []
        for _ in range(trainer.epochs):
            order = list(train_idx)
            rng.shuffle(order)
            for start in range(0, len(order), trainer.batch_size):
                batch = order[start : start + trainer.batch_size]
                nm.zero_grads(params.values())
                logits = reference.forward(laid_out(reference, [(toy_corpus[i], graphs[i]) for i in batch]), provider).logits
                nm.cross_entropy(logits, [LABEL_INDEX[toy_corpus[i].label] for i in batch]).backward()
                clip_gradients(params.values(), trainer.gradient_clip_norm)
                for p in params.values():
                    if p.grad is not None:
                        p.value -= trainer.learning_rate * p.grad
            per_epoch.append({name: p.value.copy() for name, p in params.items()})
        assert 1 <= log.best_epoch <= trainer.epochs
        for name, p in model.parameters().items():
            assert p.value.tobytes() == per_epoch[log.best_epoch - 1][name].tobytes(), name

    def test_train_cuts_its_split_and_its_dev_split_once(self, toy_corpus, monkeypatch):
        # the training split is cut into one layout before the first step and every minibatch
        # gathers its rows from it; the dev split is cut once too, and every epoch scores it from
        # that cut, whatever the epoch count; nothing goes through the per-sentence path
        cut = train_eval.batch_layout
        train_idx, dev_idx = dev_split(len(toy_corpus), 0.10, 1)
        want = [[id(toy_corpus[i]) for i in w] for w in (train_idx, dev_idx)]
        for epochs in (1, 3):
            calls = []

            def counted(sentences, order=0, multi=True):
                calls.append(sentences)
                return cut(sentences, order, multi)

            monkeypatch.setattr(train_eval, "batch_layout", counted)
            with mock.patch.object(graph, "sentence_subgraphs", wraps=graph.sentence_subgraphs) as spy:
                _, log = train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=epochs, batch_size=7, seed=1))
            assert not spy.called
            assert len(log.records) == epochs
            assert [list(map(id, sentences)) for sentences in calls] == want

    def test_a_training_sentence_that_fails_the_cut_raises_before_any_forward(self, toy_corpus, monkeypatch):
        train_idx, _ = dev_split(len(toy_corpus), 0.10, 1)
        bad = toy_corpus[train_idx[-1]]
        bad.e2.head_token = bad.e1.head_token
        with pytest.raises(GraphError) as want:
            sentence_subgraphs(bad)
        forward = mock.Mock(side_effect=AssertionError("a forward ran"))
        monkeypatch.setattr(Model, "forward", forward)
        with pytest.raises(GraphError) as got:
            train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=2, batch_size=2, seed=1))
        assert str(got.value) == str(want.value)
        assert not forward.called

    def test_dev_split_scored_through_evaluate_once_per_epoch(self, toy_corpus, monkeypatch):
        # train() scores its dev split with the module's evaluate, once per epoch, from the
        # chunk inputs it built once
        calls = []
        score = train_eval.evaluate

        def counted(model, sentences, provider, chunks):
            calls.append((sentences, chunks))
            return score(model, sentences, provider, chunks)

        monkeypatch.setattr(train_eval, "evaluate", counted)
        _, log = train(toy_corpus, ModelConfig(**TINY), TrainerConfig(epochs=3, seed=1))
        _, dev_idx = dev_split(len(toy_corpus), 0.10, 1)
        dev = [toy_corpus[i] for i in dev_idx]
        assert len(calls) == len(log.records) == 3
        assert all(sentences == dev for sentences, _ in calls)
        assert all(chunks is calls[0][1] for _, chunks in calls)

    def test_model_embedding_is_the_providers_record(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        trained, _ = train(toy_corpus, cfg, TrainerConfig(epochs=0, seed=1), HashedEmbeddingProvider(6, seed=5))
        assert trained.embedding == {"kind": "hashed", "seed": 5}
        default, _ = train(toy_corpus, cfg, TrainerConfig(epochs=0, seed=1))
        assert default.embedding == Model(cfg, trained.vocabs).embedding == {"kind": "hashed", "seed": 0}

    def test_divergence_reported_with_position(self, toy_corpus):
        class NanProvider(EmbeddingProvider):
            dim = 6

            def vectors(self, sentence, indices):
                return np.full((len(indices), self.dim), np.nan)

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
        for field, value in [
            ("epochs", -1), ("learning_rate", -0.1), ("learning_rate", float("nan")),
            ("gradient_clip_norm", -5.0), ("lr_decay", 0.0), ("lr_decay", 7.0),
            ("decay_patience", 0),
        ]:
            with pytest.raises(ValueError, match=field):
                TrainerConfig(**{field: value})
        # the edges of each range stay legal: no epochs, no step, no clipping, no decay
        TrainerConfig(epochs=0, learning_rate=0.0, gradient_clip_norm=0.0, lr_decay=1.0, decay_patience=1)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 1.5), ("batch_size", 2.5), ("seed", 1.5), ("epochs", True),
        ("decay_patience", 1.5), ("seed", "1"), ("batch_size", None),
    ])
    def test_trainer_integer_fields_refuse_other_values(self, field, value):
        # the rule ModelConfig applies to its integer fields
        with pytest.raises(ValueError) as err:
            TrainerConfig(**{field: value})
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    def test_trainer_integer_fields_store_numpy_integers_as_ints(self):
        config = TrainerConfig(batch_size=np.int64(5), epochs=np.int32(2), decay_patience=np.uint8(3), seed=np.int64(4))
        assert [type(v) for v in (config.batch_size, config.epochs, config.decay_patience, config.seed)] == [int] * 4

    def test_chunk_inputs_forward_as_each_chunk_cut_on_its_own(self):
        # the dev split's and predict()'s chunks come from one cut; each chunk's logits are
        # those of the chunk cut and coded by itself, bit for bit
        corpus = build_structure_corpus(2 * EVAL_CHUNK + 5, seed=8)
        cfg = ModelConfig(**TINY, edge_mode="dref+ctef", expansion_order=1)
        model = Model(cfg, build_vocabs(corpus), build_dref_table(corpus, cfg.d_e), seed=3)
        provider = HashedEmbeddingProvider(cfg.d_ctx, 0)
        chunks = chunk_inputs(model, corpus)
        assert [len(inputs.layout.sentences) for inputs in chunks] == [EVAL_CHUNK, EVAL_CHUNK, 5]
        with nm.no_grad():
            for k, inputs in enumerate(chunks):
                part = corpus[k * EVAL_CHUNK : (k + 1) * EVAL_CHUNK]
                assert list(map(id, inputs.layout.sentences)) == list(map(id, part))
                own = forward_inputs(graph.batch_layout(part, cfg.expansion_order), model.vocabs)
                got, want = (model.forward(i, provider).logits.value for i in (inputs, own))
                assert got.tobytes() == want.tobytes()
        assert chunk_inputs(model, []) == []

    def test_evaluate_requires_labels(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        model, _ = train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1))
        stripped = parse_conllu_annotated(
            conllu_block(0, [("a", "NOUN", 2, "nsubj"), ("b", "VERB", 0, "root")], (0, 0), (1, 1))
        )
        with pytest.raises(ValueError):
            evaluate(model, stripped, HashedEmbeddingProvider(cfg.d_ctx, 0))

    def test_evaluate_builds_no_graph_and_keeps_gradients(self, toy_corpus, monkeypatch):
        cfg = ModelConfig(**TINY, edge_mode="dref+ctef")
        model, _ = train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1))
        provider = HashedEmbeddingProvider(cfg.d_ctx, 0)
        params = model.parameters()
        grads = {name: np.full(p.shape, 0.5, p.value.dtype) for name, p in params.items()}
        for name, p in params.items():
            p.grad = grads[name]
        forward, logits = model.forward, []

        def recording(batch, provider):
            detail = forward(batch, provider)
            logits.append(detail.logits)
            return detail

        monkeypatch.setattr(model, "forward", recording)
        evaluate(model, toy_corpus, provider)
        assert logits and all(graph_nodes(node) == [node] for node in logits)
        for name, p in params.items():
            assert p.grad is grads[name] and np.all(p.grad == 0.5), name


# ---------------------------------------------------------------------------
# Span buckets


def distance_corpus(gaps):
    """One Other-labelled sentence per gap: ``gap`` tokens and the verb lie between its two entities."""
    blocks = []
    for i, gap in enumerate(gaps):
        # every non-root token hangs off the verb at 1-based position gap+2
        middle = [("w", "ADV", gap + 2, "advmod")] * gap
        rows = (
            [("left", "NOUN", gap + 2, "nsubj")]
            + middle
            + [("sat", "VERB", 0, "root"), ("right", "NOUN", gap + 2, "obj")]
        )
        blocks.append(conllu_block(i, rows, (0, 0), (len(rows) - 1, len(rows) - 1), "Other"))
    return parse_conllu_annotated("".join(blocks))


class TestSpanBuckets:
    def test_equal_distances_leave_medium_and_long_empty(self):
        # std 0: every distance equals the mean, so all of them are short
        corpus = distance_corpus([3, 3, 3])
        out = span_bucket_eval(corpus, labels("Other", "Other", "Other"))
        assert out["thresholds"] == {"low": 4.0, "high": 4.0, "mean": 4.0, "std": 0.0}
        assert out["buckets"]["short"]["size"] == 3
        for name in ("medium", "long"):
            assert out["buckets"][name] == {"size": 0, "empty": True, "report": None}

    def test_data_derived_thresholds_partition(self):
        corpus = distance_corpus([0, 1, 2, 5, 8, 11])
        ks = [entity_distance(s) for s in corpus]
        assert ks == [1, 2, 3, 6, 9, 12]
        out = span_bucket_eval(corpus, labels(*["Other"] * len(corpus)))
        mean, std = np.mean(ks), np.std(ks)
        assert out["thresholds"] == {"low": mean - std, "high": mean + std, "mean": mean, "std": std}
        sizes = {name: bucket["size"] for name, bucket in out["buckets"].items()}
        assert sizes == {"short": 1, "medium": 4, "long": 1}

    def test_each_bucket_scores_its_members_of_the_one_prediction(self, toy_corpus):
        cfg = ModelConfig(**TINY)
        provider = HashedEmbeddingProvider(cfg.d_ctx, 0)
        model, _ = train(toy_corpus, cfg, TrainerConfig(epochs=1, seed=1))
        corpus = distance_corpus([0, 1, 2, 5, 8, 11])  # every bucket has members
        preds = predict(model, corpus, provider)
        with pytest.raises(ValueError):
            span_bucket_eval(corpus, preds[:-1])
        out = span_bucket_eval(corpus, preds)
        assert sum(bucket["size"] for bucket in out["buckets"].values()) == len(corpus)
        low, high = out["thresholds"]["low"], out["thresholds"]["high"]
        for name, keep in (("short", lambda k: k <= low), ("long", lambda k: k >= high),
                           ("medium", lambda k: low < k < high)):
            members = [i for i, s in enumerate(corpus) if keep(entity_distance(s))]
            want = score_predictions([corpus[i].label for i in members], [preds[i] for i in members])
            assert out["buckets"][name] == {"size": len(members), "empty": False, "report": want.to_dict()}

    def test_single_sentence_lands_in_one_bucket(self, toy_corpus):
        out = span_bucket_eval(toy_corpus[:1], [toy_corpus[0].label])
        assert out["buckets"]["short"]["size"] == 1
        assert out["buckets"]["short"]["report"]["accuracy"] == 100.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one sentence"):
            span_bucket_eval([], [])

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
