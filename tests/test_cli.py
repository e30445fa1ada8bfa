"""CLI subcommands: exit codes, file outputs, determinism."""

import io
import json
import os
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from relgat import train_eval
from relgat.checkpoint import load_checkpoint, save_checkpoint
from relgat.cli import RunConfig, _provider_for_checkpoint, _read_config_file, _read_text, build_parser, main
from relgat.corpus import parse_conllu_annotated, to_conllu
from relgat.features import HashedEmbeddingProvider
from relgat.graph import sentence_subgraphs
from relgat.model import Model, ModelConfig
from relgat.train_eval import EVAL_CHUNK, TrainerConfig, evaluate, train
from conftest import build_structure_corpus, build_toy_corpus

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_FLAGS = [
    "--d-ctx", "6", "--d-f", "3", "--d-wt", "2", "--d-lstm", "4",
    "--d-g", "6", "--heads", "2", "--d-e", "3",
]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.conllu"
    path.write_text("".join(to_conllu(s) for s in build_toy_corpus()), encoding="utf-8")
    return str(path)


def run_train(tmp_path, corpus_file, out_name="run", extra=()):
    out_dir = str(tmp_path / out_name)
    code = main(
        ["train", "--train", corpus_file, "--out-dir", out_dir,
         "--epochs", "2", "--seed", "3", *TINY_FLAGS, *extra]
    )
    assert code == 0
    return out_dir


class TestPrepare:
    def test_writes_three_files(self, tmp_path, corpus_file):
        out = str(tmp_path / "prep")
        assert main(["prepare", "--train", corpus_file, "--out-dir", out, "--d-e", "4"]) == 0
        for name in ("dref.json", "vocabs.json", "stats.json"):
            assert os.path.exists(os.path.join(out, name))
        stats = json.loads(open(os.path.join(out, "stats.json"), encoding="utf-8").read())
        assert stats["sentences"] == 20
        vocabs = json.loads(open(os.path.join(out, "vocabs.json"), encoding="utf-8").read())
        assert len(vocabs["label"]) == 19

    def test_rerun_byte_identical(self, tmp_path, corpus_file):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["prepare", "--train", corpus_file, "--out-dir", out_a])
        main(["prepare", "--train", corpus_file, "--out-dir", out_b])
        for name in ("dref.json", "vocabs.json", "stats.json"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b

    def test_missing_input_exits_2_with_path(self, tmp_path, capsys):
        code = main(["prepare", "--train", "/no/such/file.conllu", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "/no/such/file.conllu" in capsys.readouterr().err


class TestTrain:
    def test_produces_checkpoint_and_metrics(self, tmp_path, corpus_file):
        out = run_train(tmp_path, corpus_file)
        assert os.path.exists(os.path.join(out, "model.ckpt"))
        metrics = json.loads(open(os.path.join(out, "metrics.json"), encoding="utf-8").read())
        assert len(metrics["per_epoch"]) == 2
        assert "macro_f1" in metrics["final"]

    def test_flag_plumbing_single_graph_expansion(self, tmp_path, corpus_file):
        out = run_train(tmp_path, corpus_file, extra=["--graph-mode", "single", "--expansion-order", "1"])
        metrics = json.loads(open(os.path.join(out, "metrics.json"), encoding="utf-8").read())
        assert metrics["config"]["model"]["graph_mode"] == "single"
        assert metrics["config"]["model"]["expansion_order"] == 1

    def test_invalid_edge_mode_usage_error(self, corpus_file, tmp_path):
        assert main(["train", "--train", corpus_file, "--out-dir", str(tmp_path / "x"),
                     "--edge-mode", "bogus"]) == 2

    @pytest.mark.parametrize("flag,field,value", [
        ("--heads", "heads", "0"), ("--d-lstm", "d_lstm", "-3"), ("--d-e", "d_e", "0"),
    ])
    def test_non_positive_size_exits_2(self, corpus_file, tmp_path, capsys, flag, field, value):
        code = main(["train", "--train", corpus_file, "--out-dir", str(tmp_path / "x"),
                     *TINY_FLAGS, flag, value])
        assert code == 2
        assert f"{field} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field,value", [
        ("--epochs", "epochs", "-1"), ("--learning-rate", "learning_rate", "-1"),
        ("--gradient-clip-norm", "gradient_clip_norm", "-5"), ("--lr-decay", "lr_decay", "7"),
        ("--decay-patience", "decay_patience", "0"),
    ])
    def test_nonsense_trainer_setting_exits_2(self, corpus_file, tmp_path, capsys, flag, field, value):
        out = tmp_path / "x"
        code = main(["train", "--train", corpus_file, "--out-dir", str(out), *TINY_FLAGS, flag, value])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,code", [(None, 2), ("0\t0\t0.5\n", 1)], ids=["missing", "one-value-of-6"])
    def test_bad_embeddings_file_leaves_no_out_dir(self, corpus_file, tmp_path, capsys, text, code):
        vectors, out = tmp_path / "v.tsv", tmp_path / "x"
        if text is not None:
            vectors.write_text(text, encoding="utf-8")
        assert main(["train", "--train", corpus_file, "--out-dir", str(out), "--embeddings", str(vectors),
                     *TINY_FLAGS]) == code
        assert str(vectors) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_vector_error_names_embeddings_file(self, tmp_path, corpus_file, capsys):
        vectors = tmp_path / "v.tsv"
        vectors.write_text("0\t0\t" + " ".join(["0.5"] * 6) + "\n", encoding="utf-8")
        code = main(["train", "--train", corpus_file, "--out-dir", str(tmp_path / "x"),
                     "--embeddings", str(vectors), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {vectors}: no precomputed vector for instance" in err

    def test_unlabeled_training_corpus_names_instance(self, tmp_path, capsys):
        predict_file = str(REPO_ROOT / "data" / "toy_predict.conllu")
        code = main(["train", "--train", predict_file, "--out-dir", str(tmp_path / "x"), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {predict_file}: instance " in err and "no gold label to train on" in err

    def test_single_sentence_corpus_error_names_file(self, tmp_path, capsys):
        one = tmp_path / "one.conllu"
        one.write_text(to_conllu(build_toy_corpus()[0]), encoding="utf-8")
        code = main(["train", "--train", str(one), "--out-dir", str(tmp_path / "x"), *TINY_FLAGS])
        assert code == 1
        assert f"error: {one}: training needs at least two sentences" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, corpus_file):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# training setup\n"
            "epochs = 1\n"
            "seed = 3\n"
            "d_ctx = 6\nd_f = 3\nd_wt = 2\nd_lstm = 4\nd_g = 6\nheads = 2\nd_e = 3\n"
            f"train = {corpus_file}\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "cfgrun")
        code = main(["train", "--config", str(config), "--out-dir", out, "--epochs", "2"])
        assert code == 0
        metrics = json.loads(open(os.path.join(out, "metrics.json"), encoding="utf-8").read())
        assert metrics["config"]["trainer"]["epochs"] == 2  # flag beats file

    def test_repeated_config_key_exits_2(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 5\nseed = 3\n\nepochs = 1  # again\n", encoding="utf-8")
        out = tmp_path / "x"
        code = main(["train", "--config", str(config), "--train", corpus_file, "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}:4: repeated config key 'epochs' (first at line 1)\n"
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("momentum = 0.9\n", encoding="utf-8")
        code = main(["train", "--config", str(config), "--train", corpus_file,
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "momentum" in capsys.readouterr().err

    def test_dref_scale_by_ratio_is_an_unknown_key(self, tmp_path, corpus_file, capsys):
        # the dref rows are never scaled by their ratios, in a config file or by a flag
        config = tmp_path / "old.cfg"
        config.write_text("dref_scale_by_ratio = true\n", encoding="utf-8")
        out = str(tmp_path / "x")
        assert main(["train", "--config", str(config), "--train", corpus_file, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {config}:1: unknown config key 'dref_scale_by_ratio'\n"
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--dref-scale-by-ratio", "true", "--train", corpus_file, "--out-dir", out])
        assert exit_.value.code == 2 and "--dref-scale-by-ratio" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_metrics_byte_identical_across_runs(self, tmp_path, corpus_file):
        out_a = run_train(tmp_path, corpus_file, "a")
        out_b = run_train(tmp_path, corpus_file, "b")
        a = open(os.path.join(out_a, "metrics.json"), "rb").read()
        b = open(os.path.join(out_b, "metrics.json"), "rb").read()
        assert a == b
        ck_a = open(os.path.join(out_a, "model.ckpt"), "rb").read()
        ck_b = open(os.path.join(out_b, "model.ckpt"), "rb").read()
        assert ck_a == ck_b


@pytest.mark.parametrize("command", [
    ["prepare", "--out-dir", "OUT", "--train"],
    ["train", "--out-dir", "OUT", *TINY_FLAGS, "--train"],
    ["stats", "--data"],
])
def test_empty_corpus_exits_1_naming_file(tmp_path, capsys, command):
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in command]
    assert main([*argv, str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"
    assert not (tmp_path / "out").exists()


def _typed_config_fields():
    for cls in (ModelConfig, TrainerConfig):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in (bool, int, float):
                yield f.name, hints[f.name]


@pytest.mark.parametrize("key,kind", list(_typed_config_fields()))
def test_config_file_value_parses_to_field_type(tmp_path, key, kind):
    raw, expected = {bool: ("no", False), int: ("3", 3), float: ("0.25", 0.25)}[kind]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {raw}\n", encoding="utf-8")
    value = _read_config_file(str(config))[key]
    assert type(value) is kind and value == expected


@pytest.mark.parametrize("key,kind", list(_typed_config_fields()))
def test_flag_value_parses_like_config_file_value(tmp_path, key, kind):
    raw = "2" if key == "expansion_order" else {bool: "no", int: "8", float: "0.25"}[kind]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {raw}\n", encoding="utf-8")
    parser = build_parser()
    from_file = RunConfig.merge(parser.parse_args(["train", "--config", str(config)]))
    from_flag = RunConfig.merge(parser.parse_args(["train", "--" + key.replace("_", "-"), raw]))
    assert from_flag == from_file


@pytest.mark.parametrize("key,value", [
    ("graph_layer", "gin"), ("graph_mode", "double"), ("edge_mode", "bogus"),
    ("expansion_order", "3"), ("heads", "two"), ("contextual", "maybe"),
])
def test_bad_setting_fails_alike_from_flag_and_config_file(tmp_path, corpus_file, capsys, key, value):
    out = tmp_path / "x"
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    base = ["train", "--train", corpus_file, "--out-dir", str(out)]
    assert main([*base, "--" + key.replace("_", "-"), value]) == 2
    from_flag = capsys.readouterr().err
    assert main([*base, "--config", str(config)]) == 2
    from_file = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith(f"error: {key}")
    assert from_flag.count("\n") == 1
    assert not out.exists()


class TestEval:
    def test_eval_prints_and_writes_report(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        report_path = str(tmp_path / "eval.json")
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--test", corpus_file, "--out", report_path])
        assert code == 0
        printed = capsys.readouterr().out
        report = json.loads(open(report_path, encoding="utf-8").read())
        assert f"{report['macro_f1']:.4f}" in printed
        assert report["n"] == 20

    def test_eval_span_buckets(self, tmp_path, corpus_file):
        out = run_train(tmp_path, corpus_file)
        report_path = str(tmp_path / "eval.json")
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--test", corpus_file, "--out", report_path, "--span-buckets"])
        assert code == 0
        report = json.loads(open(report_path, encoding="utf-8").read())
        sizes = {k: v["size"] for k, v in report["span_buckets"]["buckets"].items()}
        assert sum(sizes.values()) == 20

    def test_span_buckets_forward_and_cut_each_sentence_once(self, tmp_path, corpus_file, monkeypatch):
        out = run_train(tmp_path, corpus_file)
        counts = {"instances": 0, "subgraphs": 0}
        forward, batch_layout = Model.forward, train_eval.batch_layout

        def counting_forward(self, inputs, provider):
            counts["instances"] += len(inputs.layout.sentences)
            return forward(self, inputs, provider)

        def counting_batch_layout(sentences, expansion_order, multi):
            counts["subgraphs"] += len(sentences)
            return batch_layout(sentences, expansion_order, multi)

        monkeypatch.setattr(Model, "forward", counting_forward)
        monkeypatch.setattr(train_eval, "batch_layout", counting_batch_layout)
        assert main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--test", corpus_file, "--span-buckets"]) == 0
        assert counts == {"instances": 20, "subgraphs": 20}

    @pytest.mark.parametrize("extra", [[], ["--span-buckets"]])
    def test_empty_test_corpus_fails_naming_file(self, tmp_path, corpus_file, capsys, extra):
        out = run_train(tmp_path, corpus_file)
        empty = tmp_path / "empty.conllu"
        empty.write_text("", encoding="utf-8")
        capsys.readouterr()  # drop the training banner
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"), "--test", str(empty), *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {empty}: empty corpus\n"

    def test_unlabeled_test_corpus_error_names_file(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        predict_file = str(REPO_ROOT / "data" / "toy_predict.conllu")
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"), "--test", predict_file])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {predict_file}: instance " in err and "no gold label to score against" in err

    def test_missing_checkpoint_exits_2(self, corpus_file, capsys):
        assert main(["eval", "--checkpoint", "/no/model.ckpt", "--test", corpus_file]) == 2
        assert "/no/model.ckpt" in capsys.readouterr().err


class TestPredict:
    def test_one_label_per_sentence(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        single = tmp_path / "one.conllu"
        single.write_text(to_conllu(build_toy_corpus()[0]), encoding="utf-8")
        capsys.readouterr()  # drop the training banner
        code = main(["predict", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--input", str(single)])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.split("\n") if l]
        assert len(lines) == 1
        assert lines[0] == "Other" or "(" in lines[0]

    @pytest.mark.parametrize("source", ["toy_predict", "structure"])
    def test_labels_equal_per_sentence_predictions(self, tmp_path, corpus_file, capsys, source):
        # batched prediction prints what one forward per sentence predicts
        out = run_train(tmp_path, corpus_file)
        if source == "toy_predict":
            input_path = REPO_ROOT / "data" / "toy_predict.conllu"
        else:
            input_path = tmp_path / "many.conllu"
            many = build_structure_corpus(EVAL_CHUNK + 13, seed=8)
            input_path.write_text("".join(to_conllu(s) for s in many), encoding="utf-8")
        capsys.readouterr()  # drop the training banner
        checkpoint = os.path.join(out, "model.ckpt")
        assert main(["predict", "--checkpoint", checkpoint, "--input", str(input_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        model = load_checkpoint(checkpoint)
        provider = _provider_for_checkpoint(model, None)
        sentences = parse_conllu_annotated(input_path.read_text(encoding="utf-8"))
        expected = [
            str(model.vocabs.label_at(model.predict_index(s, sentence_subgraphs(s), provider)))
            for s in sentences
        ]
        assert len(sentences) == (2 if source == "toy_predict" else EVAL_CHUNK + 13)
        assert printed == expected

    def test_empty_input_empty_output(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        empty = tmp_path / "empty.conllu"
        empty.write_text("", encoding="utf-8")
        capsys.readouterr()  # drop the training banner
        code = main(["predict", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--input", str(empty)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unparsable_input_exits_1(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        broken = tmp_path / "broken.conllu"
        broken.write_text("# e1 = 0 0\nnot a token line\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--input", str(broken)])
        assert code == 1
        assert capsys.readouterr().err != ""


class TestEmbeddingsKind:
    """eval and predict read vectors of the kind the checkpoint was trained on."""

    @staticmethod
    def vectors_file(tmp_path, sentences):
        path = tmp_path / "v.tsv"
        path.write_text("".join(
            f"{s.instance_id}\t{i}\t{' '.join(['0.25'] * 6)}\n" for s in sentences for i in range(len(s))
        ), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_embeddings_on_hashed_checkpoint_exit_2(self, tmp_path, corpus_file, capsys, command):
        out = run_train(tmp_path, corpus_file)
        vectors = self.vectors_file(tmp_path, build_toy_corpus())
        capsys.readouterr()  # drop the training banner
        source = "--test" if command == "eval" else "--input"
        code = main([command, "--checkpoint", os.path.join(out, "model.ckpt"), source, corpus_file,
                     "--embeddings", vectors])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trained on hashed embeddings" in captured.err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_file_checkpoint_needs_embeddings(self, tmp_path, corpus_file, capsys, command):
        vectors = self.vectors_file(tmp_path, build_toy_corpus())
        out = run_train(tmp_path, corpus_file, extra=("--embeddings", vectors))
        checkpoint = os.path.join(out, "model.ckpt")
        source = "--test" if command == "eval" else "--input"
        capsys.readouterr()
        assert main([command, "--checkpoint", checkpoint, source, corpus_file]) == 2
        assert "trained on file embeddings; pass --embeddings" in capsys.readouterr().err
        assert main([command, "--checkpoint", checkpoint, source, corpus_file, "--embeddings", vectors]) == 0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_other_embeddings_file_exit_2(self, tmp_path, corpus_file, capsys, command):
        # a vectors file of the right width that is not the one the model was trained on
        vectors = self.vectors_file(tmp_path, build_toy_corpus())
        out = run_train(tmp_path, corpus_file, extra=("--embeddings", vectors))
        other = tmp_path / "other.tsv"
        other.write_text(Path(vectors).read_text(encoding="utf-8").replace("0.25", "0.5"), encoding="utf-8")
        source = "--test" if command == "eval" else "--input"
        capsys.readouterr()
        code = main([command, "--checkpoint", os.path.join(out, "model.ckpt"), source, corpus_file,
                     "--embeddings", str(other)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{other}: not the embeddings file the checkpoint was trained on" in captured.err
        # the digest is compared before any line is parsed: a malformed other file is refused as such
        other.write_text(Path(vectors).read_text(encoding="utf-8") + "0\ty\t1 2 3 4 5 6\n", encoding="utf-8")
        code = main([command, "--checkpoint", os.path.join(out, "model.ckpt"), source, corpus_file,
                     "--embeddings", str(other)])
        assert code == 2
        assert f"{other}: not the embeddings file the checkpoint was trained on" in capsys.readouterr().err

    def test_eval_rebuilds_the_provider_an_in_process_model_trained_on(self, tmp_path, corpus_file):
        # the checkpoint takes the seed from the model, so eval scores it as train() left it
        sentences = build_toy_corpus()
        config = ModelConfig(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3, edge_mode="dref")
        provider = HashedEmbeddingProvider(config.d_ctx, seed=5)
        model, _ = train(sentences, config, TrainerConfig(epochs=4, seed=3), provider)
        in_process = evaluate(model, sentences, provider).to_dict()
        assert in_process != evaluate(model, sentences, HashedEmbeddingProvider(config.d_ctx)).to_dict()
        checkpoint, report = str(tmp_path / "model.ckpt"), tmp_path / "eval.json"
        save_checkpoint(model, checkpoint)
        assert main(["eval", "--checkpoint", checkpoint, "--test", corpus_file, "--out", str(report)]) == 0
        assert json.loads(report.read_text(encoding="utf-8")) == in_process


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A toy corpus file and a checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("trained")
    corpus = tmp_path / "train.conllu"
    corpus.write_text("".join(to_conllu(s) for s in build_toy_corpus()), encoding="utf-8")
    return str(corpus), os.path.join(run_train(tmp_path, str(corpus)), "model.ckpt")


# Each input flag with the name its "not found" message gives the file; MISSING marks the flag's path.
MISSING_INPUTS = [
    (["prepare", "--out-dir", "out", "--train", "MISSING"], "train corpus"),
    (["train", "--out-dir", "out", "--train", "MISSING"], "train corpus"),
    (["train", "--out-dir", "out", "--train", "CORPUS", "--config", "MISSING"], "config file"),
    (["train", "--out-dir", "out", "--train", "CORPUS", "--embeddings", "MISSING"], "embeddings file"),
    (["train", "--out-dir", "out", "--train", "CORPUS", "--test", "MISSING"], "test corpus"),
    (["eval", "--checkpoint", "MISSING", "--test", "CORPUS"], "checkpoint"),
    (["eval", "--checkpoint", "CHECKPOINT", "--test", "MISSING"], "test corpus"),
    (["predict", "--checkpoint", "CHECKPOINT", "--input", "MISSING"], "input"),
    (["stats", "--data", "MISSING"], "data corpus"),
]


@pytest.mark.parametrize("argv,what,path", [
    (argv, what, path)
    for argv, what in MISSING_INPUTS
    # "-" is stdin to predict's --input only
    for path in (("missing.txt", "-") if what != "input" else ("missing.txt",))
])
def test_missing_input_exits_2_naming_it(trained, tmp_path, monkeypatch, capsys, argv, what, path):
    corpus, checkpoint = trained
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
    names = {"MISSING": path, "CORPUS": corpus, "CHECKPOINT": checkpoint}
    assert main([names.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {what} not found: {path}\n"


class TestShippedFixtures:
    def test_toy_corpus_file_matches_generator(self):
        shipped = (REPO_ROOT / "data" / "toy_train.conllu").read_text(encoding="utf-8")
        generated = "".join(to_conllu(s) for s in build_toy_corpus())
        assert shipped == generated

    def test_predict_fixture_is_unlabeled(self):
        sentences = parse_conllu_annotated(
            (REPO_ROOT / "data" / "toy_predict.conllu").read_text(encoding="utf-8")
        )
        assert len(sentences) == 2
        assert all(s.label is None for s in sentences)

    def test_train_and_predict_on_shipped_files(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "run")
        code = main(["train", "--train", str(REPO_ROOT / "data" / "toy_train.conllu"),
                     "--out-dir", out, "--epochs", "2", "--seed", "3", *TINY_FLAGS])
        assert code == 0
        capsys.readouterr()
        # predict from stdin
        data = (REPO_ROOT / "data" / "toy_predict.conllu").read_bytes()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = main(["predict", "--checkpoint", os.path.join(out, "model.ckpt")])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.split("\n") if l]
        assert len(lines) == 2


class TestStats:
    def test_histograms_to_stdout(self, corpus_file, capsys):
        assert main(["stats", "--data", corpus_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sentences"] == 20
        assert payload["subgraph_sizes"]["sdp"] == {"3": 20}

    def test_reads_a_superscript_digit_id(self, tmp_path, capsys):
        # "²" is a digit to str.isdigit() but not a decimal int() reads
        data = tmp_path / "id.conllu"
        data.write_text(
            "# id = \u00b2\n# e1 = 0 0\n# e2 = 1 1\n"
            "1\ta\t_\tNOUN\t_\t_\t0\troot\t_\t_\n2\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n",
            encoding="utf-8",
        )
        assert main(["stats", "--data", str(data)]) == 0
        assert json.loads(capsys.readouterr().out)["sentences"] == 1

    def test_malformed_corpus_error_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# e1 = 0 0\n1\tword\t_\tNOUN\t_\t_\t0\troot\t_\n", encoding="utf-8")
        assert main(["stats", "--data", str(bad)]) == 1
        assert f"error: {bad}: line 2: expected 10 tab-separated columns" in capsys.readouterr().err

    def test_expansion_order_flag(self, corpus_file, capsys):
        assert main(["stats", "--data", corpus_file, "--expansion-order", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sizes = payload["subgraph_sizes"]["sdp"]
        assert all(int(k) > 3 for k in sizes)


class TestUndecodableByte:
    """A byte that is not UTF-8 is a typed error naming the file and the byte's line."""

    @staticmethod
    def spoil(path, line: int) -> str:
        """``path`` with a 0xff byte put at the start of its 1-based ``line``."""
        lines = Path(path).read_bytes().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        Path(path).write_bytes(b"\n".join(lines))
        return f"{path}: line {line}: byte 0xff is not UTF-8"

    def test_corpus_exits_1(self, corpus_file, capsys):
        message = self.spoil(corpus_file, 7)
        assert main(["stats", "--data", corpus_file]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_predict_input_exits_1(self, tmp_path, corpus_file, capsys):
        out = run_train(tmp_path, corpus_file)
        capsys.readouterr()
        message = self.spoil(corpus_file, 3)
        assert main(["predict", "--checkpoint", os.path.join(out, "model.ckpt"), "--input", corpus_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_stdin_exits_1_naming_it(self, trained, capsys, monkeypatch):
        block = (
            "# e1 = 0 0\n# e2 = 1 1\n"
            "1\t\xff\t_\tNOUN\t_\t_\t0\troot\t_\t_\n2\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n"
        )
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(block.encode("latin-1"))))
        assert main(["predict", "--checkpoint", trained[1], "--input", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: <stdin>: line 3: byte 0xff is not UTF-8\n"

    def test_embeddings_file_exits_1(self, tmp_path, corpus_file, capsys):
        vectors = TestEmbeddingsKind.vectors_file(tmp_path, build_toy_corpus())
        message = self.spoil(vectors, 2)
        code = main(["train", "--train", corpus_file, "--out-dir", str(tmp_path / "run"),
                     "--embeddings", vectors, *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_config_file_exits_2(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 2\nseed = 3\n", encoding="utf-8")
        message = self.spoil(config, 2)
        code = main(["train", "--config", str(config), "--train", corpus_file, "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_text_is_read_as_text_mode_reads_it(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes("\ufeffa\r\nb\rc\n\u00e9\r\r\nd".encode("utf-8"))
        with open(path, encoding="utf-8") as f:
            assert _read_text(str(path), "text file", ValueError) == f.read()
