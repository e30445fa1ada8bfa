"""The byte-identity tool (``tests/same_outputs.py``): what it runs, what it prints and its exit code."""

import os
import subprocess

import numpy as np
import pytest

import same_outputs
from relgat.checkpoint import save_checkpoint
from relgat.corpus import build_vocabs
from relgat.model import Model, ModelConfig
from conftest import build_toy_corpus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ModelConfig(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def serve(monkeypatch, outputs, compare=True):
    """Make ``same_outputs.train`` write ``outputs(checkout, args)``'s files; returns the calls made.

    Unless ``compare``, the parameter comparison is stubbed too: it names the checkout it ran in.
    """
    calls = []
    if not compare:
        monkeypatch.setattr(
            same_outputs, "parameter_differences", lambda checkout, parent, change: [f"compared in {checkout}"]
        )

    def fake_train(checkout, args, out_dir):
        calls.append((checkout, args))
        os.makedirs(out_dir)
        for name, data in outputs(checkout, args).items():
            with open(os.path.join(out_dir, name), "wb") as f:
                f.write(data)
        return None

    monkeypatch.setattr(same_outputs, "train", fake_train)
    return calls


def same_files(checkout, args):
    return {"model.ckpt": b"weights", "metrics.json": b"{}"}


def printed(capsys):
    return capsys.readouterr().out.splitlines()


def test_same_outputs_in_both_modes_exit_0(monkeypatch, capsys):
    calls = serve(monkeypatch, same_files)
    assert same_outputs.main(["same_outputs.py", "parent", "change"]) == 0
    recipe = list(same_outputs.RECIPE)
    assert calls == [
        ("parent", recipe), ("change", recipe),
        ("parent", recipe + ["--graph-mode", "single"]), ("change", recipe + ["--graph-mode", "single"]),
    ]
    assert printed(capsys) == [
        "multi model.ckpt: same", "multi metrics.json: same",
        "single model.ckpt: same", "single metrics.json: same",
    ]


def test_extra_arguments_go_to_train_after_the_recipe(monkeypatch, capsys):
    calls = serve(monkeypatch, same_files)
    assert same_outputs.main(["same_outputs.py", "parent", "change", "--epochs", "2", "--graph-layer", "gcn"]) == 0
    for _, args in calls:
        assert args[: len(same_outputs.RECIPE)] == list(same_outputs.RECIPE)
        assert args[-4:] == ["--epochs", "2", "--graph-layer", "gcn"]


def test_one_different_file_exits_1_and_is_named(monkeypatch, capsys):
    # the change writes other checkpoint bytes in single mode only, and no metrics there
    def outputs(checkout, args):
        if checkout == "change" and "single" in args:
            return {"model.ckpt": b"other"}
        return same_files(checkout, args)

    serve(monkeypatch, outputs, compare=False)
    assert same_outputs.main(["same_outputs.py", "parent", "change"]) == 1
    assert printed(capsys) == [
        "multi model.ckpt: same", "multi metrics.json: same",
        "single model.ckpt: different", "  compared in change", "single metrics.json: different",
    ]


def checkpoint_bytes(tmp_path, edit=None) -> bytes:
    """A tiny model's checkpoint, after ``edit(parameters)`` when given."""
    model = Model(TINY, build_vocabs(build_toy_corpus()), seed=2)
    if edit is not None:
        edit(model.parameters())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    return path.read_bytes()


def test_a_different_checkpoint_names_each_differing_parameter(monkeypatch, capsys, tmp_path):
    # the change checkout, this repository, reads both checkpoints with its own load_checkpoint
    def edit(params):
        params["lstm.w_ctx"].value[0, :3] += np.float32(0.25)
        params["cls.b"].value[4] = -2.0

    parent, change = checkpoint_bytes(tmp_path), checkpoint_bytes(tmp_path, edit)
    serve(monkeypatch, lambda checkout, args: {"model.ckpt": change if checkout == REPO_ROOT else parent, "metrics.json": b"{}"})
    assert same_outputs.main(["same_outputs.py", "parent", REPO_ROOT]) == 1
    differences = [
        "  lstm.w_ctx: 3 of 192 values differ, largest absolute difference 0.25",
        "  cls.b: 1 of 19 values differ, largest absolute difference 2",
    ]
    assert printed(capsys) == [
        "multi model.ckpt: different", *differences, "multi metrics.json: same",
        "single model.ckpt: different", *differences, "single metrics.json: same",
    ]


def test_parameters_that_do_not_load_are_reported_not_compared(tmp_path):
    good = tmp_path / "good.ckpt"
    good.write_bytes(checkpoint_bytes(tmp_path))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    (line,) = same_outputs.parameter_differences(REPO_ROOT, str(good), str(bad))
    assert line.startswith("parameters not compared (exit code 1): ")
    assert "not a checkpoint of this format" in line
    assert same_outputs.parameter_differences(REPO_ROOT, str(good), str(good)) == ["no parameter value differs"]


def test_a_failed_run_exits_1_with_its_stderr_tail(monkeypatch, capsys):
    stderr = "".join(f"line {i}\n" for i in range(30)) + "error: boom\n"
    ran = []

    def fake_run(command, **kwargs):
        ran.append((command, kwargs))
        return subprocess.CompletedProcess(command, 1, "", stderr)

    monkeypatch.setattr(same_outputs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert same_outputs.main(["same_outputs.py", "parent", "change"]) == 1
    ((command, kwargs),) = ran  # the first failure ends the comparison
    assert command[-2] == "--out-dir" and command[3 : 3 + len(same_outputs.RECIPE) + 1] == [
        "train", *same_outputs.RECIPE
    ]
    assert kwargs["cwd"] == "parent"
    assert kwargs["env"]["PYTHONPATH"] == os.path.join(os.path.abspath("parent"), "src") + os.pathsep + "elsewhere"
    lines = printed(capsys)
    assert lines[0] == "multi: parent run failed: exit code 1; last lines of stderr:"
    assert lines[1:] == [f"line {i}" for i in range(21, 30)] + ["error: boom"]


@pytest.mark.parametrize("argv", [[], ["parent"]])
def test_two_checkouts_are_required(monkeypatch, argv):
    monkeypatch.setattr(same_outputs, "train", lambda *args: pytest.fail("ran a checkout"))
    with pytest.raises(SystemExit) as exit_:
        same_outputs.main(["same_outputs.py", *argv])
    assert exit_.value.code == 2
