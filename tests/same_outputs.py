"""Check that two checkouts train to the same bytes.

    python3 tests/same_outputs.py PARENT_DIR CHANGE_DIR [TRAIN_ARG ...]

In each checkout, with its own ``src`` first on ``PYTHONPATH``, runs
``relgat train --train data/toy_train.conllu --epochs 5 --seed 7
--edge-mode dref`` through ``relgat.cli.main``, once as it is and once
with ``--graph-mode single``. Any TRAIN_ARG is passed on to ``train``
after these, so it may override them. For each graph mode it prints
whether ``model.ckpt`` and ``metrics.json`` are the same in both
checkouts. Under a ``model.ckpt`` that differs it prints one line per
parameter whose values differ, with the count of differing values and
the largest absolute difference, as CHANGE_DIR's ``load_checkpoint``
reads both files. The exit code is 1 when any file differs or any run
fails, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

RECIPE = ("--train", "data/toy_train.conllu", "--epochs", "5", "--seed", "7", "--edge-mode", "dref")
MODES = {"multi": (), "single": ("--graph-mode", "single")}
OUTPUTS = ("model.ckpt", "metrics.json")
STDERR_LINES = 10  # of a failed run, shown
MAIN = "import sys; from relgat.cli import main; sys.exit(main(sys.argv[1:]))"
# argv: PARENT_CKPT CHANGE_CKPT; prints a line per parameter whose values differ, in the change's order
DIFF = """
import sys
import numpy as np
from relgat.checkpoint import load_checkpoint
parent, change = (load_checkpoint(path).parameters() for path in sys.argv[1:3])
for name in [*change, *(name for name in parent if name not in change)]:
    if name not in parent or name not in change:
        print(f"{name}: only in the {'change' if name in change else 'parent'}")
        continue
    a, b = (p[name].value.astype(np.float64) for p in (parent, change))
    if a.shape != b.shape:
        print(f"{name}: shape {a.shape} against {b.shape}")
        continue
    differ = a != b
    if differ.any():
        largest = np.abs(a - b)[differ].max()
        print(f"{name}: {np.count_nonzero(differ)} of {a.size} values differ, largest absolute difference {largest:.3g}")
"""


def _environment(checkout: str) -> dict:
    """This process's environment with ``checkout``'s ``src`` first on ``PYTHONPATH``."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(os.path.abspath(checkout), "src")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _stderr_tail(done: subprocess.CompletedProcess) -> str:
    return "\n".join(done.stderr.strip().splitlines()[-STDERR_LINES:]) or "(none)"


def train(checkout: str, args: list[str], out_dir: str) -> str | None:
    """Run ``relgat train ARGS --out-dir OUT_DIR`` in ``checkout``; None, or why it failed."""
    command = [sys.executable, "-c", MAIN, "train", *args, "--out-dir", out_dir]
    done = subprocess.run(command, cwd=checkout, env=_environment(checkout), capture_output=True, text=True)
    if done.returncode == 0:
        return None
    return f"exit code {done.returncode}; last lines of stderr:\n{_stderr_tail(done)}"


def parameter_differences(checkout: str, parent_ckpt: str, change_ckpt: str) -> list[str]:
    """A line per parameter whose values differ, as ``checkout``'s ``load_checkpoint`` reads both files.

    When either file does not load, one line says why instead.
    """
    command = [sys.executable, "-c", DIFF, parent_ckpt, change_ckpt]
    done = subprocess.run(command, cwd=checkout, env=_environment(checkout), capture_output=True, text=True)
    if done.returncode != 0:
        return [f"parameters not compared (exit code {done.returncode}): {_stderr_tail(done).splitlines()[-1]}"]
    return done.stdout.splitlines() or ["no parameter value differs"]


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("train_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv[1:])
    differs = False
    with tempfile.TemporaryDirectory() as scratch:
        for mode, mode_args in MODES.items():
            outputs = []
            for side in ("parent", "change"):
                out_dir = os.path.join(scratch, mode, side)
                failure = train(getattr(args, side), [*RECIPE, *mode_args, *args.train_args], out_dir)
                if failure is not None:
                    print(f"{mode}: {side} run failed: {failure}")
                    return 1
                outputs.append(out_dir)
            for name in OUTPUTS:
                paths = [os.path.join(out_dir, name) for out_dir in outputs]
                parent, change = map(read, paths)
                same = parent is not None and parent == change
                differs |= not same
                print(f"{mode} {name}: {'same' if same else 'different'}")
                if name == "model.ckpt" and not same and parent is not None and change is not None:
                    for line in parameter_differences(args.change, *paths):
                        print(f"  {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
