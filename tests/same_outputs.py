"""Check that two checkouts train to the same bytes.

    python3 tests/same_outputs.py PARENT_DIR CHANGE_DIR [TRAIN_ARG ...]

In each checkout, with its own ``src`` first on ``PYTHONPATH``, runs
``relgat train --train data/toy_train.conllu --epochs 5 --seed 7
--edge-mode dref`` through ``relgat.cli.main``, once as it is and once
with ``--graph-mode single``. Any TRAIN_ARG is passed on to ``train``
after these, so it may override them. For each graph mode it prints
whether ``model.ckpt`` and ``metrics.json`` are the same in both
checkouts. The exit code is 1 when any file differs or any run fails,
else 0.
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


def train(checkout: str, args: list[str], out_dir: str) -> str | None:
    """Run ``relgat train ARGS --out-dir OUT_DIR`` in ``checkout``; None, or why it failed."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    command = [sys.executable, "-c", MAIN, "train", *args, "--out-dir", out_dir]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    stderr = "\n".join(done.stderr.strip().splitlines()[-STDERR_LINES:]) or "(none)"
    return f"exit code {done.returncode}; last lines of stderr:\n{stderr}"


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
                parent, change = (read(os.path.join(out_dir, name)) for out_dir in outputs)
                same = parent is not None and parent == change
                differs |= not same
                print(f"{mode} {name}: {'same' if same else 'different'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
