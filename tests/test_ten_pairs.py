"""The ten-pair comparison tool (``tests/ten_pairs.py``): its verdicts and what it shows of a failed run."""

import argparse
import subprocess

import pytest

import ten_pairs

# Ten runs per side and metric. sent_per_s: the change wins every pair by more than the
# parent's spread. predict_ms_p50: the change is 50% slower. predict_ms_p95: the parent
# spreads wider than the bound. setup_s: the change is 5% slower. peak_rss_mb: no change.
PARENT = {
    "sent_per_s": [100 + i for i in range(10)],
    "predict_ms_p50": [1.0 + 0.01 * i for i in range(10)],
    "predict_ms_p95": [1.0 + i for i in range(10)],
    "setup_s": [1.0 + 0.001 * i for i in range(10)],
    "peak_rss_mb": [50.0] * 10,
}
CHANGE = {
    "sent_per_s": [120 + i for i in range(10)],
    "predict_ms_p50": [1.5 + 0.01 * i for i in range(10)],
    "predict_ms_p95": [1.0 + i for i in range(10)],
    "setup_s": [1.05 + 0.001 * i for i in range(10)],
    "peak_rss_mb": [50.0] * 10,
}


def serve(monkeypatch, parent, change):
    """Make ``ten_pairs.run`` return the next value of each series, per side; returns the call counts."""
    served = {"parent": 0, "change": 0}

    def fake_run(checkout, args):
        i = served[checkout]
        served[checkout] += 1
        values = parent if checkout == "parent" else change
        return {name: series[i] for name, series in values.items()}

    monkeypatch.setattr(ten_pairs, "run", fake_run)
    return served


def test_verdicts(monkeypatch, capsys):
    # predict_ms_p50 regresses, so the whole table is printed and the exit code is 1
    served = serve(monkeypatch, PARENT, CHANGE)
    assert ten_pairs.main(["ten_pairs.py", "parent", "change", "--workload", "w", "--seed", "1"]) == 1
    assert served == {"parent": 10, "change": 10}
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")}
    expected = {
        "sent_per_s": ("wins 10/10", "claim holds", "within bound"),
        "predict_ms_p50": ("wins 0/10", "claim does not hold", "regression"),
        "predict_ms_p95": ("wins 0/10", "claim does not hold", "unresolved"),
        "setup_s": ("wins 0/10", "claim does not hold", "within bound"),
        "peak_rss_mb": ("wins 0/10", "claim does not hold", "within bound"),
    }
    assert rows.keys() == expected.keys()
    for name, parts in expected.items():
        assert all(part in rows[name] for part in parts), rows[name]
        assert rows[name].endswith(parts[-1])


def test_unresolved_and_within_bound_exit_0(monkeypatch, capsys):
    change = {**CHANGE, "predict_ms_p50": PARENT["predict_ms_p50"]}
    serve(monkeypatch, PARENT, change)
    assert ten_pairs.main(["ten_pairs.py", "parent", "change", "--workload", "w", "--seed", "1"]) == 0
    verdicts = [line.rsplit("  ", 1)[-1] for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert verdicts == ["within bound", "within bound", "unresolved", "within bound", "within bound"]


def test_a_workload_list_prints_one_table_each_and_fails_on_any_regression(monkeypatch, capsys):
    # "a" is within bound on every metric and "b" regresses on predict_ms_p50
    series = {
        "a": (PARENT, {**CHANGE, "predict_ms_p50": PARENT["predict_ms_p50"]}),
        "b": (PARENT, CHANGE),
    }
    served = {}

    def fake_run(checkout, args):
        i = served.get((checkout, args.workload), 0)
        served[checkout, args.workload] = i + 1
        values = series[args.workload][checkout == "change"]
        return {name: values[name][i] for name in values}

    monkeypatch.setattr(ten_pairs, "run", fake_run)
    argv = ["ten_pairs.py", "parent", "change", "--workload", "a,b", "--seed", "1"]
    assert ten_pairs.main(argv) == 1
    assert served == {(side, w): 10 for side in ("parent", "change") for w in "ab"}
    lines = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(lines) if " seed 1, 10 pairs " in line]
    assert [lines[i].split()[0] for i in headers] == ["a", "b"]
    for i, regressed in zip(headers, (False, True)):
        verdicts = [line.rsplit("  ", 1)[-1] for line in lines[i + 1 : i + 6]]
        assert ("regression" in verdicts) == regressed, verdicts
    served.clear()
    assert ten_pairs.main(argv[:4] + ["a", "--seed", "1"]) == 0


def test_a_seed_list_prints_one_table_per_workload_and_seed_and_fails_on_any_regression(monkeypatch, capsys):
    # only workload "b" at seed 29 regresses (on predict_ms_p50)
    within = {**CHANGE, "predict_ms_p50": PARENT["predict_ms_p50"]}
    served = {}

    def fake_run(checkout, args):
        key = (checkout, args.workload, args.seed)
        i = served.get(key, 0)
        served[key] = i + 1
        values = PARENT if checkout == "parent" else CHANGE if (args.workload, args.seed) == ("b", 29) else within
        return {name: values[name][i] for name in values}

    monkeypatch.setattr(ten_pairs, "run", fake_run)
    argv = ["ten_pairs.py", "parent", "change", "--workload", "a,b", "--seed", "11,29"]
    assert ten_pairs.main(argv) == 1
    tables = [(w, s) for w in "ab" for s in (11, 29)]
    assert served == {(side, w, s): 10 for side in ("parent", "change") for w, s in tables}
    lines = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(lines) if ", 10 pairs of " in line]
    assert [lines[i].split(",")[0] for i in headers] == [f"{w} seed {s}" for w, s in tables]
    for i, table in zip(headers, tables):
        verdicts = [line.rsplit("  ", 1)[-1] for line in lines[i + 1 : i + 6]]
        assert ("regression" in verdicts) == (table == ("b", 29)), (table, verdicts)
    served.clear()
    assert ten_pairs.main(argv[:6] + ["11"]) == 0
    assert {s for _, _, s in served} == {11}


@pytest.mark.parametrize("seed", ["11,", "eleven", "11,,29", "1.5"])
def test_a_seed_that_is_not_an_integer_list_is_a_usage_error(monkeypatch, seed):
    monkeypatch.setattr(ten_pairs, "run", lambda checkout, args: pytest.fail("ran a pair"))
    with pytest.raises(SystemExit) as exit_:
        ten_pairs.main(["ten_pairs.py", "parent", "change", "--workload", "w", "--seed", seed])
    assert exit_.value.code == 2


@pytest.mark.parametrize("stdout", ['{"correct": false}\n', "", "Traceback (most recent call last)\n"])
def test_failed_run_shows_exit_code_and_stderr_tail(monkeypatch, stdout):
    stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"
    monkeypatch.setattr(
        ten_pairs.subprocess, "run",
        lambda command, **kwargs: subprocess.CompletedProcess(command, 3, stdout, stderr),
    )
    args = argparse.Namespace(workload="w", seed=1, seconds=1.0)
    with pytest.raises(SystemExit) as exit_:
        ten_pairs.run("CHECKOUT", args)
    message = str(exit_.value.code)
    assert message.startswith("CHECKOUT: run ended without correct: true (exit code 3): ")
    tail = message.split("last lines of stderr:\n")[1].splitlines()
    assert tail == [f"line {i}" for i in range(21, 30)] + ["ValueError: boom"]
