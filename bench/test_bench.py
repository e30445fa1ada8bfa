"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relgat.model import ModelConfig  # noqa: E402
from speed import MachineSpeed  # noqa: E402

TINY = dict(d_ctx=4, d_f=2, d_wt=2, d_lstm=3, d_g=4, heads=2, d_e=3)
TINY_CORPUS = synth.CorpusSpec(sentences=8, min_len=4, max_len=9, vocab_size=20)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    CONTRACT = json.load(f)


def tiny_workloads():
    return [
        workloads.TrainWorkload(
            "train-tiny", "tiny training", ModelConfig(**TINY, edge_mode="dref"),
            dict(batch_size=3, epochs=1), corpus_spec=TINY_CORPUS,
        ),
        workloads.InferWorkload(
            "infer-tiny", "tiny inference",
            ModelConfig(**TINY, edge_mode="dref+ctef", expansion_order=2), TINY_CORPUS, slice_size=3,
        ),
        workloads.TrainWorkload(
            "train-gcn-tiny", "tiny gcn training",
            ModelConfig(**TINY, graph_layer="gcn", graph_depth=2, edge_mode="ctef", expansion_order=1),
            dict(batch_size=3, epochs=1), corpus_spec=TINY_CORPUS,
        ),
    ]


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_PREDICTS", 20)


def test_contract_names_every_workload():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("index", range(3))
def test_every_metric_is_printed_with_its_unit(index, tmp_path):
    workload = tiny_workloads()[index]
    inputs = workload.prepare(5, run.ROOT, str(tmp_path))
    try:
        gates = workloads.Gates()
        e2e, _ = run.end_to_end(workload, inputs, gates, MachineSpeed(), 0.0)
        layers, lines = run.per_layer(
            workload, inputs, gates, MachineSpeed(), 0.0, str(tmp_path / "spans.jsonl"))
    finally:
        workload.cleanup(inputs)
    assert gates.failed == 0 and gates.attempted > 0, gates.reasons
    for printed, declared in ((e2e, CONTRACT["end_to_end"]), (layers, CONTRACT["per_layer"])):
        assert list(printed) == [m["name"] for m in declared]
        for m in declared:
            assert printed[m["name"]]["unit"] == m["unit"]
            assert isinstance(printed[m["name"]]["value"], float)
    assert e2e["sent_per_s"]["value"] > 0 and e2e["setup_s"]["value"] > 0
    assert any(line.strip().startswith("named + residual") for line in lines)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent", "instance_id"} <= set(spans[0])


def test_backward_is_traced_only_when_training(tmp_path):
    results = {}
    for workload in tiny_workloads()[:2]:
        inputs = workload.prepare(5, run.ROOT, str(tmp_path))
        try:
            layers, _ = run.per_layer(
                workload, inputs, workloads.Gates(), MachineSpeed(), 0.0, str(tmp_path / "s.jsonl"))
        finally:
            workload.cleanup(inputs)
        results[workload.name] = layers
    assert results["train-tiny"]["numerics.backward_ms"]["value"] > 0
    assert results["train-tiny"]["numerics.nodes_per_sentence"]["value"] > 0
    assert results["infer-tiny"]["numerics.backward_ms"]["value"] == 0
    assert results["infer-tiny"]["checkpoint.load_ms"]["value"] > 0


def _current_attributes():
    out = {}
    for path, attr, _ in tracing.TARGETS:
        owner = tracing.resolve(path)
        out[(path, attr)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


def test_wrapped_attributes_are_restored():
    before = _current_attributes()
    provider = workloads.features.HashedEmbeddingProvider(4)
    original_vectors = provider.vectors
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            assert _current_attributes() != before
            with tracer.instrument(provider):
                assert provider.vectors != original_vectors
                raise RuntimeError("leave the block early")
    assert _current_attributes() == before
    assert "vectors" not in provider.__dict__


def test_generator_is_byte_deterministic():
    spec = synth.CorpusSpec(sentences=20)
    first = synth.generate(spec, 11)
    assert first == synth.generate(spec, 11)
    assert first != synth.generate(spec, 12)
    info = synth.check(first, 2)
    assert info["digest"] == synth.digest(first) and info["sentences"] == 20
    assert info["sdp_min"] < info["sdp_max"]


def test_generator_rejects_what_the_program_rejects():
    with pytest.raises(synth.SynthError):
        synth.check(synth.generate(TINY_CORPUS, 1).replace("\t0\troot", "\t1\troot", 1), 0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "infer-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
