"""relgat benchmark: one workload, untraced (end-to-end metrics) or traced (per layer).

    python3 bench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload infer-long --seed 1 --seconds 20 --trace 1

Runs from the root of a source checkout and imports the program from
`src/`. Load is a closed loop from this one process: each call waits for
the previous one to return. BLAS runs on a fixed thread count. Human-
readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. A failed correctness
gate still prints that object, with `correct` false, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
MIN_ROUNDS = 3
MIN_PREDICTS = 200  # p95 then has at least 10 samples beyond it
SPEED_INTERVAL_S = 0.3  # most predict-path time between two machine-speed samples

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Per-layer metrics that are a span's self time, per sentence forward.
SELF_TIME_METRICS = {
    "model.bilstm_ms": "model.bilstm",
    "model.graph_layer_ms": "model.graph_layer",
    "model.pool_ms": "model.pool",
    "model.forward_self_ms": "model.forward",
    "numerics.backward_ms": "numerics.backward",
    "features.provider_ms": "features.provider",
    "features.encode_ms": "features.encode",
    "features.edge_ms": "features.edge",
    "graph.subgraphs_ms": "graph.subgraphs",
    "train_eval.clip_ms": "train_eval.clip",
    "train_eval.step_self_ms": "train_eval.train",
}
END_TO_END_UNITS = {
    "sent_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class Round:
    """One main call plus the predict passes that follow it, raw and scaled."""

    sentences: int
    wall_s: float
    scaled_s: float
    latencies_ms: list[float]
    scaled_latencies_ms: list[float]
    labels: list[str]
    outcomes: list  # each main call's comparable result


def predict_pass(state, model_, gates, speed, before: float):
    """Predict every sentence once, timing each and sampling speed every SPEED_INTERVAL_S."""
    from workloads import predict_sentence

    labels, raw, scaled, pending = [], [], [], []
    mark = time.perf_counter()
    for i, sentence in enumerate(state.sentences):
        start = time.perf_counter()
        labels.append(predict_sentence(model_, sentence, state.provider))
        pending.append((time.perf_counter() - start) * 1e3)
        if time.perf_counter() - mark >= SPEED_INTERVAL_S or i == len(state.sentences) - 1:
            after = speed.sample()
            factor = speed.scale(before, after)
            raw.extend(pending)
            scaled.extend(ms * factor for ms in pending)
            pending, before, mark = [], after, time.perf_counter()
    gates.check(len(labels) == len(state.sentences), "predict path dropped sentences", len(labels))
    return labels, raw, scaled, before


def run_rounds(workload, state, inputs, gates, speed, seconds, min_rounds, min_predicts):
    """Rounds until `seconds` have passed and the minimum samples exist."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(rounds) < min_rounds
        or sum(len(r.latencies_ms) for r in rounds) < min_predicts
    ):
        gc.collect()  # start each round without a backlog of garbage from the last
        before = speed.sample()
        sentences, wall_s, scaled_s, outcomes, served = 0, 0.0, 0.0, [], None
        for part in workload.slices(state):
            unit = workload.unit(state, part, inputs, gates)
            after = speed.sample()
            sentences += unit.sentences
            wall_s += unit.wall_s
            scaled_s += unit.wall_s * speed.scale(before, after)
            outcomes.append(unit.outcome)
            served, before = unit.model, after
        labels, raw, scaled = [], [], []
        if served is not None:
            for _ in range(workload.predict_passes):
                labels, pass_raw, pass_scaled, before = predict_pass(state, served, gates, speed, before)
                raw.extend(pass_raw)
                scaled.extend(pass_scaled)
                workload.check_predictions(state, outcomes, labels, gates)
        rounds.append(Round(sentences, wall_s, scaled_s, raw, scaled, labels, outcomes))
        if rounds[-1].labels != rounds[0].labels:
            gates.check(False, f"{workload.name}: predictions changed between rounds")
    return rounds


def end_to_end(workload, inputs, gates, speed, seconds: float) -> tuple[dict, list[str]]:
    setups, raw_setups = [], []
    before = speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(inputs)
        elapsed = time.perf_counter() - start
        after = speed.sample()
        raw_setups.append(elapsed)
        setups.append(elapsed * speed.scale(before, after))
        before = after
    rounds = run_rounds(workload, state, inputs, gates, speed, seconds, MIN_ROUNDS, MIN_PREDICTS)
    scaled = [ms for r in rounds for ms in r.scaled_latencies_ms]
    raw = [ms for r in rounds for ms in r.latencies_ms]
    throughputs = [r.sentences / r.scaled_s for r in rounds if r.sentences]
    raw_throughputs = [r.sentences / r.wall_s for r in rounds if r.sentences]
    metrics = {
        "sent_per_s": statistics.median(throughputs),
        "predict_ms_p50": statistics.median(scaled),
        "predict_ms_p95": percentile(scaled, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        "metric value unit (at reference speed; raw wall-clock value in brackets)",
        f"{workload.throughput_name} {metrics['sent_per_s']:.4f} 1/s "
        f"[{statistics.median(raw_throughputs):.4f}] median of {len(throughputs)} {workload.call}() calls",
        f"predict_ms_p50 {metrics['predict_ms_p50']:.4f} ms [{statistics.median(raw):.4f}] "
        f"{len(scaled)} predictions",
        f"predict_ms_p95 {metrics['predict_ms_p95']:.4f} ms [{percentile(raw, 95):.4f}] "
        f"{len(scaled)} predictions",
        f"setup_s {metrics['setup_s']:.6f} s [{statistics.median(raw_setups):.6f}] "
        f"median of {len(setups)} set-ups",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB",
        f"machine speed: reference loop median {statistics.median(speed.samples) * 1e3:.3f} ms "
        f"over {len(speed.samples)} samples (nominal {speed.reference_s * 1e3:.3f} ms)",
    ]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def per_layer(workload, inputs, gates, speed, seconds: float, spans_path: str) -> tuple[dict, list[str]]:
    from tracing import COUNT_SPAN, Tracer

    # Untraced reference: its predictions and wall time are what the traced
    # run must reproduce and is compared against.
    reference = run_rounds(workload, workload.setup(inputs), inputs, gates, speed, 0, 1, 0)[0]

    tracer = Tracer()
    start = time.perf_counter()
    with tracer.install():
        state = workload.setup(inputs)
        with tracer.instrument(state.provider):
            rounds = run_rounds(workload, state, inputs, gates, speed, seconds, 1, 0)
    wall = time.perf_counter() - start
    tracer.write(spans_path)

    for r in rounds:
        gates.check(
            r.labels == reference.labels and r.outcomes == reference.outcomes,
            f"{workload.name}: traced run differs from the untraced run",
        )

    self_s = tracer.self_times()
    counts = tracer.counts
    forwards = max(counts["forwards"], 1)

    def per_call(name: str) -> float:
        calls = tracer.calls(name)
        return tracer.inclusive_time(name) * 1e3 / calls if calls else 0.0

    named_s = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    residual_s = wall - sum(named_s.values())
    metrics = {
        **{k: (v * 1e3 / forwards, "ms") for k, v in named_s.items()},
        "train_eval.dev_eval_ms": (
            tracer.inclusive_time("train_eval.evaluate", "train_eval.train") * 1e3 / forwards, "ms"),
        "numerics.nodes_per_sentence": (counts["nodes"] / max(counts["backwards"], 1), "count"),
        "features.pairs_per_sentence": (counts["pairs"] / forwards, "count"),
        "graph.vertices_per_sentence": (
            counts["vertices"] / max(counts["subgraph_calls"], 1), "count"),
        "corpus.parse_ms": (per_call("corpus.parse"), "ms"),
        "checkpoint.load_ms": (per_call("checkpoint.load"), "ms"),
        "trace.residual_ms": (residual_s * 1e3 / forwards, "ms"),
        "trace.overhead_ratio": (
            statistics.median(r.scaled_s for r in rounds) / reference.scaled_s, "ratio"),
    }

    lines = [f"traced wall {wall * 1e3:.2f} ms over {counts['forwards']} sentence forwards; "
             f"spans written to {os.path.relpath(spans_path, ROOT)}",
             f"tracing overhead: {workload.call}() took {metrics['trace.overhead_ratio'][0]:.3f}x "
             f"its untraced time (median of {len(rounds)} traced calls against 1 untraced)",
             "self time totals (ms), named layers then everything else:"]
    for metric, span in SELF_TIME_METRICS.items():
        lines.append(f"  {span:24s} {named_s[metric] * 1e3:12.2f}")
    other = {k: v for k, v in self_s.items() if k not in SELF_TIME_METRICS.values()}
    for name, seconds_ in sorted(other.items()):
        note = " (tracer's own counting)" if name == COUNT_SPAN else ""
        lines.append(f"  {name:24s} {seconds_ * 1e3:12.2f}  in residual{note}")
    named_total = sum(named_s.values())
    lines.append(f"  {'residual':24s} {residual_s * 1e3:12.2f}")
    lines.append(f"  {'named + residual':24s} {(named_total + residual_s) * 1e3:12.2f} = traced wall")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "relgat", "__init__.py")):
        print(f"error: no relgat sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    from speed import MachineSpeed
    from workloads import WORKLOADS, Gates

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    inputs = workload.prepare(args.seed, ROOT, OUT_DIR)
    print(f"workload {workload.name}: {workload.why}")
    print("inputs " + json.dumps(inputs["corpus"], sort_keys=True))
    gates = Gates()
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
            metrics, lines = per_layer(workload, inputs, gates, MachineSpeed(), args.seconds, spans_path)
        else:
            metrics, lines = end_to_end(workload, inputs, gates, MachineSpeed(), args.seconds)
    finally:
        workload.cleanup(inputs)
    for line in lines:
        print(line)
    error_rate = gates.failed / gates.attempted if gates.attempted else 1.0
    print(f"error_rate {error_rate:.6f} ({gates.failed} failed of {gates.attempted} operations)")
    for reason in gates.reasons[:20]:
        print(f"gate failed: {reason}")
    correct = gates.failed == 0 and gates.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(gates.attempted, 1),
        "failed": gates.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
