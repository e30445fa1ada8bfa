"""In-memory spans around the program's public functions.

`Tracer.install()` swaps module and class attributes of `relgat` (and
`Tracer.instrument()` one provider's `vectors`) for wrappers that record
one span per call (name, start, end, parent span, sentence instance id),
and puts every original back when its `with` block ends. Nothing in
`src/` is edited: `Model.forward` looks up its layer functions as
`relgat.model` globals and `train()` looks up `evaluate`,
`clip_gradients` and `sentence_subgraphs` as `relgat.train_eval`
globals, so swapping those names is enough to see every layer boundary.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name). Where a function is looked up from more
# than one module, each lookup site is listed under the same span name.
TARGETS = (
    ("relgat.corpus", "parse_conllu_annotated", "corpus.parse"),
    ("relgat.corpus", "build_vocabs", "corpus.vocabs"),
    ("relgat.train_eval", "build_vocabs", "corpus.vocabs"),
    ("relgat.features", "build_dref_table", "features.dref_table"),
    ("relgat.train_eval", "build_dref_table", "features.dref_table"),
    ("relgat.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("relgat.graph", "sentence_subgraphs", "graph.subgraphs"),
    ("relgat.train_eval", "sentence_subgraphs", "graph.subgraphs"),
    ("relgat.train_eval", "train", "train_eval.train"),
    ("relgat.train_eval", "evaluate", "train_eval.evaluate"),
    ("relgat.train_eval", "clip_gradients", "train_eval.clip"),
    ("relgat.model.Model", "__init__", "model.build"),
    ("relgat.model.Model", "forward", "model.forward"),
    ("relgat.model", "encode_tokens", "features.encode"),
    ("relgat.model", "attention_pairs", "features.edge"),
    ("relgat.model", "edge_features", "features.edge"),
    ("relgat.model", "bilstm_encode", "model.bilstm"),
    ("relgat.model", "gat_vertex_update", "model.graph_layer"),
    ("relgat.model", "gcn_vertex_update", "model.graph_layer"),
    ("relgat.model", "pool_graph", "model.pool"),
    ("relgat.numerics.Node", "backward", "numerics.backward"),
)
PROVIDER_SPAN = "features.provider"
COUNT_SPAN = "bench.count"  # the tracer's own counting work


def resolve(path: str):
    """The module or class named by a dotted path such as relgat.model.Model."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def graph_size(root) -> int:
    """Autodiff nodes reachable from `root` through `.parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Spans as [name, start, end, parent index, instance id] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._last_instance = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, instance) -> int:
        parent = self._stack[-1] if self._stack else None
        if instance is None and parent is not None:
            instance = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, instance])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, result) -> None:
        if name == "features.edge" and isinstance(result, tuple):  # attention_pairs
            self.counts["pairs"] += len(result[1])
        elif name == "graph.subgraphs":
            self.counts["subgraph_calls"] += 1
            self.counts["vertices"] += sum(len(sg) for sg in result.all())
        elif name == "model.forward":
            self.counts["forwards"] += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            instance = _instance_id(args)
            if name == "model.forward":
                tracer._last_instance = instance
            elif name == "numerics.backward":
                index = tracer._open(COUNT_SPAN, tracer._last_instance)
                tracer.counts["backwards"] += 1
                tracer.counts["nodes"] += graph_size(args[0])
                tracer._close(index)
                instance = tracer._last_instance
            index = tracer._open(name, instance)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every target for the block's duration, then put the originals back."""
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = resolve(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def instrument(self, provider):
        """Wrap one embedding provider instance's `vectors` for the block."""
        provider.vectors = self.wrap(PROVIDER_SPAN, provider.vectors)
        try:
            yield self
        finally:
            del provider.vectors

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus what its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return dict(totals)

    def inclusive_time(self, name: str, parent_name: str | None = None) -> float:
        """Seconds inside spans called `name`, optionally only under `parent_name`."""
        total = 0.0
        for span_name, start, end, parent, _ in self.spans:
            if span_name != name:
                continue
            if parent_name is not None and (parent is None or self.spans[parent][0] != parent_name):
                continue
            total += end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, start, end, parent, instance) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "instance_id": instance,
                }) + "\n")


def _instance_id(args):
    for arg in args:
        instance = getattr(arg, "instance_id", None)
        if instance is not None:
            return instance
    return None
