"""Write ``tests/fixtures/parity.npz``: reference numbers for a grid of tiny models.

    PYTHONPATH=src python3 tests/make_parity_fixture.py

Every cell of the grid (graph layer x edge mode x contextual x expansion
order x depth) runs one seeded batch of the structure corpus through a
float64 model and its float32 twin. The fixture keeps, per cell, the
float64 logits, the batch loss and every named parameter gradient, and
the float32 logits, as two flat buffers (one per dtype) and a JSON index of
every array's dtype, offset and shape. ``test_parity.py`` rebuilds each
cell and compares.

A refactor must pass the fixture as it stands. Regenerate it only when a
change is meant to move the numbers (a new init order, a model change),
in a commit of its own.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from relgat import numerics as nm
from relgat.corpus import LABEL_INDEX, build_vocabs
from relgat.features import HashedEmbeddingProvider, build_dref_table
from relgat.graph import batch_layout
from relgat.model import Model, ModelConfig, forward_inputs
from conftest import build_structure_corpus

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "parity.npz")
DIMS = dict(d_ctx=2, d_f=1, d_wt=1, d_lstm=2, d_g=4, heads=2, d_e=2)
BATCH, CORPUS_SEED, MODEL_SEED = 4, 11, 5
GRID = list(itertools.product(
    ("gat", "gcn"), ("none", "dref", "ctef", "dref+ctef"), (True, False), (0, 2), (1, 2)
))


def cell_name(graph_layer, edge_mode, contextual, order, depth) -> str:
    return f"{graph_layer}_{edge_mode}_{'ctx' if contextual else 'proj'}_o{order}_d{depth}"


def run_cell(graph_layer, edge_mode, contextual, order, depth) -> dict[str, np.ndarray]:
    """The cell's float64 logits, loss and gradients and its float32 logits, by fixture key."""
    corpus = build_structure_corpus(BATCH, seed=CORPUS_SEED)
    config = ModelConfig(
        **DIMS, graph_layer=graph_layer, edge_mode=edge_mode, contextual=contextual,
        expansion_order=order, graph_depth=depth,
    )
    vocabs = build_vocabs(corpus)
    dref = build_dref_table(corpus, config.d_e) if config.uses_dref else None
    provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
    inputs = forward_inputs(batch_layout(corpus, order), vocabs)
    golds = [LABEL_INDEX[s.label] for s in corpus]
    prefix = cell_name(graph_layer, edge_mode, contextual, order, depth)
    out = {}
    double = Model(config, vocabs, dref, seed=MODEL_SEED, dtype=np.float64)
    logits = double.forward(inputs, provider).logits
    loss = nm.cross_entropy(logits, golds)
    loss.backward()
    out[f"{prefix}.logits64"] = logits.value
    out[f"{prefix}.loss"] = np.array(loss.item())
    for name, p in double.parameters().items():
        out[f"{prefix}.grad.{name}"] = p.grad
    single = Model(config, vocabs, dref, seed=MODEL_SEED, dtype=np.float32)
    out[f"{prefix}.logits32"] = single.forward(inputs, provider).logits.value
    return out


def load_fixture() -> dict[str, np.ndarray]:
    """The stored arrays by key, cut back out of the fixture's two flat buffers."""
    with np.load(FIXTURE) as data:
        flat = {"float64": data["float64"], "float32": data["float32"]}
        index = json.loads(str(data["index"]))
    return {
        key: flat[dtype][lo : lo + int(np.prod(shape))].reshape(shape)
        for key, (dtype, lo, shape) in index.items()
    }


def main() -> None:
    flat = {"float64": [], "float32": []}
    index = {}
    for cell in GRID:
        for key, value in run_cell(*cell).items():
            buffer = flat[value.dtype.name]
            index[key] = (value.dtype.name, sum(b.size for b in buffer), value.shape)
            buffer.append(value.ravel())
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    np.savez_compressed(
        FIXTURE, index=np.array(json.dumps(index)),
        **{dtype: np.concatenate(buffer) for dtype, buffer in flat.items()},
    )
    print(f"{FIXTURE}: {len(GRID)} cells, {len(index)} arrays, {os.path.getsize(FIXTURE)} bytes")


if __name__ == "__main__":
    main()
