"""Deterministic binary model checkpoints.

Layout: an 8-byte magic (which carries the format version), a little-
endian uint64 header length, a UTF-8 JSON header, then the raw float64
little-endian bytes of every parameter in header order. The header holds
the model config, the vocabularies, the dependency-triple statistics and
the parameter shapes, so a load rebuilds the exact model; outputs are
byte-identical across runs because nothing time- or path-dependent is
written. A load rejects a file that is cut short, carries bytes past
the last parameter, or has a header that is unreadable or does not
describe a model, with a CheckpointError naming the path.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .corpus import Vocab, Vocabs
from .features import DrefTable
from .model import Model, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"RGCKPT01"


class CheckpointError(ValueError):
    pass


def _vocab_payload(vocab: Vocab) -> dict:
    return {"symbols": vocab.symbols(), "has_unk": vocab.has_unk}


def _dref_payload(table: DrefTable | None) -> dict | None:
    if table is None:
        return None
    triples = list(table.counts)
    return {
        "triples": [list(t) for t in triples],
        "counts": [table.counts[t] for t in triples],
        "total": table.total,
        "d_e": table.d_e,
    }


def save_checkpoint(model: Model, path: str, embedding: dict | None = None) -> None:
    params = model.parameters()
    header = {
        "config": model.config.to_dict(),
        "vocabs": {
            "pos": _vocab_payload(model.vocabs.pos),
            "deprel": _vocab_payload(model.vocabs.deprel),
            "ner": _vocab_payload(model.vocabs.ner),
            "label": _vocab_payload(model.vocabs.label),
        },
        "dref": _dref_payload(model.dref_table),
        "embedding": embedding or {"kind": "hashed", "dim": model.config.d_ctx, "seed": 0},
        "params": [{"name": n, "shape": list(p.value.shape)} for n, p in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for _, p in params.items():
            f.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    offset = len(MAGIC) + 8
    if len(blob) < offset:
        raise CheckpointError(f"{path}: truncated in the header length")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    if len(blob) < offset + header_len:
        raise CheckpointError(f"{path}: truncated in the header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    offset += header_len

    try:
        model, recorded = _model_from_header(header)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    params = model.parameters()
    if [name for name, _ in recorded] != list(params):
        raise CheckpointError(f"{path}: parameter set does not match config")
    for name, shape in recorded:
        node = params[name]
        if tuple(node.value.shape) != shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: {shape} vs {tuple(node.value.shape)}"
            )
        count = int(np.prod(shape)) if shape else 1
        if len(blob) < offset + count * 8:
            raise CheckpointError(f"{path}: truncated in parameter {name}")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        node.value = data.reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} bytes after the last parameter")
    return model


def _model_from_header(header) -> tuple[Model, list[tuple[str, tuple[int, ...]]]]:
    """The model a decoded header describes, and its recorded (name, shape) list.

    Any structural fault surfaces as KeyError, TypeError, ValueError or
    AttributeError, which ``load_checkpoint`` turns into CheckpointError.
    """
    config = ModelConfig.from_dict(header["config"])
    vp = header["vocabs"]
    vocabs = Vocabs(
        pos=Vocab.from_symbols(vp["pos"]["symbols"], vp["pos"]["has_unk"]),
        deprel=Vocab.from_symbols(vp["deprel"]["symbols"], vp["deprel"]["has_unk"]),
        ner=Vocab.from_symbols(vp["ner"]["symbols"], vp["ner"]["has_unk"]),
        label=Vocab.from_symbols(vp["label"]["symbols"], vp["label"]["has_unk"]),
    )
    dref = None
    if header["dref"] is not None:
        dp = header["dref"]
        counts = {tuple(t): c for t, c in zip(dp["triples"], dp["counts"])}
        dref = DrefTable(counts, dp["total"], dp["d_e"])
    model = Model(config, vocabs, dref, seed=0)
    model.embedding_info = header["embedding"]  # type: ignore[attr-defined]
    recorded = [(r["name"], tuple(r["shape"])) for r in header["params"]]
    return model, recorded
