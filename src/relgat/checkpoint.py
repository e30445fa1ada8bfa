"""Deterministic binary model checkpoints.

Layout (format version 06): an 8-byte magic (which carries the format
version), a little-endian uint64 header length, a UTF-8 JSON header,
then the raw little-endian bytes of every parameter in header order, in
the model's dtype (``<f4`` for float32, ``<f8`` for float64). The header
holds the model config, the vocabularies, the dependency-triple
statistics, the dtype, the parameter names and shapes and a blake2b
digest of the parameter bytes, so a load rebuilds the exact model in its
dtype. Each vocabulary is its symbol list in index order, the UNK first
when it has one. The BiLSTM is one group, ``lstm.w_ctx``, ``.w_feat``,
``.w_hidden`` and ``.bias``, with the two directions as column blocks,
forward first; each GAT layer has its heads stacked, as ``gat.l{l}.w``,
``.a_center``, ``.a_neighbor`` and (with edge features) ``.a_edge``; and
each context-encoder input matrix is kept as its two row blocks
(``.w_ctx``, ``.w_feat``). Outputs are byte-identical across runs
because nothing time- or path-dependent is written. A save writes a
temporary file beside the target and renames it over the target, so the
path holds either the old checkpoint or the new one, never a partial
file. A load rejects a file of another format version, one that is cut
short, carries bytes past the last parameter, has a header that is
unreadable or does not describe a model, or whose parameter bytes do not
match the recorded digest, with a CheckpointError naming the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .corpus import Vocab, Vocabs
from .features import DrefTable
from .model import Model, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"RGCKPT06"  # the last two bytes are the format version


def _digest(chunks) -> str:
    h = hashlib.blake2b(digest_size=32)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


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
    stored = model.dtype.newbyteorder("<")
    payload = [np.ascontiguousarray(p.value, dtype=stored) for p in params.values()]
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
        "dtype": model.dtype.name,
        "params": [{"name": n, "shape": list(p.value.shape)} for n, p in params.items()],
        "digest": _digest(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp_path = f"{path}.{os.getpid()}.tmp"  # same directory, so the rename stays atomic
    try:
        with open(tmp_path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(header_bytes)))
            f.write(header_bytes)
            for data in payload:
                f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"{path}: not a checkpoint of this format (magic {blob[:len(MAGIC)]!r}, "
            f"expected {MAGIC!r})"
        )
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
    payload_start = offset

    try:
        model, recorded = _model_from_header(header)
        digest = header["digest"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    params = model.parameters()
    stored = model.dtype.newbyteorder("<")
    if [name for name, _ in recorded] != list(params):
        raise CheckpointError(f"{path}: parameter set does not match config")
    for name, shape in recorded:
        node = params[name]
        if tuple(node.value.shape) != shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: {shape} vs {tuple(node.value.shape)}"
            )
        count = int(np.prod(shape)) if shape else 1
        size = count * stored.itemsize
        if len(blob) < offset + size:
            raise CheckpointError(f"{path}: truncated in parameter {name}")
        data = np.frombuffer(blob, dtype=stored, count=count, offset=offset)
        offset += size
        node.value = data.reshape(shape).astype(model.dtype)
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} bytes after the last parameter")
    if _digest([memoryview(blob)[payload_start:]]) != digest:
        raise CheckpointError(f"{path}: parameter bytes do not match the recorded digest")
    return model


def _model_from_header(header) -> tuple[Model, list[tuple[str, tuple[int, ...]]]]:
    """The model a decoded header describes, and its recorded (name, shape) list.

    Any structural fault surfaces as KeyError, TypeError, ValueError or
    AttributeError, which ``load_checkpoint`` turns into CheckpointError.
    """
    config = ModelConfig.from_dict(header["config"])
    vp = header["vocabs"]
    vocabs = Vocabs(**{
        name: Vocab(vp[name]["symbols"], vp[name]["has_unk"]) for name in ("pos", "deprel", "ner", "label")
    })
    dref = None
    if header["dref"] is not None:
        dp = header["dref"]
        counts = {tuple(t): c for t, c in zip(dp["triples"], dp["counts"])}
        dref = DrefTable(counts, dp["total"], dp["d_e"])
    model = Model(config, vocabs, dref, seed=0, dtype=np.dtype(header["dtype"]))
    model.embedding_info = header["embedding"]  # type: ignore[attr-defined]
    recorded = [(r["name"], tuple(r["shape"])) for r in header["params"]]
    return model, recorded
