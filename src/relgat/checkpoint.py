"""Deterministic binary model checkpoints.

Layout (format version 09): an 8-byte magic (which carries the format
version), a little-endian uint64 header length, a UTF-8 JSON header, a
32-byte blake2b digest, then the raw little-endian bytes of every
parameter in header order, in the model's dtype (``<f4`` for float32,
``<f8`` for float64). The digest covers the header bytes as written and
the parameter bytes, so no byte of either can change unnoticed.

The header states each fact once; the loader derives the rest. It holds
the model config, the dtype, the parameter names and shapes, each
vocabulary's corpus symbols in index order (index 0 is the UNK, which
no symbol spells), the dependency triples and their counts (the total
is their sum, the table's ``d_e`` the config's) or null, and the
model's ``embedding`` record, whose dimension is the config's
``d_ctx``. The 19 labels are the task's ``corpus.LABELS`` and are not
stored. A save or load accepts only a record a provider can be rebuilt
from, ``{"kind": "hashed", "seed": <int>}`` or ``{"kind": "file",
"digest": <hex>}``, the blake2b digest of the vectors file's text.

The BiLSTM is one group, ``lstm.w_ctx``, ``.w_feat``, ``.w_hidden`` and
``.bias``, with the two directions as column blocks, forward first; each
GAT layer has its heads stacked, as ``gat.l{l}.w``, ``.a_center``,
``.a_neighbor`` and (with edge features) ``.a_edge``; and each
context-encoder input matrix is kept as its two row blocks (``.w_ctx``,
``.w_feat``). Outputs are byte-identical across runs because nothing
time- or path-dependent is written. A save writes a temporary file
beside the target and renames it over the target, so the path holds
either the old checkpoint or the new one, never a partial file.

A load writes every value into a new array of the layout the model
gives that parameter (``numerics.padded_zeros`` of its shape), so a
row-padded matrix stays padded. It rejects a file of another format
version, one that is cut short, carries bytes past the last parameter,
has a header that is unreadable or does not describe a model, or whose
header or parameter bytes do not match the digest, with a
CheckpointError naming the path.
The digest is checked last, so a malformed header is reported as such.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import struct
from dataclasses import asdict

import numpy as np

from . import numerics as nm
from .corpus import Vocab, Vocabs
from .features import DrefTable
from .model import Model, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"RGCKPT09"  # the last two bytes are the format version
DIGEST_SIZE = 32
_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")  # a vectors file's digest, as FileEmbeddingProvider writes it
VOCABS = ("pos", "deprel", "ner")


def _digest(chunks) -> bytes:
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


class CheckpointError(ValueError):
    pass


def _dref_payload(table: DrefTable | None) -> dict | None:
    if table is None:
        return None
    return {"triples": [list(t) for t in table.counts], "counts": list(table.counts.values())}


def _check_embedding(record, path: str) -> None:
    """CheckpointError naming ``path`` unless ``record`` names a provider a checkpoint can rebuild."""
    hashed = (
        isinstance(record, dict) and record.keys() == {"kind", "seed"}
        and record["kind"] == "hashed" and type(record["seed"]) is int
    )
    pinned_file = (
        isinstance(record, dict) and record.keys() == {"kind", "digest"}
        and record["kind"] == "file" and isinstance(record["digest"], str)
        and _HEX_DIGEST.fullmatch(record["digest"]) is not None
    )
    if not hashed and not pinned_file:
        raise CheckpointError(f"{path}: no provider can be rebuilt from embedding record {record!r}")


def save_checkpoint(model: Model, path: str) -> None:
    _check_embedding(model.embedding, path)
    params = model.parameters()
    stored = model.dtype.newbyteorder("<")
    payload = [np.ascontiguousarray(p.value, dtype=stored) for p in params.values()]
    header = {
        "config": asdict(model.config),
        "vocabs": {name: getattr(model.vocabs, name).symbols() for name in VOCABS},
        "dref": _dref_payload(model.dref_table),
        "embedding": model.embedding,
        "dtype": model.dtype.name,
        "params": [{"name": n, "shape": list(p.value.shape)} for n, p in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp_path = f"{path}.{os.getpid()}.tmp"  # same directory, so the rename stays atomic
    try:
        with open(tmp_path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(header_bytes)))
            f.write(header_bytes)
            f.write(_digest([header_bytes, *payload]))
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
    header_start = len(MAGIC) + 8
    if len(blob) < header_start:
        raise CheckpointError(f"{path}: truncated in the header length")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    digest_start = header_start + header_len
    if len(blob) < digest_start:
        raise CheckpointError(f"{path}: truncated in the header")
    header_bytes = blob[header_start:digest_start]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    payload_start = digest_start + DIGEST_SIZE
    if len(blob) < payload_start:
        raise CheckpointError(f"{path}: truncated in the digest")

    try:
        model, recorded = _model_from_header(header)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    _check_embedding(model.embedding, path)
    params = model.parameters()
    stored = model.dtype.newbyteorder("<")
    if [name for name, _ in recorded] != list(params):
        raise CheckpointError(f"{path}: parameter set does not match config")
    offset = payload_start
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
        node.value = nm.padded_zeros(shape, model.dtype)  # the layout the model gave it
        node.value[...] = data.reshape(shape)
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} bytes after the last parameter")
    if _digest([header_bytes, memoryview(blob)[payload_start:]]) != blob[digest_start:payload_start]:
        raise CheckpointError(f"{path}: header or parameter bytes do not match the recorded digest")
    return model


def _model_from_header(header) -> tuple[Model, list[tuple[str, tuple[int, ...]]]]:
    """The model a decoded header describes, and its recorded (name, shape) list.

    Any structural fault surfaces as KeyError, TypeError, ValueError or
    AttributeError, which ``load_checkpoint`` turns into CheckpointError.
    """
    config = ModelConfig(**header["config"])
    vocabs = Vocabs(*(Vocab(header["vocabs"][name]) for name in VOCABS))
    dref = None
    if header["dref"] is not None:
        dp = header["dref"]
        dref = DrefTable(dict(zip(map(tuple, dp["triples"]), dp["counts"])), config.d_e)
    model = Model(config, vocabs, dref, seed=None, dtype=np.dtype(header["dtype"]))
    model.embedding = header["embedding"]
    recorded = [(r["name"], tuple(r["shape"])) for r in header["params"]]
    return model, recorded
