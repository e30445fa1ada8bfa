"""Token input encodings and the two edge-feature constructions.

A batch's token rows are coded once, by ``code_tokens``: (T,) arrays of
each row's POS, deprel and NER vocabulary index, its entity flag, its
position in the sentence and its head. Everything below reads those
arrays; no symbol is coded anywhere but through the model's ``Vocab``s.

Per-token inputs are the concatenation of a contextual vector, three
trainable symbol embeddings (POS, deprel, NER) gathered by the
vocabulary indices, and a 2-row word-type embedding gathered by the
entity flags. The contextual vectors come from a pluggable provider,
whose ``vectors(sentence, indices)`` returns the rows of the given token
positions only: a batch asks each sentence for the distinct tokens of
its sub-graphs, never for the whole sentence.

Edge features come in two flavors. The frequency-based kind (dref) keys
a trainable vector on the (POS, POS, deprel) triple of the underlying
tree edge, one row per triple seen in the training parses; a model lays
the table's rows out by vocabulary indices once, so a pair's row is one
fancy index. The connection-type kind (ctef) marks, per attention
direction, whether the attended-from vertex is an entity token
(all-ones) or not (all-zeros). Both are arrays over a whole batch,
aligned with the (center, neighbor) rows that ``attention_pairs`` lays
out from a batch layout's edge rows.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .corpus import Sentence, Vocabs

__all__ = [
    "FeatureError",
    "EmbeddingProvider",
    "HashedEmbeddingProvider",
    "hashed_record",
    "FileEmbeddingProvider",
    "file_record",
    "FeatureEmbeddings",
    "DrefTable",
    "EDGE_MODES",
    "build_dref_table",
    "dref_edge_features",
    "TokenCodes",
    "code_tokens",
    "edge_features",
    "attention_pairs",
    "encode_tokens",
]

EDGE_MODES = ("none", "dref", "ctef", "dref+ctef")

# Each sentence of a batch with the indices of its tokens to encode, in row order.
TokenLayout = Sequence[tuple[Sentence, Sequence[int]]]


class FeatureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Contextual embedding providers


class EmbeddingProvider:
    """Maps a sentence's token positions to their contextual vectors.

    ``vectors(sentence, indices)`` returns a (len(indices), dim) array:
    row r is the vector of ``sentence.tokens[indices[r]]``. A model asks
    only for the tokens its sub-graphs hold, each once.

    ``record`` is what a checkpoint stores to rebuild the provider: a
    JSON-ready dict, or None for a provider no checkpoint can rebuild.
    """

    dim: int
    record: dict | None = None

    def vectors(self, sentence: Sentence, indices: Sequence[int]) -> np.ndarray:
        raise NotImplementedError


def hashed_record(seed: int = 0) -> dict:
    """The record of a ``HashedEmbeddingProvider``: its kind and seed."""
    return {"kind": "hashed", "seed": seed}


class HashedEmbeddingProvider(EmbeddingProvider):
    """Deterministic fallback: hash (surface, seed) to a pseudo-random vector.

    The same surface always maps to the same unit-variance vector, across
    runs and platforms. Each surface is drawn once, into its row of one
    float64 table, so a sentence's vectors are one ``take`` of their rows.
    The table starts at 64 rows (384 KB at d_ctx 768) and doubles when
    full, so past 64 surfaces fewer than half its rows are slack.
    """

    def __init__(self, dim: int = 768, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self.record = hashed_record(seed)
        self._row_of: dict[str, int] = {}
        self._table = np.empty((64, dim))

    def _draw(self, surface: str) -> np.ndarray:
        digest = hashlib.blake2b(f"{self.seed}\x00{surface}".encode("utf-8"), digest_size=8).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return rng.standard_normal(self.dim)

    def _add(self, surface: str) -> int:
        row = self._row_of[surface] = len(self._row_of)
        if row == len(self._table):
            self._table = np.concatenate((self._table, np.empty_like(self._table)))
        self._table[row] = self._draw(surface)
        return row

    def vectors(self, sentence: Sentence, indices: Sequence[int]) -> np.ndarray:
        tokens, row_of = sentence.tokens, self._row_of
        surfaces = [tokens[i].surface for i in indices]
        rows = [row_of[s] if s in row_of else self._add(s) for s in surfaces]
        return self._table.take(rows, axis=0)  # after the draws, which may grow the table


def file_record(text: str) -> dict:
    """The record of a vectors file: its kind and the blake2b digest of its text."""
    return {"kind": "file", "digest": hashlib.blake2b(text.encode("utf-8"), digest_size=32).hexdigest()}


class FileEmbeddingProvider(EmbeddingProvider):
    """Precomputed vectors keyed by (instance id, token index).

    File format: one record per token,
    ``instance_id <TAB> token_index <TAB> v1 v2 ... vD`` with an integer
    token index and D space-separated finite decimals. A malformed record
    raises FeatureError naming its line, a second record for the same
    (instance, token) one naming both lines, and a token without a vector
    one naming the instance and token, the first in sentence order
    whichever tokens were asked for; all start with ``path``, the file
    the text was read from, when one is given. The ``record`` pins the
    vectors: it is ``file_record(text)``.
    """

    def __init__(self, text: str, dim: int = 768, path: str | None = None):
        self.dim = dim
        self._named = f"{path}: " if path else ""
        self.record = file_record(text)
        self._table: dict[tuple[str, int], np.ndarray] = {}
        line_of: dict[tuple[str, int], int] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            where = f"{self._named}embedding file line {lineno}"
            parts = line.split("\t")
            if len(parts) != 3:
                raise FeatureError(f"{where}: expected 3 tab-separated fields")
            try:
                index = int(parts[1])
            except ValueError:
                raise FeatureError(f"{where}: token index {parts[1]!r} is not an integer") from None
            try:
                vec = np.array([float(x) for x in parts[2].split()], dtype=np.float64)
            except ValueError:
                raise FeatureError(f"{where}: vector values {parts[2]!r} are not all numbers") from None
            if vec.shape[0] != dim:
                raise FeatureError(f"{where}: expected {dim} values, got {vec.shape[0]}")
            if not np.all(np.isfinite(vec)):
                raise FeatureError(f"{where}: non-finite vector value")
            key = (parts[0], index)
            if key in line_of:
                raise FeatureError(
                    f"{where}: second vector for instance {parts[0]} token {index} "
                    f"(first at line {line_of[key]})"
                )
            line_of[key] = lineno
            self._table[key] = vec

    def vectors(self, sentence: Sentence, indices: Sequence[int]) -> np.ndarray:
        key, tokens = str(sentence.instance_id), sentence.tokens
        for t in tokens:
            if (key, t.index) not in self._table:
                raise FeatureError(
                    f"{self._named}no precomputed vector for instance {sentence.instance_id} token {t.index}"
                )
        return np.array([self._table[key, tokens[i].index] for i in indices])


# ---------------------------------------------------------------------------
# Trainable per-token feature embeddings


class FeatureEmbeddings:
    """Trainable POS/deprel/NER/word-type tables sized from the vocabularies, in ``dtype``.

    ``take(shape)`` gives each table's storage in that order, new zeros
    by default; the draws fill it in place.
    """

    def __init__(
        self,
        vocabs: Vocabs,
        d_ctx: int = 768,
        d_f: int = 40,
        d_wt: int = 10,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
        take=None,
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        take = take or (lambda shape: np.zeros(shape, dtype))
        self.d_ctx = d_ctx
        self.d_f = d_f
        self.d_wt = d_wt
        self.dtype = np.dtype(dtype)
        self.pos = nm.parameter(nm.initial_values(rng, d_f, take((len(vocabs.pos), d_f))))
        self.deprel = nm.parameter(nm.initial_values(rng, d_f, take((len(vocabs.deprel), d_f))))
        self.ner = nm.parameter(nm.initial_values(rng, d_f, take((len(vocabs.ner), d_f))))
        self.word_type = nm.parameter(nm.initial_values(rng, d_wt, take((2, d_wt))))

    @property
    def input_dim(self) -> int:
        return self.d_ctx + 3 * self.d_f + self.d_wt


class TokenCodes(NamedTuple):
    """The coded facts of a batch's token rows: (T,) arrays in ``encode_tokens`` row order."""

    pos: np.ndarray  # vocabulary indices
    deprel: np.ndarray
    ner: np.ndarray
    entity: np.ndarray  # bool: the token lies in an entity span
    index: np.ndarray  # the token's position in its sentence
    head: np.ndarray  # its head's position, -1 for the root


def code_tokens(sentences: TokenLayout, vocabs: Vocabs) -> TokenCodes:
    """The vocabulary indices, entity flags, positions and heads of the given tokens.

    Rows follow ``sentences`` as in ``encode_tokens``. Each sentence's
    span bounds are read once and its indices compared with them in plain
    Python, each symbol column is coded by ``Vocab.indices``, and the five
    integer columns are one array: numpy's fixed cost per call would make
    the one-sentence forwards of the predict path slower than this loop.
    """
    tokens, index, entity = [], [], []
    for s, indices in sentences:
        e1_start, e1_end, e2_start, e2_end = s.e1.start, s.e1.end, s.e2.start, s.e2.end
        tokens += map(s.tokens.__getitem__, indices)
        index += indices
        entity += [e1_start <= i <= e1_end or e2_start <= i <= e2_end for i in indices]
    columns = chain(
        vocabs.pos.indices(map(attrgetter("pos"), tokens)),
        vocabs.deprel.indices(map(attrgetter("deprel"), tokens)),
        vocabs.ner.indices(map(attrgetter("ner"), tokens)),
        index,
        [-1 if t.head is None else t.head for t in tokens],
    )
    coded = np.fromiter(columns, np.intp, 5 * len(tokens)).reshape(5, len(tokens))
    return TokenCodes(coded[0], coded[1], coded[2], np.array(entity, dtype=bool), coded[3], coded[4])


def encode_tokens(
    sentences: TokenLayout, codes: TokenCodes, provider: EmbeddingProvider, emb: FeatureEmbeddings
) -> list[nm.Node]:
    """Input rows of the given tokens of each sentence, as two column blocks.

    ``sentences`` pairs each sentence with the indices of the tokens to
    encode; rows follow the pairs in order and, within one, those indices.
    ``codes`` are the rows' ``code_tokens``. The blocks are the contextual
    vectors, a constant (T, d_ctx), and the trainable [pos ; deprel ; ner ;
    word-type] features, (T, 3*d_f + d_wt): side by side, the d_ctx +
    3*d_f + d_wt input columns of every token. Both are in the embeddings'
    dtype: the provider is asked for exactly those tokens of each sentence,
    and its vectors are cast once, here.
    """
    ctx = np.concatenate([provider.vectors(s, indices) for s, indices in sentences], dtype=emb.dtype)
    if ctx.shape[1] != emb.d_ctx:
        raise FeatureError(f"provider dimension {ctx.shape[1]} != expected {emb.d_ctx}")
    return [
        nm.constant(ctx),
        nm.concat([
            nm.gather_rows(emb.pos, codes.pos),
            nm.gather_rows(emb.deprel, codes.deprel),
            nm.gather_rows(emb.ner, codes.ner),
            nm.gather_rows(emb.word_type, codes.entity.astype(np.intp)),
        ], axis=1),
    ]


# ---------------------------------------------------------------------------
# Frequency-based dependency edge features


class DrefTable:
    """Frequency statistics over (head-POS, dependent-POS, deprel) triples.

    Each observed triple owns one row of a trainable embedding matrix;
    row 0 is the unseen-triple fallback and row 1 the self-loop row. The
    matrix itself lives in the model; this table only maps triples to
    rows and keeps their counts. ``to_json_dict`` gives each triple's
    frequency ratio: its count over ``total``, the number of edges seen.

    ``rows_by_index`` lays the rows out by vocabulary indices, the codes
    of ``code_tokens``: observed triples own rows 2, 3, ... in the order
    of ``counts``.
    """

    UNK_ROW = 0
    SELF_ROW = 1
    RESERVED_ROWS = 2

    def __init__(self, counts: dict[tuple[str, str, str], int], d_e: int = 40):
        self.counts = dict(counts)
        self.total = sum(self.counts.values())
        if self.total <= 0:
            raise FeatureError("empty dependency-triple statistics")
        self.d_e = d_e

    @property
    def num_rows(self) -> int:
        return len(self.counts) + self.RESERVED_ROWS

    def rows_by_index(self, vocabs: Vocabs) -> np.ndarray:
        """The (|pos|, |pos|, |deprel|) rows of every triple of vocabulary indices, UNK_ROW if unseen.

        A triple with a symbol the vocabularies lack raises FeatureError
        naming it.
        """
        pos, deprel = vocabs.pos, vocabs.deprel
        coded = []
        for vocab, column in zip((pos, pos, deprel), zip(*self.counts)):
            # each distinct symbol is looked up once; -1 marks one the vocabulary lacks
            code = {s: vocab.index(s) if s in vocab else -1 for s in set(column)}
            coded.append(np.fromiter(map(code.__getitem__, column), np.intp, len(column)))
        lacking = np.flatnonzero(np.min(coded, axis=0) < 0)
        if lacking.size:
            triple = list(self.counts)[lacking[0]]
            raise FeatureError(f"dependency triple {triple} has a symbol the vocabularies lack")
        rows = np.full((len(pos), len(pos), len(deprel)), self.UNK_ROW, dtype=np.intp)
        rows[tuple(coded)] = np.arange(self.RESERVED_ROWS, self.num_rows)
        return rows

    def to_json_dict(self) -> dict:
        return {
            "|".join(t): {"count": c, "ratio": c / self.total}
            for t, c in self.counts.items()
        }


def build_dref_table(train: list[Sentence], d_e: int = 40) -> DrefTable:
    """Count every tree edge of the training split as one triple.

    The triple is (head POS, dependent POS, deprel of the dependent).
    """
    if not train:
        raise FeatureError("empty corpus")
    counts: dict[tuple[str, str, str], int] = {}
    for sentence in train:
        if not sentence.parsed:
            raise FeatureError(f"instance {sentence.instance_id}: sentence has no parse")
        for t in sentence.tokens:
            if t.head is None:
                continue
            head = sentence.tokens[t.head]
            triple = (head.pos, t.pos, t.deprel)
            counts[triple] = counts.get(triple, 0) + 1
    return DrefTable(counts, d_e)


# ---------------------------------------------------------------------------
# The attention pairs of a batch and their edge features


def attention_pairs(edges: np.ndarray, rows: int):
    """Pair starts, (P, 2) pairs and dependents of ``rows`` vertex rows joined by ``edges``.

    ``edges`` holds (head, dependent) vertex rows, as ``Layout.edges``.
    The pairs, each vertex with itself and each edge both ways, are
    (center, neighbor) vertex rows sorted by center, then neighbor, from
    ``pair_starts[i]`` for center i; ``dependents`` holds the vertex row
    of each pair's dependent, -1 for a self-loop.
    """
    # (center, neighbor) rows: each vertex with itself, then each edge from its head and from its dependent
    both_ways = np.concatenate((np.arange(rows).repeat(2).reshape(rows, 2), edges, edges[:, ::-1]))
    center = both_ways[:, 0]
    # the keys are distinct, so every sort gives this order; numpy's stable one is the fastest here
    order = (center * rows + both_ways[:, 1]).argsort(kind="stable")
    degree = np.bincount(center, minlength=rows)
    dependent = edges[:, 1]
    dependents = np.concatenate((np.full(rows, -1), dependent, dependent))[order]
    return degree.cumsum() - degree, both_ways.take(order, axis=0), dependents


def dref_edge_features(codes: TokenCodes, token_rows, pairs, dependents, dref_rows: np.ndarray) -> np.ndarray:
    """The dref embedding row of every pair, as in ``edge_features``.

    The key for pair (i, j) is (POS of i, POS of j, deprel of the pair's
    dependent), read from ``dref_rows`` (``DrefTable.rows_by_index``) by
    vocabulary indices; unseen keys map to the fallback row and
    self-loops to the self-edge row. A pair whose dependent's head is not
    the other endpoint raises FeatureError naming the two tokens.
    """
    edge = dependents >= 0
    center, neighbor = token_rows[pairs.compress(edge, axis=0)].T
    dependent = token_rows[dependents[edge]]
    wrong = codes.head[dependent] != codes.index[center + neighbor - dependent]
    if wrong.any():
        first = wrong.argmax()
        u, v = codes.index[center[first]], codes.index[neighbor[first]]
        raise FeatureError(f"pair ({u},{v}) is not an edge of the dependency tree")
    rows = np.full(len(pairs), DrefTable.SELF_ROW, dtype=np.intp)
    rows[edge] = dref_rows[codes.pos[center], codes.pos[neighbor], codes.deprel[dependent]]
    return rows


def edge_features(
    codes: TokenCodes, token_rows: np.ndarray, pairs: np.ndarray, dependents: np.ndarray,
    mode: str, d_e: int, dref_rows: np.ndarray | None = None, dref_embed: nm.Node | None = None,
    dtype=np.float64,
) -> nm.Node | None:
    """The (P, d_e) feature rows of a batch's pairs, or None when the mode has none.

    The batch is laid out as in ``Model.forward``: the ``code_tokens`` of
    its token rows, the token row of every vertex row, and the
    ``attention_pairs`` pairs and dependents over vertex rows. dref
    gathers each pair's row of ``dref_embed``; ctef is an all-ones row
    where the attended-from vertex j of pair (i, j) is an entity token
    and zeros elsewhere; the combined mode sums both. The flags are
    constants of ``dtype``, that of ``dref_embed``.
    """
    if mode not in EDGE_MODES:
        raise FeatureError(f"unknown edge mode {mode!r}")
    node = None
    if "dref" in mode:
        if dref_rows is None or dref_embed is None:
            raise FeatureError(f"edge mode {mode!r} needs a dependency-triple table and embedding")
        rows = dref_edge_features(codes, token_rows, pairs, dependents, dref_rows)
        node = nm.gather_rows(dref_embed, rows)
    if "ctef" in mode:
        flags = codes.entity[token_rows[pairs[:, 1]]]
        ctef = nm.constant(flags.astype(dtype)[:, None].repeat(d_e, axis=1))
        node = ctef if node is None else nm.add(node, ctef)
    return node
