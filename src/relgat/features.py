"""Token input encodings and the two edge-feature constructions.

Per-token inputs are the concatenation of a contextual vector (from a
pluggable provider), three trainable symbol embeddings (POS, deprel,
NER) and a 2-row word-type embedding flagging entity tokens.

Edge features come in two flavors. The frequency-based kind (dref) keys
a trainable vector on the (POS, POS, deprel) triple of the underlying
tree edge, with corpus frequency ratios kept alongside. The
connection-type kind (ctef) marks, per attention direction, whether the
attended-from vertex is an entity token (all-ones) or not (all-zeros).
Both are plain arrays aligned with the (center, neighbor) rows that
``attention_pairs`` lays out.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from . import numerics as nm
from .corpus import EntitySpan, Sentence, Vocabs
from .graph import SubGraph

__all__ = [
    "FeatureError",
    "EmbeddingProvider",
    "HashedEmbeddingProvider",
    "FileEmbeddingProvider",
    "FeatureEmbeddings",
    "DrefTable",
    "EDGE_MODES",
    "build_dref_table",
    "dref_edge_features",
    "ctef_edge_features",
    "edge_features",
    "attention_pairs",
    "encode_tokens",
]

EDGE_MODES = ("none", "dref", "ctef", "dref+ctef")


class FeatureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Contextual embedding providers


class EmbeddingProvider:
    """Maps a sentence to one contextual vector per token."""

    dim: int

    def vectors(self, sentence: Sentence) -> np.ndarray:
        raise NotImplementedError


class HashedEmbeddingProvider(EmbeddingProvider):
    """Deterministic fallback: hash (surface, seed) to a pseudo-random vector.

    The same surface always maps to the same unit-variance vector, across
    runs and platforms.
    """

    def __init__(self, dim: int = 768, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def _vector(self, surface: str) -> np.ndarray:
        cached = self._cache.get(surface)
        if cached is None:
            digest = hashlib.blake2b(
                f"{self.seed}\x00{surface}".encode("utf-8"), digest_size=8
            ).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            cached = rng.standard_normal(self.dim)
            self._cache[surface] = cached
        return cached

    def vectors(self, sentence: Sentence) -> np.ndarray:
        return np.stack([self._vector(t.surface) for t in sentence.tokens])


class FileEmbeddingProvider(EmbeddingProvider):
    """Precomputed vectors keyed by (instance id, token index).

    File format: one record per token,
    ``instance_id <TAB> token_index <TAB> v1 v2 ... vD`` with an integer
    token index and D space-separated finite decimals. A malformed record
    raises FeatureError naming its line, and a token without a vector one
    naming the instance and token; both start with the file's path when
    the provider was read with ``from_path``.
    """

    def __init__(self, text: str, dim: int = 768):
        self.dim = dim
        self.path: str | None = None
        self._table: dict[tuple[str, int], np.ndarray] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            where = f"embedding file line {lineno}"
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
            self._table[(parts[0], index)] = vec

    @classmethod
    def from_path(cls, path: str, dim: int = 768) -> "FileEmbeddingProvider":
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            provider = cls(text, dim)
        except FeatureError as exc:
            raise FeatureError(f"{path}: {exc}") from None
        provider.path = path
        return provider

    def vectors(self, sentence: Sentence) -> np.ndarray:
        key = str(sentence.instance_id)
        rows = []
        for t in sentence.tokens:
            vec = self._table.get((key, t.index))
            if vec is None:
                where = f"{self.path}: " if self.path else ""
                raise FeatureError(
                    f"{where}no precomputed vector for instance {sentence.instance_id} token {t.index}"
                )
            rows.append(vec)
        return np.stack(rows)


# ---------------------------------------------------------------------------
# Trainable per-token feature embeddings


class FeatureEmbeddings:
    """Trainable POS/deprel/NER/word-type tables sized from the vocabularies, in ``dtype``."""

    def __init__(
        self,
        vocabs: Vocabs,
        d_ctx: int = 768,
        d_f: int = 40,
        d_wt: int = 10,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        if not (vocabs.pos.frozen and vocabs.deprel.frozen and vocabs.ner.frozen):
            raise FeatureError("vocabularies must be frozen before building embeddings")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocabs = vocabs
        self.d_ctx = d_ctx
        self.d_f = d_f
        self.d_wt = d_wt
        self.dtype = np.dtype(dtype)
        self.pos = nm.parameter(nm.uniform_init(rng, (len(vocabs.pos), d_f), d_f, dtype))
        self.deprel = nm.parameter(nm.uniform_init(rng, (len(vocabs.deprel), d_f), d_f, dtype))
        self.ner = nm.parameter(nm.uniform_init(rng, (len(vocabs.ner), d_f), d_f, dtype))
        self.word_type = nm.parameter(nm.uniform_init(rng, (2, d_wt), d_wt, dtype))

    @property
    def input_dim(self) -> int:
        return self.d_ctx + 3 * self.d_f + self.d_wt

    def parameters(self) -> dict[str, nm.Node]:
        return {
            "embed.pos": self.pos,
            "embed.deprel": self.deprel,
            "embed.ner": self.ner,
            "embed.word_type": self.word_type,
        }


def encode_tokens(
    sentences: list[tuple[Sentence, Sequence[int]]],
    provider: EmbeddingProvider,
    emb: FeatureEmbeddings,
) -> list[nm.Node]:
    """Input rows of the given tokens of each sentence, as two column blocks.

    ``sentences`` pairs each sentence with the indices of the tokens to
    encode; rows follow the pairs in order and, within one, those indices.
    The blocks are the contextual vectors, a constant (T, d_ctx), and the
    trainable [pos ; deprel ; ner ; word-type] features, (T, 3*d_f + d_wt):
    side by side, the d_ctx + 3*d_f + d_wt input columns of every token.
    Both are in the embeddings' dtype: the provider's vectors are cast
    once, here.
    """
    ctx, tokens, word_type = [], [], []
    for sentence, indices in sentences:
        ctx_all = provider.vectors(sentence)
        if ctx_all.shape[1] != emb.d_ctx:
            raise FeatureError(f"provider dimension {ctx_all.shape[1]} != expected {emb.d_ctx}")
        ctx.append(ctx_all[indices])
        tokens.extend(sentence.tokens[i] for i in indices)
        word_type.extend(1 if sentence.entity_token(i) else 0 for i in indices)
    vocabs = emb.vocabs
    return [
        nm.constant(np.concatenate(ctx, dtype=emb.dtype)),
        nm.concat([
            nm.gather_rows(emb.pos, [vocabs.pos.index(t.pos) for t in tokens]),
            nm.gather_rows(emb.deprel, [vocabs.deprel.index(t.deprel) for t in tokens]),
            nm.gather_rows(emb.ner, [vocabs.ner.index(t.ner) for t in tokens]),
            nm.gather_rows(emb.word_type, word_type),
        ], axis=1),
    ]


# ---------------------------------------------------------------------------
# Frequency-based dependency edge features


class DrefTable:
    """Frequency statistics over (head-POS, dependent-POS, deprel) triples.

    Each observed triple owns one row of a trainable embedding matrix;
    row 0 is the unseen-triple fallback and row 1 the self-loop row. The
    matrix itself lives in the model; this table only maps triples to
    rows and keeps counts and frequency ratios.
    """

    UNK_ROW = 0
    SELF_ROW = 1
    RESERVED_ROWS = 2

    def __init__(self, counts: dict[tuple[str, str, str], int], total: int, d_e: int = 40):
        if total <= 0 or not counts:
            raise FeatureError("empty dependency-triple statistics")
        self.counts = dict(counts)
        self.total = total
        self.d_e = d_e
        self.ratio = {t: c / total for t, c in self.counts.items()}
        self.row = {t: i + self.RESERVED_ROWS for i, t in enumerate(self.counts)}

    @property
    def num_rows(self) -> int:
        return len(self.counts) + self.RESERVED_ROWS

    def row_for(self, triple: tuple[str, str, str]) -> int:
        return self.row.get(triple, self.UNK_ROW)

    def ratio_for(self, triple: tuple[str, str, str]) -> float:
        return self.ratio.get(triple, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "|".join(t): {"count": c, "ratio": self.ratio[t]}
            for t, c in self.counts.items()
        }


def build_dref_table(train: list[Sentence], d_e: int = 40) -> DrefTable:
    """Count every tree edge of the training split as one triple.

    The triple is (head POS, dependent POS, deprel of the dependent);
    ratios are counts over the total number of edges seen.
    """
    if not train:
        raise FeatureError("empty corpus")
    counts: dict[tuple[str, str, str], int] = {}
    total = 0
    for sentence in train:
        if not sentence.parsed:
            raise FeatureError(f"instance {sentence.instance_id}: sentence has no parse")
        for t in sentence.tokens:
            if t.head is None:
                continue
            head = sentence.tokens[t.head]
            triple = (head.pos, t.pos, t.deprel)
            counts[triple] = counts.get(triple, 0) + 1
            total += 1
    return DrefTable(counts, total, d_e)


# ---------------------------------------------------------------------------
# Edge features over the attention pairs of a sub-graph


def attention_pairs(sg: SubGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each center's first pair row, and the (P, 2) (center, neighbor) pairs.

    Pairs are grouped by center with neighbors ascending and the
    self-loop included, so the closed neighborhood of vertex i is the
    contiguous segment of rows from ``starts[i]`` to ``starts[i + 1]``.
    """
    size = len(sg)
    pairs = np.argwhere(sg.adjacency + np.eye(size))
    return np.searchsorted(pairs[:, 0], np.arange(size)), pairs


def dref_edge_features(
    sg: SubGraph, sentence: Sentence, pairs: np.ndarray, table: DrefTable
) -> tuple[np.ndarray, np.ndarray]:
    """The dref embedding row and frequency ratio of every pair, in pair order.

    The lookup key for pair (i, j) is (POS of i, POS of j, deprel of the
    underlying tree edge); unseen keys map to the fallback row and
    self-loops to the dedicated self-edge row with ratio 1.
    """
    rows = np.full(len(pairs), DrefTable.SELF_ROW, dtype=np.intp)
    ratios = np.ones(len(pairs))
    for k, (i, j) in enumerate(pairs.tolist()):
        if i == j:
            continue
        u, v = sg.vertices[i], sg.vertices[j]
        tok_u, tok_v = sentence.tokens[u], sentence.tokens[v]
        if tok_v.head == u:
            deprel = tok_v.deprel
        elif tok_u.head == v:
            deprel = tok_u.deprel
        else:
            raise FeatureError(f"pair ({u},{v}) is not an edge of the dependency tree")
        triple = (tok_u.pos, tok_v.pos, deprel)
        rows[k] = table.row_for(triple)
        ratios[k] = table.ratio_for(triple)
    return rows, ratios


def ctef_edge_features(
    sg: SubGraph, e1: EntitySpan, e2: EntitySpan, pairs: np.ndarray
) -> np.ndarray:
    """1.0 where the attended-from vertex j of pair (i, j) is an entity token, else 0.0.

    The flag is directional: the two orientations of one undirected edge
    differ whenever exactly one endpoint is an entity token.
    """
    entity = np.array([float(e1.covers(v) or e2.covers(v)) for v in sg.vertices])
    return entity[pairs[:, 1]]


def edge_features(
    units: list[tuple[Sentence, SubGraph]],
    pairs: list[np.ndarray],
    mode: str,
    d_e: int,
    table: DrefTable | None = None,
    dref_embed: nm.Node | None = None,
    scale_by_ratio: bool = False,
    dtype=np.float64,
) -> nm.Node | None:
    """The (P, d_e) feature rows of every unit's pairs, stacked, or None when the mode has none.

    ``pairs[u]`` holds the local ``attention_pairs`` of unit u, a
    (sentence, sub-graph) pair. dref gathers each pair's row of
    ``dref_embed``, optionally scaled by the triple's frequency ratio;
    ctef is an all-ones row where the attended-from vertex is an entity
    token and zeros elsewhere; the combined mode sums both. The ratios and
    flags are constants of ``dtype``, which is that of ``dref_embed``.
    """
    if mode not in EDGE_MODES:
        raise FeatureError(f"unknown edge mode {mode!r}")
    node = None
    if "dref" in mode:
        if table is None or dref_embed is None:
            raise FeatureError(f"edge mode {mode!r} needs a dependency-triple table and embedding")
        looked_up = [dref_edge_features(sg, s, p, table) for (s, sg), p in zip(units, pairs)]
        node = nm.gather_rows(dref_embed, np.concatenate([rows for rows, _ in looked_up]))
        if scale_by_ratio:
            ratios = np.concatenate([ratios for _, ratios in looked_up])
            node = nm.mul(node, nm.constant(ratios[:, None].astype(dtype)))
    if "ctef" in mode:
        flags = np.concatenate(
            [ctef_edge_features(sg, s.e1, s.e2, p) for (s, sg), p in zip(units, pairs)]
        )
        ctef = nm.constant(np.repeat(flags[:, None].astype(dtype), d_e, axis=1))
        node = ctef if node is None else nm.add(node, ctef)
    return node
