"""The multi-subgraph network: BiLSTM, edge-featured GAT/GCN, pooling, classifier.

Per sub-graph, vertex inputs are context-encoded (BiLSTM over the
sub-graph token sequence, or a learned linear projection in the
non-contextual variant), updated by one graph layer, and pooled into a
fixed-length vector by scalar attention. The sentence vector is the sum
of the pooled graph vectors and the two entity hidden states read from
the path graph; a linear layer maps it to the 19 relation logits.

Both context encoders start from the same input projection,
``[ctx | feat] @ [W_ctx ; W_feat] + b`` (``input_projection``), run once
per distinct token. The two row blocks of each input matrix are separate
parameters and each column block has its own product, so the constant
contextual vectors cost no gradient GEMM.

Graph attention per head k with transform W and attention vector a:

    score(i, j) = leakyrelu(a . [W h_i | W h_j | e_ij], 0.2)
    alpha_i     = softmax over j in N(i) + {i}
    out_i       = elu(sum_j alpha_ij W h_j)

Heads are concatenated to width d_g. The GCN variant replaces attention
with symmetric degree normalization over [h_j | e_ij].

Both layers run over the flat pair layout of ``attention_pairs``: one
(center i, neighbor j) row per attention pair, grouped by center, with
edge features as (P, d_e) rows aligned with it. Scores, messages and
edge features are computed for all pairs at once; ``segment_softmax``
normalizes the scores within each center's segment and ``segment_sum``
adds each center's weighted messages (the segment-softmax / scatter-add
formulation of PyG's GATConv). A layer is thus a fixed number of
autodiff nodes, independent of the vertex count.

A forward pass takes a batch of instances and runs it as one segment
layout, the disjoint union of all their sub-graphs (PyG's mini-batching
scheme):

    units          (sentence, sub-graph) for every instance, path graph
                   first; G = 3B in multi-graph mode, B in single mode
    tokens         each instance's distinct tokens, the sorted union of
                   its units' vertices: the rows of the token encoding
                   and of the input projection, so a token that several
                   sub-graphs share is encoded and projected once
    token_rows     the token row of every vertex row: each BiLSTM
                   direction gathers its projected gate pre-activations
                   by it (the non-contextual variant its projection)
    vertex_starts  each unit's first vertex row: the rows of the BiLSTM
                   (one packed sequence per unit) and every graph layer
    pair_starts,   the units' attention pairs, offset by the vertex and
    pairs          pair counts before them, and their edge features as
                   one (P, d_e) node
    pooling        segment_softmax and segment_sum over vertex_starts:
                   one (G, d_g) row per unit
    sentences      segment_sum over each instance's G/B units plus the
                   gathered e1/e2 rows of its path graph: (B, d_g)

so the autodiff graph has the same nodes whatever B is, and a single
instance is a batch of one. Besides the logits, a forward hands back the
diagnostics this layout already holds, as flat arrays: the pooling
weight of every vertex row, every head's attention weight of every pair
row, and the vertex and pair starts that cut them by unit and by center.

The model's value dtype is a constructor argument, float32 by default:
parameters, every constant a forward builds, activations and gradients
all share it. Parameters are drawn in float64 and rounded
(``uniform_init``), so a float32 model is its float64 twin rounded;
gradient checks and the numpy oracles build float64 models.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import numerics as nm
from .corpus import Sentence, Vocabs
from .features import (
    EDGE_MODES,
    DrefTable,
    EmbeddingProvider,
    FeatureEmbeddings,
    attention_pairs,
    edge_features,
    encode_tokens,
)
from .graph import SubGraph, SubGraphSet

__all__ = [
    "ModelConfig",
    "ConfigError",
    "LstmParams",
    "GatHead",
    "Model",
    "ForwardDetail",
    "input_weights",
    "input_projection",
    "bilstm_encode",
    "token_layout",
    "gat_attention",
    "gat_vertex_update",
    "gcn_vertex_update",
    "pool_graph",
    "compose_sentence",
]

GRAPH_LAYERS = ("gat", "gcn")
GRAPH_MODES = ("multi", "single")
SIZE_FIELDS = ("d_ctx", "d_f", "d_wt", "d_lstm", "d_g", "heads", "d_e")
NUM_LABELS = 19
LEAKY_SLOPE = 0.2


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    d_ctx: int = 768
    d_f: int = 40
    d_wt: int = 10
    d_lstm: int = 256  # per direction
    d_g: int = 256  # graph-layer output width
    heads: int = 4
    d_e: int = 40
    graph_layer: str = "gat"
    graph_depth: int = 1
    contextual: bool = True
    graph_mode: str = "multi"
    edge_mode: str = "none"
    expansion_order: int = 0
    dref_scale_by_ratio: bool = False

    def __post_init__(self):
        for name in SIZE_FIELDS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.graph_layer not in GRAPH_LAYERS:
            raise ConfigError(f"graph_layer must be one of {GRAPH_LAYERS}, got {self.graph_layer!r}")
        if self.graph_depth < 1:
            raise ConfigError(f"graph_depth must be >= 1, got {self.graph_depth}")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}, got {self.graph_mode!r}")
        if self.edge_mode not in EDGE_MODES:
            raise ConfigError(f"edge_mode must be one of {EDGE_MODES}, got {self.edge_mode!r}")
        if self.expansion_order not in (0, 1, 2):
            raise ConfigError(f"expansion_order must be 0, 1 or 2, got {self.expansion_order}")
        if self.d_g % self.heads != 0:
            raise ConfigError(f"d_g={self.d_g} not divisible by heads={self.heads}")

    @property
    def head_dim(self) -> int:
        return self.d_g // self.heads

    @property
    def uses_dref(self) -> bool:
        return "dref" in self.edge_mode

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


# ---------------------------------------------------------------------------
# Layer parameter groups


def input_weights(
    rng: np.random.Generator, ctx_dim: int, feat_dim: int, width: int, dtype=np.float64
) -> tuple[nm.Node, nm.Node]:
    """The contextual and feature row blocks of one (ctx_dim + feat_dim, width) input matrix.

    Drawn one after the other with the whole matrix's fan-in, so stacked
    they equal ``uniform_init`` of the whole matrix bit for bit.
    """
    fan_in = ctx_dim + feat_dim
    return (
        nm.parameter(nm.uniform_init(rng, (ctx_dim, width), fan_in, dtype)),
        nm.parameter(nm.uniform_init(rng, (feat_dim, width), fan_in, dtype)),
    )


class LstmParams:
    """One LSTM direction: stacked gate matrices in (input, forget, cell, output) order.

    The input matrix is kept as its rows for the contextual columns
    (``w_ctx``) and for the trainable feature columns (``w_feat``).
    """

    def __init__(
        self, ctx_dim: int, feat_dim: int, hidden_dim: int, rng: np.random.Generator, dtype=np.float64
    ):
        gates = 4 * hidden_dim
        self.w_ctx, self.w_feat = input_weights(rng, ctx_dim, feat_dim, gates, dtype)
        self.w_hidden = nm.parameter(nm.uniform_init(rng, (hidden_dim, gates), hidden_dim, dtype))
        self.bias = nm.parameter(np.zeros((1, gates), dtype))

    def parameters(self, prefix: str) -> dict[str, nm.Node]:
        return {
            f"{prefix}.w_ctx": self.w_ctx,
            f"{prefix}.w_feat": self.w_feat,
            f"{prefix}.w_hidden": self.w_hidden,
            f"{prefix}.bias": self.bias,
        }


class GatHead:
    """One attention head: shared transform W and attention vector a."""

    def __init__(
        self, in_dim: int, out_dim: int, edge_dim: int, rng: np.random.Generator, dtype=np.float64
    ):
        self.out_dim = out_dim
        self.w = nm.parameter(nm.uniform_init(rng, (in_dim, out_dim), in_dim, dtype))
        attn_len = 2 * out_dim + edge_dim
        self.a = nm.parameter(nm.uniform_init(rng, (attn_len, 1), attn_len, dtype))

    def parameters(self, prefix: str) -> dict[str, nm.Node]:
        return {f"{prefix}.w": self.w, f"{prefix}.a": self.a}


# ---------------------------------------------------------------------------
# Layer operations (module level so each is testable in isolation)


def input_projection(x: list[nm.Node], w_ctx: nm.Node, w_feat: nm.Node, bias: nm.Node) -> nm.Node:
    """``[ctx | feat] @ [w_ctx ; w_feat] + bias`` for the two column blocks ``x = [ctx, feat]``.

    One product per block: the constant contextual block needs no
    gradient, so the backward skips its GEMM.
    """
    ctx, feat = x
    return nm.add(nm.add(nm.matmul(ctx, w_ctx), nm.matmul(feat, w_feat)), bias)


def bilstm_encode(
    x: list[nm.Node], starts, forward: LstmParams, backward: LstmParams, token_rows
) -> nm.Node:
    """Concatenated forward/backward hidden states of the sequences at ``starts``.

    ``x`` holds the [contextual, feature] column blocks of the distinct
    tokens. Each direction projects them once per token, gathers the gate
    pre-activations to the layout rows (layout row r reads token row
    ``token_rows[r]``) and runs its recurrence over them.
    """
    states = [
        nm.lstm_sequence(
            nm.gather_rows(input_projection(x, p.w_ctx, p.w_feat, p.bias), token_rows),
            p.w_hidden, starts, reverse,
        )
        for p, reverse in ((forward, False), (backward, True))
    ]
    return nm.concat(states, axis=1)


def token_layout(graph_sets: list[list[SubGraph]]) -> tuple[list[list[int]], np.ndarray]:
    """The distinct tokens of each instance and the token row of every unit vertex row.

    ``graph_sets[b]`` holds instance b's units. Its tokens are the sorted
    union of their vertices; token rows number them instance by instance,
    and the returned map gives, for each vertex of each unit in order,
    the row of the same sentence token.
    """
    tokens, rows = [], []
    offset = 0
    for graphs in graph_sets:
        distinct = sorted({v for sg in graphs for v in sg.vertices})
        row_of = {v: r for r, v in enumerate(distinct, start=offset)}
        rows.extend(row_of[v] for sg in graphs for v in sg.vertices)
        tokens.append(distinct)
        offset += len(distinct)
    return tokens, np.array(rows, dtype=np.intp)


def gat_attention(
    wh: nm.Node,
    starts: np.ndarray,
    pairs: np.ndarray,
    a: nm.Node,
    efeat: nm.Node | None = None,
    slope: float = LEAKY_SLOPE,
) -> nm.Node:
    """Attention weights as one (P, 1) column, softmax-normalized per center segment.

    The score a . [W h_i | W h_j | e_ij] is split by block: each vertex's
    center and neighbor terms are computed once, (n, 1) each, and
    gathered per pair, and the edge block is a separate product, so the
    edge-free variant is the vertex blocks alone.
    """
    m = wh.shape[1]
    as_center = nm.matmul(wh, nm.slice_axis(a, 0, 0, m))
    as_neighbor = nm.matmul(wh, nm.slice_axis(a, 0, m, 2 * m))
    scores = nm.add(nm.gather_rows(as_center, pairs[:, 0]), nm.gather_rows(as_neighbor, pairs[:, 1]))
    if efeat is not None:
        scores = nm.add(scores, nm.matmul(efeat, nm.slice_axis(a, 0, 2 * m, a.shape[0])))
    return nm.segment_softmax(nm.leaky_relu(scores, slope), starts)


def gat_vertex_update(
    h: nm.Node,
    starts: np.ndarray,
    pairs: np.ndarray,
    heads: list[GatHead],
    efeat: nm.Node | None = None,
) -> tuple[nm.Node, list[np.ndarray]]:
    """Multi-head attention update; heads concatenated to width K*m.

    Also returns each head's attention weights as a plain (P,) array in
    pair order, for diagnostics.
    """
    outputs = []
    attention: list[np.ndarray] = []
    for head in heads:
        wh = nm.matmul(h, head.w)
        alpha = gat_attention(wh, starts, pairs, head.a, efeat)
        messages = nm.mul(nm.gather_rows(wh, pairs[:, 1]), alpha)
        outputs.append(nm.elu(nm.segment_sum(messages, starts)))
        attention.append(alpha.value[:, 0])
    return nm.concat(outputs, axis=1), attention


def gcn_vertex_update(
    h: nm.Node,
    starts: np.ndarray,
    pairs: np.ndarray,
    w_g: nm.Node,
    efeat: nm.Node | None = None,
) -> nm.Node:
    """Symmetric degree-normalized aggregation over [h_j | e_ij], self-loops in.

    out_i = relu(sum_j (deg_i * deg_j)^-1/2 * W_g [h_j | e_ij]) where the
    degree counts the self-loop. The normalisation is a constant in the
    dtype of ``h``.
    """
    degree = np.diff(starts, append=len(pairs))
    norm = (1.0 / np.sqrt(degree[pairs[:, 0]] * degree[pairs[:, 1]])).astype(h.value.dtype)
    messages_in = nm.gather_rows(h, pairs[:, 1])
    if efeat is not None:
        messages_in = nm.concat([messages_in, efeat], axis=1)
    messages = nm.matmul(messages_in, w_g)
    return nm.relu(nm.segment_sum(nm.mul(messages, nm.constant(norm[:, None])), starts))


def pool_graph(vertex_states: nm.Node, starts, w_pool: nm.Node) -> tuple[nm.Node, nm.Node]:
    """Scalar-attention readout of the graphs whose vertex rows begin at ``starts``.

    Per graph, weights softmax(tanh(H w)) over its vertices and the
    weighted sum of its rows; returns the (G, d) vectors and the (n, 1)
    weight column.
    """
    alpha = nm.segment_softmax(nm.tanh(nm.matmul(vertex_states, w_pool)), starts)
    return nm.segment_sum(nm.mul(vertex_states, alpha), starts), alpha


def compose_sentence(
    pooled: nm.Node, starts, e1_state: nm.Node, e2_state: nm.Node
) -> nm.Node:
    """Sentence vectors: both entity states plus the sum of each sentence's pooled graph rows.

    ``starts`` gives each sentence's first row of ``pooled``; the entity
    states have one row per sentence.
    """
    return nm.add(nm.add(e1_state, e2_state), nm.segment_sum(pooled, starts))


# ---------------------------------------------------------------------------
# Model


@dataclass
class ForwardDetail:
    """Batch logits plus the diagnostics of one forward pass, in its layout.

    Unit u is sub-graph u % U of instance u // U (U = 3 in multi-graph
    mode, path graph first, else 1) and owns the vertex rows from
    ``vertex_starts[u]`` up to the next unit's start; vertex i owns the
    pair rows from ``pair_starts[i]`` up to the next vertex's start.
    """

    logits: nm.Node  # (B, NUM_LABELS)
    pooling: np.ndarray  # (n,) pooling weight of every vertex row; each unit's sum to 1
    attention: list[np.ndarray]  # (P,) per head, layer by layer; empty for gcn
    vertex_starts: np.ndarray  # (G,) first vertex row of every unit
    pair_starts: np.ndarray  # (n,) first pair row of every center vertex


class Model:
    """Parameter container plus the forward pass over a sub-graph set.

    ``dtype`` (float32 or float64) is the dtype of every parameter,
    activation and gradient.
    """

    DTYPES = (np.float32, np.float64)

    def __init__(
        self,
        config: ModelConfig,
        vocabs: Vocabs,
        dref: DrefTable | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        dtype = np.dtype(dtype)
        if dtype not in self.DTYPES:
            raise ConfigError(f"dtype must be float32 or float64, got {dtype}")
        if config.uses_dref and dref is None:
            raise ConfigError(f"edge_mode {config.edge_mode!r} needs a dependency-triple table")
        if dref is not None and dref.d_e != config.d_e:
            raise ConfigError(f"table d_e={dref.d_e} != config d_e={config.d_e}")
        self.config = config
        self.vocabs = vocabs
        self.dref_table = dref if config.uses_dref else None
        self.dtype = dtype

        rng = np.random.default_rng(seed)
        self.embeddings = FeatureEmbeddings(
            vocabs, config.d_ctx, config.d_f, config.d_wt, rng, dtype
        )
        self._params: dict[str, nm.Node] = dict(self.embeddings.parameters())

        self.dref_embed: nm.Node | None = None
        if self.dref_table is not None:
            self.dref_embed = nm.parameter(
                nm.uniform_init(rng, (self.dref_table.num_rows, config.d_e), config.d_e, dtype)
            )
            self._params["edge.dref"] = self.dref_embed

        feat_dim = self.embeddings.input_dim - config.d_ctx
        ctx_out = 2 * config.d_lstm
        if config.contextual:
            self.lstm_fwd = LstmParams(config.d_ctx, feat_dim, config.d_lstm, rng, dtype)
            self.lstm_bwd = LstmParams(config.d_ctx, feat_dim, config.d_lstm, rng, dtype)
            self._params.update(self.lstm_fwd.parameters("lstm_fwd"))
            self._params.update(self.lstm_bwd.parameters("lstm_bwd"))
            self.proj_w_ctx = self.proj_w_feat = self.proj_b = None
        else:
            self.lstm_fwd = self.lstm_bwd = None
            self.proj_w_ctx, self.proj_w_feat = input_weights(rng, config.d_ctx, feat_dim, ctx_out, dtype)
            self.proj_b = nm.parameter(np.zeros((1, ctx_out), dtype))
            self._params["proj.w_ctx"] = self.proj_w_ctx
            self._params["proj.w_feat"] = self.proj_w_feat
            self._params["proj.b"] = self.proj_b

        edge_dim = config.d_e if config.edge_mode != "none" else 0
        if config.graph_layer == "gat":
            self.gat_layers = []
            for l in range(config.graph_depth):
                in_dim = ctx_out if l == 0 else config.d_g
                heads = [
                    GatHead(in_dim, config.head_dim, edge_dim, rng, dtype) for _ in range(config.heads)
                ]
                for k, head in enumerate(heads):
                    self._params.update(head.parameters(f"gat.l{l}.head{k}"))
                self.gat_layers.append(heads)
            self.gcn_layers = None
        else:
            self.gat_layers = None
            self.gcn_layers = []
            for l in range(config.graph_depth):
                in_dim = (ctx_out if l == 0 else config.d_g) + edge_dim
                w = nm.parameter(nm.uniform_init(rng, (in_dim, config.d_g), in_dim, dtype))
                self._params[f"gcn.l{l}.w"] = w
                self.gcn_layers.append(w)

        self.pool_w = nm.parameter(nm.uniform_init(rng, (config.d_g, 1), config.d_g, dtype))
        self.cls_w = nm.parameter(nm.uniform_init(rng, (config.d_g, NUM_LABELS), config.d_g, dtype))
        self.cls_b = nm.parameter(np.zeros(NUM_LABELS, dtype))
        self._params["pool.w"] = self.pool_w
        self._params["cls.w"] = self.cls_w
        self._params["cls.b"] = self.cls_b

    def parameters(self) -> dict[str, nm.Node]:
        return dict(self._params)

    # -- forward --------------------------------------------------------------

    def _context_encode(
        self, x: list[nm.Node], starts: np.ndarray, token_rows: np.ndarray
    ) -> nm.Node:
        if self.config.contextual:
            return bilstm_encode(x, starts, self.lstm_fwd, self.lstm_bwd, token_rows)
        projected = input_projection(x, self.proj_w_ctx, self.proj_w_feat, self.proj_b)
        return nm.gather_rows(projected, token_rows)

    def forward(
        self, instances: list[tuple[Sentence, SubGraphSet]], provider: EmbeddingProvider
    ) -> ForwardDetail:
        """Logits (B, 19) of B (sentence, sub-graph set) instances, run as one layout.

        The graphs of all instances are units laid out back to back,
        instance by instance, path graph first: their vertex rows, their
        offset attention pairs and their edge features each form one
        array, so every layer runs once for the whole batch.
        """
        if not instances:
            raise ValueError("forward needs at least one instance")
        cfg = self.config
        per_instance = 3 if cfg.graph_mode == "multi" else 1
        graph_sets = [sgs.all() if cfg.graph_mode == "multi" else [sgs.sdp] for _, sgs in instances]
        units = [
            (sentence, sg) for (sentence, _), graphs in zip(instances, graph_sets) for sg in graphs
        ]
        vertex_starts = np.cumsum([0] + [len(sg) for _, sg in units[:-1]])
        local_pairs, pair_starts, pairs = [], [], []
        offset = 0
        for (_, sg), first in zip(units, vertex_starts):
            starts_u, pairs_u = attention_pairs(sg)
            local_pairs.append(pairs_u)
            pair_starts.append(starts_u + offset)
            pairs.append(pairs_u + first)
            offset += len(pairs_u)
        pair_starts, pairs = np.concatenate(pair_starts), np.concatenate(pairs)

        tokens, token_rows = token_layout(graph_sets)
        sentence_tokens = [(sentence, t) for (sentence, _), t in zip(instances, tokens)]
        x = encode_tokens(sentence_tokens, provider, self.embeddings)
        h = self._context_encode(x, vertex_starts, token_rows)
        efeat = edge_features(
            units, local_pairs, cfg.edge_mode, cfg.d_e,
            self.dref_table, self.dref_embed, cfg.dref_scale_by_ratio, self.dtype,
        )
        attention: list[list[np.ndarray]] = []
        if cfg.graph_layer == "gat":
            for heads in self.gat_layers:
                h, layer_attention = gat_vertex_update(h, pair_starts, pairs, heads, efeat)
                attention.extend(layer_attention)
        else:
            for w in self.gcn_layers:
                h = gcn_vertex_update(h, pair_starts, pairs, w, efeat)
        pooled, alpha = pool_graph(h, vertex_starts, self.pool_w)

        sdp_starts = vertex_starts[::per_instance]
        e1_rows = sdp_starts + [sgs.sdp.local(s.e1.head_token) for s, sgs in instances]
        e2_rows = sdp_starts + [sgs.sdp.local(s.e2.head_token) for s, sgs in instances]
        v = compose_sentence(
            pooled, np.arange(0, len(units), per_instance),
            nm.gather_rows(h, e1_rows), nm.gather_rows(h, e2_rows),
        )
        logits = nm.add(nm.matmul(v, self.cls_w), self.cls_b)
        return ForwardDetail(logits, alpha.value[:, 0], attention, vertex_starts, pair_starts)

    def predict_index(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> int:
        return int(np.argmax(self.forward([(sentence, sgs)], provider).logits.value[0]))
