"""The multi-subgraph network: BiLSTM, edge-featured GAT/GCN, pooling, classifier.

Per sub-graph, vertex inputs are context-encoded (BiLSTM over the
sub-graph token sequence, or a learned linear projection in the
non-contextual variant), updated by one graph layer, and pooled into a
fixed-length vector by scalar attention. The sentence vector is the sum
of the pooled graph vectors and the two entity hidden states read from
the path graph; a linear layer maps it to the 19 relation logits.

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
    vertex_starts  each unit's first vertex row: the rows of the token
                   encoding, the BiLSTM (one packed sequence per unit)
                   and every graph layer
    pair_starts,   the units' attention pairs, offset by the vertex and
    pairs          pair counts before them, and their edge features as
                   one (P, d_e) node
    pooling        segment_softmax and segment_sum over vertex_starts:
                   one (G, d_g) row per unit
    sentences      segment_sum over each instance's G/B units plus the
                   gathered e1/e2 rows of its path graph: (B, d_g)

so the autodiff graph has the same nodes whatever B is, and a single
instance is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

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
from .graph import SubGraphSet

__all__ = [
    "ModelConfig",
    "ConfigError",
    "LstmParams",
    "GatHead",
    "Model",
    "ForwardDetail",
    "bilstm_encode",
    "gat_attention",
    "gat_vertex_update",
    "gcn_vertex_update",
    "pool_graph",
    "compose_sentence",
]

GRAPH_LAYERS = ("gat", "gcn")
GRAPH_MODES = ("multi", "single")
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


class LstmParams:
    """One LSTM direction: stacked gate matrices in (input, forget, cell, output) order."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.w_input = nm.parameter(nm.uniform_init(rng, (input_dim, 4 * hidden_dim), input_dim))
        self.w_hidden = nm.parameter(nm.uniform_init(rng, (hidden_dim, 4 * hidden_dim), hidden_dim))
        self.bias = nm.parameter(np.zeros((1, 4 * hidden_dim)))

    def parameters(self, prefix: str) -> dict[str, nm.Node]:
        return {
            f"{prefix}.w_input": self.w_input,
            f"{prefix}.w_hidden": self.w_hidden,
            f"{prefix}.bias": self.bias,
        }


class GatHead:
    """One attention head: shared transform W and attention vector a."""

    def __init__(self, in_dim: int, out_dim: int, edge_dim: int, rng: np.random.Generator):
        self.out_dim = out_dim
        self.w = nm.parameter(nm.uniform_init(rng, (in_dim, out_dim), in_dim))
        attn_len = 2 * out_dim + edge_dim
        self.a = nm.parameter(nm.uniform_init(rng, (attn_len, 1), attn_len))

    def parameters(self, prefix: str) -> dict[str, nm.Node]:
        return {f"{prefix}.w": self.w, f"{prefix}.a": self.a}


# ---------------------------------------------------------------------------
# Layer operations (module level so each is testable in isolation)


def bilstm_encode(x: nm.Node, starts, forward: LstmParams, backward: LstmParams) -> nm.Node:
    """Concatenated forward/backward hidden states of the sequences at ``starts``, one row per input row."""
    fwd = nm.lstm_sequence(x, forward.w_input, forward.w_hidden, forward.bias, starts, reverse=False)
    bwd = nm.lstm_sequence(x, backward.w_input, backward.w_hidden, backward.bias, starts, reverse=True)
    return nm.concat([fwd, bwd], axis=1)


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
) -> tuple[nm.Node, list[list[np.ndarray]]]:
    """Multi-head attention update; heads concatenated to width K*m.

    Also returns the attention rows as plain arrays (head-major, one row
    per vertex) for diagnostics.
    """
    outputs = []
    attention: list[list[np.ndarray]] = []
    for head in heads:
        wh = nm.matmul(h, head.w)
        alpha = gat_attention(wh, starts, pairs, head.a, efeat)
        messages = nm.mul(nm.gather_rows(wh, pairs[:, 1]), alpha)
        outputs.append(nm.elu(nm.segment_sum(messages, starts)))
        attention.append(np.split(alpha.value[:, 0], starts[1:]))
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
    degree counts the self-loop.
    """
    degree = np.diff(starts, append=len(pairs))
    norm = 1.0 / np.sqrt(degree[pairs[:, 0]] * degree[pairs[:, 1]])
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
    """Batch logits plus per-instance attention diagnostics from one forward pass."""

    logits: nm.Node  # (B, NUM_LABELS)
    # per instance: kind -> [head][vertex] attention weights (graph layer), empty for gcn
    attention: list[dict[str, list[list[np.ndarray]]]] = field(default_factory=list)
    # per instance: kind -> pooling distribution over vertices
    pooling: list[dict[str, np.ndarray]] = field(default_factory=list)


class Model:
    """Parameter container plus the forward pass over a sub-graph set."""

    def __init__(
        self,
        config: ModelConfig,
        vocabs: Vocabs,
        dref: DrefTable | None = None,
        seed: int = 0,
    ):
        if config.uses_dref and dref is None:
            raise ConfigError(f"edge_mode {config.edge_mode!r} needs a dependency-triple table")
        if dref is not None and dref.d_e != config.d_e:
            raise ConfigError(f"table d_e={dref.d_e} != config d_e={config.d_e}")
        self.config = config
        self.vocabs = vocabs
        self.dref_table = dref if config.uses_dref else None

        rng = np.random.default_rng(seed)
        self.embeddings = FeatureEmbeddings(vocabs, config.d_ctx, config.d_f, config.d_wt, rng)
        self._params: dict[str, nm.Node] = dict(self.embeddings.parameters())

        self.dref_embed: nm.Node | None = None
        if self.dref_table is not None:
            self.dref_embed = nm.parameter(
                nm.uniform_init(rng, (self.dref_table.num_rows, config.d_e), config.d_e)
            )
            self._params["edge.dref"] = self.dref_embed

        in_dim = self.embeddings.input_dim
        ctx_out = 2 * config.d_lstm
        if config.contextual:
            self.lstm_fwd = LstmParams(in_dim, config.d_lstm, rng)
            self.lstm_bwd = LstmParams(in_dim, config.d_lstm, rng)
            self._params.update(self.lstm_fwd.parameters("lstm_fwd"))
            self._params.update(self.lstm_bwd.parameters("lstm_bwd"))
            self.proj_w = self.proj_b = None
        else:
            self.lstm_fwd = self.lstm_bwd = None
            self.proj_w = nm.parameter(nm.uniform_init(rng, (in_dim, ctx_out), in_dim))
            self.proj_b = nm.parameter(np.zeros((1, ctx_out)))
            self._params["proj.w"] = self.proj_w
            self._params["proj.b"] = self.proj_b

        edge_dim = config.d_e if config.edge_mode != "none" else 0
        if config.graph_layer == "gat":
            self.gat_layers = []
            for l in range(config.graph_depth):
                in_dim = ctx_out if l == 0 else config.d_g
                heads = [GatHead(in_dim, config.head_dim, edge_dim, rng) for _ in range(config.heads)]
                for k, head in enumerate(heads):
                    self._params.update(head.parameters(f"gat.l{l}.head{k}"))
                self.gat_layers.append(heads)
            self.gcn_layers = None
        else:
            self.gat_layers = None
            self.gcn_layers = []
            for l in range(config.graph_depth):
                in_dim = (ctx_out if l == 0 else config.d_g) + edge_dim
                w = nm.parameter(nm.uniform_init(rng, (in_dim, config.d_g), in_dim))
                self._params[f"gcn.l{l}.w"] = w
                self.gcn_layers.append(w)

        self.pool_w = nm.parameter(nm.uniform_init(rng, (config.d_g, 1), config.d_g))
        self.cls_w = nm.parameter(nm.uniform_init(rng, (config.d_g, NUM_LABELS), config.d_g))
        self.cls_b = nm.parameter(np.zeros(NUM_LABELS))
        self._params["pool.w"] = self.pool_w
        self._params["cls.w"] = self.cls_w
        self._params["cls.b"] = self.cls_b

    def parameters(self) -> dict[str, nm.Node]:
        return dict(self._params)

    # -- forward --------------------------------------------------------------

    def _context_encode(self, x: nm.Node, starts: np.ndarray) -> nm.Node:
        if self.config.contextual:
            return bilstm_encode(x, starts, self.lstm_fwd, self.lstm_bwd)
        return nm.add(nm.matmul(x, self.proj_w), self.proj_b)

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
        units = [
            (sentence, sg)
            for sentence, sgs in instances
            for sg in (sgs.all() if cfg.graph_mode == "multi" else [sgs.sdp])
        ]
        bounds = np.cumsum([0] + [len(sg) for _, sg in units])
        vertex_starts = bounds[:-1]
        local_pairs, pair_starts, pairs = [], [], []
        offset = 0
        for (_, sg), first in zip(units, vertex_starts):
            starts_u, pairs_u = attention_pairs(sg)
            local_pairs.append(pairs_u)
            pair_starts.append(starts_u + offset)
            pairs.append(pairs_u + first)
            offset += len(pairs_u)
        pair_starts, pairs = np.concatenate(pair_starts), np.concatenate(pairs)

        x = encode_tokens(units, provider, self.embeddings)
        h = self._context_encode(x, vertex_starts)
        efeat = edge_features(
            units, local_pairs, cfg.edge_mode, cfg.d_e,
            self.dref_table, self.dref_embed, cfg.dref_scale_by_ratio,
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
        detail = ForwardDetail(nm.add(nm.matmul(v, self.cls_w), self.cls_b))
        for b in range(len(instances)):
            attention_by_kind, pooling_by_kind = {}, {}
            for u in range(b * per_instance, (b + 1) * per_instance):
                lo, hi = bounds[u], bounds[u + 1]
                kind = units[u][1].kind
                attention_by_kind[kind] = [rows[lo:hi] for rows in attention]
                pooling_by_kind[kind] = alpha.value[lo:hi, 0].copy()
            detail.attention.append(attention_by_kind)
            detail.pooling.append(pooling_by_kind)
        return detail

    # -- one instance: a batch of one ------------------------------------------

    def logits(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> nm.Node:
        return nm.reshape(self.forward([(sentence, sgs)], provider).logits, (NUM_LABELS,))

    def loss(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> nm.Node:
        if sentence.label is None:
            raise ValueError(f"instance {sentence.instance_id}: no gold label")
        label = self.vocabs.label_index(sentence.label)
        return nm.cross_entropy(self.forward([(sentence, sgs)], provider).logits, [label])

    def predict_index(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> int:
        return int(np.argmax(self.forward([(sentence, sgs)], provider).logits.value[0]))
