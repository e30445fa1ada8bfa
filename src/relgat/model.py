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
from .graph import SDP, SubGraph, SubGraphSet

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


def bilstm_encode(x: nm.Node, forward: LstmParams, backward: LstmParams) -> nm.Node:
    """Concatenated forward/backward hidden states, one row per input row."""
    fwd = nm.lstm_sequence(x, forward.w_input, forward.w_hidden, forward.bias, reverse=False)
    bwd = nm.lstm_sequence(x, backward.w_input, backward.w_hidden, backward.bias, reverse=True)
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

    The pair score is computed as two separate dot products (vertex block
    and edge block) so the edge-free variant is the vertex block alone.
    """
    m = wh.shape[1]
    src = nm.gather_rows(wh, pairs[:, 0])
    dst = nm.gather_rows(wh, pairs[:, 1])
    scores = nm.matmul(nm.concat([src, dst], axis=1), nm.slice_axis(a, 0, 0, 2 * m))
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


def pool_graph(vertex_states: nm.Node, w_pool: nm.Node) -> tuple[nm.Node, nm.Node]:
    """Scalar-attention readout: weights softmax(tanh(H w)), vector = weighted sum."""
    logits = nm.tanh(nm.matmul(vertex_states, w_pool))  # (n, 1)
    alpha = nm.softmax(nm.transpose(logits), axis=1)  # (1, n)
    return nm.matmul(alpha, vertex_states), alpha


def compose_sentence(
    pooled: list[nm.Node], e1_state: nm.Node, e2_state: nm.Node
) -> nm.Node:
    """Sentence vector: both entity states plus every pooled graph vector."""
    v = nm.add(e1_state, e2_state)
    for p in pooled:
        v = nm.add(v, p)
    return v


# ---------------------------------------------------------------------------
# Model


@dataclass
class ForwardDetail:
    """Logits plus per-graph attention diagnostics from one forward pass."""

    logits: nm.Node
    # kind -> [head][vertex] attention weights (graph layer), empty for gcn
    attention: dict[str, list[list[np.ndarray]]] = field(default_factory=dict)
    # kind -> pooling distribution over vertices
    pooling: dict[str, np.ndarray] = field(default_factory=dict)


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

    # -- forward pieces ----------------------------------------------------

    def _context_encode(self, x: nm.Node) -> nm.Node:
        if self.config.contextual:
            return bilstm_encode(x, self.lstm_fwd, self.lstm_bwd)
        return nm.add(nm.matmul(x, self.proj_w), self.proj_b)

    def _graph_update(
        self, h: nm.Node, sg: SubGraph, sentence: Sentence
    ) -> tuple[nm.Node, list[list[np.ndarray]]]:
        cfg = self.config
        starts, pairs = attention_pairs(sg)
        efeat = edge_features(
            sg, sentence, pairs, cfg.edge_mode, cfg.d_e,
            self.dref_table, self.dref_embed, cfg.dref_scale_by_ratio,
        )
        attention: list[list[np.ndarray]] = []
        if cfg.graph_layer == "gat":
            for heads in self.gat_layers:
                h, layer_attention = gat_vertex_update(h, starts, pairs, heads, efeat)
                attention.extend(layer_attention)
        else:
            for w in self.gcn_layers:
                h = gcn_vertex_update(h, starts, pairs, w, efeat)
        return h, attention

    # -- full forward --------------------------------------------------------

    def forward(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> ForwardDetail:
        graphs = sgs.all() if self.config.graph_mode == "multi" else [sgs.sdp]
        pooled = []
        attention_by_kind = {}
        pooling_by_kind = {}
        e1_state = e2_state = None
        for sg in graphs:
            x = encode_tokens(sentence, sg, provider, self.embeddings)
            h = self._context_encode(x)
            states, attention = self._graph_update(h, sg, sentence)
            vector, alpha = pool_graph(states, self.pool_w)
            pooled.append(vector)
            attention_by_kind[sg.kind] = attention
            pooling_by_kind[sg.kind] = alpha.value.copy().reshape(-1)
            if sg.kind == SDP:
                e1_local = sg.local(sentence.e1.head_token)
                e2_local = sg.local(sentence.e2.head_token)
                e1_state = nm.slice_axis(states, 0, e1_local, e1_local + 1)
                e2_state = nm.slice_axis(states, 0, e2_local, e2_local + 1)
        v = compose_sentence(pooled, e1_state, e2_state)
        logits = nm.add(nm.matmul(v, self.cls_w), self.cls_b)
        return ForwardDetail(
            logits=nm.reshape(logits, (NUM_LABELS,)),
            attention=attention_by_kind,
            pooling=pooling_by_kind,
        )

    def logits(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> nm.Node:
        return self.forward(sentence, sgs, provider).logits

    def loss(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> nm.Node:
        if sentence.label is None:
            raise ValueError(f"instance {sentence.instance_id}: no gold label")
        label = self.vocabs.label_index(sentence.label)
        return nm.cross_entropy(self.logits(sentence, sgs, provider), label)

    def predict_index(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> int:
        return int(np.argmax(self.logits(sentence, sgs, provider).value))
