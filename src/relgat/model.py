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
contextual vectors cost no gradient GEMM. The BiLSTM keeps its two
directions as column blocks of one set of matrices, forward first
(``LstmParams``): one projection gives both directions' gate
pre-activations and one ``bilstm_sequence`` node runs both recurrences.

Graph attention per head k with transform W_k and attention vector a_k:

    score(i, j) = leakyrelu(a_k . [W_k h_i | W_k h_j | e_ij], 0.2)
    alpha_i     = softmax over j in N(i) + {i}
    out_i       = elu(sum_j alpha_ij W_k h_j)

Heads are concatenated to width d_g: W_k is column block k of one
(in, d_g) transform, and a layer's scores, softmaxes and messages are
(P, heads) and (P, d_g) arrays that serve every head at once. The GCN
variant replaces attention with symmetric degree normalization over [h_j | e_ij].

Both layers run over the flat pair layout of ``attention_pairs``: one
(center i, neighbor j) row per attention pair, grouped by center, with
edge features as (P, d_e) rows aligned with it. Scores, messages and
edge features are computed for all pairs at once; ``segment_softmax``
normalizes the scores within each center's segment and ``segment_sum``
adds each center's weighted messages (the segment-softmax / scatter-add
formulation of PyG's GATConv). A layer is thus a fixed number of
autodiff nodes, independent of the vertex count and of the heads.

A forward pass reads a batch's parameter-free inputs from one
``Inputs``, which ``forward_inputs`` builds from a ``graph.Layout``: the
disjoint union of all its instances' sub-graphs (PyG's mini-batching
scheme), cut as flat arrays before any parameter is read
(``graph.batch_layout``, or ``graph.set_layout`` from one sentence's
sub-graph set already cut). ``InstanceRows.take`` gathers the inputs of some of a
built batch's instances, as ``forward_inputs`` would build them, so
``train()`` builds its split's inputs once and gathers each minibatch.
The inputs hold, and the forward derives:

    units          every instance's sub-graphs, path graph first; G = 3B
                   in multi-graph mode, B in single mode. ``unit_starts``
                   cuts the vertex rows into them
    tokens         each instance's distinct tokens, the sorted union of
                   its units' vertices: the rows of the token encoding
                   and of the input projection, so a token that several
                   sub-graphs share is encoded and projected once
    codes          ``code_tokens`` of the tokens (built once with the
                   inputs): their POS, deprel and NER vocabulary indices,
                   entity flags, positions and heads, which the token
                   encoding and the edge features both read
    token_rows     the token row of every vertex row, by which the
                   BiLSTM reads its gate pre-activations (the non-
                   contextual variant gathers its projection) and the
                   edge features read each pair's tokens
    graphs         vertex Segments, one per unit: the BiLSTM sequences
                   and the pooling groups
    pairs          ``attention_pairs`` of the layout's (head, dependent)
                   edge rows (built once with the inputs): (P, 2)
                   (center, neighbor) vertex rows and each pair's
                   dependent row; edge features are (P, d_e)
    neighborhoods  pair Segments, one per center: every graph layer's
                   softmax and sum; their lengths are the GCN degrees
    sentences      unit Segments, one per instance: its pooled rows are
                   summed and its path graph's e1/e2 rows (``entities``)
                   added

Each ``Segments`` is validated once, when built. The autodiff graph has
the same nodes whatever B is, and a single instance is a batch of one.
Besides the logits, a forward hands back the diagnostics this layout
already holds, as flat arrays: the pooling weight of every vertex row,
each layer's (P, heads) attention weights, and the vertex and pair
starts that cut them by unit and by center.

The model's value dtype is a constructor argument, float32 by default:
parameters, every constant a forward builds, activations and gradients
all share it. Parameters are drawn in float64 and rounded
(``nm.initial_values``), so a float32 model is its float64 twin rounded;
gradient checks and the numpy oracles build float64 models. A model's
parameters share one line-aligned ``nm.Arena``; a group built on its
own takes new zeros for each parameter instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .corpus import LABELS, Sentence, Vocabs
from .features import (
    EDGE_MODES,
    DrefTable,
    EmbeddingProvider,
    FeatureEmbeddings,
    TokenCodes,
    attention_pairs,
    code_tokens,
    edge_features,
    encode_tokens,
    hashed_record,
)
from .graph import Layout, SubGraphSet, set_layout

__all__ = [
    "ModelConfig",
    "ConfigError",
    "check_integers",
    "group_parameters",
    "LstmParams",
    "GatLayer",
    "Model",
    "ForwardDetail",
    "Inputs", "forward_inputs", "InstanceRows",
    "input_weights",
    "input_projection",
    "bilstm_encode",
    "gat_attention",
    "gat_vertex_update",
    "gcn_vertex_update",
    "pool_graph",
    "compose_sentence",
]

GRAPH_LAYERS = ("gat", "gcn")
GRAPH_MODES = ("multi", "single")
SIZE_FIELDS = ("d_ctx", "d_f", "d_wt", "d_lstm", "d_g", "heads", "d_e")
INT_FIELDS = (*SIZE_FIELDS, "graph_depth", "expansion_order")
BOOL_FIELDS = ("contextual",)
NUM_LABELS = len(LABELS)
LEAKY_SLOPE = 0.2


class ConfigError(ValueError):
    pass


def check_integers(config, names) -> None:
    """Every field of ``config`` in ``names`` must be an integer, not a bool; ConfigError names it.

    A numpy integer is stored as an int, which serialises to JSON.
    """
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        setattr(config, name, int(value))


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

    def __post_init__(self):
        check_integers(self, INT_FIELDS)
        for name in BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
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


# ---------------------------------------------------------------------------
# Layer parameter groups


def group_parameters(group, prefix: str) -> dict[str, nm.Node]:
    """A group's parameters: its ``nm.Node`` attributes, named ``prefix.attribute``, in assignment order."""
    return {f"{prefix}.{name}": p for name, p in vars(group).items() if isinstance(p, nm.Node)}


def input_weights(
    rng: np.random.Generator, ctx_dim: int, feat_dim: int, width: int, dtype=np.float64, take=None
) -> tuple[nm.Node, nm.Node]:
    """The contextual and feature row blocks of one (ctx_dim + feat_dim, width) input matrix.

    Drawn one after the other with the whole matrix's fan-in, so stacked
    they equal ``initial_values`` of the whole matrix bit for bit. Each is
    drawn into what ``take(shape)`` gives, new zeros by default.
    """
    take = take or (lambda shape: np.zeros(shape, dtype))
    fan_in = ctx_dim + feat_dim
    return tuple(nm.parameter(nm.initial_values(rng, fan_in, take((n, width)))) for n in (ctx_dim, feat_dim))


class LstmParams:
    """Both LSTM directions, each a column block of one matrix: forward columns first.

    Within a direction the gates are stacked (input, forget, cell,
    output). The input matrix is kept as its rows for the contextual
    columns (``w_ctx``) and for the trainable feature columns (``w_feat``).
    Draws run direction by direction, ``w_ctx``, ``w_feat`` then
    ``w_hidden``, straight into their column blocks, so the blocks equal
    one direction's matrices drawn on their own from the same generator.

    ``take(shape)`` gives the storage of ``w_ctx``, ``w_feat``,
    ``w_hidden`` and ``bias``, in that order, new zeros by default. In a
    ``Model`` it is the model's arena, where at the paper's widths
    (d = 256) the three matrices' 8d-wide rows, 8 KiB of float32, a whole
    multiple of 4 KiB, are stored 64 bytes longer, so that their GEMMs
    escape 4 KiB aliasing (see the ``numerics`` notes).
    """

    def __init__(
        self, ctx_dim: int, feat_dim: int, hidden_dim: int, rng: np.random.Generator, dtype=np.float64,
        take=None,
    ):
        take = take or (lambda shape: np.zeros(shape, dtype))
        gates = 4 * hidden_dim
        fan_in = ctx_dim + feat_dim
        self.w_ctx, self.w_feat, self.w_hidden, self.bias = (
            nm.parameter(take((rows, 2 * gates))) for rows in (ctx_dim, feat_dim, hidden_dim, 1)
        )
        for block in (slice(0, gates), slice(gates, 2 * gates)):
            for w, fan in ((self.w_ctx, fan_in), (self.w_feat, fan_in), (self.w_hidden, hidden_dim)):
                nm.initial_values(rng, fan, w.value[:, block])


class GatLayer:
    """Multi-head attention parameters, heads stacked: head k owns rows or columns k*m to (k+1)*m.

    ``w`` (in, heads*m) is the transform, ``a_center`` and ``a_neighbor``
    (heads*m, 1) the attention vectors, ``a_edge`` (d_e, heads) one edge
    column per head (only with edge features), and the constant
    ``head_mask`` (heads*m, heads) is 1 where a row belongs to head k.
    Draws run head by head, transform then [center | neighbor | edge], so
    per-head parameters drawn from the same generator, stacked, equal them.
    ``take(shape)`` gives the parameters' storage in that order, new
    zeros by default, and the draws fill it in place.
    """

    def __init__(
        self, in_dim, heads, head_dim, edge_dim, rng: np.random.Generator, dtype=np.float64, take=None
    ):
        take = take or (lambda shape: np.zeros(shape, dtype))
        m, attn_len = head_dim, 2 * head_dim + edge_dim
        self.w = nm.parameter(take((in_dim, heads * m)))
        self.a_center, self.a_neighbor = (nm.parameter(take((heads * m, 1))) for _ in range(2))
        self.a_edge = nm.parameter(take((edge_dim, heads))) if edge_dim else None
        for k in range(heads):
            rows = slice(k * m, (k + 1) * m)
            nm.initial_values(rng, in_dim, self.w.value[:, rows])
            # head k's attention vector, one draw of attn_len values: [center | neighbor | edge]
            for a in (self.a_center.value[rows, 0], self.a_neighbor.value[rows, 0]):
                nm.initial_values(rng, attn_len, a)
            if edge_dim:
                nm.initial_values(rng, attn_len, self.a_edge.value[:, k])
        self.head_mask = np.repeat(np.eye(heads, dtype=dtype), m, axis=0)


# ---------------------------------------------------------------------------
# Layer operations (module level so each is testable in isolation)


def input_projection(x: list[nm.Node], w_ctx: nm.Node, w_feat: nm.Node, bias: nm.Node) -> nm.Node:
    """``[ctx | feat] @ [w_ctx ; w_feat] + bias`` for the two column blocks ``x = [ctx, feat]``.

    One product per block: the constant contextual block needs no
    gradient, so the backward skips its GEMM.
    """
    ctx, feat = x
    return nm.add(nm.add(nm.matmul(ctx, w_ctx), nm.matmul(feat, w_feat)), bias)


def bilstm_encode(x: list[nm.Node], segments: nm.Segments, lstm: LstmParams, token_rows) -> nm.Node:
    """Concatenated forward/backward hidden states of the sequences, one per segment.

    ``x`` holds the [contextual, feature] column blocks of the distinct
    tokens. Both directions' gate pre-activations come from one
    projection per token, and one recurrence reads them (layout row r
    reads token row ``token_rows[r]``) and runs both directions.
    """
    z = input_projection(x, lstm.w_ctx, lstm.w_feat, lstm.bias)
    return nm.bilstm_sequence(z, lstm.w_hidden, segments, token_rows)


def gat_attention(
    wh: nm.Node, neighborhoods: nm.Segments, pairs, layer: GatLayer, efeat: nm.Node | None = None
) -> nm.Node:
    """Attention weights as a (P, heads) node, softmax-normalized per center segment.

    The score a_k . [W_k h_i | W_k h_j | e_ij] is split by block: the
    center vector masked to one column per head gives every vertex's
    center terms as one (n, heads) product, likewise the neighbor terms,
    gathered per pair; the edge block is a separate (P, heads) product.
    """
    mask = nm.constant(layer.head_mask)
    as_center = nm.matmul(wh, nm.mul(mask, layer.a_center))
    as_neighbor = nm.matmul(wh, nm.mul(mask, layer.a_neighbor))
    scores = nm.add(nm.gather_rows(as_center, pairs[:, 0]), nm.gather_rows(as_neighbor, pairs[:, 1]))
    if efeat is not None:
        scores = nm.add(scores, nm.matmul(efeat, layer.a_edge))
    return nm.segment_softmax(nm.leaky_relu(scores, LEAKY_SLOPE), neighborhoods)


def gat_vertex_update(
    h: nm.Node, neighborhoods: nm.Segments, pairs, layer: GatLayer, efeat: nm.Node | None = None
) -> tuple[nm.Node, np.ndarray]:
    """Multi-head attention update of width heads*m, head k in column block k.

    Each head's weights are spread over its columns (``alpha @ head_mask.T``)
    to scale the messages, so all heads share one ``segment_sum`` and one
    ``elu``. Also returns the (P, heads) attention weights as a plain array.
    """
    wh = nm.matmul(h, layer.w)
    alpha = gat_attention(wh, neighborhoods, pairs, layer, efeat)
    spread = nm.matmul(alpha, nm.constant(layer.head_mask.T))
    messages = nm.mul(nm.gather_rows(wh, pairs[:, 1]), spread)
    return nm.elu(nm.segment_sum(messages, neighborhoods)), alpha.value


def gcn_vertex_update(
    h: nm.Node, neighborhoods: nm.Segments, pairs: np.ndarray, w_g: nm.Node, efeat: nm.Node | None = None
) -> nm.Node:
    """Symmetric degree-normalized aggregation over [h_j | e_ij], self-loops in.

    out_i = relu(sum_j (deg_i * deg_j)^-1/2 * W_g [h_j | e_ij]) where the
    degree, the length of i's pair segment, counts the self-loop. The
    normalisation is a constant in the dtype of ``h``.
    """
    degree = neighborhoods.lengths
    norm = (1.0 / np.sqrt(degree[pairs[:, 0]] * degree[pairs[:, 1]])).astype(h.value.dtype)
    messages_in = nm.gather_rows(h, pairs[:, 1])
    if efeat is not None:
        messages_in = nm.concat([messages_in, efeat], axis=1)
    messages = nm.matmul(messages_in, w_g)
    return nm.relu(nm.segment_sum(nm.mul(messages, nm.constant(norm[:, None])), neighborhoods))


def pool_graph(vertex_states: nm.Node, graphs: nm.Segments, w_pool: nm.Node) -> tuple[nm.Node, nm.Node]:
    """Scalar-attention readout of the graphs, one per segment of vertex rows.

    Per graph, weights softmax(tanh(H w)) over its vertices and the
    weighted sum of its rows; returns the (G, d) vectors and the (n, 1)
    weight column.
    """
    alpha = nm.segment_softmax(nm.tanh(nm.matmul(vertex_states, w_pool)), graphs)
    return nm.segment_sum(nm.mul(vertex_states, alpha), graphs), alpha


def compose_sentence(
    pooled: nm.Node, sentences: nm.Segments, e1_state: nm.Node, e2_state: nm.Node
) -> nm.Node:
    """Sentence vectors: both entity states plus the sum of each sentence's pooled graph rows.

    ``sentences`` cuts the rows of ``pooled`` by sentence; the entity
    states have one row per sentence.
    """
    return nm.add(nm.add(e1_state, e2_state), nm.segment_sum(pooled, sentences))


# ---------------------------------------------------------------------------
# A batch's parameter-free inputs


class Inputs(NamedTuple):
    """What a forward reads of a batch besides the parameters and the provider (``forward_inputs``)."""

    layout: Layout
    codes: TokenCodes  # the ``code_tokens`` of the layout's token rows
    pair_starts: np.ndarray  # (n,) the ``attention_pairs`` of the layout's edges: first pair row of each center
    pairs: np.ndarray  # (P, 2) (center, neighbor) vertex rows
    dependents: np.ndarray  # (P,) each pair's dependent vertex row, -1 for a self-loop


def forward_inputs(layout: Layout, vocabs: Vocabs) -> Inputs:
    """The ``Inputs`` of a batch cut into ``layout``: its token codes and attention pairs."""
    pair_starts, pairs, dependents = attention_pairs(layout.edges, len(layout.token_rows))
    codes = code_tokens(list(zip(layout.sentences, layout.tokens)), vocabs)
    return Inputs(layout, codes, pair_starts, pairs, dependents)


def _picked_rows(starts: np.ndarray, pick: np.ndarray):
    """The rows of instances ``pick`` when instance i owns rows ``starts[i]`` up to ``starts[i + 1]``.

    Also each picked instance's row count and the shift from its new
    first row to its old one.
    """
    first, counts = starts[pick], starts[pick + 1] - starts[pick]
    shift = first - (np.cumsum(counts) - counts)
    return np.arange(counts.sum(), dtype=np.intp) + shift.repeat(counts), counts, shift


class InstanceRows:
    """Built ``Inputs`` and the vertex, edge, token and pair rows each of their instances owns.

    An instance's rows of each kind are contiguous, and the rows of its
    units, edges and pairs name vertex rows, and its vertex rows name
    token and pair rows, of that instance only. So ``take`` gathers any
    instances' rows and shifts the row numbers they hold.
    """

    def __init__(self, inputs: Inputs):
        layout = inputs.layout
        self.inputs, self.per_instance = inputs, len(layout.unit_starts) // len(layout.sentences)
        vertex = np.append(layout.unit_starts[:: self.per_instance], len(layout.token_rows))
        edge = layout.edges[:, 1].searchsorted(vertex)  # the edges are ordered by dependent row
        token = np.cumsum([0, *map(len, layout.tokens)], dtype=np.intp)
        self.starts = vertex, edge, token, np.append(inputs.pair_starts, len(inputs.pairs))[vertex]

    def take(self, pick) -> Inputs:
        """The ``Inputs`` of instances ``pick``, in that order: ``forward_inputs`` of their layout."""
        inputs, layout, pick = self.inputs, self.inputs.layout, np.asarray(pick, dtype=np.intp)
        rows = [_picked_rows(starts, pick) for starts in self.starts]
        (vertex, counts, shift), (edge, edge_counts, _), (token, _, token_shift), (pair, pair_counts, pair_shift) = rows
        by_edge, by_pair = shift.repeat(edge_counts), shift.repeat(pair_counts)  # the vertex shift of each row
        units = layout.unit_starts.reshape(-1, self.per_instance)[pick] - shift[:, None]
        dependents = inputs.dependents[pair]
        taken = Layout(
            [layout.sentences[i] for i in pick], units.ravel(), layout.edges.take(edge, axis=0) - by_edge[:, None],
            [layout.tokens[i] for i in pick], layout.token_rows[vertex] - token_shift.repeat(counts),
            layout.entities[:, pick] - shift,
        )
        return Inputs(
            taken, TokenCodes(*(column[token] for column in inputs.codes)),
            inputs.pair_starts[vertex] - pair_shift.repeat(counts),
            inputs.pairs.take(pair, axis=0) - by_pair[:, None], dependents - (dependents >= 0) * by_pair,
        )


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
    attention: list[np.ndarray]  # (P, heads) per layer, one column per head; empty for gcn
    vertex_starts: np.ndarray  # (G,) first vertex row of every unit
    pair_starts: np.ndarray  # (n,) first pair row of every center vertex


class Model:
    """Parameter container plus the forward pass over a batch layout.

    ``dtype`` (float32 or float64) is the dtype of every parameter,
    activation and gradient. With dref, the table's rows are laid out by
    vocabulary indices once, here (``dref_rows``); a table triple with a
    symbol the vocabularies lack raises FeatureError. ``embedding`` is the
    ``record`` of the provider the model reads, ``train()``'s default one
    until ``train()`` or a checkpoint load sets it.

    Every parameter is a view of one ``nm.Arena``, ``arena``, laid out in
    ``parameters()`` order. The arena needs every shape before the first
    draw, so ``__init__`` builds the groups twice: a sizing pass records
    each shape and reads read-only zeros that allocate nothing, and the
    second pass draws straight into the arena's views. ``seed`` None
    leaves every parameter zero without drawing it (``nm.UNDRAWN``), for a
    checkpoint load, which writes every value in place.
    """

    DTYPES = (np.float32, np.float64)

    def __init__(
        self,
        config: ModelConfig,
        vocabs: Vocabs,
        dref: DrefTable | None = None,
        seed: int | None = 0,
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
        self.dref_rows = None if self.dref_table is None else self.dref_table.rows_by_index(vocabs)
        self.dtype = dtype
        self.embedding: dict | None = hashed_record()

        shapes, zero = [], np.zeros((), dtype)
        # the sizing pass: every shape recorded, read-only zeros in place of storage, nothing drawn
        self._build(nm.UNDRAWN, lambda shape: shapes.append(shape) or np.broadcast_to(zero, shape))
        self.arena = nm.Arena(shapes, dtype)
        views = iter(self.arena.views)
        self._build(nm.UNDRAWN if seed is None else np.random.default_rng(seed), lambda shape: next(views))

    def _build(self, rng, take) -> None:
        """Every parameter, in ``parameters()`` order, drawn from ``rng`` into what ``take(shape)`` gives."""
        config, dtype = self.config, self.dtype
        self.embeddings = FeatureEmbeddings(self.vocabs, config.d_ctx, config.d_f, config.d_wt, rng, dtype, take)
        self._params = group_parameters(self.embeddings, "embed")
        self.dref_embed: nm.Node | None = None
        if self.dref_table is not None:
            drawn = nm.initial_values(rng, config.d_e, take((self.dref_table.num_rows, config.d_e)))
            self.dref_embed = self._own("edge.dref", drawn)

        feat_dim = self.embeddings.input_dim - config.d_ctx
        ctx_out = 2 * config.d_lstm
        self.lstm = self.proj_w_ctx = self.proj_w_feat = self.proj_b = None
        if config.contextual:
            self.lstm = LstmParams(config.d_ctx, feat_dim, config.d_lstm, rng, dtype, take)
            self._params.update(group_parameters(self.lstm, "lstm"))
        else:
            w_ctx, w_feat = input_weights(rng, config.d_ctx, feat_dim, ctx_out, dtype, take)
            self.proj_w_ctx = self._own("proj.w_ctx", w_ctx.value)
            self.proj_w_feat = self._own("proj.w_feat", w_feat.value)
            self.proj_b = self._own("proj.b", take((1, ctx_out)))

        edge_dim = config.d_e if config.edge_mode != "none" else 0
        self.gat_layers = self.gcn_layers = None
        if config.graph_layer == "gat":
            self.gat_layers = []
            for l in range(config.graph_depth):
                in_dim = ctx_out if l == 0 else config.d_g
                layer = GatLayer(in_dim, config.heads, config.head_dim, edge_dim, rng, dtype, take)
                self.gat_layers.append(layer)
                self._params.update(group_parameters(layer, f"gat.l{l}"))
        else:
            self.gcn_layers = []
            for l in range(config.graph_depth):
                in_dim = (ctx_out if l == 0 else config.d_g) + edge_dim
                w = nm.initial_values(rng, in_dim, take((in_dim, config.d_g)))
                self.gcn_layers.append(self._own(f"gcn.l{l}.w", w))

        d_g = config.d_g
        self.pool_w = self._own("pool.w", nm.initial_values(rng, d_g, take((d_g, 1))))
        self.cls_w = self._own("cls.w", nm.initial_values(rng, d_g, take((d_g, NUM_LABELS))))
        self.cls_b = self._own("cls.b", take((NUM_LABELS,)))

    def _own(self, name: str, value: np.ndarray) -> nm.Node:
        """A parameter of ``value``, registered as the model's own parameter ``name``."""
        node = self._params[name] = nm.parameter(value)
        return node

    def parameters(self) -> dict[str, nm.Node]:
        """Every parameter by the name a checkpoint stores it under, in the order they were drawn."""
        return dict(self._params)

    # -- forward --------------------------------------------------------------

    def _context_encode(self, x: list[nm.Node], graphs: nm.Segments, token_rows: np.ndarray) -> nm.Node:
        if self.config.contextual:
            return bilstm_encode(x, graphs, self.lstm, token_rows)
        projected = input_projection(x, self.proj_w_ctx, self.proj_w_feat, self.proj_b)
        return nm.gather_rows(projected, token_rows)

    def forward(self, inputs: Inputs, provider: EmbeddingProvider) -> ForwardDetail:
        """Logits (B, 19) of a batch's B instances, run as one layout.

        ``inputs`` (``forward_inputs``) holds the units of all instances back
        to back, instance by instance, path graph first: their vertex rows,
        attention pairs and edge features each form one array, so every
        layer runs once for the whole batch. It must have the model's units
        per instance.
        """
        cfg = self.config
        layout, codes, pair_starts, pairs, dependents = inputs
        per_instance = 3 if cfg.graph_mode == "multi" else 1
        vertex_starts, batch = layout.unit_starts, len(layout.sentences)
        if not batch or len(vertex_starts) != per_instance * batch:
            raise ValueError(f"forward needs one or more instances of {per_instance} units each")
        graphs = nm.Segments(vertex_starts, len(layout.token_rows))
        neighborhoods = nm.Segments(pair_starts, len(pairs))
        sentences = nm.Segments(np.arange(0, len(vertex_starts), per_instance), len(vertex_starts))

        sentence_tokens = list(zip(layout.sentences, layout.tokens))
        x = encode_tokens(sentence_tokens, codes, provider, self.embeddings)
        h = self._context_encode(x, graphs, layout.token_rows)
        efeat = edge_features(
            codes, layout.token_rows, pairs, dependents, cfg.edge_mode, cfg.d_e,
            self.dref_rows, self.dref_embed, self.dtype,
        )
        attention: list[np.ndarray] = []
        if cfg.graph_layer == "gat":
            for layer in self.gat_layers:
                h, layer_attention = gat_vertex_update(h, neighborhoods, pairs, layer, efeat)
                attention.append(layer_attention)
        else:
            for w in self.gcn_layers:
                h = gcn_vertex_update(h, neighborhoods, pairs, w, efeat)
        pooled, alpha = pool_graph(h, graphs, self.pool_w)

        e1_rows, e2_rows = layout.entities
        v = compose_sentence(pooled, sentences, nm.gather_rows(h, e1_rows), nm.gather_rows(h, e2_rows))
        logits = nm.add(nm.matmul(v, self.cls_w), self.cls_b)
        return ForwardDetail(logits, alpha.value[:, 0], attention, vertex_starts, pair_starts)

    def predict_index(
        self, sentence: Sentence, sgs: SubGraphSet, provider: EmbeddingProvider
    ) -> int:
        layout = set_layout(sentence, sgs, self.config.graph_mode == "multi")
        with nm.no_grad():
            return int(self.forward(forward_inputs(layout, self.vocabs), provider).logits.value[0].argmax())
