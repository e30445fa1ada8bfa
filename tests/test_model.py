"""Network layers and the full forward pass, checked against straight-line numpy."""

import hashlib
import json
import struct

import numpy as np
import pytest

from relgat import model as model_module
from relgat import numerics as nm
from relgat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from relgat.corpus import LABEL_INDEX, build_vocabs, parse_conllu_annotated
from relgat.features import (
    DrefTable,
    HashedEmbeddingProvider,
    attention_pairs,
    build_dref_table,
    encode_tokens,
)
from relgat.graph import SubGraph, batch_layout, sentence_subgraphs
from relgat.model import (
    ConfigError,
    GatLayer,
    LstmParams,
    Model,
    ModelConfig,
    bilstm_encode,
    compose_sentence,
    forward_inputs,
    input_weights,
    gat_attention,
    gat_vertex_update,
    gcn_vertex_update,
    group_parameters,
    pool_graph,
)
from conftest import (
    build_structure_corpus, build_toy_corpus, dref_entries, entity_token, gradient_check, graph_nodes, laid_out,
    total,
)

TINY = dict(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def attention_rows(alpha, neighborhoods):
    """Per-vertex (degree, heads) attention blocks of a (P, heads) attention node."""
    return np.split(alpha.value, neighborhoods.starts[1:])


def head_params(layer, k):
    """Head k's transform (in, m) and whole attention vector [center | neighbor | edge]."""
    m = layer.w.shape[1] // layer.head_mask.shape[1]
    block = slice(k * m, (k + 1) * m)
    a = [layer.a_center.value[block, 0], layer.a_neighbor.value[block, 0]]
    if layer.a_edge is not None:
        a.append(layer.a_edge.value[:, k])
    return layer.w.value[:, block], np.concatenate(a)


def single_head_layers(layer):
    """One single-head layer per head of ``layer``, holding that head's parameters."""
    m = layer.w.shape[1] // layer.head_mask.shape[1]
    edge_dim = 0 if layer.a_edge is None else layer.a_edge.shape[0]
    out = []
    for k in range(layer.head_mask.shape[1]):
        one = GatLayer(layer.w.shape[0], 1, m, edge_dim, np.random.default_rng(0), layer.w.value.dtype)
        w, a = head_params(layer, k)
        one.w.value, one.a_center.value, one.a_neighbor.value = w.copy(), a[:m, None], a[m : 2 * m, None]
        if edge_dim:
            one.a_edge.value = a[2 * m :, None]
        out.append(one)
    return out


def make_subgraph(edges, n):
    """A sub-graph over local vertices 0..n-1 with the given (head, dependent) edges."""
    return SubGraph(list(range(n)), np.array(edges, dtype=np.intp).reshape(-1, 2))


def pair_layout(sg):
    """The pair segments and the (P, 2) attention pairs of one sub-graph."""
    starts, pairs, _ = attention_pairs(sg.edges, len(sg))
    return nm.Segments(starts, len(pairs)), pairs


def permuted(edges, perm):
    """``edges`` with vertex perm[i] renumbered i."""
    return np.argsort(perm)[np.asarray(edges)]


def logits_of(model, sentence, sgs, provider):
    """The (19,) logits of one instance, run as a batch of one."""
    return model.forward(laid_out(model, [(sentence, sgs)]), provider).logits.value[0]


def instance_loss(model, sentence, sgs, provider):
    """Cross-entropy of one instance against its gold label, run as a batch of one."""
    label = LABEL_INDEX[sentence.label]
    return nm.cross_entropy(model.forward(laid_out(model, [(sentence, sgs)]), provider).logits, [label])


def instance_layout(detail, b, units):
    """Instance b's cut of a forward's layout diagnostics, with its row offsets removed.

    Returns its units' vertex starts, its centers' pair starts, its pooling
    weights and, per layer, its (pairs, heads) attention weights; ``units``
    is the number of units per instance.
    """
    vertex_starts, pair_starts = detail.vertex_starts, detail.pair_starts
    lo = vertex_starts[b * units]
    end = (b + 1) * units
    hi = vertex_starts[end] if end < len(vertex_starts) else len(detail.pooling)
    pair_lo = pair_starts[lo]
    pair_hi = pair_starts[hi] if hi < len(pair_starts) else None
    return (
        vertex_starts[b * units : end] - lo,
        pair_starts[lo:hi] - pair_lo,
        detail.pooling[lo:hi],
        [alpha[pair_lo:pair_hi] for alpha in detail.attention],
    )


def tiny_model(edge_mode="none", **overrides):
    corpus = build_toy_corpus()
    config = ModelConfig(**{**TINY, "edge_mode": edge_mode, **overrides})
    vocabs = build_vocabs(corpus)
    dref = build_dref_table(corpus, config.d_e) if config.uses_dref else None
    provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
    return Model(config, vocabs, dref, seed=3, dtype=np.float64), corpus, provider


# ---------------------------------------------------------------------------
# Config


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_g=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(graph_layer="sage")
    with pytest.raises(ConfigError):
        ModelConfig(edge_mode="both")
    with pytest.raises(ConfigError):
        ModelConfig(expansion_order=5)
    assert ModelConfig().head_dim == 64


@pytest.mark.parametrize("field", ["d_ctx", "d_f", "d_wt", "d_lstm", "d_g", "heads", "d_e"])
@pytest.mark.parametrize("value", [0, -3])
def test_config_rejects_non_positive_sizes(field, value):
    with pytest.raises(ConfigError) as err:
        ModelConfig(**{**TINY, field: value})
    assert field in str(err.value) and str(value) in str(err.value)


@pytest.mark.parametrize("field", ["d_ctx", "heads", "graph_depth", "expansion_order"])
@pytest.mark.parametrize("value", [True, 2.0, "2", None])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ConfigError) as err:
        ModelConfig(**{**TINY, field: value})
    assert field in str(err.value) and repr(value) in str(err.value)


@pytest.mark.parametrize("field", ["contextual"])
@pytest.mark.parametrize("value", ["false", 0, 1, None, np.bool_(True)])
def test_config_rejects_non_bool_flags(field, value):
    with pytest.raises(ConfigError) as err:
        ModelConfig(**{**TINY, field: value})
    assert field in str(err.value)


def test_config_accepts_numpy_integers(tmp_path):
    # stored as Python ints, so a checkpoint header can hold them
    config = ModelConfig(**{**TINY, "d_ctx": np.int64(8), "graph_depth": np.int32(2)})
    assert type(config.d_ctx) is int and type(config.graph_depth) is int
    assert (config.d_ctx, config.graph_depth) == (8, 2)
    save_checkpoint(Model(config, build_vocabs(build_toy_corpus())), str(tmp_path / "model.ckpt"))
    assert load_checkpoint(str(tmp_path / "model.ckpt")).config == config


def test_model_requires_table_for_dref():
    corpus = build_toy_corpus()
    vocabs = build_vocabs(corpus)
    with pytest.raises(ConfigError):
        Model(ModelConfig(**TINY, edge_mode="dref"), vocabs, dref=None)


# ---------------------------------------------------------------------------
# BiLSTM


def token_blocks(x, ctx_dim, make=nm.constant):
    """The rows of ``x`` as the [contextual, feature] column blocks the context encoders read."""
    return [make(x[:, :ctx_dim].copy()), make(x[:, ctx_dim:].copy())]


def bilstm(x, starts, lstm, ctx_dim=2):
    """``bilstm_encode`` over the rows of ``x``, one token per layout row."""
    return bilstm_encode(token_blocks(x, ctx_dim), nm.Segments(starts, len(x)), lstm, np.arange(len(x)))


def direction(lstm, k):
    """Direction k's (0 forward, 1 backward) whole input matrix, hidden matrix and bias."""
    block = slice(k * lstm.w_hidden.shape[1] // 2, (k + 1) * lstm.w_hidden.shape[1] // 2)
    w_input = np.vstack([lstm.w_ctx.value, lstm.w_feat.value])
    return w_input[:, block], lstm.w_hidden.value[:, block], lstm.bias.value[:, block]


def test_bilstm_single_token_shape():
    rng = np.random.default_rng(0)
    lstm = LstmParams(2, 3, 4, rng)
    out = bilstm(rng.standard_normal((1, 5)), [0], lstm)
    assert out.shape == (1, 8)


def test_bilstm_reversal_swaps_directions():
    # with tied weights, the backward pass over x equals the forward pass
    # over reversed x, read in reverse
    rng = np.random.default_rng(1)
    lstm = LstmParams(2, 3, 4, rng)
    for p in group_parameters(lstm, "l").values():
        p.value[:, 16:] = p.value[:, :16]
    x = rng.standard_normal((6, 5))
    out = bilstm(x, [0], lstm).value
    out_rev = bilstm(x[::-1].copy(), [0], lstm).value
    np.testing.assert_allclose(out[:, :4], out_rev[::-1, 4:], atol=1e-12)
    np.testing.assert_allclose(out[:, 4:], out_rev[::-1, :4], atol=1e-12)


def test_bilstm_gradient_matches_finite_differences():
    # two sequences that read token rows 0 and 1 twice each
    rng = np.random.default_rng(2)
    lstm = LstmParams(1, 2, 2, rng)
    x = token_blocks(rng.standard_normal((3, 3)), 1, nm.parameter)
    probe = nm.constant(rng.standard_normal((5, 4)))
    params = [*x, *group_parameters(lstm, "l").values()]
    err = gradient_check(
        lambda: total(nm.mul(bilstm_encode(x, nm.Segments([0, 3], 5), lstm, [0, 1, 2, 1, 0]), probe)),
        params,
    )
    assert err < 1e-4


def test_bilstm_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    lstm = LstmParams(2, 3, 4, rng)
    lstm.bias.value = rng.standard_normal(lstm.bias.shape)
    # one sequence at a time, then several packed, unsorted and with ties and length 1
    for lengths in ((1,), (2,), (7,), (3, 1, 7, 2, 7), (1, 1), (4, 6, 5)):
        x = rng.standard_normal((sum(lengths), 5))
        starts = np.cumsum((0,) + lengths[:-1])
        out = bilstm(x, starts, lstm).value
        expected = np.concatenate([
            np.concatenate([
                _lstm_direction_np(seq, *direction(lstm, 0), False),
                _lstm_direction_np(seq, *direction(lstm, 1), True),
            ], axis=1)
            for seq in np.split(x, starts[1:])
        ])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_bilstm_token_rows_equal_gathered_tokens():
    # reading distinct tokens through token rows equals encoding every layout row
    rng = np.random.default_rng(6)
    lstm = LstmParams(2, 3, 4, rng)
    x_tok = rng.standard_normal((4, 5))
    token_rows, starts = np.array([0, 1, 1, 2, 0, 3, 2]), [0, 3, 4]
    by_token = bilstm_encode(token_blocks(x_tok, 2), nm.Segments(starts, 7), lstm, token_rows).value
    per_row = bilstm(x_tok[token_rows], starts, lstm).value
    np.testing.assert_allclose(by_token, per_row, rtol=0, atol=1e-12)


def test_input_weights_are_one_draw_split_by_rows():
    # the two row blocks stacked are the draw of the whole input matrix, bit for bit
    for seed in range(20):
        dims = np.random.default_rng(1000 + seed).integers(1, 40, size=3)
        ctx_dim, feat_dim, width = (int(v) for v in dims)
        k = ctx_dim + feat_dim
        for dtype in (np.float64, np.float32):
            w_ctx, w_feat = input_weights(np.random.default_rng(seed), ctx_dim, feat_dim, width, dtype)
            whole = nm.initial_values(np.random.default_rng(seed), k, np.empty((k, width), dtype))
            assert w_ctx.value.dtype == dtype and w_feat.value.dtype == dtype
            assert np.array_equal(np.vstack([w_ctx.value, w_feat.value]), whole)
            lstm = LstmParams(ctx_dim, feat_dim, width, np.random.default_rng(seed), dtype)
            gates = nm.initial_values(np.random.default_rng(seed), k, np.empty((k, 4 * width), dtype))
            assert np.array_equal(direction(lstm, 0)[0], gates)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_params_are_direction_draws_side_by_side(dtype):
    # at the paper's dims, the forward and backward column blocks equal the
    # two directions drawn one after the other as separate matrices, bit for
    # bit, and the generator ends at the same point
    ctx_dim, feat_dim, hidden = 768, 3 * 40 + 10, 256
    rng = np.random.default_rng(21)
    per_direction = []
    for _ in range(2):
        w_ctx, w_feat = input_weights(rng, ctx_dim, feat_dim, 4 * hidden, dtype)
        w_hidden = nm.initial_values(rng, hidden, np.empty((hidden, 4 * hidden), dtype))
        per_direction.append((w_ctx.value, w_feat.value, w_hidden))
    after = rng.uniform()
    rng = np.random.default_rng(21)
    lstm = LstmParams(ctx_dim, feat_dim, hidden, rng, dtype)
    assert rng.uniform() == after
    stacked = [np.hstack(blocks) for blocks in zip(*per_direction)]
    for name, want in zip(("w_ctx", "w_feat", "w_hidden"), stacked):
        got = getattr(lstm, name).value
        assert got.dtype == dtype and np.array_equal(got, want), name
    assert lstm.bias.value.dtype == dtype and not lstm.bias.value.any()
    assert list(group_parameters(lstm, "lstm")) == ["lstm.w_ctx", "lstm.w_feat", "lstm.w_hidden", "lstm.bias"]


@pytest.mark.parametrize("graph_mode", ["multi", "single"])
def test_forward_asks_the_provider_for_the_distinct_subgraph_tokens_only(graph_mode):
    # a token outside every sub-graph of its instance never gets a contextual vector
    model, corpus, _ = tiny_model(edge_mode="dref+ctef", graph_mode=graph_mode)
    asked = []

    class RecordingProvider(HashedEmbeddingProvider):
        def vectors(self, sentence, indices):
            asked.append((sentence, list(indices)))
            return super().vectors(sentence, indices)

    instances = [(s, sentence_subgraphs(s)) for s in corpus[:4]]
    model.forward(laid_out(model, instances), RecordingProvider(model.config.d_ctx, seed=0))
    units = [sgs.all() if graph_mode == "multi" else [sgs.sdp] for _, sgs in instances]
    want = [(s, sorted({v for sg in graphs for v in sg.vertices})) for (s, _), graphs in zip(instances, units)]
    assert asked == want
    assert all(len(indices) < len(s) for s, indices in asked)


@pytest.mark.parametrize("contextual", [True, False])
def test_constant_context_block_gets_no_gradient_product(contextual):
    # the input projection multiplies the constant contextual block by its own
    # rows of the input matrix, so the backward never calls that block's VJP
    # and never forms a gradient as wide as the joined input
    model, corpus, provider = tiny_model(edge_mode="dref+ctef", contextual=contextual)
    encoded = []

    def recording_encode(*args):
        encoded.append(encode_tokens(*args))
        return encoded[-1]

    instances = [(s, sentence_subgraphs(s)) for s in corpus[:3]]
    golds = [LABEL_INDEX[s.label] for s, _ in instances]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "encode_tokens", recording_encode)
        loss = nm.cross_entropy(model.forward(laid_out(model, instances), provider).logits, golds)
    (ctx, feat), = encoded
    called, widths = [], set()

    def recording(vjp, parent):
        def wrapped(g):
            called.append(parent)
            out = vjp(g)
            widths.add(np.shape(out)[1:])
            return out
        return wrapped

    for node in graph_nodes(loss):
        node.vjps = tuple(recording(v, p) for v, p in zip(node.vjps, node.parents))
    loss.backward()
    assert not ctx.requires_grad and ctx.grad is None
    assert not any(p is ctx for p in called)
    assert any(p is feat for p in called)
    assert (feat.shape[1],) in widths and (ctx.shape[1] + feat.shape[1],) not in widths


def test_bilstm_graph_size_independent_of_length():
    rng = np.random.default_rng(5)
    lstm = LstmParams(1, 2, 2, rng)

    def graph_size(n):
        x = token_blocks(rng.standard_normal((n, 3)), 1, nm.parameter)
        return len(graph_nodes(bilstm_encode(x, nm.Segments([0], n), lstm, np.arange(n))))

    assert graph_size(3) == graph_size(30)


def test_bilstm_rejects_empty_sequence():
    rng = np.random.default_rng(3)
    lstm = LstmParams(1, 2, 2, rng)
    with pytest.raises(ValueError):
        bilstm(np.zeros((0, 3)), [0], lstm, ctx_dim=1)


# ---------------------------------------------------------------------------
# Graph attention


def test_isolated_vertex_attends_to_itself():
    rng = np.random.default_rng(4)
    layer = GatLayer(3, 2, 2, 0, rng)
    sg = make_subgraph([], 1)
    neighborhoods, pairs = pair_layout(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((1, 3))), layer.w)
    alpha = gat_attention(wh, neighborhoods, pairs, layer)
    assert alpha.value.tolist() == [[1.0, 1.0]]


def test_zeroed_attention_vector_gives_uniform_weights():
    rng = np.random.default_rng(5)
    layer = GatLayer(3, 2, 2, 0, rng)
    layer.a_center.value = np.zeros_like(layer.a_center.value)
    layer.a_neighbor.value = np.zeros_like(layer.a_neighbor.value)
    sg = make_subgraph([[0, 1], [0, 2]], 3)
    neighborhoods, pairs = pair_layout(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((3, 3))), layer.w)
    alphas = attention_rows(gat_attention(wh, neighborhoods, pairs, layer), neighborhoods)
    np.testing.assert_allclose(alphas[0], np.full((3, 2), 1 / 3), atol=1e-15)
    np.testing.assert_allclose(alphas[1], np.full((2, 2), 1 / 2), atol=1e-15)


def test_attention_matches_straight_line_recomputation():
    rng = np.random.default_rng(6)
    d_in, m, d_e, heads = 4, 3, 2, 2
    layer = GatLayer(d_in, heads, m, d_e, rng)
    sg = make_subgraph([[0, 1], [1, 2]], 3)  # path graph
    neighborhoods, pairs = pair_layout(sg)
    h = rng.standard_normal((3, d_in))
    efeat_rows = rng.standard_normal((len(pairs), d_e))
    wh = nm.matmul(nm.constant(h), layer.w)
    alphas = attention_rows(gat_attention(wh, neighborhoods, pairs, layer, nm.constant(efeat_rows)), neighborhoods)

    by_pair = {(i, j): e for (i, j), e in zip(pairs.tolist(), efeat_rows)}
    for k in range(heads):
        w, a = head_params(layer, k)
        wh_np = h @ w
        for i, around in enumerate([[0, 1], [0, 1, 2], [1, 2]]):
            scores = []
            for j in around:
                z = np.concatenate([wh_np[i], wh_np[j], by_pair[(i, j)]]) @ a
                scores.append(z if z > 0 else 0.2 * z)
            scores = np.array(scores)
            expected = np.exp(scores) / np.exp(scores).sum()
            np.testing.assert_allclose(alphas[i][:, k], expected, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    layer = GatLayer(4, 3, 3, 0, rng)
    sg = make_subgraph([[0, 1], [0, 2], [1, 3]], 4)
    neighborhoods, pairs = pair_layout(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((4, 4)) * 10), layer.w)
    rows = attention_rows(gat_attention(wh, neighborhoods, pairs, layer), neighborhoods)
    assert len(rows) == 4
    for row in rows:
        assert np.all(np.abs(row.sum(axis=0) - 1.0) < 1e-9)


def test_multi_head_output_dimension_default_config():
    rng = np.random.default_rng(8)
    cfg = ModelConfig()
    layer = GatLayer(2 * cfg.d_lstm, cfg.heads, cfg.head_dim, 0, rng)
    sg = make_subgraph([[0, 1], [1, 2]], 3)
    neighborhoods, pairs = pair_layout(sg)
    out, attention = gat_vertex_update(nm.constant(rng.standard_normal((3, 512))), neighborhoods, pairs, layer)
    assert out.shape == (3, 256)
    assert attention.shape == (len(pairs), cfg.heads)


def test_single_head_reduction_is_bitwise():
    rng = np.random.default_rng(9)
    layer = GatLayer(4, 1, 6, 0, rng)
    sg = make_subgraph([[0, 1], [0, 2]], 3)
    neighborhoods, pairs = pair_layout(sg)
    h = nm.constant(rng.standard_normal((3, 4)))
    multi, _ = gat_vertex_update(h, neighborhoods, pairs, layer)

    # plain single-head update: the (P, 1) attention column scales the messages
    wh = nm.matmul(h, layer.w)
    scores = nm.add(
        nm.gather_rows(nm.matmul(wh, layer.a_center), pairs[:, 0]),
        nm.gather_rows(nm.matmul(wh, layer.a_neighbor), pairs[:, 1]),
    )
    alpha = nm.segment_softmax(nm.leaky_relu(scores, 0.2), neighborhoods)
    single = nm.elu(nm.segment_sum(nm.mul(nm.gather_rows(wh, pairs[:, 1]), alpha), neighborhoods))
    assert np.array_equal(multi.value, single.value)


@pytest.mark.parametrize("edge_dim", [0, 2])
def test_heads_equal_single_head_layers_concatenated(edge_dim):
    # a K-head layer is its K heads run as separate layers, outputs concatenated
    rng = np.random.default_rng(42)
    layer = GatLayer(4, 3, 2, edge_dim, rng)
    sg = make_subgraph([[0, 1], [0, 2], [1, 3]], 4)
    neighborhoods, pairs = pair_layout(sg)
    h = nm.constant(rng.standard_normal((4, 4)))
    efeat = nm.constant(rng.standard_normal((len(pairs), edge_dim))) if edge_dim else None
    out, attention = gat_vertex_update(h, neighborhoods, pairs, layer, efeat)
    heads = [gat_vertex_update(h, neighborhoods, pairs, one, efeat) for one in single_head_layers(layer)]
    np.testing.assert_allclose(out.value, np.hstack([o.value for o, _ in heads]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(attention, np.hstack([a for _, a in heads]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("edge_dim", [0, 3])
def test_gat_layer_parameters_are_per_head_draws_stacked(edge_dim):
    # drawn head by head (transform, then the whole attention vector), so the
    # per-head parameters of the same generator, stacked, equal them bit for bit
    in_dim, heads, m = 5, 4, 3
    attn_len = 2 * m + edge_dim
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(17)
        per_head = [
            (nm.initial_values(rng, in_dim, np.empty((in_dim, m), dtype)),
             nm.initial_values(rng, attn_len, np.empty(attn_len, dtype)))
            for _ in range(heads)
        ]
        layer = GatLayer(in_dim, heads, m, edge_dim, np.random.default_rng(17), dtype)
        for k, (w, a) in enumerate(per_head):
            got_w, got_a = head_params(layer, k)
            assert got_w.dtype == dtype and np.array_equal(got_w, w)
            assert got_a.dtype == dtype and np.array_equal(got_a, a)
        names = ["g.w", "g.a_center", "g.a_neighbor"] + (["g.a_edge"] if edge_dim else [])
        assert list(group_parameters(layer, "g")) == names


def test_edge_mode_none_equals_zeroed_edge_slot_bitwise():
    rng = np.random.default_rng(10)
    d_in, m, d_e = 4, 3, 2
    with_edges = GatLayer(d_in, 2, m, d_e, rng)
    with_edges.a_edge.value[:] = 0.0
    plain = GatLayer(d_in, 2, m, 0, np.random.default_rng(99))
    for name in ("w", "a_center", "a_neighbor"):
        getattr(plain, name).value = getattr(with_edges, name).value.copy()

    sg = make_subgraph([[0, 1], [0, 2], [1, 2]], 3)
    neighborhoods, pairs = pair_layout(sg)
    h = nm.constant(rng.standard_normal((3, d_in)))
    efeat = nm.constant(rng.standard_normal((len(pairs), d_e)))
    out_edges, att_edges = gat_vertex_update(h, neighborhoods, pairs, with_edges, efeat)
    out_plain, att_plain = gat_vertex_update(h, neighborhoods, pairs, plain, None)
    assert np.array_equal(out_edges.value, out_plain.value)
    assert att_edges.shape == att_plain.shape == (len(pairs), 2)
    assert np.array_equal(att_edges, att_plain)


def test_single_vertex_update_is_elu_of_transform():
    rng = np.random.default_rng(41)
    layer = GatLayer(4, 2, 3, 0, rng)
    sg = make_subgraph([], 1)
    neighborhoods, pairs = pair_layout(sg)
    h = rng.standard_normal((1, 4))
    out, _ = gat_vertex_update(nm.constant(h), neighborhoods, pairs, layer)
    expected = h @ layer.w.value
    expected = np.where(expected > 0, expected, np.expm1(expected))
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


def test_parameters_registered_exactly_once():
    model, _, _ = tiny_model(edge_mode="dref+ctef")
    params = model.parameters()
    assert len({id(p) for p in params.values()}) == len(params)
    # every trainable node reachable through the registry requires gradients
    assert all(p.requires_grad for p in params.values())


def test_gat_permutation_equivariance():
    rng = np.random.default_rng(11)
    layer = GatLayer(4, 2, 3, 0, rng)
    edges = [[0, 1], [0, 2], [1, 3]]
    h = rng.standard_normal((4, 4))
    perm = np.array([2, 0, 3, 1])

    neighborhoods, pairs = pair_layout(make_subgraph(edges, 4))
    out, _ = gat_vertex_update(nm.constant(h), neighborhoods, pairs, layer)

    neighborhoods_p, pairs_p = pair_layout(make_subgraph(permuted(edges, perm), 4))
    out_p, _ = gat_vertex_update(nm.constant(h[perm]), neighborhoods_p, pairs_p, layer)
    np.testing.assert_allclose(out_p.value, out.value[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# GCN


def test_gcn_three_cycle_hand_computation():
    # identity transform, no edge features: each vertex averages its
    # closed neighborhood (all degrees are 3 with the self-loop)
    sg = make_subgraph([[0, 1], [0, 2], [1, 2]], 3)
    neighborhoods, pairs = pair_layout(sg)
    h = np.array([[3.0, -6.0], [0.0, 3.0], [6.0, 0.0]])
    out = gcn_vertex_update(nm.constant(h), neighborhoods, pairs, nm.constant(np.eye(2)))
    expected = np.maximum(h.mean(axis=0), 0.0)
    np.testing.assert_allclose(out.value, np.tile(expected, (3, 1)), atol=1e-12)


def test_gcn_self_loop_only_vertex():
    rng = np.random.default_rng(12)
    w = nm.constant(rng.standard_normal((5, 3)))
    sg = make_subgraph([], 1)
    neighborhoods, pairs = pair_layout(sg)
    h = rng.standard_normal((1, 3))
    e = rng.standard_normal((1, 2))
    out = gcn_vertex_update(nm.constant(h), neighborhoods, pairs, w, nm.constant(e))
    expected = np.maximum(np.concatenate([h[0], e[0]]) @ w.value, 0.0)
    np.testing.assert_allclose(out.value.reshape(-1), expected, atol=1e-12)


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(13)
    w = nm.constant(rng.standard_normal((4, 3)))
    edges = [[0, 1], [1, 2], [0, 3]]
    h = rng.standard_normal((4, 4))
    perm = np.array([3, 1, 0, 2])

    neighborhoods, pairs = pair_layout(make_subgraph(edges, 4))
    out = gcn_vertex_update(nm.constant(h), neighborhoods, pairs, w)
    neighborhoods_p, pairs_p = pair_layout(make_subgraph(permuted(edges, perm), 4))
    out_p = gcn_vertex_update(nm.constant(h[perm]), neighborhoods_p, pairs_p, w)
    np.testing.assert_allclose(out_p.value, out.value[perm], atol=1e-12)


def test_graph_layer_size_independent_of_vertex_count():
    # nor does a GAT layer's node count change with its number of heads
    rng = np.random.default_rng(19)
    w_gcn = nm.parameter(rng.standard_normal((5, 4)))

    def graph_sizes(n, heads):
        layer = GatLayer(3, heads, 2, 2, rng)
        path = [[i, i + 1] for i in range(n - 1)]
        neighborhoods, pairs = pair_layout(make_subgraph(path, n))
        h = nm.parameter(rng.standard_normal((n, 3)))
        efeat = nm.parameter(rng.standard_normal((len(pairs), 2)))
        gat, _ = gat_vertex_update(h, neighborhoods, pairs, layer, efeat)
        gcn = gcn_vertex_update(h, neighborhoods, pairs, w_gcn, efeat)
        return len(graph_nodes(gat)), len(graph_nodes(gcn))

    sizes = {graph_sizes(n, heads) for n in (3, 30) for heads in (1, 2, 4)}
    assert len(sizes) == 1


# ---------------------------------------------------------------------------
# Pooling and composition


def test_pool_single_vertex_is_identity():
    rng = np.random.default_rng(14)
    h = rng.standard_normal((1, 5))
    v, alpha = pool_graph(nm.constant(h), nm.Segments([0], 1), nm.constant(rng.standard_normal((5, 1))))
    np.testing.assert_array_equal(v.value, h)
    assert alpha.value.tolist() == [[1.0]]


def test_pool_identical_states_average():
    rng = np.random.default_rng(15)
    row = rng.standard_normal(5)
    h = np.stack([row, row])
    v, alpha = pool_graph(nm.constant(h), nm.Segments([0], 2), nm.constant(rng.standard_normal((5, 1))))
    np.testing.assert_allclose(alpha.value, [[0.5], [0.5]], atol=1e-15)
    np.testing.assert_allclose(v.value.reshape(-1), row, atol=1e-15)


def test_pool_matches_recomputation():
    rng = np.random.default_rng(16)
    h = rng.standard_normal((4, 5))
    w = rng.standard_normal((5, 1))
    v, alpha = pool_graph(nm.constant(h), nm.Segments([0], 4), nm.constant(w))
    u = np.tanh(h @ w).reshape(-1)
    expected_alpha = np.exp(u) / np.exp(u).sum()
    np.testing.assert_allclose(alpha.value.reshape(-1), expected_alpha, atol=1e-12)
    np.testing.assert_allclose(v.value.reshape(-1), expected_alpha @ h, atol=1e-12)


def test_pool_distribution_sums_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        h = rng.standard_normal((int(rng.integers(1, 7)), 4)) * rng.uniform(0.1, 20)
        _, alpha = pool_graph(nm.constant(h), nm.Segments([0], len(h)), nm.constant(rng.standard_normal((4, 1))))
        assert abs(alpha.value.sum() - 1.0) < 1e-9


def test_compose_zero_inputs_give_zero():
    zero = nm.constant(np.zeros((1, 4)))
    v = compose_sentence(nm.constant(np.zeros((3, 4))), nm.Segments([0], 3), zero, zero)
    np.testing.assert_array_equal(v.value, np.zeros((1, 4)))


def test_compose_unit_basis_sums():
    rows = [np.eye(5)[i : i + 1] for i in range(5)]
    v = compose_sentence(nm.constant(np.concatenate(rows[2:])), nm.Segments([0], 3),
                         nm.constant(rows[0]), nm.constant(rows[1]))
    np.testing.assert_array_equal(v.value, np.ones((1, 5)))


def test_compose_single_graph_reduction():
    rng = np.random.default_rng(18)
    e1, e2, pool = (rng.standard_normal((1, 4)) for _ in range(3))
    v = compose_sentence(nm.constant(pool), nm.Segments([0], 1), nm.constant(e1), nm.constant(e2))
    np.testing.assert_array_equal(v.value, e1 + e2 + pool)


# ---------------------------------------------------------------------------
# Full forward


def test_zeroed_classifier_gives_uniform_distribution(pollen_sentence):
    model, corpus, provider = tiny_model()
    model.cls_w.value = np.zeros_like(model.cls_w.value)
    model.cls_b.value = np.zeros_like(model.cls_b.value)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    detail = model.forward(laid_out(model, [(s, sgs)]), provider)
    np.testing.assert_array_equal(detail.logits.value, np.zeros((1, 19)))
    loss = instance_loss(model, s, sgs, provider)
    assert loss.item() == pytest.approx(np.log(19.0), abs=1e-12)


def test_identical_sentences_identical_logits():
    model, corpus, provider = tiny_model(edge_mode="dref+ctef")
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    a = logits_of(model, s, sgs, provider)
    b = logits_of(model, s, sgs, provider)
    assert np.array_equal(a, b)


def test_single_mode_uses_only_path_graph():
    model, corpus, provider = tiny_model(graph_mode="single")
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    detail = model.forward(laid_out(model, [(s, sgs)]), provider)
    assert detail.vertex_starts.tolist() == [0]
    assert detail.pooling.shape == (len(sgs.sdp),)


@pytest.mark.parametrize("edge_mode", ["none", "dref", "ctef", "dref+ctef"])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_forward_matches_numpy_oracle(edge_mode, graph_layer):
    model, corpus, provider = tiny_model(edge_mode=edge_mode, graph_layer=graph_layer)
    for s in corpus[:2] + corpus[12:14]:
        sgs = sentence_subgraphs(s)
        got = logits_of(model, s, sgs, provider)
        want = numpy_oracle_forward(model, s, sgs, provider)
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_forward_oracle_depth_two(graph_layer):
    model, corpus, provider = tiny_model(edge_mode="dref", graph_layer=graph_layer, graph_depth=2)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    got = logits_of(model, s, sgs, provider)
    want = numpy_oracle_forward(model, s, sgs, provider)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_oracle_non_contextual():
    model, corpus, provider = tiny_model(edge_mode="ctef", contextual=False)
    s = corpus[3]
    sgs = sentence_subgraphs(s)
    got = logits_of(model, s, sgs, provider)
    want = numpy_oracle_forward(model, s, sgs, provider)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_oracle_three_token_sentence():
    text = (
        "# id = 9\n# e1 = 0 0\n# e2 = 2 2\n# label = Other\n"
        "1\tsparks\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tfly\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tupward\t_\tADV\t_\t_\t2\tadvmod\t_\t_\n"
    )
    (s,) = parse_conllu_annotated(text)
    model, _, provider = tiny_model(edge_mode="dref+ctef")
    sgs = sentence_subgraphs(s)
    got = logits_of(model, s, sgs, provider)
    want = numpy_oracle_forward(model, s, sgs, provider)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_logits_invariant_to_internal_vertex_ordering():
    # with the sequence encoder replaced by the per-token projection, shuffling
    # the internal vertex bookkeeping must not move the logits
    rng = np.random.default_rng(40)
    model, corpus, provider = tiny_model(edge_mode="dref+ctef", contextual=False)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    reference = logits_of(model, s, sgs, provider)

    def shuffled(sg):
        perm = rng.permutation(len(sg))
        vertices = [sg.vertices[p] for p in perm]
        return SubGraph(vertices, permuted(sg.edges, perm))

    from relgat.graph import SubGraphSet

    scrambled = SubGraphSet(shuffled(sgs.sdp), shuffled(sgs.e1), shuffled(sgs.e2))
    np.testing.assert_allclose(logits_of(model, s, scrambled, provider), reference, atol=1e-10)


# ---------------------------------------------------------------------------
# Batched forward


def structure_model(dtype=np.float64, **overrides):
    corpus = build_structure_corpus(10, seed=5)
    config = ModelConfig(**{**TINY, **overrides})
    dref = build_dref_table(corpus, config.d_e) if config.uses_dref else None
    provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
    model = Model(config, build_vocabs(corpus), dref, seed=9, dtype=dtype)
    return model, [(s, sentence_subgraphs(s, config.expansion_order)) for s in corpus], provider


@pytest.mark.parametrize("graph_depth", [1, 2])
@pytest.mark.parametrize("edge_mode", ["none", "dref", "ctef", "dref+ctef"])
@pytest.mark.parametrize("graph_mode", ["multi", "single"])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_batched_logits_equal_batch_of_one(graph_layer, graph_mode, edge_mode, graph_depth):
    model, instances, provider = structure_model(
        graph_layer=graph_layer, graph_mode=graph_mode, edge_mode=edge_mode,
        graph_depth=graph_depth, expansion_order=1,
    )
    units = 3 if graph_mode == "multi" else 1
    batched = model.forward(laid_out(model, instances), provider)
    assert batched.logits.shape == (len(instances), 19)
    assert len(batched.vertex_starts) == units * len(instances)
    assert len(batched.attention) == (graph_depth if graph_layer == "gat" else 0)
    for b, instance in enumerate(instances):
        one = model.forward(laid_out(model, [instance]), provider)
        np.testing.assert_allclose(batched.logits.value[b], one.logits.value[0], rtol=0, atol=1e-12)
        got, want = instance_layout(batched, b, units), instance_layout(one, 0, units)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)
        assert len(got[3]) == len(want[3])
        for got_layer, want_layer in zip(got[3], want[3]):
            assert got_layer.shape == want_layer.shape
            assert want_layer.shape[1] == model.config.heads
            np.testing.assert_allclose(got_layer, want_layer, rtol=0, atol=1e-12)


@pytest.mark.parametrize("graph_depth", [1, 2])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_forward_validates_three_segments(graph_layer, graph_depth, monkeypatch):
    # vertex, pair and instance segments are each built (and validated) once
    # per forward, however many layers and ops read them
    model, instances, provider = structure_model(
        graph_layer=graph_layer, graph_depth=graph_depth, edge_mode="dref+ctef"
    )
    built = []
    original = nm.Segments.__init__

    def counting(self, starts, rows):
        built.append(rows)
        original(self, starts, rows)

    monkeypatch.setattr(nm.Segments, "__init__", counting)
    for batch in (instances[:4], instances[:1]):
        built.clear()
        model.forward(laid_out(model, batch), provider)
        graphs = [sg for _, sgs in batch for sg in sgs.all()]
        pairs = sum(len(sg) + 2 * len(sg.edges) for sg in graphs)
        assert built == [sum(map(len, graphs)), pairs, len(graphs)]


@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_batch_mean_loss_gradient_is_mean_of_instance_gradients(graph_layer):
    model, instances, provider = structure_model(graph_layer=graph_layer, edge_mode="dref+ctef")
    instances = instances[:5]
    params = model.parameters()
    golds = [LABEL_INDEX[s.label] for s, _ in instances]
    nm.zero_grads(params.values())
    nm.cross_entropy(model.forward(laid_out(model, instances), provider).logits, golds).backward()
    batched = {n: p.grad.copy() for n, p in params.items() if p.grad is not None}
    total = {n: np.zeros_like(p.value) for n, p in params.items()}
    for sentence, sgs in instances:
        nm.zero_grads(params.values())
        instance_loss(model, sentence, sgs, provider).backward()
        for n, p in params.items():
            if p.grad is not None:
                total[n] += p.grad
    assert batched
    for n, grad in total.items():
        np.testing.assert_allclose(batched.get(n, np.zeros_like(grad)), grad / len(instances),
                                   rtol=0, atol=1e-12, err_msg=n)


@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_batch_graph_size_independent_of_batch_size(graph_layer):
    model, instances, provider = structure_model(
        graph_layer=graph_layer, edge_mode="dref+ctef", graph_depth=2
    )
    golds = [LABEL_INDEX[s.label] for s, _ in instances]

    def graph_size(b):
        logits = model.forward(laid_out(model, instances[:b]), provider).logits
        return len(graph_nodes(nm.cross_entropy(logits, golds[:b])))

    assert graph_size(2) == graph_size(8)


def test_forward_rejects_empty_batch():
    model, _, provider = tiny_model()
    with pytest.raises(ValueError):
        model.forward(laid_out(model, []), provider)


@pytest.mark.parametrize("graph_mode", ["multi", "single"])
def test_forward_rejects_a_layout_of_the_other_graph_mode(graph_mode):
    model, corpus, provider = tiny_model(graph_mode=graph_mode)
    other = forward_inputs(batch_layout(corpus[:3], multi=graph_mode == "single"), model.vocabs)
    with pytest.raises(ValueError, match="units each"):
        model.forward(other, provider)
    model.forward(forward_inputs(batch_layout(corpus[:3], multi=graph_mode == "multi"), model.vocabs), provider)


def test_depth_two_gradient_check():
    model, corpus, provider = tiny_model(edge_mode="dref", graph_depth=2)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    gat_params = [p for n, p in model.parameters().items() if n.startswith("gat.")]
    err = gradient_check(lambda: instance_loss(model, s, sgs, provider), gat_params)
    assert err < 1e-4


def test_full_model_gradient_check():
    model, corpus, provider = tiny_model(edge_mode="dref+ctef")
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    params = list(model.parameters().values())
    err = gradient_check(lambda: instance_loss(model, s, sgs, provider), params)
    assert err < 1e-4


@pytest.mark.parametrize("contextual", [True, False])
def test_full_model_grads_own_their_memory(contextual):
    model, corpus, provider = tiny_model(edge_mode="dref+ctef", contextual=contextual)
    instances = [(s, sentence_subgraphs(s)) for s in corpus[:3]]
    golds = [LABEL_INDEX[s.label] for s, _ in instances]
    nm.cross_entropy(model.forward(laid_out(model, instances), provider).logits, golds).backward()
    params = list(model.parameters().values())
    assert all(p.grad is not None for p in params)
    for p in params:
        for q in params:
            assert not np.shares_memory(p.grad, q.value)
            assert q is p or not np.shares_memory(p.grad, q.grad)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model, corpus, provider = tiny_model(edge_mode="dref+ctef")
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    before = logits_of(model, s, sgs, provider)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    after = logits_of(clone, s, sgs, provider)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_noncontextual_checkpoint_roundtrip_bitwise(tmp_path, dtype):
    model, instances, provider = structure_model(edge_mode="dref", contextual=False, dtype=dtype)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    assert [n for n in clone.parameters() if n.startswith("proj.")] == [
        "proj.w_ctx", "proj.w_feat", "proj.b"
    ]
    for (name, p), q in zip(model.parameters().items(), clone.parameters().values()):
        assert q.value.dtype == dtype and np.array_equal(p.value, q.value), name
    assert np.array_equal(
        model.forward(laid_out(model, instances), provider).logits.value, clone.forward(laid_out(clone, instances), provider).logits.value
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_checkpoint_roundtrip_bitwise(tmp_path, dtype):
    # one lstm group, both directions as column blocks, back bit for bit
    model, instances, provider = structure_model(edge_mode="dref+ctef", dtype=dtype)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as f:
        assert f.read(8) == b"RGCKPT09"
    clone = load_checkpoint(path)
    d = model.config.d_lstm
    shapes = {n: p.shape for n, p in clone.parameters().items() if n.startswith("lstm")}
    assert shapes == {
        "lstm.w_ctx": (model.config.d_ctx, 8 * d),
        "lstm.w_feat": (model.embeddings.input_dim - model.config.d_ctx, 8 * d),
        "lstm.w_hidden": (d, 8 * d),
        "lstm.bias": (1, 8 * d),
    }
    for (name, p), q in zip(model.parameters().items(), clone.parameters().values()):
        assert q.value.dtype == dtype and np.array_equal(p.value, q.value), name
    assert np.array_equal(
        model.forward(laid_out(model, instances), provider).logits.value, clone.forward(laid_out(clone, instances), provider).logits.value
    )


def test_malformed_checkpoint_names_path(tmp_path):
    model, _, _ = tiny_model(edge_mode="dref+ctef")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    ends = [8, 16, 16 + header_len, 48 + header_len]  # magic, header length, header, digest
    for p in model.parameters().values():
        ends.append(ends[-1] + 8 * p.value.size)
    assert ends[-1] == len(blob)
    bad = tmp_path / "bad.ckpt"
    # cut inside the last byte of every section, and right after every section but the last
    cuts = [end - 1 for end in ends] + ends[:-1]
    # one flipped bit in the first and last byte of the digest and of every parameter
    flips = [at for lo, hi in zip(ends[2:], ends[3:]) for at in (lo, hi - 1)]
    flipped = [blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :] for at in flips]
    # the previous formats: version 08 (a config key that scaled dref rows
    # by their ratios), 07 (a file embedding record without the file's
    # digest), 06 (the digest, of the parameter bytes only, inside the
    # header), 05 (one parameter group per LSTM direction), 04 (one w and a
    # per GAT head), 03 (one input matrix per encoder), 02 (no dtype in the
    # header) and 01 (no digest either)
    version_08 = b"RGCKPT08" + blob[8:]
    version_07 = b"RGCKPT07" + blob[8:]
    header = json.loads(blob[16 : ends[2]])
    header["digest"] = hashlib.blake2b(blob[ends[3] :], digest_size=32).hexdigest()
    text = json.dumps(header).encode("utf-8")
    version_06 = b"RGCKPT06" + struct.pack("<Q", len(text)) + text + blob[ends[3] :]
    version_05 = b"RGCKPT05" + version_06[8:]
    version_04 = b"RGCKPT04" + version_06[8:]
    version_03 = b"RGCKPT03" + version_06[8:]
    del header["dtype"]
    text = json.dumps(header).encode("utf-8")
    version_02 = b"RGCKPT02" + struct.pack("<Q", len(text)) + text + blob[ends[3] :]
    del header["digest"]
    text = json.dumps(header).encode("utf-8")
    old_format = b"RGCKPT01" + struct.pack("<Q", len(text)) + text + blob[ends[3] :]
    versions = [version_08, version_07, version_06, version_05, version_04, version_03, version_02, old_format]
    for blob_bad in [blob[:cut] for cut in cuts] + [blob + b"\0", *versions] + flipped:
        bad.write_bytes(blob_bad)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(bad))
        assert str(bad) in str(err.value)
    for blob_bad in flipped:
        bad.write_bytes(blob_bad)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(bad))


@pytest.mark.parametrize("graph_layer,contextual", [("gat", True), ("gcn", False)])
def test_load_draws_no_parameter(tmp_path, monkeypatch, graph_layer, contextual):
    # the loader allocates every parameter and writes it from the file, drawing none
    model, instances, provider = structure_model(
        graph_layer=graph_layer, contextual=contextual, edge_mode="dref+ctef", dtype=np.float32
    )
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)

    fill = nm.initial_values

    def no_draws(rng, fan_in, out):
        assert rng is nm.UNDRAWN, "a checkpoint load drew a parameter"
        return fill(rng, fan_in, out)

    monkeypatch.setattr(nm, "initial_values", no_draws)
    clone = load_checkpoint(path)
    assert list(clone.parameters()) == list(model.parameters())
    for (name, p), q in zip(model.parameters().items(), clone.parameters().values()):
        assert q.value.dtype == np.float32 and np.array_equal(p.value, q.value), name
    assert np.array_equal(
        model.forward(laid_out(model, instances), provider).logits.value, clone.forward(laid_out(clone, instances), provider).logits.value
    )


def test_checkpoint_save_replaces_whole_file(tmp_path, monkeypatch):
    first, corpus, provider = tiny_model(edge_mode="dref+ctef")
    second = Model(first.config, first.vocabs, first.dref_table, seed=11, dtype=np.float64)
    path, fresh = tmp_path / "model.ckpt", tmp_path / "fresh" / "model.ckpt"
    fresh.parent.mkdir()
    path.write_bytes(b"x" * 10**6)  # longer than any checkpoint written below
    save_checkpoint(first, str(path))
    save_checkpoint(second, str(path))
    save_checkpoint(second, str(fresh))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "model.ckpt"]
    assert path.read_bytes() == fresh.read_bytes()
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    assert np.array_equal(
        logits_of(load_checkpoint(str(path)), s, sgs, provider),
        logits_of(second, s, sgs, provider),
    )
    # a save that fails before its rename leaves the old checkpoint and no temp file
    def no_space(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("os.fsync", no_space)
    with pytest.raises(OSError):
        save_checkpoint(first, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "model.ckpt"]
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("contextual", [True, False])
@pytest.mark.parametrize("edge_mode", ["none", "dref", "ctef", "dref+ctef"])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_float32_model_stays_float32(graph_layer, edge_mode, contextual):
    # every node value, every VJP result and every parameter gradient of a
    # forward and backward is float32
    model, instances, provider = structure_model(
        graph_layer=graph_layer, edge_mode=edge_mode, contextual=contextual, dtype=np.float32,
    )
    golds = [LABEL_INDEX[s.label] for s, _ in instances]
    loss = nm.cross_entropy(model.forward(laid_out(model, instances), provider).logits, golds)
    results = []

    def recording(vjp):
        def wrapped(g):
            out = vjp(g)
            results.append(np.asarray(out).dtype)
            return out
        return wrapped

    nodes = graph_nodes(loss)
    for node in nodes:
        assert node.value.dtype == np.float32, node
        node.vjps = tuple(recording(vjp) for vjp in node.vjps)
    loss.backward()
    assert results and set(results) == {np.dtype(np.float32)}
    params = model.parameters()
    assert all(p.grad is not None and p.grad.dtype == np.float32 for p in params.values())


@pytest.mark.parametrize("edge_mode", ["none", "dref", "ctef", "dref+ctef"])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_float32_logits_match_float64(graph_layer, edge_mode):
    # the same init rounded to float32 gives the same logits to 1e-5 of the largest
    cfg = dict(graph_layer=graph_layer, edge_mode=edge_mode, graph_depth=2, expansion_order=1)
    single, instances, provider = structure_model(**cfg, dtype=np.float32)
    double, _, _ = structure_model(**cfg)
    for (name, p), q in zip(single.parameters().items(), double.parameters().values()):
        assert np.array_equal(p.value, q.value.astype(np.float32)), name
    got = single.forward(laid_out(single, instances), provider).logits.value
    want = double.forward(laid_out(double, instances), provider).logits.value
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("contextual", [True, False])
@pytest.mark.parametrize("edge_mode", ["none", "dref", "ctef", "dref+ctef"])
@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_no_grad_forward_is_bit_identical(graph_layer, edge_mode, contextual, dtype):
    model, instances, provider = structure_model(
        dtype, graph_layer=graph_layer, edge_mode=edge_mode, contextual=contextual,
        graph_depth=2, expansion_order=1,
    )
    tracked = model.forward(laid_out(model, instances), provider)
    with nm.no_grad():
        plain = model.forward(laid_out(model, instances), provider)
    assert graph_nodes(plain.logits) == [plain.logits] and not plain.logits.requires_grad
    assert plain.logits.value.dtype == dtype
    np.testing.assert_array_equal(plain.logits.value, tracked.logits.value)
    np.testing.assert_array_equal(plain.pooling, tracked.pooling)
    for got, want in zip(plain.attention, tracked.attention, strict=True):
        np.testing.assert_array_equal(got, want)


def test_predict_index_runs_a_no_grad_forward(monkeypatch):
    model, instances, provider = structure_model(edge_mode="dref+ctef")
    forward, logits = model.forward, []

    def recording(batch, provider):
        detail = forward(batch, provider)
        logits.append(detail.logits)
        return detail

    monkeypatch.setattr(model, "forward", recording)
    for sentence, sgs in instances:
        want = int(np.argmax(forward(laid_out(model, [(sentence, sgs)]), provider).logits.value[0]))
        assert model.predict_index(sentence, sgs, provider) == want
    assert len(logits) == len(instances)
    assert all(graph_nodes(node) == [node] for node in logits)
    assert all(p.grad is None for p in model.parameters().values())


def test_float32_checkpoint_roundtrip_bitwise(tmp_path):
    model, instances, provider = structure_model(edge_mode="dref+ctef", dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    assert blob[:8] == b"RGCKPT09" and header["dtype"] == "float32"
    names = [r["name"] for r in header["params"]]
    assert [n for n in names if n.startswith("gat.")] == [
        "gat.l0.w", "gat.l0.a_center", "gat.l0.a_neighbor", "gat.l0.a_edge"
    ]
    assert [n for n in names if n.startswith("lstm")] == [
        "lstm.w_ctx", "lstm.w_feat", "lstm.w_hidden", "lstm.bias"
    ]
    assert len(blob) == 16 + header_len + 32 + 4 * sum(p.value.size for p in model.parameters().values())
    clone = load_checkpoint(str(path))
    assert clone.dtype == np.float32
    for (name, p), q in zip(model.parameters().items(), clone.parameters().values()):
        assert q.value.dtype == np.float32 and np.array_equal(p.value, q.value), name
    assert np.array_equal(
        model.forward(laid_out(model, instances), provider).logits.value, clone.forward(laid_out(clone, instances), provider).logits.value
    )


def test_model_dtype_defaults_to_float32():
    vocabs = build_vocabs(build_toy_corpus())
    model = Model(ModelConfig(**TINY), vocabs)
    assert model.dtype == np.float32
    assert all(p.value.dtype == np.float32 for p in model.parameters().values())
    for dtype in (np.float16, np.int64):
        with pytest.raises(ConfigError, match="dtype"):
            Model(ModelConfig(**TINY), vocabs, dtype=dtype)


def test_malformed_checkpoint_header_names_path(tmp_path):
    model, _, _ = tiny_model(edge_mode="dref+ctef")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    payload = blob[16 + header_len :]
    unknown_key = {**header, "config": {**header["config"], "bogus": 1}}
    bad_layer = {**header, "config": {**header["config"], "graph_layer": "sage"}}
    bad_seed = {**header, "embedding": {"kind": "hashed", "seed": "x"}}
    bad = tmp_path / "bad.ckpt"
    for bad_header in ({}, [], unknown_key, bad_layer, bad_seed):
        text = json.dumps(bad_header).encode("utf-8")
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + payload)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(bad))
        assert str(bad) in str(err.value)


@pytest.mark.parametrize("field, value", [("contextual", "false"), ("d_ctx", True)])
def test_checkpoint_config_values_are_type_checked(tmp_path, field, value):
    # a string flag would be truthy and a bool size an int; both are refused
    model, _, _ = tiny_model(edge_mode="dref")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    header["config"][field] = value
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :])
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(bad))
    assert str(bad) in str(err.value) and field in str(err.value)



def test_checkpoint_header_byte_change_fails_the_digest(tmp_path):
    model, _, _ = tiny_model(edge_mode="dref")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    at = blob.index(b'"seed": 0') + len(b'"seed": ')
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:at] + b"1" + blob[at + 1 :])  # the embedding seed 0 -> 1: still a valid header
    with pytest.raises(CheckpointError, match="digest") as err:
        load_checkpoint(str(bad))
    assert str(bad) in str(err.value)


# header edits that each describe a loadable model, so only the digest tells them apart
HEADER_EDITS = {
    "vocabs_reversed": lambda h: {**h, "vocabs": {k: v[::-1] for k, v in h["vocabs"].items()}},
    "dref_counts_x7": lambda h: {**h, "dref": {**h["dref"], "counts": [7 * c for c in h["dref"]["counts"]]}},
    "embedding_seed": lambda h: {**h, "embedding": {"kind": "hashed", "seed": 7}},
    "config_key_dropped": lambda h: {
        **h, "config": {k: v for k, v in h["config"].items() if k != "expansion_order"}
    },
}


@pytest.mark.parametrize("edit", list(HEADER_EDITS))
def test_checkpoint_header_edits_are_refused(tmp_path, edit):
    model, _, _ = tiny_model(edge_mode="dref", expansion_order=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    text = json.dumps(HEADER_EDITS[edit](header), sort_keys=True).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + header_len :])
    with pytest.raises(CheckpointError, match="digest") as err:
        load_checkpoint(str(bad))
    assert str(bad) in str(err.value)


# an unknown kind, a missing seed, a seed that is no integer, a custom provider's
# record, a file record without its digest and one whose digest is no hex digest
BAD_EMBEDDING_RECORDS = [
    {"kind": "hashd", "seed": 5}, {"kind": "hashed"}, {"kind": "hashed", "seed": "x"}, None,
    {"kind": "file"}, {"kind": "file", "digest": "not hex"},
]


@pytest.mark.parametrize("record", BAD_EMBEDDING_RECORDS)
def test_unrebuildable_embedding_record_refused_at_save(tmp_path, record):
    model, _, _ = tiny_model()
    model.embedding = record
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError, match="embedding record") as err:
        save_checkpoint(model, str(path))
    assert str(path) in str(err.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("record", BAD_EMBEDDING_RECORDS)
def test_unrebuildable_embedding_record_refused_at_load(tmp_path, record):
    # a hand-written header with a matching digest: only the record check can refuse it
    model, _, _ = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    assert header["embedding"] == {"kind": "hashed", "seed": 0}
    text = json.dumps({**header, "embedding": record}, sort_keys=True).encode("utf-8")
    payload = blob[16 + header_len + 32 :]
    digest = hashlib.blake2b(text + payload, digest_size=32).digest()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + digest + payload)
    with pytest.raises(CheckpointError, match="embedding record") as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("record", [{"kind": "hashed", "seed": 5}, {"kind": "file", "digest": "0f" * 32}])
def test_embedding_record_survives_a_checkpoint(tmp_path, record):
    model, _, _ = tiny_model()
    model.embedding = record
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    assert load_checkpoint(path).embedding == record


def test_a_model_build_makes_no_provider(monkeypatch):
    # the default record is the one a seed-0 hashed provider gives, read without building one
    record = HashedEmbeddingProvider(TINY["d_ctx"], seed=0).record

    def no_provider(*args, **kwargs):
        raise AssertionError("a model build made an embedding provider")

    vocabs = build_vocabs(build_toy_corpus())
    monkeypatch.setattr(HashedEmbeddingProvider, "__init__", no_provider)
    for seed in (3, None):  # a fresh model, and one a checkpoint load fills
        assert Model(ModelConfig(**TINY), vocabs, seed=seed).embedding == record


# ---------------------------------------------------------------------------
# Straight-line numpy reimplementation used as the forward oracle


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_direction_np(x, wx, wh, b, reverse):
    n, d = x.shape[0], wh.shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    out = [None] * n
    steps = range(n - 1, -1, -1) if reverse else range(n)
    for t in steps:
        g = x[t] @ wx + h @ wh + b.reshape(-1)
        gi, gf = _sigmoid(g[:d]), _sigmoid(g[d : 2 * d])
        gc, go = np.tanh(g[2 * d : 3 * d]), _sigmoid(g[3 * d :])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        out[t] = h
    return np.stack(out)


def numpy_oracle_forward(model, sentence, sgs, provider):
    cfg = model.config
    p = {k: v.value for k, v in model.parameters().items()}
    vocabs = model.vocabs
    dref = dref_entries(model.dref_table) if model.dref_table else {}
    ctx_all = provider.vectors(sentence, range(len(sentence)))

    def encode(sg):
        rows = []
        for v in sg.vertices:
            t = sentence.tokens[v]
            rows.append(np.concatenate([
                ctx_all[v],
                p["embed.pos"][vocabs.pos.index(t.pos)],
                p["embed.deprel"][vocabs.deprel.index(t.deprel)],
                p["embed.ner"][vocabs.ner.index(t.ner)],
                p["embed.word_type"][1 if entity_token(sentence, v) else 0],
            ]))
        return np.stack(rows)

    def context(x):
        if cfg.contextual:
            directions = []
            w_input = np.vstack([p["lstm.w_ctx"], p["lstm.w_feat"]])
            gates = 4 * cfg.d_lstm
            for k, reverse in ((0, False), (1, True)):
                block = slice(k * gates, (k + 1) * gates)  # direction k's columns
                directions.append(_lstm_direction_np(
                    x, w_input[:, block], p["lstm.w_hidden"][:, block], p["lstm.bias"][:, block], reverse
                ))
            return np.concatenate(directions, axis=1)
        return x @ np.vstack([p["proj.w_ctx"], p["proj.w_feat"]]) + p["proj.b"].reshape(-1)

    def edge_vec(sg, i, j):
        """The edge feature of pair (i, j), from the tokens' strings and heads."""
        if cfg.edge_mode == "none":
            return None
        u, v = sg.vertices[i], sg.vertices[j]
        vec = np.zeros(cfg.d_e)
        if "dref" in cfg.edge_mode:
            if u == v:
                row = DrefTable.SELF_ROW
            else:
                tok_u, tok_v = sentence.tokens[u], sentence.tokens[v]
                deprel = tok_v.deprel if tok_v.head == u else tok_u.deprel
                triple = (tok_u.pos, tok_v.pos, deprel)
                row, _ = dref.get(triple, (DrefTable.UNK_ROW, None))
            vec += p["edge.dref"][row]
        if "ctef" in cfg.edge_mode and entity_token(sentence, v):
            vec += np.ones(cfg.d_e)
        return vec

    def one_layer(h, layer, nbrs, sg):
        if cfg.graph_layer == "gcn":
            w = p[f"gcn.l{layer}.w"]
            deg = np.array([len(a) for a in nbrs], dtype=np.float64)
            out = np.zeros((len(nbrs), cfg.d_g))
            for i, around in enumerate(nbrs):
                acc = np.zeros(cfg.d_g)
                for j in around:
                    feat = h[j] if cfg.edge_mode == "none" else np.concatenate([h[j], edge_vec(sg, i, j)])
                    acc += (feat @ w) / np.sqrt(deg[i] * deg[j])
                out[i] = np.maximum(acc, 0.0)
            return out
        head_outs = []
        m = cfg.head_dim
        for k in range(cfg.heads):
            # head k's slice of the stacked parameters
            block = slice(k * m, (k + 1) * m)
            w = p[f"gat.l{layer}.w"][:, block]
            a = [p[f"gat.l{layer}.a_center"][block, 0], p[f"gat.l{layer}.a_neighbor"][block, 0]]
            if cfg.edge_mode != "none":
                a.append(p[f"gat.l{layer}.a_edge"][:, k])
            a = np.concatenate(a)
            wh = h @ w
            rows = np.zeros((len(nbrs), cfg.head_dim))
            for i, around in enumerate(nbrs):
                scores = []
                for j in around:
                    feats_ij = [wh[i], wh[j]]
                    if cfg.edge_mode != "none":
                        feats_ij.append(edge_vec(sg, i, j))
                    z = np.concatenate(feats_ij) @ a
                    scores.append(z if z > 0 else 0.2 * z)
                scores = np.array(scores)
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                agg = alpha @ wh[list(around)]
                rows[i] = np.where(agg > 0, agg, np.expm1(agg))
            head_outs.append(rows)
        return np.concatenate(head_outs, axis=1)

    def graph_layer(h, sg):
        # closed neighborhoods straight from the token heads, self included
        tokens = sentence.tokens
        nbrs = [
            [a for a, w in enumerate(sg.vertices) if w == v or tokens[w].head == v or tokens[v].head == w]
            for v in sg.vertices
        ]
        for layer in range(cfg.graph_depth):
            h = one_layer(h, layer, nbrs, sg)
        return h

    def pool(states):
        u = np.tanh(states @ p["pool.w"]).reshape(-1)
        alpha = np.exp(u - u.max())
        alpha /= alpha.sum()
        return alpha @ states

    graphs = sgs.all() if cfg.graph_mode == "multi" else [sgs.sdp]
    pooled = []
    e1_state = e2_state = None
    for sg in graphs:
        states = graph_layer(context(encode(sg)), sg)
        pooled.append(pool(states))
        if sg is sgs.sdp:
            e1_state = states[sg.vertices.index(sentence.e1.head_token)]
            e2_state = states[sg.vertices.index(sentence.e2.head_token)]
    v = e1_state + e2_state + sum(pooled)
    return v @ p["cls.w"] + p["cls.b"]
