"""Network layers and the full forward pass, checked against straight-line numpy."""

import json
import struct

import numpy as np
import pytest

from relgat import numerics as nm
from relgat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from relgat.corpus import build_vocabs, parse_conllu_annotated
from relgat.features import (
    HashedEmbeddingProvider,
    attention_pairs,
    build_dref_table,
    ctef_edge_features,
    dref_edge_features,
)
from relgat.graph import SubGraph, sentence_subgraphs
from relgat.model import (
    ConfigError,
    GatHead,
    LstmParams,
    Model,
    ModelConfig,
    bilstm_encode,
    compose_sentence,
    gat_attention,
    gat_vertex_update,
    gcn_vertex_update,
    pool_graph,
)
from conftest import build_structure_corpus, build_toy_corpus, graph_nodes, total

TINY = dict(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def attention_rows(alpha, starts):
    """Per-vertex attention rows of a (P, 1) attention column."""
    return np.split(alpha.value[:, 0], starts[1:])


def make_subgraph(adjacency, kind="sdp"):
    adjacency = np.asarray(adjacency)
    return SubGraph(kind, list(range(adjacency.shape[0])), adjacency)


def logits_of(model, sentence, sgs, provider):
    """The (19,) logits of one instance, run as a batch of one."""
    return model.forward([(sentence, sgs)], provider).logits.value[0]


def instance_loss(model, sentence, sgs, provider):
    """Cross-entropy of one instance against its gold label, run as a batch of one."""
    label = model.vocabs.label_index(sentence.label)
    return nm.cross_entropy(model.forward([(sentence, sgs)], provider).logits, [label])


def instance_layout(detail, b, units):
    """Instance b's cut of a forward's layout diagnostics, with its row offsets removed.

    Returns its units' vertex starts, its centers' pair starts, its pooling
    weights and, per head, its attention weights; ``units`` is the number
    of units per instance.
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


def test_model_requires_table_for_dref():
    corpus = build_toy_corpus()
    vocabs = build_vocabs(corpus)
    with pytest.raises(ConfigError):
        Model(ModelConfig(**TINY, edge_mode="dref"), vocabs, dref=None)


# ---------------------------------------------------------------------------
# BiLSTM


def test_bilstm_single_token_shape():
    rng = np.random.default_rng(0)
    fwd, bwd = LstmParams(5, 4, rng), LstmParams(5, 4, rng)
    out = bilstm_encode(nm.constant(rng.standard_normal((1, 5))), [0], fwd, bwd)
    assert out.shape == (1, 8)


def test_bilstm_reversal_swaps_directions():
    # with tied weights, the backward pass over x equals the forward pass
    # over reversed x, read in reverse
    rng = np.random.default_rng(1)
    fwd = LstmParams(5, 4, rng)
    bwd = LstmParams(5, 4, rng)
    for a, b in zip(fwd.parameters("f").values(), bwd.parameters("b").values()):
        b.value = a.value.copy()
    x = rng.standard_normal((6, 5))
    out = bilstm_encode(nm.constant(x), [0], fwd, bwd).value
    out_rev = bilstm_encode(nm.constant(x[::-1].copy()), [0], fwd, bwd).value
    np.testing.assert_allclose(out[:, :4], out_rev[::-1, 4:], atol=1e-12)
    np.testing.assert_allclose(out[:, 4:], out_rev[::-1, :4], atol=1e-12)


def test_bilstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
    x = nm.parameter(rng.standard_normal((3, 3)))
    probe = nm.constant(rng.standard_normal((3, 4)))
    params = [x, *fwd.parameters("f").values(), *bwd.parameters("b").values()]
    err = nm.gradient_check(
        lambda: total(nm.mul(bilstm_encode(x, [0], fwd, bwd), probe)), params
    )
    assert err < 1e-4


def test_bilstm_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    fwd, bwd = LstmParams(5, 4, rng), LstmParams(5, 4, rng)
    for p in (fwd.bias, bwd.bias):
        p.value = rng.standard_normal(p.shape)
    # one sequence at a time, then several packed, unsorted and with ties and length 1
    for lengths in ((1,), (2,), (7,), (3, 1, 7, 2, 7), (1, 1), (4, 6, 5)):
        x = rng.standard_normal((sum(lengths), 5))
        starts = np.cumsum((0,) + lengths[:-1])
        out = bilstm_encode(nm.constant(x), starts, fwd, bwd).value
        expected = np.concatenate([
            np.concatenate([
                _lstm_direction_np(seq, fwd.w_input.value, fwd.w_hidden.value, fwd.bias.value, False),
                _lstm_direction_np(seq, bwd.w_input.value, bwd.w_hidden.value, bwd.bias.value, True),
            ], axis=1)
            for seq in np.split(x, starts[1:])
        ])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_bilstm_graph_size_independent_of_length():
    rng = np.random.default_rng(5)
    fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)

    def graph_size(n):
        return len(graph_nodes(bilstm_encode(nm.parameter(rng.standard_normal((n, 3))), [0], fwd, bwd)))

    assert graph_size(3) == graph_size(30)


def test_bilstm_rejects_empty_sequence():
    rng = np.random.default_rng(3)
    fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
    with pytest.raises(ValueError):
        bilstm_encode(nm.constant(np.zeros((0, 3))), [0], fwd, bwd)


# ---------------------------------------------------------------------------
# Graph attention


def test_isolated_vertex_attends_to_itself():
    rng = np.random.default_rng(4)
    head = GatHead(3, 2, 0, rng)
    sg = make_subgraph([[0]])
    starts, pairs = attention_pairs(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((1, 3))), head.w)
    alpha = gat_attention(wh, starts, pairs, head.a)
    assert alpha.value.tolist() == [[1.0]]


def test_zeroed_attention_vector_gives_uniform_weights():
    rng = np.random.default_rng(5)
    head = GatHead(3, 2, 0, rng)
    head.a.value = np.zeros_like(head.a.value)
    sg = make_subgraph([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    starts, pairs = attention_pairs(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((3, 3))), head.w)
    alphas = attention_rows(gat_attention(wh, starts, pairs, head.a), starts)
    np.testing.assert_allclose(alphas[0], np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_allclose(alphas[1], np.full(2, 1 / 2), atol=1e-15)


def test_attention_matches_straight_line_recomputation():
    rng = np.random.default_rng(6)
    d_in, m, d_e = 4, 3, 2
    head = GatHead(d_in, m, d_e, rng)
    sg = make_subgraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # path graph
    starts, pairs = attention_pairs(sg)
    h = rng.standard_normal((3, d_in))
    efeat_rows = rng.standard_normal((len(pairs), d_e))
    wh = nm.matmul(nm.constant(h), head.w)
    alphas = attention_rows(gat_attention(wh, starts, pairs, head.a, nm.constant(efeat_rows)), starts)

    wh_np = h @ head.w.value
    a = head.a.value.reshape(-1)
    by_pair = {(i, j): e for (i, j), e in zip(pairs.tolist(), efeat_rows)}
    for i, around in enumerate([[0, 1], [0, 1, 2], [1, 2]]):
        scores = []
        for j in around:
            z = np.concatenate([wh_np[i], wh_np[j], by_pair[(i, j)]]) @ a
            scores.append(z if z > 0 else 0.2 * z)
        scores = np.array(scores)
        expected = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(alphas[i], expected, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    head = GatHead(4, 3, 0, rng)
    sg = make_subgraph([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    starts, pairs = attention_pairs(sg)
    wh = nm.matmul(nm.constant(rng.standard_normal((4, 4)) * 10), head.w)
    rows = attention_rows(gat_attention(wh, starts, pairs, head.a), starts)
    assert len(rows) == 4
    for row in rows:
        assert abs(row.sum() - 1.0) < 1e-9


def test_multi_head_output_dimension_default_config():
    rng = np.random.default_rng(8)
    cfg = ModelConfig()
    heads = [GatHead(2 * cfg.d_lstm, cfg.head_dim, 0, rng) for _ in range(cfg.heads)]
    sg = make_subgraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    starts, pairs = attention_pairs(sg)
    out, _ = gat_vertex_update(nm.constant(rng.standard_normal((3, 512))), starts, pairs, heads)
    assert out.shape == (3, 256)


def test_single_head_reduction_is_bitwise():
    rng = np.random.default_rng(9)
    head = GatHead(4, 6, 0, rng)
    sg = make_subgraph([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    starts, pairs = attention_pairs(sg)
    h = nm.constant(rng.standard_normal((3, 4)))
    multi, _ = gat_vertex_update(h, starts, pairs, [head])

    # plain single-head update, no multi-head concatenation machinery
    wh = nm.matmul(h, head.w)
    alpha = gat_attention(wh, starts, pairs, head.a)
    single = nm.elu(nm.segment_sum(nm.mul(nm.gather_rows(wh, pairs[:, 1]), alpha), starts))
    assert np.array_equal(multi.value, single.value)


def test_edge_mode_none_equals_zeroed_edge_slot_bitwise():
    rng = np.random.default_rng(10)
    d_in, m, d_e = 4, 3, 2
    with_edges = GatHead(d_in, m, d_e, rng)
    with_edges.a.value[2 * m :] = 0.0
    plain = GatHead(d_in, m, 0, np.random.default_rng(99))
    plain.w.value = with_edges.w.value.copy()
    plain.a.value = with_edges.a.value[: 2 * m].copy()

    sg = make_subgraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    starts, pairs = attention_pairs(sg)
    h = nm.constant(rng.standard_normal((3, d_in)))
    efeat = nm.constant(rng.standard_normal((len(pairs), d_e)))
    out_edges, att_edges = gat_vertex_update(h, starts, pairs, [with_edges], efeat)
    out_plain, att_plain = gat_vertex_update(h, starts, pairs, [plain], None)
    assert np.array_equal(out_edges.value, out_plain.value)
    assert len(att_edges) == len(att_plain) == 1
    assert att_edges[0].shape == (len(pairs),)
    assert np.array_equal(att_edges[0], att_plain[0])


def test_single_vertex_update_is_elu_of_transform():
    rng = np.random.default_rng(41)
    heads = [GatHead(4, 3, 0, rng) for _ in range(2)]
    sg = make_subgraph([[0]])
    starts, pairs = attention_pairs(sg)
    h = rng.standard_normal((1, 4))
    out, _ = gat_vertex_update(nm.constant(h), starts, pairs, heads)
    expected = np.concatenate([(h @ hd.w.value) for hd in heads], axis=1)
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
    head = GatHead(4, 3, 0, rng)
    adjacency = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    h = rng.standard_normal((4, 4))
    perm = np.array([2, 0, 3, 1])

    starts, pairs = attention_pairs(make_subgraph(adjacency))
    out, _ = gat_vertex_update(nm.constant(h), starts, pairs, [head])

    permuted_adj = adjacency[np.ix_(perm, perm)]
    starts_p, pairs_p = attention_pairs(make_subgraph(permuted_adj))
    out_p, _ = gat_vertex_update(nm.constant(h[perm]), starts_p, pairs_p, [head])
    np.testing.assert_allclose(out_p.value, out.value[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# GCN


def test_gcn_three_cycle_hand_computation():
    # identity transform, no edge features: each vertex averages its
    # closed neighborhood (all degrees are 3 with the self-loop)
    sg = make_subgraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    starts, pairs = attention_pairs(sg)
    h = np.array([[3.0, -6.0], [0.0, 3.0], [6.0, 0.0]])
    out = gcn_vertex_update(nm.constant(h), starts, pairs, nm.constant(np.eye(2)))
    expected = np.maximum(h.mean(axis=0), 0.0)
    np.testing.assert_allclose(out.value, np.tile(expected, (3, 1)), atol=1e-12)


def test_gcn_self_loop_only_vertex():
    rng = np.random.default_rng(12)
    w = nm.constant(rng.standard_normal((5, 3)))
    sg = make_subgraph([[0]])
    starts, pairs = attention_pairs(sg)
    h = rng.standard_normal((1, 3))
    e = rng.standard_normal((1, 2))
    out = gcn_vertex_update(nm.constant(h), starts, pairs, w, nm.constant(e))
    expected = np.maximum(np.concatenate([h[0], e[0]]) @ w.value, 0.0)
    np.testing.assert_allclose(out.value.reshape(-1), expected, atol=1e-12)


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(13)
    w = nm.constant(rng.standard_normal((4, 3)))
    adjacency = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    h = rng.standard_normal((4, 4))
    perm = np.array([3, 1, 0, 2])

    starts, pairs = attention_pairs(make_subgraph(adjacency))
    out = gcn_vertex_update(nm.constant(h), starts, pairs, w)
    starts_p, pairs_p = attention_pairs(make_subgraph(adjacency[np.ix_(perm, perm)]))
    out_p = gcn_vertex_update(nm.constant(h[perm]), starts_p, pairs_p, w)
    np.testing.assert_allclose(out_p.value, out.value[perm], atol=1e-12)


def test_graph_layer_size_independent_of_vertex_count():
    rng = np.random.default_rng(19)
    heads = [GatHead(3, 2, 2, rng) for _ in range(2)]
    w_gcn = nm.parameter(rng.standard_normal((5, 4)))

    def graph_sizes(n):
        adjacency = np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)  # path graph
        starts, pairs = attention_pairs(make_subgraph(adjacency))
        h = nm.parameter(rng.standard_normal((n, 3)))
        efeat = nm.parameter(rng.standard_normal((len(pairs), 2)))
        gat, _ = gat_vertex_update(h, starts, pairs, heads, efeat)
        gcn = gcn_vertex_update(h, starts, pairs, w_gcn, efeat)
        return len(graph_nodes(gat)), len(graph_nodes(gcn))

    assert graph_sizes(3) == graph_sizes(30)


# ---------------------------------------------------------------------------
# Pooling and composition


def test_pool_single_vertex_is_identity():
    rng = np.random.default_rng(14)
    h = rng.standard_normal((1, 5))
    v, alpha = pool_graph(nm.constant(h), [0], nm.constant(rng.standard_normal((5, 1))))
    np.testing.assert_array_equal(v.value, h)
    assert alpha.value.tolist() == [[1.0]]


def test_pool_identical_states_average():
    rng = np.random.default_rng(15)
    row = rng.standard_normal(5)
    h = np.stack([row, row])
    v, alpha = pool_graph(nm.constant(h), [0], nm.constant(rng.standard_normal((5, 1))))
    np.testing.assert_allclose(alpha.value, [[0.5], [0.5]], atol=1e-15)
    np.testing.assert_allclose(v.value.reshape(-1), row, atol=1e-15)


def test_pool_matches_recomputation():
    rng = np.random.default_rng(16)
    h = rng.standard_normal((4, 5))
    w = rng.standard_normal((5, 1))
    v, alpha = pool_graph(nm.constant(h), [0], nm.constant(w))
    u = np.tanh(h @ w).reshape(-1)
    expected_alpha = np.exp(u) / np.exp(u).sum()
    np.testing.assert_allclose(alpha.value.reshape(-1), expected_alpha, atol=1e-12)
    np.testing.assert_allclose(v.value.reshape(-1), expected_alpha @ h, atol=1e-12)


def test_pool_distribution_sums_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        h = rng.standard_normal((int(rng.integers(1, 7)), 4)) * rng.uniform(0.1, 20)
        _, alpha = pool_graph(nm.constant(h), [0], nm.constant(rng.standard_normal((4, 1))))
        assert abs(alpha.value.sum() - 1.0) < 1e-9


def test_compose_zero_inputs_give_zero():
    zero = nm.constant(np.zeros((1, 4)))
    v = compose_sentence(nm.constant(np.zeros((3, 4))), [0], zero, zero)
    np.testing.assert_array_equal(v.value, np.zeros((1, 4)))


def test_compose_unit_basis_sums():
    rows = [np.eye(5)[i : i + 1] for i in range(5)]
    v = compose_sentence(nm.constant(np.concatenate(rows[2:])), [0],
                         nm.constant(rows[0]), nm.constant(rows[1]))
    np.testing.assert_array_equal(v.value, np.ones((1, 5)))


def test_compose_single_graph_reduction():
    rng = np.random.default_rng(18)
    e1, e2, pool = (rng.standard_normal((1, 4)) for _ in range(3))
    v = compose_sentence(nm.constant(pool), [0], nm.constant(e1), nm.constant(e2))
    np.testing.assert_array_equal(v.value, e1 + e2 + pool)


# ---------------------------------------------------------------------------
# Full forward


def test_zeroed_classifier_gives_uniform_distribution(pollen_sentence):
    model, corpus, provider = tiny_model()
    model.cls_w.value = np.zeros_like(model.cls_w.value)
    model.cls_b.value = np.zeros_like(model.cls_b.value)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    detail = model.forward([(s, sgs)], provider)
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
    detail = model.forward([(s, sgs)], provider)
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


def test_forward_oracle_ratio_scaled_edges():
    model, corpus, provider = tiny_model(edge_mode="dref", dref_scale_by_ratio=True)
    s = corpus[0]
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
        return SubGraph(sg.kind, vertices, sg.adjacency[np.ix_(perm, perm)])

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
    batched = model.forward(instances, provider)
    assert batched.logits.shape == (len(instances), 19)
    assert len(batched.vertex_starts) == units * len(instances)
    assert len(batched.attention) == (graph_depth * model.config.heads if graph_layer == "gat" else 0)
    for b, instance in enumerate(instances):
        one = model.forward([instance], provider)
        np.testing.assert_allclose(batched.logits.value[b], one.logits.value[0], rtol=0, atol=1e-12)
        got, want = instance_layout(batched, b, units), instance_layout(one, 0, units)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)
        assert len(got[3]) == len(want[3])
        for got_head, want_head in zip(got[3], want[3]):
            assert got_head.shape == want_head.shape
            np.testing.assert_allclose(got_head, want_head, rtol=0, atol=1e-12)


@pytest.mark.parametrize("graph_layer", ["gat", "gcn"])
def test_batch_mean_loss_gradient_is_mean_of_instance_gradients(graph_layer):
    model, instances, provider = structure_model(graph_layer=graph_layer, edge_mode="dref+ctef")
    instances = instances[:5]
    params = model.parameters()
    golds = [model.vocabs.label_index(s.label) for s, _ in instances]
    nm.zero_grads(params.values())
    nm.cross_entropy(model.forward(instances, provider).logits, golds).backward()
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
    golds = [model.vocabs.label_index(s.label) for s, _ in instances]

    def graph_size(b):
        logits = model.forward(instances[:b], provider).logits
        return len(graph_nodes(nm.cross_entropy(logits, golds[:b])))

    assert graph_size(2) == graph_size(8)


def test_forward_rejects_empty_batch():
    model, _, provider = tiny_model()
    with pytest.raises(ValueError):
        model.forward([], provider)


def test_depth_two_gradient_check():
    model, corpus, provider = tiny_model(edge_mode="dref", graph_depth=2)
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    gat_params = [p for n, p in model.parameters().items() if n.startswith("gat.")]
    err = nm.gradient_check(lambda: instance_loss(model, s, sgs, provider), gat_params)
    assert err < 1e-4


def test_full_model_gradient_check():
    model, corpus, provider = tiny_model(edge_mode="dref+ctef")
    s = corpus[0]
    sgs = sentence_subgraphs(s)
    params = list(model.parameters().values())
    err = nm.gradient_check(lambda: instance_loss(model, s, sgs, provider), params)
    assert err < 1e-4


@pytest.mark.parametrize("contextual", [True, False])
def test_full_model_grads_own_their_memory(contextual):
    model, corpus, provider = tiny_model(edge_mode="dref+ctef", contextual=contextual)
    instances = [(s, sentence_subgraphs(s)) for s in corpus[:3]]
    golds = [model.vocabs.label_index(s.label) for s, _ in instances]
    nm.cross_entropy(model.forward(instances, provider).logits, golds).backward()
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


def test_malformed_checkpoint_names_path(tmp_path):
    model, _, _ = tiny_model(edge_mode="dref+ctef")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    ends = [8, 16, 16 + header_len]  # magic, header length, header
    for p in model.parameters().values():
        ends.append(ends[-1] + 8 * p.value.size)
    assert ends[-1] == len(blob)
    bad = tmp_path / "bad.ckpt"
    # cut inside the last byte of every section, and right after every section but the last
    cuts = [end - 1 for end in ends] + ends[:-1]
    # one flipped bit in the first and last byte of every parameter
    flips = [at for lo, hi in zip(ends[2:], ends[3:]) for at in (lo, hi - 1)]
    flipped = [blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :] for at in flips]
    # the previous formats: version 02 (no dtype in the header) and 01 (no digest either)
    header = json.loads(blob[16 : ends[2]])
    del header["dtype"]
    text = json.dumps(header).encode("utf-8")
    version_02 = b"RGCKPT02" + struct.pack("<Q", len(text)) + text + blob[ends[2] :]
    del header["digest"]
    text = json.dumps(header).encode("utf-8")
    old_format = b"RGCKPT01" + struct.pack("<Q", len(text)) + text + blob[ends[2] :]
    for blob_bad in [blob[:cut] for cut in cuts] + [blob + b"\0", version_02, old_format] + flipped:
        bad.write_bytes(blob_bad)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(bad))
        assert str(bad) in str(err.value)
    for blob_bad in flipped:
        bad.write_bytes(blob_bad)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(bad))


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
        graph_layer=graph_layer, edge_mode=edge_mode, contextual=contextual,
        dref_scale_by_ratio=True, dtype=np.float32,
    )
    golds = [model.vocabs.label_index(s.label) for s, _ in instances]
    loss = nm.cross_entropy(model.forward(instances, provider).logits, golds)
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
    got = single.forward(instances, provider).logits.value
    want = double.forward(instances, provider).logits.value
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


def test_float32_checkpoint_roundtrip_bitwise(tmp_path):
    model, instances, provider = structure_model(edge_mode="dref+ctef", dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    assert json.loads(blob[16 : 16 + header_len])["dtype"] == "float32"
    assert len(blob) == 16 + header_len + 4 * sum(p.value.size for p in model.parameters().values())
    clone = load_checkpoint(str(path))
    assert clone.dtype == np.float32
    for (name, p), q in zip(model.parameters().items(), clone.parameters().values()):
        assert q.value.dtype == np.float32 and np.array_equal(p.value, q.value), name
    assert np.array_equal(
        model.forward(instances, provider).logits.value, clone.forward(instances, provider).logits.value
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
    bad = tmp_path / "bad.ckpt"
    for bad_header in ({}, [], unknown_key, bad_layer):
        text = json.dumps(bad_header).encode("utf-8")
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + payload)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(bad))
        assert str(bad) in str(err.value)


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
    ctx_all = provider.vectors(sentence)

    def encode(sg):
        rows = []
        for v in sg.vertices:
            t = sentence.tokens[v]
            rows.append(np.concatenate([
                ctx_all[v],
                p["embed.pos"][vocabs.pos.index(t.pos)],
                p["embed.deprel"][vocabs.deprel.index(t.deprel)],
                p["embed.ner"][vocabs.ner.index(t.ner)],
                p["embed.word_type"][1 if sentence.entity_token(v) else 0],
            ]))
        return np.stack(rows)

    def context(x):
        if cfg.contextual:
            f = _lstm_direction_np(x, p["lstm_fwd.w_input"], p["lstm_fwd.w_hidden"], p["lstm_fwd.bias"], False)
            b = _lstm_direction_np(x, p["lstm_bwd.w_input"], p["lstm_bwd.w_hidden"], p["lstm_bwd.bias"], True)
            return np.concatenate([f, b], axis=1)
        return x @ p["proj.w"] + p["proj.b"].reshape(-1)

    def edge_vec(feats, i, j):
        if feats is None:
            return None
        k = feats["index"][(i, j)]
        vec = np.zeros(cfg.d_e)
        if "dref_row" in feats:
            row = p["edge.dref"][feats["dref_row"][k]].copy()
            if cfg.dref_scale_by_ratio:
                row *= feats["dref_ratio"][k]
            vec += row
        if "entity_source" in feats and feats["entity_source"][k]:
            vec += np.ones(cfg.d_e)
        return vec

    def one_layer(h, layer, nbrs, feats):
        if cfg.graph_layer == "gcn":
            w = p[f"gcn.l{layer}.w"]
            deg = np.array([len(a) for a in nbrs], dtype=np.float64)
            out = np.zeros((len(nbrs), cfg.d_g))
            for i, around in enumerate(nbrs):
                acc = np.zeros(cfg.d_g)
                for j in around:
                    feat = h[j] if feats is None else np.concatenate([h[j], edge_vec(feats, i, j)])
                    acc += (feat @ w) / np.sqrt(deg[i] * deg[j])
                out[i] = np.maximum(acc, 0.0)
            return out
        head_outs = []
        for k in range(cfg.heads):
            w, a = p[f"gat.l{layer}.head{k}.w"], p[f"gat.l{layer}.head{k}.a"].reshape(-1)
            wh = h @ w
            rows = np.zeros((len(nbrs), cfg.head_dim))
            for i, around in enumerate(nbrs):
                scores = []
                for j in around:
                    feats_ij = [wh[i], wh[j]]
                    if feats is not None:
                        feats_ij.append(edge_vec(feats, i, j))
                    z = np.concatenate(feats_ij) @ a
                    scores.append(z if z > 0 else 0.2 * z)
                scores = np.array(scores)
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                agg = alpha @ wh[list(around)]
                rows[i] = np.where(agg > 0, agg, np.expm1(agg))
            head_outs.append(rows)
        return np.concatenate(head_outs, axis=1)

    def pair_features(sg, pairs):
        """Per-pair feature arrays, plus each (i, j)'s position in them."""
        if cfg.edge_mode == "none":
            return None
        feats = {"index": {(i, j): k for k, (i, j) in enumerate(pairs.tolist())}}
        if "dref" in cfg.edge_mode:
            feats["dref_row"], feats["dref_ratio"] = dref_edge_features(
                sg, sentence, pairs, model.dref_table
            )
        if "ctef" in cfg.edge_mode:
            feats["entity_source"] = ctef_edge_features(sg, sentence.e1, sentence.e2, pairs)
        return feats

    def graph_layer(h, sg):
        # closed neighborhoods straight from the adjacency matrix, self included
        nbrs = [sorted(set(np.nonzero(sg.adjacency[i])[0].tolist()) | {i}) for i in range(len(sg))]
        _, pairs = attention_pairs(sg)
        feats = pair_features(sg, pairs)
        for layer in range(cfg.graph_depth):
            h = one_layer(h, layer, nbrs, feats)
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
        if sg.kind == "sdp":
            e1_state = states[sg.local(sentence.e1.head_token)]
            e2_state = states[sg.local(sentence.e2.head_token)]
    v = e1_state + e2_state + sum(pooled)
    return v @ p["cls.w"] + p["cls.b"]
