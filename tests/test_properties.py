"""Property tests: sub-graph invariants and the token map on random dependency trees."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from relgat.corpus import parse_conllu_annotated
from relgat.graph import sentence_subgraphs
from relgat.model import token_layout
from conftest import brute_force_path, conllu_block


@st.composite
def tree_sentences(draw, max_tokens: int = 12):
    """A parsed sentence over a random rooted tree with two disjoint entity spans."""
    n = draw(st.integers(2, max_tokens))
    order = draw(st.permutations(range(n)))  # order[0] is the root
    heads = [None] * n
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))]
    start_a = draw(st.integers(0, n - 2))
    end_a = draw(st.integers(start_a, n - 2))
    start_b = draw(st.integers(end_a + 1, n - 1))
    end_b = draw(st.integers(start_b, n - 1))
    spans = [(start_a, end_a), (start_b, end_b)]
    if draw(st.booleans()):
        spans.reverse()
    rows = [
        (f"w{i}", "NOUN", 0 if head is None else head + 1, "root" if head is None else "dep")
        for i, head in enumerate(heads)
    ]
    (sentence,) = parse_conllu_annotated(conllu_block(0, rows, *spans))
    return sentence, heads


def tree_edges(heads, vertices):
    """The tree edges with both ends in ``vertices``, as (smaller, larger) pairs."""
    inside = set(vertices)
    return {
        (min(child, head), max(child, head))
        for child, head in enumerate(heads)
        if head is not None and child in inside and head in inside
    }


def neighbours(heads, vertex):
    return {c for c, h in enumerate(heads) if h == vertex} | (
        set() if heads[vertex] is None else {heads[vertex]}
    )


@given(tree_sentences())
def test_path_graph_is_the_tree_path_between_entity_heads(drawn):
    sentence, heads = drawn
    sdp = sentence_subgraphs(sentence).sdp
    path = brute_force_path(heads, sentence.e1.head_token, sentence.e2.head_token)
    assert sdp.vertices == sorted(path)
    assert tree_edges(heads, sdp.vertices) == {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}


@given(tree_sentences())
def test_entity_graph_is_entity_plus_tree_neighbours(drawn):
    sentence, heads = drawn
    sgs = sentence_subgraphs(sentence)
    for sg, entity in ((sgs.e1, sentence.e1), (sgs.e2, sentence.e2)):
        head = entity.head_token
        assert sg.vertices == sorted({head} | neighbours(heads, head))


@given(tree_sentences(), st.integers(0, 2))
def test_induced_edges_are_the_tree_edges_inside(drawn, order):
    sentence, heads = drawn
    for sg in sentence_subgraphs(sentence, order).all():
        local = np.argwhere(np.triu(sg.adjacency)).tolist()
        edges = {(sg.vertices[a], sg.vertices[b]) for a, b in local}
        assert edges == tree_edges(heads, sg.vertices)
        assert len(edges) == len(local)
        assert np.array_equal(sg.adjacency, sg.adjacency.T)
        assert set(np.unique(sg.adjacency).tolist()) <= {0, 1}
        assert not np.any(np.diag(sg.adjacency))


@given(st.lists(tree_sentences(), min_size=1, max_size=3), st.integers(0, 2), st.booleans())
def test_token_rows_name_the_same_sentence_token(batch, order, multi):
    graph_sets = [
        sgs.all() if multi else [sgs.sdp]
        for sgs in (sentence_subgraphs(sentence, order) for sentence, _ in batch)
    ]
    tokens, token_rows = token_layout(graph_sets)
    token_of_row = [(b, t) for b, distinct in enumerate(tokens) for t in distinct]
    unit_rows = [(b, v) for b, graphs in enumerate(graph_sets) for sg in graphs for v in sg.vertices]
    assert [token_of_row[r] for r in token_rows] == unit_rows
    for distinct, graphs in zip(tokens, graph_sets):
        assert distinct == sorted({v for sg in graphs for v in sg.vertices})
