"""Sub-graph derivation: shortest paths, neighborhoods, edge arrays."""

import threading
from collections import Counter

import numpy as np
import pytest

from relgat import graph
from relgat.corpus import EntitySpan, Sentence, Token, parse_conllu_annotated
from relgat.graph import (
    GraphError,
    derive_subgraphs,
    sentence_subgraphs,
    shortest_dependency_path,
    subgraph_size_histograms,
)
from conftest import FIG_EXAMPLE_CONLLU, brute_force_path, build_structure_corpus, random_heads


def surfaces(sentence, sg):
    return {sentence.tokens[v].surface for v in sg.vertices}


class TestShortestPath:
    def test_three_vertex_path(self):
        # configuration <- of <- elements style chain hanging off a root
        heads = [None, 0, 1, 2]
        assert shortest_dependency_path(heads, 1, 3) == [1, 2, 3]

    def test_same_vertex(self):
        heads = [None, 0]
        assert shortest_dependency_path(heads, 1, 1) == [1]

    def test_endpoint_out_of_range(self):
        heads = [None, 0]
        with pytest.raises(GraphError):
            shortest_dependency_path(heads, 0, 5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            heads = random_heads(rng, n)
            u, v = rng.choice(n, size=2, replace=False)
            got = shortest_dependency_path(heads, int(u), int(v))
            assert got == brute_force_path(heads, int(u), int(v))


class TestDependencyGraph:
    """A dependency graph is its head list, checked to form one rooted tree."""

    def test_rejects_forest(self):
        with pytest.raises(GraphError):
            shortest_dependency_path([None, None, 1], 1, 2)  # two roots, 1 edge for 3 vertices

    def test_rejects_self_head(self):
        with pytest.raises(GraphError):
            shortest_dependency_path([None, 1], 0, 1)

    def test_neighbors_are_symmetric(self):
        # an entity graph holds the vertex with its head and its dependents
        sgs = derive_subgraphs([None, 0, 0, 1], 0, 1)
        assert sgs.e1.vertices == [0, 1, 2]
        assert sgs.e2.vertices == [0, 1, 3]


class TestHandBuiltSentence:
    """A sentence built in code, never parsed, meets the tree check before any derivation."""

    @staticmethod
    def cut(heads):
        tokens = [Token(i, f"w{i}", "X", None, "dep", h) for i, h in enumerate(heads)]
        sentence = Sentence(tokens, EntitySpan(1, 1), EntitySpan(3, 3))
        raised = []

        def run():
            try:
                sentence_subgraphs(sentence, expansion_order=2)
            except GraphError as exc:
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), f"sentence_subgraphs did not return on heads {heads}"
        assert raised, f"sentence_subgraphs accepted heads {heads}"
        return str(raised[0])

    def test_head_cycle_under_one_root(self):
        # tokens 1 and 2 head each other: walking up from e1 would never reach the root
        assert "cycle" in self.cut([None, 2, 1, 0])

    def test_two_roots(self):
        assert "multiple roots" in self.cut([None, 0, None, 2])

    def test_head_out_of_range(self):
        assert "out of range" in self.cut([None, 0, 7, 0])

    def test_head_too_large_for_a_float_fails_the_batch_cut_as_the_reference(self):
        # the batch cut reads heads as floats; 10**400 has none, and must not raise a bare OverflowError
        tokens = [Token(i, f"w{i}", "X", None, "dep", h) for i, h in enumerate([None, 10**400, 0, 0])]
        sentence = Sentence(tokens, EntitySpan(1, 1), EntitySpan(3, 3))
        with pytest.raises(GraphError) as ref:
            sentence_subgraphs(sentence)
        for multi in (True, False):
            with pytest.raises(GraphError) as got:
                graph.batch_layout([sentence], multi=multi)
            assert str(got.value) == str(ref.value) and "out of range" in str(ref.value)


class TestDeriveSubgraphs:
    def test_worked_example(self):
        (s,) = parse_conllu_annotated(FIG_EXAMPLE_CONLLU)
        sgs = sentence_subgraphs(s)
        assert surfaces(s, sgs.sdp) == {"ridges", "uprises", "from", "surge"}
        assert surfaces(s, sgs.e1) == {"ridges", "uprises"}
        assert surfaces(s, sgs.e2) == {"surge", "from", "the"}

    def test_path_graph(self):
        heads = [1, None, 1]  # chain 0 - 1 - 2
        sgs = derive_subgraphs(heads, 0, 2)
        assert sgs.sdp.vertices == [0, 1, 2]
        assert sgs.e1.vertices == [0, 1]
        assert sgs.e2.vertices == [1, 2]

    def test_star_expansion_strictly_grows(self):
        # star centered at 0, entities at two leaves
        heads = [None, 0, 0, 0, 0]
        base = derive_subgraphs(heads, 1, 2, expansion_order=0)
        grown = derive_subgraphs(heads, 1, 2, expansion_order=1)
        assert set(base.sdp.vertices) < set(grown.sdp.vertices)

    def test_entity_graphs_ignore_expansion(self):
        heads = [None, 0, 1, 2, 3]
        for order in (0, 1, 2):
            sgs = derive_subgraphs(heads, 0, 2, expansion_order=order)
            assert sgs.e1.vertices == [0, 1]
            assert sgs.e2.vertices == [1, 2, 3]

    def test_adjacent_entities(self):
        heads = [None, 0, 1]
        sgs = derive_subgraphs(heads, 0, 1)
        assert sgs.sdp.vertices == [0, 1]
        assert sgs.sdp.edges.tolist() == [[0, 1]]

    def test_same_entity_rejected(self):
        heads = [None, 0]
        with pytest.raises(GraphError):
            derive_subgraphs(heads, 1, 1)

    def test_bad_expansion_order_rejected(self):
        heads = [None, 0, 0]
        with pytest.raises(GraphError):
            derive_subgraphs(heads, 1, 2, expansion_order=3)

    def test_expansion_nesting_property(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 14))
            heads = random_heads(rng, n)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            tiers = [set(derive_subgraphs(heads, u, v, k).sdp.vertices) for k in (0, 1, 2)]
            assert tiers[0] <= tiers[1] <= tiers[2]

    def test_entity_graph_size_is_one_plus_degree(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            heads = random_heads(rng, n)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            sgs = derive_subgraphs(heads, u, v)

            def degree(x):
                return heads.count(x) + (heads[x] is not None)

            assert len(sgs.e1) == 1 + degree(u)
            assert len(sgs.e2) == 1 + degree(v)

    def test_subgraph_edges_subset_of_tree_edges(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            heads = random_heads(rng, n)
            tree_edges = {(h, c) for c, h in enumerate(heads) if h is not None}  # head, dependent
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            sgs = derive_subgraphs(heads, u, v, expansion_order=1)
            for sg in sgs.all():
                globalized = {(sg.vertices[a], sg.vertices[b]) for a, b in sg.edges.tolist()}
                assert globalized <= tree_edges


class TestAdjacency:
    def test_single_edge(self):
        heads = [None, 0]
        sgs = derive_subgraphs(heads, 0, 1)
        assert sgs.sdp.edges.tolist() == [[0, 1]]

    def test_single_vertex(self):
        # e1 neighborhood of a leaf whose only neighbor is the other entity
        heads = [None, 0]
        sgs = derive_subgraphs(heads, 0, 1)
        assert sgs.e1.edges.shape == (1, 2)

    def test_worked_example_e2_matrix(self):
        (s,) = parse_conllu_annotated(FIG_EXAMPLE_CONLLU)
        sgs = sentence_subgraphs(s)
        # vertices ascending: from(2), the(3), surge(4); surge depends on from, the on surge
        assert sgs.e2.vertices == [2, 3, 4]
        assert sgs.e2.edges.tolist() == [[2, 1], [0, 2]]

    def test_symmetric_zero_diagonal_consistent_with_edges(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            heads = random_heads(rng, n)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            for sg in derive_subgraphs(heads, u, v, 1).all():
                e = sg.edges
                inside = set(sg.vertices)
                tree_edges_inside = sum(
                    1 for c, h in enumerate(heads) if h is not None and {c, h} <= inside
                )
                assert e.shape == (tree_edges_inside, 2) and e.dtype == np.intp
                assert np.all(e[:, 0] != e[:, 1])
                assert len({frozenset(edge) for edge in e.tolist()}) == len(e)
                assert all(heads[sg.vertices[b]] == sg.vertices[a] for a, b in e.tolist())


def test_size_histograms(toy_corpus):
    hist = subgraph_size_histograms(toy_corpus)
    assert set(hist) == {"sdp", "e1", "e2"}
    assert sum(hist["sdp"].values()) == len(toy_corpus)
    # every toy sentence has a 3-vertex path between the entities
    assert hist["sdp"] == {3: 20}


@pytest.mark.parametrize("order", [0, 1, 2])
def test_size_histograms_count_the_per_sentence_units_from_one_layout(order, monkeypatch):
    # the histograms read the unit starts of one batch layout, and cut no sentence one at a time
    corpus = build_structure_corpus(30, seed=4)
    want = {kind: Counter() for kind in ("sdp", "e1", "e2")}
    for s in corpus:
        for kind, sg in zip(want, sentence_subgraphs(s, order).all()):
            want[kind][len(sg)] += 1
    cut = []
    monkeypatch.setattr(graph, "sentence_subgraphs", lambda *args: cut.append(args))
    hist = subgraph_size_histograms(corpus, order)
    assert cut == []
    assert hist == {kind: dict(sorted(c.items())) for kind, c in want.items()}
    assert all(list(h) == sorted(h) for h in hist.values())
