"""Dependency graphs and the per-sentence sub-graph derivation.

A parsed sentence yields an undirected tree over its tokens. Three
sub-graphs are cut out of it: the shortest path between the two entity
head tokens (optionally grown by one or two hops for the graph-size
sweep) and one first-order neighborhood graph per entity. A sub-graph
keeps its tree edges as (head, dependent) rows of local positions (PyG's
``edge_index``); the attention layout takes each edge both ways, and the
dref features read its orientation from the row.

A tree is its head list: ``heads[i]`` is token i's head, None at the
root. ``shortest_dependency_path`` and ``derive_subgraphs`` first check
that the heads form one rooted tree, by ``corpus.tree_error``, the same
rule ``Sentence.validate`` applies to parsed input, so a hand-built
sentence that never went through a parser cannot loop a walk to the
root. The derivation lists each vertex's undirected neighbors in one
pass over the heads, and builds the three edge arrays with one numpy
call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence, tree_error

__all__ = [
    "GraphError",
    "SubGraph",
    "SubGraphSet",
    "SDP",
    "E1_NEIGHBORHOOD",
    "E2_NEIGHBORHOOD",
    "shortest_dependency_path",
    "derive_subgraphs",
    "sentence_subgraphs",
    "subgraph_size_histograms",
]

SDP = "sdp"
E1_NEIGHBORHOOD = "e1"
E2_NEIGHBORHOOD = "e2"


class GraphError(ValueError):
    pass


@dataclass
class SubGraph:
    """An induced sub-graph with vertices in ascending sentence order.

    ``edges`` holds each tree edge with both ends inside once, as an (E, 2)
    row (a, b) of local positions, ordered by b: the token at b depends on
    the token at a.
    """

    kind: str
    vertices: list[int]
    edges: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def local(self, vertex: int) -> int:
        return self.vertices.index(vertex)


@dataclass
class SubGraphSet:
    sdp: SubGraph
    e1: SubGraph
    e2: SubGraph

    def all(self) -> list[SubGraph]:
        return [self.sdp, self.e1, self.e2]


def _check_tree(heads: list[int | None]) -> None:
    problem = tree_error(heads)
    if problem is not None:
        raise GraphError(problem)


def _tree_path(heads: list[int | None], u: int, v: int) -> list[int]:
    if not (0 <= u < len(heads) and 0 <= v < len(heads)):
        raise GraphError(f"path endpoints {u},{v} out of range for {len(heads)} vertices")
    up_u, up_v = [u], [v]  # each endpoint and its heads up to the root
    for chain in (up_u, up_v):
        while heads[chain[-1]] is not None:
            chain.append(heads[chain[-1]])
    on_v = set(up_v)
    top = next(x for x in up_u if x in on_v)
    return up_u[: up_u.index(top) + 1] + up_v[: up_v.index(top)][::-1]


def shortest_dependency_path(heads: list[int | None], u: int, v: int) -> list[int]:
    """The unique tree path from u to v, endpoints included: up to their lowest common head, down to v."""
    _check_tree(heads)
    return _tree_path(heads, u, v)


def _expand(neighbors: list[list[int]], seed: set[int], hops: int) -> set[int]:
    """All vertices within undirected distance ``hops`` of the seed set."""
    result = frontier = set(seed)
    while hops and frontier:
        frontier = {v for u in frontier for v in neighbors[u] if v not in result}
        result |= frontier
        hops -= 1
    return result


def derive_subgraphs(
    heads: list[int | None], e1: int, e2: int, expansion_order: int = 0
) -> SubGraphSet:
    """Cut the three per-sentence sub-graphs out of the dependency tree.

    The path graph holds the shortest path between the entity vertices,
    grown to ``expansion_order`` hops. Each entity graph holds the entity
    vertex plus its direct undirected neighbors and is never expanded.
    The three edge arrays are row blocks of one array.
    """
    _check_tree(heads)
    if e1 == e2:
        raise GraphError("entity vertices coincide")
    if expansion_order not in (0, 1, 2):
        raise GraphError(f"expansion_order must be 0, 1 or 2, got {expansion_order}")
    path = _tree_path(heads, e1, e2)
    neighbors: list[list[int]] = [[] for _ in heads]
    for v, head in enumerate(heads):
        if head is not None:
            neighbors[v].append(head)
            neighbors[head].append(v)
    cuts = []
    flat: list[int] = []  # (local head, local dependent) of every edge, graph by graph
    for kind, vertex_set in (
        (SDP, _expand(neighbors, set(path), expansion_order)),
        (E1_NEIGHBORHOOD, {e1, *neighbors[e1]}),
        (E2_NEIGHBORHOOD, {e2, *neighbors[e2]}),
    ):
        vertices = sorted(vertex_set)
        local = {v: i for i, v in enumerate(vertices)}
        start = len(flat) // 2
        for i, v in enumerate(vertices):
            head = local.get(heads[v])
            if head is not None:
                flat += (head, i)
        cuts.append((kind, vertices, start, len(flat) // 2))
    edges = np.array(flat, dtype=np.intp).reshape(-1, 2)
    return SubGraphSet(*(SubGraph(kind, vertices, edges[lo:hi]) for kind, vertices, lo, hi in cuts))


def sentence_subgraphs(sentence: Sentence, expansion_order: int = 0) -> SubGraphSet:
    if not sentence.parsed:
        raise GraphError(f"instance {sentence.instance_id}: sentence has no parse")
    heads = [t.head for t in sentence.tokens]
    return derive_subgraphs(heads, sentence.e1.head_token, sentence.e2.head_token, expansion_order)


def subgraph_size_histograms(
    sentences: list[Sentence], expansion_order: int = 0
) -> dict[str, dict[int, int]]:
    """Vertex-count histogram per sub-graph kind over a corpus."""
    counters = {SDP: Counter(), E1_NEIGHBORHOOD: Counter(), E2_NEIGHBORHOOD: Counter()}
    for sentence in sentences:
        sgs = sentence_subgraphs(sentence, expansion_order)
        for sg in sgs.all():
            counters[sg.kind][len(sg)] += 1
    return {kind: dict(sorted(c.items())) for kind, c in counters.items()}
