"""Dependency graphs and the per-sentence sub-graph derivation.

A parsed sentence yields an undirected tree over its tokens. Three
sub-graphs are cut out of it: the shortest path between the two entity
head tokens (optionally grown by one or two hops for the graph-size
sweep) and one first-order neighborhood graph per entity. Message
passing is undirected, so a sub-graph keeps its edges only as a
symmetric adjacency matrix; the dref edge features read an edge's
orientation from the token heads.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence

__all__ = [
    "GraphError",
    "DependencyGraph",
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


class DependencyGraph:
    """Undirected view of a dependency tree, with the head relation kept."""

    def __init__(self, heads: list[int | None]):
        self.n = len(heads)
        self.heads = list(heads)
        self.neighbors: list[list[int]] = [[] for _ in range(self.n)]
        edges = 0
        for child, head in enumerate(heads):
            if head is None:
                continue
            if not 0 <= head < self.n or head == child:
                raise GraphError(f"invalid head {head} for vertex {child}")
            self.neighbors[child].append(head)
            self.neighbors[head].append(child)
            edges += 1
        for adj in self.neighbors:
            adj.sort()
        if edges != self.n - 1:
            raise GraphError(f"expected {self.n - 1} edges for a tree, found {edges}")
        if self._reachable_from(0) != self.n:
            raise GraphError("dependency graph is not connected")

    def _reachable_from(self, start: int) -> int:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen)

    @classmethod
    def from_sentence(cls, sentence: Sentence) -> "DependencyGraph":
        if not sentence.parsed:
            raise GraphError(f"instance {sentence.instance_id}: sentence has no parse")
        return cls([t.head for t in sentence.tokens])


@dataclass
class SubGraph:
    """An induced sub-graph with vertices in ascending sentence order.

    ``adjacency`` is the symmetric 0/1 matrix over local vertex positions:
    entry (a, b) is 1 when the tokens at a and b share a tree edge.
    """

    kind: str
    vertices: list[int]
    adjacency: np.ndarray = field(repr=False)

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


def shortest_dependency_path(g: DependencyGraph, u: int, v: int) -> list[int]:
    """The unique tree path from u to v, endpoints included."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"path endpoints {u},{v} out of range for {g.n} vertices")
    if u == v:
        return [u]
    parent = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in g.neighbors[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if v not in parent:
        raise GraphError(f"no path between {u} and {v} (disconnected input)")
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _induced_subgraph(g: DependencyGraph, kind: str, vertex_set: set[int]) -> SubGraph:
    vertices = sorted(vertex_set)
    local = {v: i for i, v in enumerate(vertices)}
    size = len(vertices)
    adjacency = np.zeros((size, size), dtype=np.int64)
    for child, head in enumerate(g.heads):
        if head is not None and child in local and head in local:
            a, b = local[head], local[child]
            adjacency[a, b] = adjacency[b, a] = 1
    return SubGraph(kind, vertices, adjacency)


def _expand(g: DependencyGraph, seed: set[int], hops: int) -> set[int]:
    """All vertices within undirected distance ``hops`` of the seed set."""
    result = set(seed)
    frontier = set(seed)
    for _ in range(hops):
        nxt = set()
        for u in frontier:
            for v in g.neighbors[u]:
                if v not in result:
                    nxt.add(v)
        result |= nxt
        frontier = nxt
    return result


def derive_subgraphs(
    g: DependencyGraph, e1: int, e2: int, expansion_order: int = 0
) -> SubGraphSet:
    """Cut the three per-sentence sub-graphs out of the dependency tree.

    The path graph holds the shortest path between the entity vertices,
    grown to ``expansion_order`` hops. Each entity graph holds the entity
    vertex plus its direct undirected neighbors and is never expanded.
    """
    if e1 == e2:
        raise GraphError("entity vertices coincide")
    if expansion_order not in (0, 1, 2):
        raise GraphError(f"expansion_order must be 0, 1 or 2, got {expansion_order}")
    path = set(shortest_dependency_path(g, e1, e2))
    sdp_vertices = _expand(g, path, expansion_order)
    return SubGraphSet(
        sdp=_induced_subgraph(g, SDP, sdp_vertices),
        e1=_induced_subgraph(g, E1_NEIGHBORHOOD, {e1, *g.neighbors[e1]}),
        e2=_induced_subgraph(g, E2_NEIGHBORHOOD, {e2, *g.neighbors[e2]}),
    )


def sentence_subgraphs(sentence: Sentence, expansion_order: int = 0) -> SubGraphSet:
    g = DependencyGraph.from_sentence(sentence)
    return derive_subgraphs(
        g, sentence.e1.head_token, sentence.e2.head_token, expansion_order
    )


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
