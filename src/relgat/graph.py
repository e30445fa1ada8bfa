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
call. ``sentence_subgraphs`` cuts one sentence this way, and is the
reference for the batch pass.

``subgraph_sets`` cuts a batch of sentences in one numpy pass over
their flat head array: pointer doubling checks the trees and marks
each entity head's ancestors, the path is the symmetric difference of
those marks plus the lowest common head, and one ``nonzero`` over
(unit, token) marks gives every vertex list and edge array. Its check
only accepts; a batch it does not accept goes through the per-sentence
path, so the errors are that path's. ``train``, ``predict`` and the
size histograms use the batch pass; the bench's one-sentence predict
path uses ``sentence_subgraphs``.
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
    "subgraph_sets",
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


def subgraph_sets(sentences: list[Sentence], expansion_order: int = 0) -> list[SubGraphSet]:
    """``[sentence_subgraphs(s, expansion_order) for s in sentences]``, cut in one numpy pass.

    The pass only accepts what the reference accepts (see ``_cut_batch``).
    Anything else (an unparsed sentence, entity heads that coincide or lie
    out of range, an invalid order, heads that the vectorised check does
    not accept) runs the per-sentence list instead, so every GraphError is
    the reference's, for the same sentence.
    """
    sets = _cut_batch(sentences, expansion_order) if sentences else []
    if sets is None:
        return [sentence_subgraphs(s, expansion_order) for s in sentences]
    return sets


def _cut_batch(sentences: list[Sentence], expansion_order: int) -> list[SubGraphSet] | None:
    """The batch's sub-graph sets, or None where the pass does not accept the batch.

    The heads are one flat array over the batch's N tokens, in which a
    root is its own head, and ``up[j]`` takes every token to its 2^j-th
    head. The batch is accepted when every sentence has one root, every
    other head is a token of the sentence, and every token is at its root
    after ⌈log2 L⌉ squarings, which a cycle or a self-head prevents:
    ``corpus.tree_error``'s rule. Transient memory is a few arrays of N
    per squaring and per unit.
    """
    lens = np.array([len(s.tokens) for s in sentences])
    ends = np.array([(s.e1.head_token, s.e2.head_token) for s in sentences]).T  # (2, B) entity heads
    if (
        expansion_order not in (0, 1, 2)
        or not all(s.parsed for s in sentences)
        or not ((0 <= ends) & (ends < lens)).all()
        or (ends[0] == ends[1]).any()
    ):
        return None
    n = int(lens.sum())
    starts = np.concatenate(([0], np.cumsum(lens)))
    sentence_of = np.repeat(np.arange(len(sentences)), lens)
    first = starts[sentence_of]  # each token's sentence start
    local = np.arange(n) - first
    head = np.array([t.head for s in sentences for t in s.tokens], dtype=float)  # None reads as nan
    root = np.isnan(head)
    head[root] = local[root]
    if not (
        (np.bincount(sentence_of[root], minlength=len(sentences)) == 1).all()
        and ((0 <= head) & (head < lens[sentence_of])).all()
    ):
        return None
    up = [first + head.astype(np.intp)]
    for _ in range(int(lens.max() - 1).bit_length()):
        up.append(up[-1][up[-1]])
    if not root[up[-1]].all():
        return None

    parent = up[0]
    ends = ends + starts[:-1]  # flat positions
    entities = np.zeros((2, n), dtype=bool)
    entities[0, ends[0]] = entities[1, ends[1]] = True
    above = entities.copy()  # ancestor-or-self marks, 2^(j+1) heads deep after jump j
    for jump in up[:-1]:
        for marks in above:
            marks[jump[marks]] = True
    path = above[0] ^ above[1]  # both chains below the lowest common head
    path[parent[path]] = True
    for _ in range(int(expansion_order)):
        grown = path | path[parent]
        grown[parent[path]] = True
        path = grown
    units = np.empty((3, n), dtype=bool)  # (unit, token): sdp, e1 and e2 vertex marks
    units[0] = path
    units[1:] = entities | entities[:, parent]
    units[1, parent[ends[0]]] = units[2, parent[ends[1]]] = True

    flat = units.ravel()
    marked = np.zeros(3 * n + 1, dtype=np.intp)  # marks before each (unit, token)
    np.cumsum(flat, out=marked[1:])
    at = np.flatnonzero(flat)  # every vertex, unit by unit, in token order
    token = at % n
    start = at - local[token]  # its unit's row at its sentence's first token
    up_at = at + parent[token] - token  # its head in the same unit row; itself at the root
    edge = flat[up_at] & (up_at != at)
    edges = np.stack((marked[up_at] - marked[start], marked[at] - marked[start]), axis=1)[edge]
    vertex_cut = marked[np.arange(3)[:, None] * n + starts]  # (3, B + 1) unit-sentence bounds
    edge_cut = np.concatenate(([0], np.cumsum(edge)))[vertex_cut].tolist()
    vertex_cut = vertex_cut.tolist()
    vertices = local[token].tolist()
    return [
        SubGraphSet(*(
            SubGraph(kind, vertices[vc[b] : vc[b + 1]], edges[ec[b] : ec[b + 1]])
            for kind, vc, ec in zip((SDP, E1_NEIGHBORHOOD, E2_NEIGHBORHOOD), vertex_cut, edge_cut)
        ))
        for b in range(len(sentences))
    ]


def subgraph_size_histograms(
    sentences: list[Sentence], expansion_order: int = 0
) -> dict[str, dict[int, int]]:
    """Vertex-count histogram per sub-graph kind over a corpus."""
    counters = {SDP: Counter(), E1_NEIGHBORHOOD: Counter(), E2_NEIGHBORHOOD: Counter()}
    for sgs in subgraph_sets(sentences, expansion_order):
        for sg in sgs.all():
            counters[sg.kind][len(sg)] += 1
    return {kind: dict(sorted(c.items())) for kind, c in counters.items()}
