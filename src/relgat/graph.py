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

A batch is laid out as one ``Layout``: the disjoint union of its
instances' sub-graphs as flat vertex, edge and token rows, from which
``model.forward_inputs`` builds what ``Model.forward`` reads.
``batch_layout`` cuts a batch into it in one numpy pass over the flat
head array: pointer doubling checks the trees and marks each entity
head's ancestors, the path is the symmetric difference of those marks
plus the lowest common head, and the (unit, token) marks, placed
instance by instance, give every vertex row, edge row and token row at
once. Its check only accepts; a batch it does not accept is laid out
from the per-sentence path, so the errors are that path's.
``set_layout`` lays out sub-graph sets already cut, which is how the
bench's one-sentence predict path runs. ``predict`` (each chunk),
``train`` (its training split, once per call; a minibatch gathers its
instances' rows) and the size histograms use the batch pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

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
    "Layout",
    "set_layout",
    "batch_layout",
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


class Layout(NamedTuple):
    """A batch of instances as one disjoint union of their units (PyG's mini-batching layout).

    Units are laid out instance by instance, U per instance, path graph
    first: U = 3 in multi-graph mode (then the e1 and e2 neighborhoods),
    1 in single mode. Unit g owns the vertex rows from ``unit_starts[g]``
    up to the next unit's start, in ascending sentence order. The token
    rows number each instance's distinct tokens, instance by instance.
    Every array is ``intp``.
    """

    sentences: list[Sentence]
    vertices: np.ndarray  # (n,) the sentence position of every vertex row's token
    unit_starts: np.ndarray  # (G,) first vertex row of every unit
    edges: np.ndarray  # (E, 2) (head, dependent) vertex rows of each unit's tree edges, by dependent
    tokens: list[list[int]]  # each instance's distinct tokens: the sorted union of its units' vertices
    token_rows: np.ndarray  # (n,) the token row of every vertex row
    entities: np.ndarray  # (2, B) the vertex rows of the e1 and e2 heads in each path unit


def set_layout(sentences: list[Sentence], sets: list[SubGraphSet], multi: bool = True) -> Layout:
    """The layout of ``sentences`` cut into the given sub-graph sets: what ``batch_layout`` returns.

    It reads the sets' vertex lists in plain Python, with a fixed handful
    of numpy calls: on one sentence that is cheaper than the batch pass,
    so the one-sentence predict path lays out its set this way.
    """
    groups = [sgs.all() if multi else [sgs.sdp] for sgs in sets]
    units = [sg for graphs in groups for sg in graphs]
    unit_starts = np.array(list(accumulate(map(len, units), initial=0))[:-1], dtype=np.intp)
    vertices, rows, tokens, entities = [], [], [], []
    token_count = 0
    for sentence, graphs in zip(sentences, groups):
        own = [v for sg in graphs for v in sg.vertices]
        distinct = sorted(set(own))
        row_of = dict(zip(distinct, range(token_count, token_count + len(distinct))))
        # the path unit comes first and holds both entity heads
        entities.append([len(vertices) + own.index(span.head_token) for span in (sentence.e1, sentence.e2)])
        rows += map(row_of.__getitem__, own)
        vertices += own
        tokens.append(distinct)
        token_count += len(distinct)
    edges = np.concatenate([sg.edges for sg in units] or [np.empty((0, 2), dtype=np.intp)])
    edges += unit_starts.repeat([len(sg.edges) for sg in units])[:, None]
    return Layout(
        sentences, np.array(vertices, dtype=np.intp), unit_starts, edges,
        tokens, np.array(rows, dtype=np.intp), np.array(entities, dtype=np.intp).reshape(-1, 2).T,
    )


def batch_layout(sentences: list[Sentence], expansion_order: int = 0, multi: bool = True) -> Layout:
    """``set_layout`` of ``sentences`` and their ``sentence_subgraphs``, cut in one numpy pass.

    The pass only accepts what the reference accepts (see ``_cut_batch``).
    Anything else (an unparsed sentence, entity heads that coincide or lie
    out of range, an invalid order, heads that the vectorised check does
    not accept) is laid out from the per-sentence sets instead, so every
    GraphError is the reference's, for the same sentence.
    """
    layout = _cut_batch(sentences, expansion_order, 3 if multi else 1) if sentences else None
    if layout is None:
        return set_layout(sentences, [sentence_subgraphs(s, expansion_order) for s in sentences], multi)
    return layout


def _cut_batch(sentences: list[Sentence], expansion_order: int, per_instance: int) -> Layout | None:
    """The batch's layout, ``per_instance`` units each, or None where the pass does not accept the batch.

    The heads are one flat array over the batch's N tokens, in which a
    root is its own head, and ``up[j]`` takes every token to its 2^j-th
    head. The batch is accepted when every sentence has one root, every
    other head is a token of the sentence, and every token is at its root
    after ⌈log2 L⌉ squarings, which a cycle or a self-head prevents:
    ``corpus.tree_error``'s rule. The (unit, token) vertex marks are then
    scattered to their instance-major positions (sentence by sentence,
    unit by unit, token by token), where one ``nonzero`` lists every
    vertex row in layout order and a running count of the marks numbers
    them. Transient memory is a few arrays of N per squaring and per unit.
    """
    lens = np.array([len(s.tokens) for s in sentences])
    ends = np.array([(s.e1.head_token, s.e2.head_token) for s in sentences]).T  # (2, B) entity heads
    if (
        expansion_order not in (0, 1, 2)
        or None in [t.deprel for s in sentences for t in s.tokens]  # an unparsed token
        or not ((0 <= ends) & (ends < lens)).all()
        or (ends[0] == ends[1]).any()
    ):
        return None
    n = int(lens.sum())
    starts = np.concatenate(([0], np.cumsum(lens)))
    sentence_of = np.repeat(np.arange(len(sentences)), lens)
    first = starts[sentence_of]  # each token's sentence start
    local = np.arange(n) - first
    try:
        head = np.array([t.head for s in sentences for t in s.tokens], dtype=float)  # None reads as nan
    except OverflowError:  # a head too large for a float is out of range
        return None
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

    marks = units[:per_instance]
    spot = per_instance * first + local + np.arange(per_instance)[:, None] * lens[sentence_of]  # (U, N)
    laid = np.zeros(per_instance * n, dtype=bool)
    laid[spot] = marks
    token_at = np.empty(per_instance * n, dtype=np.intp)
    token_at[spot] = np.arange(n)
    at = np.flatnonzero(laid)  # every vertex row's position
    token = token_at[at]
    row = np.zeros(per_instance * n + 1, dtype=np.intp)  # vertex rows before each position
    np.cumsum(laid, out=row[1:])
    up_at = at + parent[token] - token  # its head in the same unit; itself at the root
    edge = laid[up_at] & (up_at != at)
    used = marks.any(axis=0)  # each sentence's distinct tokens
    distinct = np.flatnonzero(used)
    token_row = np.cumsum(used, dtype=np.intp) - 1
    cuts = np.cumsum(np.bincount(sentence_of[distinct], minlength=len(sentences))).tolist()
    positions = local[distinct].tolist()
    unit_starts = row[spot[:, starts[:-1]].T.ravel()]  # where each (sentence, unit) block begins
    edges = np.stack((row[up_at[edge]], np.flatnonzero(edge)), axis=1)
    tokens = [positions[lo:hi] for lo, hi in zip([0, *cuts], cuts)]
    return Layout(sentences, local[token], unit_starts, edges, tokens, token_row[token], row[spot[0, ends]])


def subgraph_size_histograms(
    sentences: list[Sentence], expansion_order: int = 0
) -> dict[str, dict[int, int]]:
    """Vertex-count histogram per sub-graph kind over a corpus, read from the unit starts of its layout."""
    layout = batch_layout(sentences, expansion_order)
    sizes = np.diff(layout.unit_starts, append=len(layout.vertices)).reshape(-1, 3)
    return {
        kind: dict(sorted(Counter(column.tolist()).items()))
        for kind, column in zip((SDP, E1_NEIGHBORHOOD, E2_NEIGHBORHOOD), sizes.T)
    }
