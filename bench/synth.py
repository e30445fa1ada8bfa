"""Seeded synthetic corpus of long random dependency trees, as CoNLL-U text.

The benchmark feeds the program only text made here (or the shipped toy
corpus), so a workload is fully determined by its seed. Each sentence is a
random rooted tree whose tokens attach either to the token added just
before them (which deepens the tree) or to a uniformly chosen earlier
token (which widens it). The per-sentence probability of the first kind
spreads over [0, depth_bias], and the second entity sits at a spread of
tree distances from the first, so shortest dependency paths run from
adjacent tokens to most of the sentence.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "ADP", "DET", "PRON", "AUX", "CCONJ", "NUM", "PROPN", "PART")
DEPRELS = (
    "nsubj", "obj", "iobj", "obl", "nmod", "amod", "advmod", "det", "case",
    "conj", "cc", "compound", "acl", "advcl", "xcomp",
)
# The fixed 19-label space of the program, spelled out so generation
# needs nothing but the standard library.
RELATIONS = (
    "Cause-Effect", "Instrument-Agency", "Product-Producer", "Content-Container",
    "Entity-Origin", "Entity-Destination", "Component-Whole", "Member-Collection",
    "Message-Topic",
)
LABELS = tuple(f"{r}({d})" for r in RELATIONS for d in ("e1,e2", "e2,e1")) + ("Other",)


class SynthError(RuntimeError):
    """A generated sentence the program rejects; names the sentence."""


@dataclass(frozen=True)
class CorpusSpec:
    sentences: int
    min_len: int = 15
    max_len: int = 40
    depth_bias: float = 0.9
    vocab_size: int = 500


def generate(spec: CorpusSpec, seed: int) -> str:
    """CoNLL-U text for `spec`; the same (spec, seed) gives the same bytes."""
    if not 2 <= spec.min_len <= spec.max_len:
        raise ValueError(f"need 2 <= min_len <= max_len, got {spec.min_len}..{spec.max_len}")
    rng = random.Random(seed)
    # Lengths, depth biases and entity distances are stratified over their
    # ranges, so the total work barely moves between seeds; the trees do.
    count = spec.sentences
    lengths = [spec.min_len + (i * (spec.max_len - spec.min_len + 1)) // count for i in range(count)]
    biases = [spec.depth_bias * (i + 0.5) / count for i in range(count)]
    reaches = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(lengths)
    rng.shuffle(biases)
    rng.shuffle(reaches)
    blocks = []
    for instance, (n, bias, reach) in enumerate(zip(lengths, biases, reaches)):
        # Tree over creation order, then scattered over sentence positions.
        parent = [-1]
        for k in range(1, n):
            parent.append(k - 1 if rng.random() < bias else rng.randrange(k))
        position = list(range(n))
        rng.shuffle(position)
        heads = [0] * n
        for k in range(n):
            heads[position[k]] = 0 if parent[k] < 0 else position[parent[k]] + 1
        # One entity is random; the other sits at the `reach` quantile of
        # every token's tree distance from it.
        first = rng.randrange(n)
        distance = _distances(heads, first)
        by_distance = sorted((distance[v], rng.random(), v) for v in range(n) if v != first)
        e1, e2 = sorted((first, by_distance[int(reach * len(by_distance))][2]))
        lines = [
            f"# id = {instance}",
            f"# e1 = {e1} {e1}",
            f"# e2 = {e2} {e2}",
            f"# label = {rng.choice(LABELS)}",
        ]
        for i in range(n):
            surface = f"w{rng.randrange(spec.vocab_size)}"
            pos = rng.choice(POS_TAGS)
            deprel = "root" if heads[i] == 0 else rng.choice(DEPRELS)
            misc = "NER=THING" if i in (e1, e2) else "_"
            lines.append(f"{i + 1}\t{surface}\t_\t{pos}\t_\t_\t{heads[i]}\t{deprel}\t_\t{misc}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _distances(heads: list[int], start: int) -> list[int]:
    """Undirected tree distance from `start` to every token (heads are 1-based, 0 = root)."""
    neighbors = [[] for _ in heads]
    for child, head in enumerate(heads):
        if head:
            neighbors[child].append(head - 1)
            neighbors[head - 1].append(child)
    distance = [-1] * len(heads)
    distance[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbors[u]:
                if distance[v] < 0:
                    distance[v] = distance[u] + 1
                    nxt.append(v)
        frontier = nxt
    return distance


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(text: str, expansion_order: int) -> dict:
    """Parse `text` with the program and cut every sentence's sub-graphs.

    Raises SynthError on the first sentence that does not parse or yields
    no sub-graphs. Returns the digest and the spread of path lengths.
    """
    from relgat.corpus import CorpusError, parse_conllu_annotated
    from relgat.graph import GraphError, sentence_subgraphs

    try:
        sentences = parse_conllu_annotated(text)
    except CorpusError as exc:
        raise SynthError(f"generated corpus does not parse: {exc}") from exc
    path_lengths = []
    for s in sentences:
        try:
            sgs = sentence_subgraphs(s, 0)
            sentence_subgraphs(s, expansion_order)
        except GraphError as exc:
            raise SynthError(f"instance {s.instance_id}: no sub-graphs: {exc}") from exc
        path_lengths.append(len(sgs.sdp))
    return {
        "digest": digest(text),
        "sentences": len(sentences),
        "tokens": sum(len(s) for s in sentences),
        "sdp_min": min(path_lengths),
        "sdp_median": statistics.median(path_lengths),
        "sdp_max": max(path_lengths),
    }
