"""Shared fixtures: hand-built parses, synthetic corpora and the reference CoNLL-U reader."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from relgat import numerics as nm
from relgat.corpus import (
    UNIQUE_COMMENTS,
    CorpusError,
    EntitySpan,
    RelationLabel,
    Sentence,
    Token,
    entity_head_token,
    parse_conllu_annotated,
)
from relgat.features import TokenCodes
from relgat.graph import set_layout
from relgat.model import forward_inputs

# Property tests draw from a fixed seed with no example database and no
# per-example deadline, so a run is repeatable and its time bounded.
settings.register_profile(
    "repeatable", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("repeatable")

# Worked example: SDP {ridges, uprises, from, surge}, e1 graph
# {ridges, uprises}, e2 graph {surge, from, the}.
FIG_EXAMPLE_CONLLU = """\
# id = 0
# e1 = 0 0
# e2 = 4 4
# label = Other
1\tridges\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tuprises\t_\tVERB\t_\t_\t0\troot\t_\t_
3\tfrom\t_\tADP\t_\t_\t2\tprep\t_\t_
4\tthe\t_\tDET\t_\t_\t5\tdet\t_\t_
5\tsurge\t_\tNOUN\t_\t_\t3\tpobj\t_\t_
"""

POLLEN_CONLLU = """\
# id = 1
# e1 = 1 1
# e2 = 4 4
# label = Cause-Effect(e1,e2)
1\tThe\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tpollen\t_\tNOUN\t_\t_\t3\tnsubj\t_\tNER=THING
3\tcauses\t_\tVERB\t_\t_\t0\troot\t_\t_
4\tthe\t_\tDET\t_\t_\t5\tdet\t_\t_
5\tallergy\t_\tNOUN\t_\t_\t3\tobj\t_\tNER=THING
6\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_
"""


def conllu_block(instance_id, rows, e1, e2, label=None):
    """rows: (surface, pos, head_1_based, deprel[, ner]) tuples."""
    lines = [f"# id = {instance_id}", f"# e1 = {e1[0]} {e1[1]}", f"# e2 = {e2[0]} {e2[1]}"]
    if label is not None:
        lines.append(f"# label = {label}")
    for i, row in enumerate(rows, start=1):
        surface, pos, head, deprel = row[:4]
        ner = row[4] if len(row) > 4 else None
        misc = f"NER={ner}" if ner else "_"
        lines.append(f"{i}\t{surface}\t_\t{pos}\t_\t_\t{head}\t{deprel}\t_\t{misc}")
    return "\n".join(lines) + "\n\n"


# ---------------------------------------------------------------------------
# Tiny two-relation corpus: verb and noun pools are disjoint per class, so
# the task is trivially separable (capacity check material).

_CAUSE_NOUNS = ["storm", "quake", "flood", "virus", "fire", "wind", "heat", "frost", "wave", "blast"]
_BOX_NOUNS = ["box", "jar", "bag", "tank", "crate", "vault", "chest", "drum", "case", "bin"]


def _svo_block(instance_id, n1, verb, n2, label):
    rows = [
        ("the", "DET", 2, "det"),
        (n1, "NOUN", 3, "nsubj", "THING"),
        (verb, "VERB", 0, "root"),
        ("the", "DET", 5, "det"),
        (n2, "NOUN", 3, "obj", "THING"),
        (".", "PUNCT", 3, "punct"),
    ]
    return conllu_block(instance_id, rows, (1, 1), (4, 4), label)


def build_toy_corpus():
    blocks = []
    for i in range(10):
        blocks.append(_svo_block(i, _CAUSE_NOUNS[i], "causes", _CAUSE_NOUNS[(i + 3) % 10], "Cause-Effect(e1,e2)"))
    for i in range(10):
        blocks.append(_svo_block(10 + i, _BOX_NOUNS[i], "holds", _BOX_NOUNS[(i + 3) % 10], "Content-Container(e2,e1)"))
    return parse_conllu_annotated("".join(blocks))


# ---------------------------------------------------------------------------
# Structure-labeled synthetic corpus: noun and verb pools are shared across
# the two patterns, so only the parse shape around the entities carries the
# label signal.

_SHARED_NOUNS = [
    "rock", "tree", "lamp", "door", "wheel", "glass", "chair", "table", "brick", "cable",
    "panel", "motor", "valve", "crane", "fence", "tower", "shelf", "pipe", "plate", "spring",
]
_SHARED_VERBS = ["moved", "turned", "settled", "shifted", "stood", "rested", "leaned", "stayed"]


def _pattern_subject_object(instance_id, n1, verb, n2):
    # e1 is the subject, e2 the direct object of the same verb
    rows = [
        ("the", "DET", 2, "det"),
        (n1, "NOUN", 3, "nsubj"),
        (verb, "VERB", 0, "root"),
        ("the", "DET", 5, "det"),
        (n2, "NOUN", 3, "obj"),
        (".", "PUNCT", 3, "punct"),
    ]
    return conllu_block(instance_id, rows, (1, 1), (4, 4), "Cause-Effect(e1,e2)")


def _pattern_preposition(instance_id, n1, verb, n2):
    # e2 hangs off a preposition attached to e1
    rows = [
        ("the", "DET", 2, "det"),
        (n1, "NOUN", 6, "nsubj"),
        ("of", "ADP", 2, "prep"),
        ("the", "DET", 5, "det"),
        (n2, "NOUN", 3, "pobj"),
        (verb, "VERB", 0, "root"),
        (".", "PUNCT", 6, "punct"),
    ]
    return conllu_block(instance_id, rows, (1, 1), (4, 4), "Member-Collection(e2,e1)")


def build_structure_corpus(n: int, seed: int = 0):
    """n sentences whose label is decided by entity-neighborhood structure."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n):
        n1, n2 = rng.choice(_SHARED_NOUNS, size=2, replace=False)
        verb = str(rng.choice(_SHARED_VERBS))
        if i % 2 == 0:
            blocks.append(_pattern_subject_object(i, str(n1), verb, str(n2)))
        else:
            blocks.append(_pattern_preposition(i, str(n1), verb, str(n2)))
    return parse_conllu_annotated("".join(blocks))


# ---------------------------------------------------------------------------
# Autodiff graphs and random trees


def laid_out(model, instances):
    """The inputs ``model.forward`` reads for (sentence, sub-graph set) instances, in the model's graph mode."""
    sentences = [sentence for sentence, _ in instances]
    layout = set_layout(sentences, [sgs for _, sgs in instances], model.config.graph_mode == "multi")
    return forward_inputs(layout, model.vocabs)


def total(x):
    """The sum of every entry of a matrix node, as a (1, 1) node: ones @ x @ ones."""
    rows, cols = x.shape
    return nm.matmul(nm.matmul(nm.constant(np.ones((1, rows))), x), nm.constant(np.ones((cols, 1))))


def graph_nodes(*roots):
    """Every autodiff node reachable from ``roots`` through ``.parents``, once each."""
    seen, stack = {id(r): r for r in roots}, list(roots)
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def random_heads(rng: np.random.Generator, n: int) -> list[int | None]:
    """Random rooted tree as a head list (vertex 0 is the root)."""
    heads: list[int | None] = [None]
    for i in range(1, n):
        heads.append(int(rng.integers(0, i)))
    return heads


def brute_force_path(heads: list[int | None], u: int, v: int) -> list[int]:
    """Shortest simple path by exhaustive DFS over the undirected tree."""
    n = len(heads)
    adj = [[] for _ in range(n)]
    for child, head in enumerate(heads):
        if head is not None:
            adj[child].append(head)
            adj[head].append(child)
    best: list[list[int]] = []

    def walk(node, path):
        if node == v:
            best.append(list(path))
            return
        for nxt in adj[node]:
            if nxt not in path:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    walk(u, [u])
    return min(best, key=len)


# ---------------------------------------------------------------------------
# Oracles over a sentence's strings


def entity_token(sentence, index: int) -> bool:
    """Whether token ``index`` lies in the e1 or the e2 span."""
    return any(span.start <= index <= span.end for span in (sentence.e1, sentence.e2))


def reference_code_tokens(sentences, vocabs) -> TokenCodes:
    """What ``code_tokens`` returns, one ``Vocab.index`` call per symbol."""
    tokens = [s.tokens[i] for s, indices in sentences for i in indices]
    index = [i for _, indices in sentences for i in indices]
    entity = [entity_token(s, i) for s, indices in sentences for i in indices]
    pos, deprel, ner = vocabs.pos.index, vocabs.deprel.index, vocabs.ner.index
    coded = np.array(
        [pos(t.pos) for t in tokens]
        + [deprel(t.deprel) for t in tokens]
        + [ner(t.ner) for t in tokens]
        + index
        + [-1 if t.head is None else t.head for t in tokens],
        dtype=np.intp,
    ).reshape(5, len(tokens))
    return TokenCodes(coded[0], coded[1], coded[2], np.array(entity, dtype=bool), coded[3], coded[4])


def dref_entries(table) -> dict[tuple[str, str, str], tuple[int, float]]:
    """Each counted triple's dref row, recomputed from ``table.counts``, and its frequency ratio,
    read from ``table.to_json_dict()``, the one place the program states ratios.

    Observed triples own the rows after the reserved ones, in count order.
    A triple the table lacks reads ``.get(triple, (DrefTable.UNK_ROW, None))``.
    """
    ratios = table.to_json_dict()
    return {
        triple: (row, ratios["|".join(triple)]["ratio"])
        for row, triple in enumerate(table.counts, start=table.RESERVED_ROWS)
    }


# ---------------------------------------------------------------------------
# Reference CoNLL-U reader: blocks of (line number, line) pairs, comments
# and rows collected first, then the rows checked and converted.


def reference_parse_conllu(text: str) -> list[Sentence]:
    """What ``parse_conllu_annotated`` returns or raises, read the plain way."""
    sentences = []
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip() == "":
            if block:
                sentences.append(_reference_block(block, len(sentences)))
                block = []
        else:
            block.append((lineno, line))
    if block:
        sentences.append(_reference_block(block, len(sentences)))
    return sentences


def _reference_block(block: list[tuple[int, str]], position: int) -> Sentence:
    comments: dict[str, str] = {}
    comment_line: dict[str, int] = {}
    repeated: tuple[str, int] | None = None  # the first repeated unique key and its line
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in block:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                if key in UNIQUE_COMMENTS and key in comment_line:
                    repeated = repeated or (key, lineno)
                    continue
                comments[key] = value.strip()
                comment_line[key] = lineno
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise CorpusError(f"line {lineno}: expected 10 tab-separated columns, got {len(cols)}")
        rows.append((lineno, cols))

    if not rows:
        raise CorpusError(f"block at line {block[0][0]}: no token rows")

    instance_id: int | str = comments.get("id", position)
    if isinstance(instance_id, str) and instance_id.isdecimal():
        try:
            instance_id = int(instance_id)
        except ValueError:  # more digits than int() converts
            raise CorpusError(f"line {comment_line['id']}: instance id of {len(instance_id)} digits") from None
    where = f"instance {instance_id}"
    if repeated is not None:
        key, lineno = repeated
        raise CorpusError(
            f"{where}: repeated '# {key}' comment at line {lineno} "
            f"(first at line {comment_line[key]})"
        )

    tokens = []
    n = len(rows)
    if n < 2:
        raise CorpusError(f"{where}: single-token sentences are rejected")
    for expected, (lineno, cols) in enumerate(rows, start=1):
        try:
            token_id = int(cols[0])
            head = int(cols[6])
        except ValueError:
            raise CorpusError(f"line {lineno}: non-integer ID or HEAD") from None
        if token_id != expected:
            raise CorpusError(f"{where}: non-contiguous token IDs at line {lineno}")
        if not 0 <= head <= n:
            raise CorpusError(f"{where}: HEAD {head} out of range at line {lineno}")
        misc = cols[9]
        ner = None
        if misc != "_":
            for item in misc.split("|"):
                if item.startswith("NER="):
                    ner = item[len("NER=") :]
        tokens.append(
            Token(
                index=token_id - 1,
                surface=cols[1],
                pos=cols[3],
                ner=ner if ner is not None else "_",
                deprel=cols[7],
                head=None if head == 0 else head - 1,
            )
        )

    spans = {}
    for name in ("e1", "e2"):
        if name not in comments:
            raise CorpusError(f"{where}: missing '# {name} = START END' comment")
        parts = comments[name].split()
        if len(parts) != 2:
            raise CorpusError(f"{where}: malformed {name} comment")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise CorpusError(f"{where}: malformed {name} comment") from None
        if start > end:
            raise CorpusError(f"{where}: {name} span {start}..{end} is reversed")
        spans[name] = EntitySpan(start, end, entity_head_token(tokens, start, end))

    label = None
    if "label" in comments:
        try:
            label = RelationLabel.parse(comments["label"])
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None

    sentence = Sentence(tokens, spans["e1"], spans["e2"], label, instance_id)
    sentence.validate()
    return sentence


@pytest.fixture
def fig_example_sentence():
    return parse_conllu_annotated(FIG_EXAMPLE_CONLLU)[0]


@pytest.fixture
def pollen_sentence():
    return parse_conllu_annotated(POLLEN_CONLLU)[0]


@pytest.fixture
def toy_corpus():
    return build_toy_corpus()
