"""Relation-extraction corpora: raw marked-up instances and annotated CoNLL-U.

Two input formats are supported. The raw format carries a numbered
sentence with inline ``<e1>..</e1>``/``<e2>..</e2>`` entity markers and
a relation line; it has no syntactic annotation. The annotated CoNLL-U
format is the canonical path: a 10-column body plus ``# e1 = START END``,
``# e2 = START END`` and optional ``# label = ...`` / ``# id = ...``
comments, with NER types carried in MISC as ``NER=TYPE``.

The rule that a parse's heads form one rooted tree is stated once, in
``tree_error``. ``Sentence.validate``, which both parsers call, applies
it; the CoNLL-U parser itself checks only what names a line (integer
ID and HEAD, contiguous IDs, HEAD in 0..n).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat

__all__ = [
    "CorpusError",
    "Token",
    "EntitySpan",
    "RelationLabel",
    "Sentence",
    "Vocab",
    "Vocabs",
    "RELATION_BASES",
    "OTHER_LABEL",
    "LABELS",
    "LABEL_INDEX",
    "parse_semeval_raw",
    "parse_conllu_annotated",
    "to_conllu",
    "build_vocabs",
    "entity_head_token",
    "tree_error",
]

RELATION_BASES = (
    "Cause-Effect",
    "Component-Whole",
    "Content-Container",
    "Entity-Destination",
    "Entity-Origin",
    "Instrument-Agency",
    "Member-Collection",
    "Message-Topic",
    "Product-Producer",
)
OTHER_LABEL = "Other"

E1_TO_E2 = "e1,e2"
E2_TO_E1 = "e2,e1"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_RAW_LINE_RE = re.compile(r"^(\d+)\t\"(.*)\"\s*$")


class CorpusError(ValueError):
    """Malformed corpus input; the message carries the instance or line."""


@dataclass(frozen=True)
class RelationLabel:
    """A directed relation: one of the 9 bases with a direction, or Other."""

    base: str
    direction: str | None  # "e1,e2", "e2,e1", or None for Other

    def __post_init__(self):
        if self.base == OTHER_LABEL:
            if self.direction is not None:
                raise CorpusError("Other carries no direction")
        elif self.base not in RELATION_BASES:
            raise CorpusError(f"unknown relation base {self.base!r}")
        elif self.direction not in (E1_TO_E2, E2_TO_E1):
            raise CorpusError(f"directed relation {self.base!r} needs a direction")

    def __str__(self) -> str:
        if self.base == OTHER_LABEL:
            return OTHER_LABEL
        return f"{self.base}({self.direction})"

    @staticmethod
    def parse(text: str) -> "RelationLabel":
        """The one of the 19 ``LABELS`` that ``text`` spells, surrounding whitespace ignored."""
        text = text.strip()
        if text not in _LABEL_BY_SPELLING:
            raise CorpusError(f"unknown relation label {text!r}")
        return _LABEL_BY_SPELLING[text]


# The task's fixed 19-label space, the logit columns in order: each base in
# both directions, (e1,e2) first, then Other.
LABELS = (
    *(RelationLabel(base, d) for base in RELATION_BASES for d in (E1_TO_E2, E2_TO_E1)),
    RelationLabel(OTHER_LABEL, None),
)
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}
_LABEL_BY_SPELLING = {str(label): label for label in LABELS}


@dataclass
class Token:
    index: int
    surface: str
    pos: str | None = None
    ner: str | None = None
    deprel: str | None = None
    head: int | None = None  # None marks the root of a parsed sentence


@dataclass
class EntitySpan:
    start: int  # inclusive
    end: int  # inclusive
    head_token: int = -1

    def __post_init__(self):
        if self.start > self.end:
            raise CorpusError(f"entity span {self.start}..{self.end} is reversed")
        if self.head_token == -1:
            self.head_token = self.end


@dataclass
class Sentence:
    tokens: list[Token]
    e1: EntitySpan
    e2: EntitySpan
    label: RelationLabel | None = None
    instance_id: int | str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def parsed(self) -> bool:
        return None not in [t.deprel for t in self.tokens]

    def validate(self) -> None:
        n = len(self.tokens)
        where = f"instance {self.instance_id}"
        for span, name in ((self.e1, "e1"), (self.e2, "e2")):
            if not (0 <= span.start <= span.end < n):
                raise CorpusError(f"{where}: {name} span {span.start}..{span.end} out of range")
            if not span.start <= span.head_token <= span.end:
                raise CorpusError(f"{where}: {name} head token outside span")
        if self.e1.start <= self.e2.end and self.e2.start <= self.e1.end:
            raise CorpusError(f"{where}: overlapping entity spans")
        if self.parsed:
            problem = tree_error([t.head for t in self.tokens])
            if problem is not None:
                raise CorpusError(f"{where}: {problem}")


def tree_error(heads: list[int | None]) -> str | None:
    """What keeps ``heads`` from forming one rooted tree, or None if nothing.

    ``heads[i]`` is token i's head and None marks the root. The rule:
    exactly one root, every other head a token in range other than the
    token itself, and no cycle, so that following heads from any token
    reaches the root. ``Sentence.validate`` and the sub-graph derivation
    in ``graph`` both apply it. O(n): each walk stops at the first token
    an earlier walk reached, and every earlier walk reached the root.
    """
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h is None]
    if not roots:
        return "no root token"
    if len(roots) > 1:
        return f"multiple roots (tokens {', '.join(map(str, roots))})"
    for i, h in enumerate(heads):
        if h is not None and not 0 <= h < n:
            return f"token {i} head {h} out of range"
        if h == i:
            return f"token {i} is its own head"
    walk_of = [0] * n  # 1 + the start of the walk that first reached each token
    walk_of[roots[0]] = -1
    for start in range(n):
        v = start
        while not walk_of[v]:
            walk_of[v] = start + 1
            v = heads[v]
        if walk_of[v] == start + 1:  # the walk came back to itself
            return f"head cycle involving token {v}"
    return None


def entity_head_token(tokens: list[Token], start: int, end: int) -> int:
    """Span token whose head lies outside the span; else the last span token.

    If several (or no) tokens point outside, the last span token wins.
    """
    outside = [
        t.index
        for t in tokens[start : end + 1]
        if t.head is None or not start <= t.head <= end
    ]
    if len(outside) == 1:
        return outside[0]
    return end


# ---------------------------------------------------------------------------
# Raw marked-up format


def parse_semeval_raw(text: str) -> list[Sentence]:
    """Parse numbered instances with inline entity markers.

    Each instance is a quoted sentence line, a relation line, an optional
    ``Comment`` line and a blank separator. The returned sentences carry
    no syntactic annotation (pos/deprel/head are None). This is the reader
    for the official task files; their sentences need a dependency parse
    before a model can train on them.
    """
    lines = text.split("\n")
    sentences = []
    pos = 0
    while pos < len(lines):
        if lines[pos].strip() == "":
            pos += 1
            continue
        m = _RAW_LINE_RE.match(lines[pos])
        if not m:
            raise CorpusError(f"line {pos + 1}: expected a numbered quoted sentence")
        try:
            instance_id = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise CorpusError(f"line {pos + 1}: instance id of {len(m.group(1))} digits") from None
        sentence = _parse_marked_sentence(m.group(2), instance_id)
        pos += 1
        if pos >= len(lines) or lines[pos].strip() == "":
            raise CorpusError(f"instance {instance_id}: missing relation line")
        try:
            sentence.label = RelationLabel.parse(lines[pos])
        except CorpusError as exc:
            raise CorpusError(f"instance {instance_id}: {exc}") from None
        pos += 1
        if pos < len(lines) and lines[pos].startswith("Comment"):
            pos += 1
        if pos < len(lines) and lines[pos].strip() != "":
            raise CorpusError(f"instance {instance_id}: missing blank separator")
        sentence.validate()
        sentences.append(sentence)
    return sentences


def _parse_marked_sentence(raw: str, instance_id: int) -> Sentence:
    tags = ("<e1>", "</e1>", "<e2>", "</e2>")
    positions = {}
    for tag in tags:
        if raw.count(tag) != 1:
            raise CorpusError(f"instance {instance_id}: missing {tag}")
        positions[tag] = raw.index(tag)
    if not positions["<e1>"] < positions["</e1>"]:
        raise CorpusError(f"instance {instance_id}: <e1> markers out of order")
    if not positions["<e2>"] < positions["</e2>"]:
        raise CorpusError(f"instance {instance_id}: <e2> markers out of order")
    ordered = sorted(positions, key=positions.get)
    if ordered not in (["<e1>", "</e1>", "<e2>", "</e2>"], ["<e2>", "</e2>", "<e1>", "</e1>"]):
        raise CorpusError(f"instance {instance_id}: nested or interleaved entity markers")

    def clean_offset(p: int) -> int:
        return p - sum(len(t) for t in tags if positions[t] + len(t) <= p)

    clean = raw
    for tag in sorted(tags, key=positions.get, reverse=True):
        p = positions[tag]
        clean = clean[:p] + clean[p + len(tag) :]

    ranges = {
        "e1": (clean_offset(positions["<e1>"] + len("<e1>")), clean_offset(positions["</e1>"])),
        "e2": (clean_offset(positions["<e2>"] + len("<e2>")), clean_offset(positions["</e2>"])),
    }

    matches = list(_TOKEN_RE.finditer(clean))
    if not matches:
        raise CorpusError(f"instance {instance_id}: empty sentence")
    tokens = [Token(i, m.group(0)) for i, m in enumerate(matches)]

    spans = {}
    for name, (a, b) in ranges.items():
        covered = [i for i, m in enumerate(matches) if m.start() < b and m.end() > a]
        if not covered:
            raise CorpusError(f"instance {instance_id}: {name} marks no tokens")
        spans[name] = EntitySpan(covered[0], covered[-1])

    return Sentence(tokens, spans["e1"], spans["e2"], instance_id=instance_id)


# ---------------------------------------------------------------------------
# Annotated CoNLL-U


def parse_conllu_annotated(text: str) -> list[Sentence]:
    """Parse annotated CoNLL-U blocks into fully parsed sentences.

    Uses columns ID, FORM, UPOS, HEAD, DEPREL and MISC (``NER=TYPE`` or
    ``_``). IDs are converted to 0-based; HEAD 0 becomes None (root). A
    block carries each of the ``# id``, ``# e1``, ``# e2`` and ``# label``
    comments at most once; other comments are free. Blocks are separated
    by lines that are empty or all whitespace.
    """
    lines = text.split("\n")
    sentences = []
    first = None  # index of the current block's first line
    for i, line in enumerate(lines):
        if not line or line.isspace():
            if first is not None:
                sentences.append(_parse_conllu_block(lines, first, i, len(sentences)))
                first = None
        elif first is None:
            first = i
    if first is not None:
        sentences.append(_parse_conllu_block(lines, first, len(lines), len(sentences)))
    return sentences


UNIQUE_COMMENTS = ("id", "e1", "e2", "label")  # keys a block may carry at most once
# int() of the usual spellings of small IDs and HEADs, by lookup; int() reads any other
_INT_OF = {str(i): i for i in range(256)}


def _parse_conllu_block(lines: list[str], first: int, stop: int, position: int) -> Sentence:
    """The sentence of the non-blank ``lines[first:stop]``, read in one pass.

    The checks and their order are those of a reader that first collects
    the comments and the rows, then checks the rows: a row without 10
    columns fails at once; then a block without rows, a repeated unique
    comment, a single row; then, row by row, a non-integer ID or HEAD, a
    non-contiguous ID, a HEAD outside 0..n; then the entity comments, the
    label and the tree. A row's ID and HEAD are checked as it is read,
    except HEAD > n, which needs n: ``top`` keeps the largest HEAD read
    before the first faulty row, and ``fault`` that row's error.
    """
    comments: dict[str, str] = {}
    comment_line: dict[str, int] = {}
    repeated: tuple[str, int] | None = None  # the first repeated unique key and its line
    tokens: list[Token] = []
    rows = 0
    top = 0
    fault: tuple[str, int, int] | None = None  # (kind, line, HEAD) of the first faulty row
    for lineno, line in enumerate(lines[first:stop], start=first + 1):
        if line[0] == "#":
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
        rows += 1
        if fault is not None:
            continue
        try:
            token_id = _INT_OF.get(cols[0]) or int(cols[0])
            head = _INT_OF.get(cols[6])
            if head is None:
                head = int(cols[6])
        except ValueError:
            fault = ("integer", lineno, 0)
            continue
        if token_id != rows:
            fault = ("contiguous", lineno, head)
            continue
        if head > 0:
            parent = head - 1
            if head > top:
                top = head
        elif head == 0:
            parent = None
        else:
            fault = ("range", lineno, head)
            continue
        misc = cols[9]
        ner = "_"
        if misc != "_":
            for item in misc.split("|"):
                if item.startswith("NER="):
                    ner = item[4:]
        tokens.append(Token(rows - 1, cols[1], cols[3], ner, cols[7], parent))

    if not rows:
        raise CorpusError(f"block at line {first + 1}: no token rows")

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

    n = rows
    if n < 2:
        raise CorpusError(f"{where}: single-token sentences are rejected")
    if top > n:  # a row before any faulty one has HEAD > n; find the first
        row = next(t.index for t in tokens if t.head is not None and t.head >= n)
        row_lines = [i for i, line in enumerate(lines[first:stop], first + 1) if line[0] != "#"]
        fault = ("range", row_lines[row], tokens[row].head + 1)
    if fault is not None:
        kind, lineno, head = fault
        if kind == "integer":
            raise CorpusError(f"line {lineno}: non-integer ID or HEAD")
        if kind == "contiguous":
            raise CorpusError(f"{where}: non-contiguous token IDs at line {lineno}")
        raise CorpusError(f"{where}: HEAD {head} out of range at line {lineno}")

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


def to_conllu(sentence: Sentence) -> str:
    """Render one sentence as an annotated CoNLL-U block.

    A head outside the sentence raises CorpusError naming the instance and
    the token: written as is, a head of -1 would read back as the root.
    """
    n = len(sentence.tokens)
    for t in sentence.tokens:
        if t.head is not None and not 0 <= t.head < n:
            raise CorpusError(f"instance {sentence.instance_id}: token {t.index} head {t.head} out of range")
    lines = []
    if sentence.instance_id is not None:
        lines.append(f"# id = {sentence.instance_id}")
    lines.append(f"# e1 = {sentence.e1.start} {sentence.e1.end}")
    lines.append(f"# e2 = {sentence.e2.start} {sentence.e2.end}")
    if sentence.label is not None:
        lines.append(f"# label = {sentence.label}")
    for t in sentence.tokens:
        misc = f"NER={t.ner}" if t.ner not in (None, "_") else "_"
        head = 0 if t.head is None else t.head + 1
        lines.append(
            "\t".join(
                [
                    str(t.index + 1),
                    t.surface,
                    "_",
                    t.pos or "_",
                    "_",
                    "_",
                    str(head),
                    t.deprel or "_",
                    "_",
                    misc,
                ]
            )
        )
    return "\n".join(lines) + "\n\n"


# ---------------------------------------------------------------------------
# Vocabularies


class Vocab:
    """Injective symbol-to-index map, fixed when built; index 0 is the UNK.

    ``symbols`` are numbered in order from 1, a repeat keeping its first
    index. No symbol spells the UNK: ``index`` maps every symbol the map
    lacks, ``None`` included, to 0, and a corpus symbol such as
    ``"<unk>"`` gets an index of its own. ``indices`` is ``index`` over
    a column of symbols, one dict lookup per symbol and no Python call.
    """

    UNK = 0

    def __init__(self, symbols):
        self._index = {s: i for i, s in enumerate(dict.fromkeys(symbols), start=1)}

    def __len__(self) -> int:
        return len(self._index) + 1

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str | None) -> int:
        return self._index.get(symbol, self.UNK)

    def indices(self, symbols: Iterable[str | None]) -> Iterator[int]:
        return map(self._index.get, symbols, repeat(self.UNK))

    def symbols(self) -> list[str]:
        """The symbols of indices 1, 2, ..., in order."""
        return list(self._index)


@dataclass
class Vocabs:
    pos: Vocab
    deprel: Vocab
    ner: Vocab

    def label_at(self, index: int) -> RelationLabel:
        return LABELS[index]


def build_vocabs(train: list[Sentence]) -> Vocabs:
    """Collect pos/deprel/ner vocabularies from the training split.

    Symbols are indexed in first-seen corpus order. Labels need no
    vocabulary: they are the fixed ``LABELS``.
    """
    if not train:
        raise CorpusError("empty corpus")
    tokens = [t for sentence in train for t in sentence.tokens]
    return Vocabs(
        Vocab(t.pos for t in tokens if t.pos is not None),
        Vocab(t.deprel for t in tokens if t.deprel is not None),
        Vocab(t.ner for t in tokens if t.ner is not None),
    )
