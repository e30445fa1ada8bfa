"""Relation-extraction corpora: raw marked-up instances and annotated CoNLL-U.

Two input formats are supported. The raw format carries a numbered
sentence with inline ``<e1>..</e1>``/``<e2>..</e2>`` entity markers and
a relation line; it has no syntactic annotation. The annotated CoNLL-U
format is the canonical path: a 10-column body plus ``# e1 = START END``,
``# e2 = START END`` and optional ``# label = ...`` / ``# id = ...``
comments, with NER types carried in MISC as ``NER=TYPE``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    "all_labels",
    "parse_semeval_raw",
    "parse_conllu_annotated",
    "to_semeval_raw",
    "to_conllu",
    "build_vocabs",
    "entity_head_token",
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
_LABEL_RE = re.compile(r"^([A-Za-z-]+)\((e1,e2|e2,e1)\)$")


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

    @classmethod
    def parse(cls, text: str) -> "RelationLabel":
        text = text.strip()
        if text == OTHER_LABEL:
            return cls(OTHER_LABEL, None)
        m = _LABEL_RE.match(text)
        if not m or m.group(1) not in RELATION_BASES:
            raise CorpusError(f"unknown relation label {text!r}")
        return cls(m.group(1), m.group(2))


def all_labels() -> list[str]:
    """The fixed 19-label space: 9 bases x 2 directions, then Other."""
    labels = []
    for base in RELATION_BASES:
        labels.append(f"{base}({E1_TO_E2})")
        labels.append(f"{base}({E2_TO_E1})")
    labels.append(OTHER_LABEL)
    return labels


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

    def covers(self, index: int) -> bool:
        return self.start <= index <= self.end


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
        return all(t.deprel is not None for t in self.tokens)

    def entity_token(self, index: int) -> bool:
        return self.e1.covers(index) or self.e2.covers(index)

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
            roots = [t.index for t in self.tokens if t.head is None]
            if len(roots) != 1:
                raise CorpusError(f"{where}: expected one root, found {len(roots)}")
            for t in self.tokens:
                if t.head is not None and not 0 <= t.head < n:
                    raise CorpusError(f"{where}: token {t.index} head {t.head} out of range")
                if t.head == t.index:
                    raise CorpusError(f"{where}: token {t.index} is its own head")


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
    no syntactic annotation (pos/deprel/head are None).
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
        instance_id = int(m.group(1))
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


def to_semeval_raw(sentence: Sentence) -> str:
    """Render one instance back to the raw marked-up format."""
    pieces = []
    for t in sentence.tokens:
        word = t.surface
        if t.index == sentence.e1.start:
            word = "<e1>" + word
        if t.index == sentence.e2.start:
            word = "<e2>" + word
        if t.index == sentence.e1.end:
            word = word + "</e1>"
        if t.index == sentence.e2.end:
            word = word + "</e2>"
        pieces.append(word)
    instance_id = sentence.instance_id if sentence.instance_id is not None else 1
    label = str(sentence.label) if sentence.label is not None else OTHER_LABEL
    return f'{instance_id}\t"{" ".join(pieces)}"\n{label}\nComment:\n\n'


# ---------------------------------------------------------------------------
# Annotated CoNLL-U


def parse_conllu_annotated(text: str) -> list[Sentence]:
    """Parse annotated CoNLL-U blocks into fully parsed sentences.

    Uses columns ID, FORM, UPOS, HEAD, DEPREL and MISC (``NER=TYPE`` or
    ``_``). IDs are converted to 0-based; HEAD 0 becomes None (root). A
    block carries each of the ``# id``, ``# e1``, ``# e2`` and ``# label``
    comments at most once; other comments are free.
    """
    sentences = []
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip() == "":
            if block:
                sentences.append(_parse_conllu_block(block, len(sentences)))
                block = []
        else:
            block.append((lineno, line))
    if block:
        sentences.append(_parse_conllu_block(block, len(sentences)))
    return sentences


UNIQUE_COMMENTS = ("id", "e1", "e2", "label")  # keys a block may carry at most once


def _parse_conllu_block(block: list[tuple[int, str]], position: int) -> Sentence:
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
    if isinstance(instance_id, str) and instance_id.isdigit():
        instance_id = int(instance_id)
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
    root_count = 0
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
        if head == token_id:
            raise CorpusError(f"{where}: token {token_id} is its own head")
        if head == 0:
            root_count += 1
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
    if root_count == 0:
        raise CorpusError(f"{where}: no root token")
    if root_count > 1:
        raise CorpusError(f"{where}: multiple roots")
    _check_tree(tokens, where)

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


def _check_tree(tokens: list[Token], where: str) -> None:
    """Reject head cycles: every token must reach the root in <= n steps."""
    n = len(tokens)
    for t in tokens:
        steps = 0
        head = t.head
        while head is not None:
            head = tokens[head].head
            steps += 1
            if steps > n:
                raise CorpusError(f"{where}: head cycle involving token {t.index}")


def to_conllu(sentence: Sentence) -> str:
    """Render one sentence as an annotated CoNLL-U block."""
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
    """Injective symbol-to-index map with an optional reserved UNK at 0."""

    UNK_SYMBOL = "<unk>"
    UNK = 0

    def __init__(self, has_unk: bool = True):
        self.has_unk = has_unk
        self.frozen = False
        self._index: dict[str, int] = {}
        if has_unk:
            self._index[self.UNK_SYMBOL] = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def add(self, symbol: str) -> int:
        if symbol in self._index:
            return self._index[symbol]
        if self.frozen:
            raise CorpusError(f"cannot add {symbol!r} to a frozen vocabulary")
        idx = len(self._index)
        self._index[symbol] = idx
        return idx

    def index(self, symbol: str | None) -> int:
        if symbol is not None:
            idx = self._index.get(symbol)
            if idx is not None:
                return idx
            if not self.frozen:
                return self.add(symbol)
        if self.has_unk:
            return self.UNK
        raise KeyError(f"{symbol!r} not in a frozen vocabulary without UNK")

    def freeze(self) -> "Vocab":
        self.frozen = True
        return self

    def symbols(self) -> list[str]:
        return list(self._index)

    @classmethod
    def from_symbols(cls, symbols: list[str], has_unk: bool = True) -> "Vocab":
        vocab = cls(has_unk=has_unk)
        for s in symbols:
            if not (has_unk and s == cls.UNK_SYMBOL):
                vocab.add(s)
        return vocab.freeze()


@dataclass
class Vocabs:
    pos: Vocab
    deprel: Vocab
    ner: Vocab
    label: Vocab

    def label_index(self, label: RelationLabel) -> int:
        return self.label.index(str(label))

    def label_at(self, index: int) -> RelationLabel:
        return RelationLabel.parse(self.label.symbols()[index])


def build_vocabs(train: list[Sentence]) -> Vocabs:
    """Collect pos/deprel/ner vocabularies from the training split.

    Symbols are indexed in first-seen corpus order; the label vocabulary
    is the fixed 19-label space regardless of corpus contents.
    """
    if not train:
        raise CorpusError("empty corpus")
    pos, deprel, ner = Vocab(), Vocab(), Vocab()
    for sentence in train:
        for t in sentence.tokens:
            if t.pos is not None:
                pos.add(t.pos)
            if t.deprel is not None:
                deprel.add(t.deprel)
            if t.ner is not None:
                ner.add(t.ner)
    labels = Vocab.from_symbols(all_labels(), has_unk=False)
    return Vocabs(pos.freeze(), deprel.freeze(), ner.freeze(), labels)
