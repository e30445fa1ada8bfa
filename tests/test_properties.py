"""Property tests: the tree rule, sub-graph invariants, the batch layout against the layout of the
per-sentence sub-graphs, the token rows, a minibatch's inputs gathered from a split's, the token
codes, the batched pair layout, the scorer, the CoNLL-U reader against its reference, the CLI's
errors on mutated CoNLL-U files, mutated raw SemEval files, corrupt checkpoints and corrupt
embedding files."""

import contextlib
import io
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from relgat.cli import main
from relgat.corpus import (
    RELATION_BASES,
    UNIQUE_COMMENTS,
    CorpusError,
    EntitySpan,
    Sentence,
    Token,
    LABELS,
    Vocab,
    Vocabs,
    build_vocabs,
    parse_conllu_annotated,
    parse_semeval_raw,
    to_conllu,
    tree_error,
)
from relgat.features import (
    DrefTable, FeatureError, FileEmbeddingProvider, TokenCodes, attention_pairs, build_dref_table, code_tokens,
    dref_edge_features, edge_features,
)
from relgat import graph
from relgat.graph import (
    GraphError, Layout, batch_layout, derive_subgraphs, sentence_subgraphs, set_layout,
    shortest_dependency_path,
)
from relgat.model import InstanceRows, Model, ModelConfig, forward_inputs
from relgat.train_eval import score_predictions
from conftest import (
    brute_force_path, build_toy_corpus, conllu_block, dref_entries, entity_token, reference_code_tokens,
    reference_parse_conllu,
)

# Small alphabets, so that triples repeat within and across sentences and
# an edge's reversed orientation is often a triple of its own.
POS = ("NOUN", "VERB", "ADP")
DEPRELS = ("nsubj", "obj", "dep")


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
        (f"w{i}", draw(st.sampled_from(POS)), 0 if head is None else head + 1,
         "root" if head is None else draw(st.sampled_from(DEPRELS)))
        for i, head in enumerate(heads)
    ]
    (sentence,) = parse_conllu_annotated(conllu_block(0, rows, *spans))
    return sentence, heads


def tree_edges(heads, vertices):
    """The tree edges with both ends in ``vertices``, as (head, dependent) pairs."""
    inside = set(vertices)
    return {
        (head, child)
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
    undirected = {(min(a, b), max(a, b)) for a, b in tree_edges(heads, sdp.vertices)}
    assert undirected == {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}


def ball(heads, centre, radius):
    """The vertices within ``radius`` undirected hops of the set ``centre``, by breadth-first search."""
    distance = dict.fromkeys(centre, 0)
    queue = list(centre)
    for u in queue:
        if distance[u] < radius:
            for v in neighbours(heads, u) - distance.keys():
                distance[v] = distance[u] + 1
                queue.append(v)
    return set(distance)


@given(tree_sentences(), st.integers(0, 2))
def test_path_graph_is_the_ball_around_the_tree_path(drawn, order):
    # the unit edges are pinned by test_induced_edges_are_the_tree_edges_inside
    sentence, heads = drawn
    e1, e2 = sentence.e1.head_token, sentence.e2.head_token
    sdp = derive_subgraphs(heads, e1, e2, order).sdp
    assert sdp.vertices == sorted(ball(heads, brute_force_path(heads, e1, e2), order))


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
        assert sg.edges.ndim == 2 and sg.edges.shape[1] == 2
        edges = [(sg.vertices[a], sg.vertices[b]) for a, b in sg.edges.tolist()]
        assert set(edges) == tree_edges(heads, sg.vertices)
        assert len(edges) == len(set(edges))


def seeded_trees(seed, size, min_tokens=2):
    """``size`` hand-built parsed sentences over random rooted trees of min_tokens..40 tokens.

    A token hangs off the token drawn just before it with a per-sentence chance of 0, 1/2 or 1,
    else off any earlier one, so some trees are as deep as they are long. The entity heads are
    any two distinct tokens; each sentence's instance id is its position.
    """
    rng = np.random.default_rng(seed)
    sentences = []
    for k in range(size):
        n = int(rng.integers(min_tokens, 41))
        order = rng.permutation(n)  # order[0] is the root
        chain = rng.choice([0, 0.5, 1])
        heads = [None] * n
        for i in range(1, n):
            heads[order[i]] = int(order[i - 1 if rng.random() < chain else rng.integers(0, i)])
        tokens = [Token(i, f"w{i}", "X", "_", "root" if h is None else "dep", h) for i, h in enumerate(heads)]
        e1, e2 = (int(v) for v in rng.choice(n, size=2, replace=False))
        sentences.append(Sentence(tokens, EntitySpan(e1, e1), EntitySpan(e2, e2), instance_id=k))
    return sentences


batch_sizes = st.sampled_from([0, 1]) | st.integers(2, 40)


def units_of(sgs, multi):
    return sgs.all() if multi else [sgs.sdp]


@given(st.integers(0, 2**32 - 1), batch_sizes, st.integers(0, 2), st.booleans())
def test_batch_subgraphs_equal_the_per_sentence_list(seed, size, order, multi):
    batch = seeded_trees(seed, size)
    with mock.patch.object(graph, "sentence_subgraphs", wraps=graph.sentence_subgraphs) as spy:
        got = batch_layout(batch, order, multi)
    assert not spy.called  # the vectorised check accepts every rooted tree
    sets = [sentence_subgraphs(s, order) for s in batch]
    want = set_layout(batch, sets, multi)
    assert got.sentences == want.sentences == batch
    for name in Layout._fields[1:]:
        g, w = getattr(got, name), getattr(want, name)
        if name == "tokens":
            assert g == w and all(type(t) is int for distinct in g for t in distinct)
        else:
            assert g.dtype == w.dtype == np.intp and g.shape == w.shape, name
            assert np.array_equal(g, w), name

    # what the set layout is, read off the sets: units instance by instance, path first
    units = [sg for sgs in sets for sg in units_of(sgs, multi)]
    starts = np.cumsum([0] + [len(sg) for sg in units])
    assert want.vertices.tolist() == [v for sg in units for v in sg.vertices]
    assert want.unit_starts.tolist() == starts[:-1].tolist()
    assert want.edges.tolist() == [[a + lo, d + lo] for sg, lo in zip(units, starts) for a, d in sg.edges.tolist()]
    path_starts = starts[:-1][:: 3 if multi else 1]
    for b, (sentence, first) in enumerate(zip(batch, path_starts)):
        e1, e2 = want.entities[:, b]
        assert first <= min(e1, e2) and max(e1, e2) < first + len(sets[b].sdp)
        assert (want.vertices[e1], want.vertices[e2]) == (sentence.e1.head_token, sentence.e2.head_token)


@given(st.lists(tree_sentences(), min_size=1, max_size=3), st.integers(0, 2), st.booleans())
def test_token_rows_name_the_same_sentence_token(batch, order, multi):
    sentences = [sentence for sentence, _ in batch]
    layout = batch_layout(sentences, order, multi)
    graph_sets = [units_of(sentence_subgraphs(s, order), multi) for s in sentences]
    token_of_row = [(b, t) for b, distinct in enumerate(layout.tokens) for t in distinct]
    unit_rows = [(b, v) for b, graphs in enumerate(graph_sets) for sg in graphs for v in sg.vertices]
    assert [token_of_row[r] for r in layout.token_rows] == unit_rows
    for distinct, graphs in zip(layout.tokens, graph_sets):
        assert distinct == sorted({v for sg in graphs for v in sg.vertices})


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 2), st.booleans(), st.data())
def test_gathered_inputs_equal_the_inputs_of_the_picked_sentences(seed, size, order, multi, data):
    # train()'s minibatches: instances picked from the inputs of a whole split, in any order
    corpus = seeded_trees(seed, size)
    rng = np.random.default_rng(seed)
    for t in (t for sentence in corpus for t in sentence.tokens):
        t.pos, t.ner = str(rng.choice(POS)), str(rng.choice(NERS))
    vocabs = build_vocabs(corpus)
    rows = InstanceRows(forward_inputs(batch_layout(corpus, order, multi), vocabs))
    shuffled = data.draw(st.permutations(range(size)))
    pick = shuffled[: data.draw(st.integers(1, size))]
    got = rows.take(pick)
    want = forward_inputs(batch_layout([corpus[i] for i in pick], order, multi), vocabs)
    assert list(map(id, got.layout.sentences)) == [id(corpus[i]) for i in pick]
    assert got.layout.tokens == want.layout.tokens
    arrays = [(f"layout.{name}", getattr(got.layout, name), getattr(want.layout, name)) for name in Layout._fields]
    arrays += [(f"codes.{name}", g, w) for name, g, w in zip(TokenCodes._fields, got.codes, want.codes)]
    arrays += [(name, getattr(got, name), getattr(want, name)) for name in ("pair_starts", "pairs", "dependents")]
    for name, g, w in arrays:
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert np.array_equal(g, w), name


def spoil(sentence, kind, rng):
    """Break one rule that the sub-graph derivation checks, in place."""
    heads = [t.head for t in sentence.tokens]
    n = len(heads)
    root = heads.index(None)
    v, w = (int(x) for x in rng.choice([i for i in range(n) if i != root], size=2, replace=False))
    if kind == "no root":
        sentence.tokens[root].head = v
    elif kind == "two roots":
        sentence.tokens[v].head = None
    elif kind == "cycle":
        sentence.tokens[v].head, sentence.tokens[w].head = w, v
    elif kind == "self head":
        sentence.tokens[v].head = v
    elif kind == "head past the end":
        sentence.tokens[v].head = n + int(rng.integers(0, 3))
    elif kind == "negative head":
        sentence.tokens[v].head = -int(rng.integers(1, 3))
    elif kind == "head too large for a float":
        sentence.tokens[v].head = 10 ** int(rng.integers(309, 500))
    elif kind == "entities coincide":
        sentence.e2.head_token = sentence.e1.head_token
    elif kind == "entity out of range":
        sentence.e1.head_token = int(rng.choice([-1, n]))
    elif kind == "unparsed":
        sentence.tokens[v].deprel = None


SPOILS = ("no root", "two roots", "cycle", "self head", "head past the end", "negative head",
          "head too large for a float", "entities coincide", "entity out of range", "unparsed", "order 3")


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(SPOILS), st.booleans(), st.data())
def test_batch_subgraphs_raise_the_per_sentence_error(seed, size, kind, multi, data):
    # every sentence has at least 3 tokens, so two non-root tokens exist to spoil
    batch, order = seeded_trees(seed, size, min_tokens=3), data.draw(st.integers(0, 2))
    at = data.draw(st.integers(0, size - 1))
    if kind == "order 3":
        order, at = 3, 0
    else:
        spoil(batch[at], kind, np.random.default_rng(seed))
    with pytest.raises(GraphError) as ref:
        [sentence_subgraphs(s, order) for s in batch]
    with mock.patch.object(graph, "sentence_subgraphs", wraps=graph.sentence_subgraphs) as spy:
        with pytest.raises(GraphError) as got:
            batch_layout(batch, order, multi)
    assert str(got.value) == str(ref.value)
    assert spy.call_args.args[0] is batch[at]


def reference_layout(batch, order, multi):
    """A batch's ``set_layout``, its units in order, and the (sentence, token) of every vertex row."""
    sentences = [sentence for sentence, _ in batch]
    sets = [sentence_subgraphs(s, order) for s in sentences]
    units = [(s, sg) for s, sgs in zip(sentences, sets) for sg in units_of(sgs, multi)]
    vertex_tokens = [(s, v) for s, sg in units for v in sg.vertices]
    return set_layout(sentences, sets, multi), [sg for _, sg in units], vertex_tokens


batches = st.lists(tree_sentences(), min_size=1, max_size=3)


NERS = ("THING", "PLACE")


def vocab_of(symbols):
    """A vocabulary of some of ``symbols`` and of a symbol no token holds, in drawn order."""
    return st.lists(st.sampled_from((*symbols, "<unk>")), unique=True).map(Vocab)


@given(batches, st.data())
def test_token_codes_equal_per_symbol_lookups(batch, data):
    # symbols the drawn vocabularies lack and absent (None) symbols both code as UNK
    vocabs = Vocabs(*(data.draw(vocab_of(symbols)) for symbols in (POS, (*DEPRELS, "root"), NERS)))
    layout = []
    for sentence, _ in batch:
        for t in sentence.tokens:
            t.pos = data.draw(st.sampled_from((t.pos, None)))
            t.deprel = data.draw(st.sampled_from((t.deprel, None)))
            t.ner = data.draw(st.sampled_from((*NERS, None)))
        layout.append((sentence, data.draw(st.lists(st.integers(0, len(sentence) - 1), min_size=1))))
    got, want = code_tokens(layout, vocabs), reference_code_tokens(layout, vocabs)
    for name, column in zip(want._fields, want):
        assert getattr(got, name).dtype == column.dtype, name
        assert np.array_equal(getattr(got, name), column), name


@given(batches, st.integers(0, 2), st.booleans())
def test_batched_pairs_equal_per_unit_dense_reference(batch, order, multi):
    layout, units, _ = reference_layout(batch, order, multi)
    pair_starts, pairs, dependents = attention_pairs(layout.edges, len(layout.vertices))
    want_starts, want_pairs, want_dependents = [], [], []
    for sg, first in zip(units, layout.unit_starts):
        n = len(sg)
        adjacency = np.zeros((n, n), dtype=np.int64)
        adjacency[sg.edges[:, 0], sg.edges[:, 1]] = adjacency[sg.edges[:, 1], sg.edges[:, 0]] = 1
        local = np.argwhere(adjacency + np.eye(n))
        heads_of = {b: a for a, b in sg.edges.tolist()}
        want_starts.append(np.searchsorted(local[:, 0], np.arange(n)) + sum(map(len, want_pairs)))
        want_pairs.append(local + first)
        want_dependents += [-1 if i == j else first + (j if heads_of.get(j) == i else i) for i, j in local]
    np.testing.assert_array_equal(pair_starts, np.concatenate(want_starts))
    np.testing.assert_array_equal(pairs, np.concatenate(want_pairs))
    np.testing.assert_array_equal(dependents, want_dependents)


@given(batches, st.integers(0, 2), st.booleans(), st.integers(1, 3))
def test_dref_rows_and_ratios_equal_string_keyed_lookup(batch, order, multi, counted):
    # the vocabularies cover the batch but the table counts only some
    # sentences, so symbols and triples it never saw occur too
    table = build_dref_table([s for s, _ in batch[:counted]], d_e=2)
    vocabs = build_vocabs([s for s, _ in batch])
    layout, _, vertex_tokens = reference_layout(batch, order, multi)
    _, pairs, dependents = attention_pairs(layout.edges, len(layout.vertices))
    codes = code_tokens(list(zip(layout.sentences, layout.tokens)), vocabs)
    rows = dref_edge_features(codes, layout.token_rows, pairs, dependents, table.rows_by_index(vocabs))
    want_rows, got_ratios, want_ratios = [], [], []
    entries = dref_entries(table)
    for i, j in pairs.tolist():
        (s, u), (_, v) = vertex_tokens[i], vertex_tokens[j]
        if u == v:
            want_rows.append(DrefTable.SELF_ROW)
            continue
        tok_u, tok_v = s.tokens[u], s.tokens[v]
        dependent = tok_v if tok_v.head == u else tok_u
        triple = (tok_u.pos, tok_v.pos, dependent.deprel)
        row, ratio = entries.get(triple, (DrefTable.UNK_ROW, None))
        want_rows.append(row)
        if triple in table.counts:  # the pair's ratio, as dref.json states it, is count over total
            got_ratios.append(ratio)
            want_ratios.append(table.counts[triple] / table.total)
    assert rows.tolist() == want_rows
    assert got_ratios == want_ratios


@given(batches, st.integers(0, 2), st.booleans())
def test_ctef_flags_the_entity_tokens_attended_from(batch, order, multi):
    layout, _, vertex_tokens = reference_layout(batch, order, multi)
    _, pairs, dependents = attention_pairs(layout.edges, len(layout.vertices))
    codes = code_tokens(list(zip(layout.sentences, layout.tokens)), build_vocabs([s for s, _ in batch]))
    flags = edge_features(codes, layout.token_rows, pairs, dependents, "ctef", 1).value[:, 0]
    want = [float(entity_token(s, v)) for s, v in (vertex_tokens[j] for j in pairs[:, 1])]
    assert flags.tolist() == want


@st.composite
def head_lists(draw):
    """Heads of 2..8 tokens: one root and any other heads, or a tree with up to two heads redrawn.

    The first kind is mostly cycles (no token heads itself there). A
    redrawn head becomes None (a second root), the token itself, out of
    range, or any token (no root left when it is the root's, a cycle
    when it is a descendant).
    """
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        heads = [(v + draw(st.integers(1, n - 1))) % n for v in range(n)]
        heads[draw(st.integers(0, n - 1))] = None
        return heads
    order = draw(st.permutations(range(n)))  # order[0] is the root
    heads = [None] * n
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))]
    for kind in draw(st.lists(st.sampled_from(["root", "self", "range", "token"]), max_size=2)):
        v = draw(st.integers(0, n - 1))
        if kind == "root":
            heads[v] = None
        elif kind == "self":
            heads[v] = v
        elif kind == "range":
            heads[v] = draw(st.sampled_from([-2, -1, n]))
        else:
            heads[v] = draw(st.integers(0, n - 1))
    return heads


def is_rooted_tree(heads):
    """Brute force: from every token, following heads reaches the single root within n steps."""
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h is None]
    if len(roots) != 1:
        return False
    for v in range(n):
        for _ in range(n):
            if v == roots[0] or not 0 <= v < n:
                break
            v = heads[v]
        if v != roots[0]:
            return False
    return True


@given(head_lists())
def test_every_tree_check_accepts_exactly_the_rooted_trees(heads):
    n = len(heads)
    tokens = [Token(i, f"w{i}", "X", "_", "root" if h is None else "dep", h) for i, h in enumerate(heads)]
    sentence = Sentence(tokens, EntitySpan(0, 0), EntitySpan(n - 1, n - 1), instance_id=5)
    if is_rooted_tree(heads):
        assert tree_error(heads) is None
        sentence.validate()
        assert shortest_dependency_path(heads, 0, n - 1) == brute_force_path(heads, 0, n - 1)
        (parsed,) = parse_conllu_annotated(to_conllu(sentence))
        assert [t.head for t in parsed.tokens] == heads
    else:
        assert tree_error(heads) is not None
        with pytest.raises(CorpusError, match="^instance 5: "):
            sentence.validate()
        with pytest.raises(GraphError):
            shortest_dependency_path(heads, 0, n - 1)
        with pytest.raises(CorpusError, match="^instance 5: "):
            parse_conllu_annotated(to_conllu(sentence))


@given(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)), max_size=40))
def test_scorer_counts_equal_brute_force(pairs):
    golds, preds = [g for g, _ in pairs], [p for _, p in pairs]
    report = score_predictions(golds, preds)
    for base in RELATION_BASES:
        cell = report.per_class[base]
        assert cell["gold"] == sum(1 for g in golds if g.base == base)
        assert cell["predicted"] == sum(1 for p in preds if p.base == base)
        assert cell["correct"] == sum(1 for g, p in pairs if g == p and g.base == base)
        assert all(type(cell[key]) is int for key in ("gold", "predicted", "correct"))
    for i, row in enumerate(report.confusion):
        for j, count in enumerate(row):
            assert type(count) is int
            assert count == sum(1 for g, p in pairs if g == LABELS[i] and p == LABELS[j])
    exact = sum(1 for g, p in pairs if g == p)
    assert report.accuracy == (100.0 * exact / len(pairs) if pairs else 0.0)


# ---------------------------------------------------------------------------
# The CoNLL-U reader against the reference reader: equal sentences, or the
# same CorpusError message


def _digit_spelling(value: str) -> str:
    """``value`` with its ASCII digits written as Arabic-Indic digits, which int() reads alike."""
    return value.translate({ord(d): chr(0x660 + int(d)) for d in "0123456789"})


def _mutate_row(draw, block, kind):
    rows = [i for i, line in enumerate(block) if not line.startswith("#")]
    if not rows:
        return
    i = draw(st.sampled_from(rows))
    cols = block[i].split("\t")
    if kind == "drop column":
        del cols[draw(st.integers(0, len(cols) - 1))]
    elif kind == "duplicate column":
        c = draw(st.integers(0, len(cols) - 1))
        cols.insert(c, cols[c])
    elif len(cols) == 10:
        c = {"id": 0, "head": 6, "misc": 9}.get(kind)
        if c is None:  # non-integer or respelled: the ID or the HEAD
            c = draw(st.sampled_from([0, 6]))
        if kind == "non-integer":
            cols[c] = draw(st.sampled_from(["x", "1.5", "", "0x1", "-"]))
        elif kind == "respelled":  # a spelling int() reads that no lookup table holds
            cols[c] = draw(st.sampled_from(["0{}", "+{}", " {} ", "{}_0"])).format(cols[c])
            cols[c] = draw(st.sampled_from([cols[c], _digit_spelling(cols[c])]))
        elif kind == "misc":
            cols[c] = draw(st.sampled_from(["NER=PER", "A=1|NER=LOC|NER=ORG", "NER=", "x|y", "_"]))
        elif kind == "id":  # a gap, or a repeat of the ID before
            cols[c] = str(rows.index(i) + draw(st.sampled_from([0, 2, 3])))
        else:  # a HEAD out of range
            cols[c] = str(draw(st.sampled_from([-1, len(rows) + 1, len(rows) + 2])))
    block[i] = "\t".join(cols)


def _mutate_comment(draw, block, kind):
    at = draw(st.integers(0, len(block)))
    if kind == "repeated comment":
        key = draw(st.sampled_from(UNIQUE_COMMENTS))
        block.insert(at, f"# {key} = {draw(st.sampled_from(['0', '1 1', 'Other', '']))}")
    elif kind == "free comment":
        block.insert(at, draw(st.sampled_from(["# note = x", "# text", "#", "# a = b = c", "#label"])))
    elif kind in ("e1", "e2"):
        spans = [i for i, line in enumerate(block) if line.startswith(f"# {kind} =")]
        value = draw(st.sampled_from([None, "", "3", "a b", "1 2 3", "2 1", "0 0", "1 1", "-1 0", "0 99"]))
        for i in reversed(spans):
            del block[i]
        if value is not None:
            block.insert(spans[0] if spans else at, f"# {kind} = {value}")
    elif kind == "label":
        spelling = draw(st.sampled_from([
            "Foo(e1,e2)", "Other", "Cause-Effect(e1,e2)", "Cause-Effect", "Other(e1,e2)", "other",
            "Message-Topic(e2,e1)", "Cause-Effect(e1,e3)",
        ]))
        block[:] = [line for line in block if not line.startswith("# label =")]
        block.insert(min(at, len(block)), f"# label = {spelling}")
    elif kind == "single token":
        rows = [line for line in block if not line.startswith("#")]
        block[:] = [line for line in block if line.startswith("#")] + rows[:1]
    elif kind == "no rows":
        block[:] = [line for line in block if line.startswith("#")]
    elif kind == "whitespace line":  # splits the block in two
        block.insert(at, draw(st.sampled_from([" ", "\t", "\u3000", " \r"])))


ROW_MUTATIONS = ("drop column", "duplicate column", "non-integer", "respelled", "id", "head", "misc")
COMMENT_MUTATIONS = (
    "repeated comment", "free comment", "e1", "e2", "label", "single token", "no rows", "whitespace line",
)


@st.composite
def conllu_texts(draw):
    """``to_conllu`` text of random trees, with up to three edits and whitespace separator lines."""
    blocks = []
    for sentence, _ in draw(st.lists(tree_sentences(max_tokens=6), min_size=1, max_size=3)):
        sentence.label = draw(st.sampled_from([None, *LABELS]))
        # "²": isdigit() but not int(); 5000 digits: more than int() converts
        sentence.instance_id = draw(st.sampled_from([0, 7, "s-1", "\u00b2", "1" * 5000]))
        blocks.append(to_conllu(sentence).rstrip("\n").split("\n"))
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(blocks))
        kind = draw(st.sampled_from(ROW_MUTATIONS + COMMENT_MUTATIONS))
        if kind in ROW_MUTATIONS:
            _mutate_row(draw, block, kind)
        else:
            _mutate_comment(draw, block, kind)
    separators = [draw(st.sampled_from(["", " ", "\t \r", "\u3000"])) for _ in blocks]
    return "".join("\n".join(block) + "\n" + sep + "\n" for block, sep in zip(blocks, separators))


def _read(reader, text):
    try:
        return reader(text)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(max_examples=150)
@given(conllu_texts())
def test_reader_equals_the_reference_reader(text):
    assert _read(parse_conllu_annotated, text) == _read(reference_parse_conllu, text)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "data.conllu"


@settings(max_examples=100)
@given(conllu_texts())
def test_cli_names_the_file_for_every_corpus_failure(corpus_path, text):
    corpus_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["stats", "--data", str(corpus_path)])
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith(f"error: {corpus_path}: ")
    ), (code, err.getvalue())


# ---------------------------------------------------------------------------
# Corrupt checkpoints: every cut, changed byte or header-length prefix is
# refused with a CheckpointError that names the file


RAW_WORDS = ("the", "pollen", "causes", "an", "allergy", "(", ",", ".", "door", "x1")
RAW_MARKERS = ("<e1>", "</e1>", "<e2>", "</e2>")
NOT_IDS = ("x", "", "-1", "1.5", "\u00b2", "1 2", "0x1", "1" * 5000)


@st.composite
def semeval_raw_texts(draw):
    """A valid raw SemEval file: numbered quoted sentences with both entities marked, a label line
    and sometimes a comment line, separated by blank lines."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(RAW_WORDS), min_size=2, max_size=8))
        first = draw(st.integers(0, len(words) - 2))
        second = draw(st.integers(first + 1, len(words) - 1))
        for at, name in zip((first, second), draw(st.permutations(["e1", "e2"]))):
            words[at] = f"<{name}>{words[at]}</{name}>"
        comment = ["Comment: " + draw(st.sampled_from(["", "x", "<e1>"]))] if draw(st.booleans()) else []
        blocks.append("\n".join([
            f'{draw(st.integers(1, 99999))}\t"{" ".join(words)}"', str(draw(st.sampled_from(LABELS))), *comment,
        ]))
    return "\n\n".join(blocks) + "\n\n"


def _mutate_raw(draw, text, kind):
    lines = text.split("\n")
    j = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind in ("drop line", "repeat line"):
        lines[j:j + 1] = [] if kind == "drop line" else [lines[j]] * 2
        return "\n".join(lines)
    if kind == "id":
        lines[j] = re.sub(r"^\d*", lambda _: draw(st.sampled_from(NOT_IDS)), lines[j], count=1)
        return "\n".join(lines)
    line = lines[j]
    if kind == "tab":
        at = draw(st.integers(0, len(line)))
        lines[j] = line.replace("\t", " ", 1) if draw(st.booleans()) else line[:at] + "\t" + line[at:]
    elif kind == "quote":
        at = draw(st.integers(0, len(line)))
        lines[j] = line.replace('"', "", 1) if draw(st.booleans()) else line[:at] + '"' + line[at:]
    else:  # marker: drop, repeat, misspell or move one
        marker = draw(st.sampled_from(RAW_MARKERS))
        how = draw(st.sampled_from(["drop", "repeat", "misspell", "move"]))
        replacement = {"drop": "", "repeat": marker * 2, "misspell": marker.replace("e", "E"), "move": ""}[how]
        line = line.replace(marker, replacement, 1)
        if how == "move":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + marker + line[at:]
        lines[j] = line
    return "\n".join(lines)


RAW_MUTATIONS = ("truncate", "drop line", "repeat line", "tab", "quote", "marker", "id")


@settings(max_examples=200)
@given(semeval_raw_texts(), st.data())
def test_mutated_raw_semeval_is_refused_naming_where_or_valid(text, data):
    for kind in data.draw(st.lists(st.sampled_from(RAW_MUTATIONS), min_size=1, max_size=3)):
        text = _mutate_raw(data.draw, text, kind)
    try:
        sentences = parse_semeval_raw(text)
    except CorpusError as exc:
        assert re.match(r"(line|instance) \d+: ", str(exc)), str(exc)
    else:
        for sentence in sentences:
            sentence.validate()


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    corpus = build_toy_corpus()
    config = ModelConfig(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3, edge_mode="dref+ctef")
    model = Model(config, build_vocabs(corpus), build_dref_table(corpus, config.d_e), seed=3)
    path = tmp_path_factory.mktemp("checkpoint") / "model.ckpt"
    save_checkpoint(model, str(path))
    return path


@settings(max_examples=200)
@given(st.data())
def test_corrupt_checkpoint_is_refused_naming_the_file(saved_checkpoint, data):
    path = saved_checkpoint
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    # offsets anywhere, and as often in the magic, length prefix and header
    offsets = st.one_of(st.integers(0, len(blob) - 1), st.integers(0, 16 + header_len))
    kind = data.draw(st.sampled_from(["cut", "byte", "length"]))
    if kind == "cut":
        bad = blob[: data.draw(offsets)]
    elif kind == "byte":
        at = data.draw(offsets)
        bad = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1 :]
    else:
        lengths = st.one_of(st.integers(0, 2 * header_len + 64), st.integers(0, 2**64 - 1))
        stated = data.draw(lengths.filter(lambda n: n != header_len))
        bad = blob[:8] + struct.pack("<Q", stated) + blob[16:]
    corrupt = path.with_name("corrupt.ckpt")
    corrupt.write_bytes(bad)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(corrupt))
    assert str(corrupt) in str(err.value)


# ---------------------------------------------------------------------------
# Corrupt embedding files: every mutated record is refused with a
# FeatureError that starts with the path and names the record's line

NOT_INTEGERS = ("x", "", "1.5", "1e3", "0x1", "--1", "nan")
NOT_NUMBERS = ("x", "", "1,5", "0x1", "--1", "1e", ".", "1.2.3")
NOT_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999")


@st.composite
def vectors_texts(draw):
    """A valid vectors file, as (dim, lines): ids 0.., each with a few tokens."""
    dim = draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    lines = [
        f"{instance}\t{token}\t{' '.join(draw(st.lists(values, min_size=dim, max_size=dim)))}"
        for instance in range(draw(st.integers(1, 3)))
        for token in range(draw(st.integers(1, 3)))
    ]
    return dim, lines


@settings(max_examples=150)
@given(vectors_texts(), st.data())
def test_corrupt_embedding_file_is_refused_naming_the_line(drawn, data):
    dim, lines = drawn
    path = "vectors.tsv"
    at = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[at].split("\t")
    values = fields[2].split(" ")
    kind = data.draw(st.sampled_from(
        ["truncate", "drop field", "repeat field", "drop value", "repeat value", "index", "value", "non-finite"]
    ))
    if kind == "truncate":
        # keep at least one character and lose at least the whole last value
        bad = lines[at][: data.draw(st.integers(1, len(lines[at]) - len(values[-1]) - 1))]
    elif kind in ("drop field", "repeat field"):
        i = data.draw(st.integers(0, 2))
        fields[i:i + 1] = [] if kind == "drop field" else [fields[i]] * 2
        bad = "\t".join(fields)
    else:
        i = data.draw(st.integers(0, dim - 1))
        if kind in ("drop value", "repeat value"):
            values[i:i + 1] = [] if kind == "drop value" else [values[i]] * 2
        elif kind == "index":
            fields[1] = data.draw(st.sampled_from(NOT_INTEGERS))
        else:
            values[i] = data.draw(st.sampled_from(NOT_NUMBERS if kind == "value" else NOT_FINITE))
        bad = "\t".join([*fields[:2], " ".join(values)])
    text = "\n".join([*lines[:at], bad, *lines[at + 1:]]) + "\n"
    with pytest.raises(FeatureError) as err:
        FileEmbeddingProvider(text, dim, path)
    assert str(err.value).startswith(f"{path}: embedding file line {at + 1}: ")
