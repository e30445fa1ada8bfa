"""Edge features, frequency tables, token encodings, providers."""

from collections import Counter

import numpy as np
import pytest

from relgat import numerics as nm
from relgat.corpus import EntitySpan, Sentence, Token, Vocab, build_vocabs, parse_conllu_annotated
from relgat.features import (
    DrefTable,
    FeatureError,
    FeatureEmbeddings,
    FileEmbeddingProvider,
    HashedEmbeddingProvider,
    attention_pairs,
    build_dref_table,
    code_tokens,
    dref_edge_features,
    edge_features,
    encode_tokens,
)
from relgat.graph import SubGraph, batch_layout, sentence_subgraphs
from relgat.model import Model, ModelConfig
from conftest import build_structure_corpus, build_toy_corpus, conllu_block, dref_entries, entity_token


def triple_sentence():
    # tree edges: (NOUN,VERB,nsubj) twice and (VERB,ADP,prep) once
    rows = [
        ("core", "NOUN", 0, "root"),
        ("spins", "VERB", 1, "nsubj"),
        ("hums", "VERB", 1, "nsubj"),
        ("under", "ADP", 2, "prep"),
    ]
    return parse_conllu_annotated(conllu_block(0, rows, (0, 0), (2, 2)))


class TestDrefTable:
    def test_counting_example(self):
        table = build_dref_table(triple_sentence(), d_e=4)
        assert table.counts[("NOUN", "VERB", "nsubj")] == 2
        assert table.counts[("VERB", "ADP", "prep")] == 1
        entries = dref_entries(table)
        assert entries[("NOUN", "VERB", "nsubj")][1] == pytest.approx(2 / 3)
        assert entries[("VERB", "ADP", "prep")][1] == pytest.approx(1 / 3)

    def test_ratios_sum_to_one(self, toy_corpus):
        table = build_dref_table(toy_corpus, d_e=4)
        assert abs(sum(ratio for _, ratio in dref_entries(table).values()) - 1.0) < 1e-9

    def test_matches_independent_recount(self):
        corpus = build_structure_corpus(50, seed=3)
        table = build_dref_table(corpus, d_e=4)
        recount = Counter()
        for s in corpus:
            for t in s.tokens:
                if t.head is not None:
                    recount[(s.tokens[t.head].pos, t.pos, t.deprel)] += 1
        assert table.counts == dict(recount)
        assert table.total == sum(recount.values())
        entries = dref_entries(table)
        for triple, count in recount.items():
            assert entries[triple][1] == pytest.approx(count / table.total, abs=1e-12)
        assert abs(sum(ratio for _, ratio in entries.values()) - 1.0) < 1e-9

    def test_rebuild_is_identical(self, toy_corpus):
        a = build_dref_table(toy_corpus, d_e=4)
        b = build_dref_table(toy_corpus, d_e=4)
        assert a.counts == b.counts
        assert dref_entries(a) == dref_entries(b)

    def test_rows_by_index_equal_string_lookup(self):
        # every triple of vocabulary symbols finds the row that its strings
        # do; the table never saw a triple with the UNK symbol
        corpus = build_structure_corpus(30, seed=5)
        table = build_dref_table(corpus[:10], d_e=2)
        vocabs = build_vocabs(corpus)
        rows = table.rows_by_index(vocabs)
        # index 0 is the UNK, which spells no symbol
        pos, deprel = [None, *vocabs.pos.symbols()], [None, *vocabs.deprel.symbols()]
        assert rows.shape == (len(pos), len(pos), len(deprel))
        entries = dref_entries(table)
        for (h, d, r), row in np.ndenumerate(rows):
            assert row == entries.get((pos[h], pos[d], deprel[r]), (DrefTable.UNK_ROW, None))[0]
        assert rows[Vocab.UNK].max() == DrefTable.UNK_ROW

    def test_symbol_outside_the_vocabularies_rejected(self):
        # a hand-built sentence without a POS counts a triple with None in it
        (s,) = triple_sentence()
        vocabs = build_vocabs([s])
        s.tokens[3].pos = None
        table = build_dref_table([s], d_e=4)
        with pytest.raises(FeatureError, match=r"\('VERB', None, 'prep'\)"):
            table.rows_by_index(vocabs)
        config = ModelConfig(d_ctx=4, d_f=2, d_wt=2, d_lstm=2, d_g=2, heads=1, d_e=4, edge_mode="dref")
        with pytest.raises(FeatureError, match="vocabularies lack"):
            Model(config, vocabs, table)

    def test_empty_corpus_rejected(self):
        with pytest.raises(FeatureError):
            build_dref_table([], d_e=4)

    def test_json_dict(self):
        table = build_dref_table(triple_sentence(), d_e=4)
        payload = table.to_json_dict()
        assert payload["NOUN|VERB|nsubj"]["count"] == 2


def pair_row(pairs, i, j):
    """Position of attention pair (i, j) in the flat pair layout."""
    (k,) = np.flatnonzero((pairs[:, 0] == i) & (pairs[:, 1] == j))
    return k


def unit_layout(sentence, sg, vocabs=None):
    """One sub-graph as a batch: its token codes, their token rows, its pairs and their dependents.

    The vocabularies default to the sentence's own.
    """
    vocabs = vocabs or build_vocabs([sentence])
    _, pairs, dependents = attention_pairs(sg.edges, len(sg))
    return code_tokens([(sentence, sg.vertices)], vocabs), np.arange(len(sg)), pairs, dependents


def dref_rows(sentence, sg, table, vocabs=None):
    """The dref row of every pair of one sub-graph, and its pairs."""
    vocabs = vocabs or build_vocabs([sentence])
    layout = unit_layout(sentence, sg, vocabs)
    return dref_edge_features(*layout, table.rows_by_index(vocabs)), layout[2]


def dref_row(sg, sentence, table, i, j):
    rows, pairs = dref_rows(sentence, sg, table)
    return rows[pair_row(pairs, i, j)]


def ctef_flags(sentence, sg):
    layout = unit_layout(sentence, sg)
    return layout[2], edge_features(*layout, "ctef", 1).value[:, 0]


class TestAttentionPairs:
    def test_closed_neighborhoods_grouped_by_center(self):
        sg = SubGraph([0, 1, 2, 3], np.array([[0, 1], [0, 2], [1, 3]]))
        starts, pairs, dependents = attention_pairs(sg.edges, len(sg))
        assert pairs.tolist() == [
            [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 3], [2, 0], [2, 2], [3, 1], [3, 3],
        ]
        assert starts.tolist() == [0, 3, 6, 8]
        assert dependents.tolist() == [-1, 1, 2, 1, -1, 3, 2, -1, 3, -1]


class TestDrefAssignment:
    def test_known_triple_uses_its_row(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sgs = sentence_subgraphs(s)
        # sdp vertices: core(0) hums(2); 'hums' is an nsubj of 'core'
        i = sgs.sdp.vertices.index(0)
        j = sgs.sdp.vertices.index(2)
        assert dref_row(sgs.sdp, s, table, i, j) == dref_entries(table)[("NOUN", "VERB", "nsubj")][0]

    def test_reversed_orientation_unseen_maps_to_unk(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sgs = sentence_subgraphs(s)
        i = sgs.sdp.vertices.index(2)  # verb attending to its noun head: (VERB, NOUN, nsubj)
        j = sgs.sdp.vertices.index(0)
        assert dref_row(sgs.sdp, s, table, i, j) == DrefTable.UNK_ROW

    def test_self_loop_uses_dedicated_row(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sgs = sentence_subgraphs(s)
        assert dref_row(sgs.sdp, s, table, 0, 0) == DrefTable.SELF_ROW
        assert DrefTable.SELF_ROW != DrefTable.UNK_ROW

    def test_ratio_at_pair_position(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sdp = sentence_subgraphs(s).sdp
        rows, pairs = dref_rows(s, sdp, table)
        ratio_of_row = {row: ratio for row, ratio in dref_entries(table).values()}
        i, j = sdp.vertices.index(0), sdp.vertices.index(2)
        assert ratio_of_row[rows[pair_row(pairs, i, j)]] == pytest.approx(2 / 3)
        assert rows[pair_row(pairs, i, i)] == DrefTable.SELF_ROW

    def test_unseen_pos_pair_at_test_time(self):
        train = build_toy_corpus()
        table = build_dref_table(train, d_e=4)
        rows = [("gleam", "ADJ", 2, "amod"), ("shard", "NOUN", 0, "root"), ("fell", "VERB", 2, "acl")]
        (test_sentence,) = parse_conllu_annotated(conllu_block(0, rows, (0, 0), (2, 2)))
        sgs = sentence_subgraphs(test_sentence)
        # ADJ and acl are outside the training vocabularies: they code to UNK
        rows, pairs = dref_rows(test_sentence, sgs.sdp, table, build_vocabs(train))
        off_diagonal = rows[pairs[:, 0] != pairs[:, 1]]
        assert off_diagonal.size and np.all(off_diagonal == DrefTable.UNK_ROW)

    def test_defined_for_every_attention_pair(self, toy_corpus):
        table = build_dref_table(toy_corpus, d_e=4)
        s = toy_corpus[0]
        vocabs = build_vocabs(toy_corpus)
        for sg in sentence_subgraphs(s).all():
            rows, pairs = dref_rows(s, sg, table, vocabs)
            assert rows.shape == (len(pairs),)
            assert np.all((rows >= 0) & (rows < table.num_rows))

    def test_non_tree_edge_rejected(self, pollen_sentence):
        table = build_dref_table([pollen_sentence], d_e=4)
        # claim an edge between 'The'(0) and 'causes'(2), absent from the parse
        fake = SubGraph([0, 2], np.array([[0, 1]]))
        with pytest.raises(FeatureError) as err:
            dref_rows(pollen_sentence, fake, table)
        assert "not an edge" in str(err.value)


class TestCtefAssignment:
    def test_entity_source_gets_ones(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp  # pollen(1) causes(2) allergy(4): local 0,1,2
        pairs, flags = ctef_flags(pollen_sentence, sdp)
        # causes attends to pollen: source j is an entity token
        assert flags[pair_row(pairs, 1, 0)] == 1.0
        # pollen attends to causes: source is not an entity
        assert flags[pair_row(pairs, 0, 1)] == 0.0

    def test_direction_asymmetry_on_one_edge(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        pairs, flags = ctef_flags(pollen_sentence, sdp)
        assert flags[pair_row(pairs, 1, 0)] != flags[pair_row(pairs, 0, 1)]

    def test_entity_self_loop_gets_ones(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        pairs, flags = ctef_flags(pollen_sentence, sdp)
        assert flags[pair_row(pairs, 0, 0)] == 1.0
        assert flags[pair_row(pairs, 1, 1)] == 0.0

    def test_depends_only_on_source_entity_membership(self, pollen_sentence):
        # relabeling non-entity tokens must not change any flag
        s = pollen_sentence
        sdp = sentence_subgraphs(s).sdp
        _, before = ctef_flags(s, sdp)
        for t in s.tokens:
            if not entity_token(s, t.index):
                t.surface = t.surface.upper()
                t.pos = "X"
        _, after = ctef_flags(s, sdp)
        np.testing.assert_array_equal(before, after)


class TestEntityMask:
    # (tokens, e1, e2): adjacent spans, spans at both sentence ends, one-token spans
    SPANS = [
        (6, (1, 2), (3, 4)),
        (5, (0, 1), (3, 4)),
        (4, (0, 0), (3, 3)),
        (3, (1, 1), (2, 2)),
        (5, (3, 4), (0, 2)),
        (2, (0, 0), (1, 1)),
    ]

    @staticmethod
    def entity(layout):
        # the tokens carry no symbols, so any vocabularies code them
        return code_tokens(layout, build_vocabs(triple_sentence())).entity

    @staticmethod
    def layout(spans, seed=0):
        """Each sentence with all its tokens in order, then again with a shuffled subset."""
        rng = np.random.default_rng(seed)
        out = []
        for n, e1, e2 in spans:
            s = Sentence([Token(i, f"w{i}") for i in range(n)], EntitySpan(*e1), EntitySpan(*e2))
            out.append((s, list(range(n))))
            out.append((s, rng.permutation(n)[: rng.integers(1, n + 1)].tolist()))
        return out

    @pytest.mark.parametrize("spans", SPANS)
    def test_equals_per_token_lookup(self, spans):
        layout = self.layout([spans])
        want = [entity_token(s, i) for s, indices in layout for i in indices]
        got = self.entity(layout)
        assert got.dtype == bool and got.tolist() == want

    def test_batch_equals_per_token_lookup(self):
        layout = self.layout(self.SPANS, seed=4)
        want = [entity_token(s, i) for s, indices in layout for i in indices]
        assert self.entity(layout).tolist() == want
        assert self.entity([]).shape == (0,)


class TestCodeTokens:
    def test_equals_per_token_lookup(self):
        # the toy vocabularies lack ADP, prep and pobj: those code to UNK
        corpus = build_structure_corpus(12, seed=2)
        vocabs = build_vocabs(build_toy_corpus())
        rng = np.random.default_rng(1)
        layout = [(s, rng.permutation(len(s))[: rng.integers(1, len(s) + 1)].tolist()) for s in corpus]
        codes = code_tokens(layout, vocabs)
        tokens = [s.tokens[i] for s, indices in layout for i in indices]
        assert codes.pos.tolist() == [vocabs.pos.index(t.pos) for t in tokens]
        assert codes.deprel.tolist() == [vocabs.deprel.index(t.deprel) for t in tokens]
        assert codes.ner.tolist() == [vocabs.ner.index(t.ner) for t in tokens]
        assert codes.index.tolist() == [t.index for t in tokens]
        assert codes.head.tolist() == [-1 if t.head is None else t.head for t in tokens]
        assert Vocab.UNK in codes.pos.tolist() and Vocab.UNK in codes.deprel.tolist()


class TestEdgeFeatureDispatch:
    def test_none_mode_returns_none(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        assert edge_features(*unit_layout(pollen_sentence, sdp), "none", 4) is None

    def test_combined_mode_sums_both(self, pollen_sentence):
        s = pollen_sentence
        table = build_dref_table([s], d_e=4)
        sdp = sentence_subgraphs(s).sdp
        layout = unit_layout(s, sdp)
        pairs = layout[2]
        values = np.arange(table.num_rows * 4, dtype=np.float64).reshape(-1, 4)
        by_index = table.rows_by_index(build_vocabs([s]))
        node = edge_features(*layout, "dref+ctef", 4, by_index, nm.constant(values))
        assert node.shape == (len(pairs), 4)
        k = pair_row(pairs, 1, 0)
        rows = dref_edge_features(*layout, by_index)
        np.testing.assert_array_equal(node.value[k], values[rows[k]] + np.ones(4))

    def test_units_stack_in_order(self, pollen_sentence, fig_example_sentence):
        sentences = (pollen_sentence, fig_example_sentence)
        graph_sets = [sentence_subgraphs(s).all() for s in sentences]
        units = [(s, sg) for s, graphs in zip(sentences, graph_sets) for sg in graphs]
        table = build_dref_table(list(sentences), d_e=4)
        vocabs = build_vocabs(list(sentences))
        by_index = table.rows_by_index(vocabs)
        values = np.arange(table.num_rows * 4, dtype=np.float64).reshape(-1, 4)
        layout = batch_layout(list(sentences))
        _, pairs, dependents = attention_pairs(layout.edges, len(layout.token_rows))
        node = edge_features(
            code_tokens(list(zip(sentences, layout.tokens)), vocabs), layout.token_rows, pairs, dependents,
            "dref+ctef", 4, by_index, nm.constant(values),
        )
        bounds = np.cumsum([0] + [len(sg) + 2 * len(sg.edges) for _, sg in units])
        for (s, sg), lo, hi in zip(units, bounds[:-1], bounds[1:]):
            alone = edge_features(
                *unit_layout(s, sg, vocabs), "dref+ctef", 4, by_index, nm.constant(values)
            )
            np.testing.assert_array_equal(node.value[lo:hi], alone.value)

    def test_dref_mode_requires_table(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        with pytest.raises(FeatureError):
            edge_features(*unit_layout(pollen_sentence, sdp), "dref", 4, None)


def encoded(sentences, vocabs, provider, emb):
    """The input rows ``encode_tokens`` yields, its column blocks side by side."""
    blocks = encode_tokens(sentences, code_tokens(sentences, vocabs), provider, emb)
    assert blocks[0].shape[1] == emb.d_ctx and not blocks[0].requires_grad
    return np.concatenate([b.value for b in blocks], axis=1)


class TestEncodeTokens:
    def test_default_dimension_is_898(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs)  # defaults: 768 + 3*40 + 10
        provider = HashedEmbeddingProvider(768, seed=0)
        s = toy_corpus[0]
        sdp = sentence_subgraphs(s).sdp
        x = encoded([(s, sdp.vertices)], vocabs, provider, emb)
        assert x.shape == (len(sdp), 898)

    def test_dimension_constant_across_sentences(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=16, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(16, seed=0)
        widths = set()
        for s in toy_corpus:
            for sg in sentence_subgraphs(s).all():
                widths.add(encoded([(s, sg.vertices)], vocabs, provider, emb).shape[1])
        assert widths == {emb.input_dim}

    def test_word_type_block_marks_entities(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(8, seed=0)
        s = toy_corpus[0]
        sdp = sentence_subgraphs(s).sdp  # entity, verb, entity
        x = encoded([(s, sdp.vertices)], vocabs, provider, emb)
        wt = x[:, -2:]
        np.testing.assert_array_equal(wt[0], emb.word_type.value[1])
        np.testing.assert_array_equal(wt[1], emb.word_type.value[0])

    def test_units_stack_in_order(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(8, seed=0)
        units = [(s, sg.vertices) for s in toy_corpus[:3] for sg in sentence_subgraphs(s).all()]
        stacked = encoded(units, vocabs, provider, emb)
        alone = [encoded([unit], vocabs, provider, emb) for unit in units]
        np.testing.assert_array_equal(stacked, np.concatenate(alone))

    def test_fallback_provider_deterministic(self, toy_corpus):
        s = toy_corpus[0]
        a = HashedEmbeddingProvider(32, seed=5).vectors(s, range(len(s)))
        b = HashedEmbeddingProvider(32, seed=5).vectors(s, range(len(s)))
        np.testing.assert_array_equal(a, b)
        c = HashedEmbeddingProvider(32, seed=6).vectors(s, range(len(s)))
        assert not np.array_equal(a, c)

    def test_same_surface_same_vector(self, toy_corpus):
        provider = HashedEmbeddingProvider(32, seed=0)
        s = toy_corpus[0]  # two 'the' tokens
        vecs = provider.vectors(s, range(len(s)))
        np.testing.assert_array_equal(vecs[0], vecs[3])

    def test_hashed_rows_are_the_per_surface_draws(self):
        # the table's rows equal each surface's own draw, byte for byte: for a
        # surface repeated within and across calls, one first seen in the middle
        # of a call, and calls that grow the table past its first 64 rows
        words = [f"w{i}" for i in range(150)]
        calls = [
            ["a", "b", "a"],
            ["b", "new", "a", "new"],  # "new" first seen mid-call, then repeated
            words[:70],  # grows the table within one call
            ["a", *words[60:150], "new", words[3]],  # grows it again, between seen surfaces
        ]
        provider, fresh = HashedEmbeddingProvider(8, seed=3), HashedEmbeddingProvider(8, seed=3)
        for surfaces in calls:
            s = Sentence([Token(i, w) for i, w in enumerate(surfaces)], EntitySpan(0, 0), EntitySpan(1, 1))
            got = provider.vectors(s, range(len(s)))
            want = np.stack([fresh._draw(w) for w in surfaces])
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert len(provider._table) == 256

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hashed_rows_on_request_are_rows_of_the_whole_sentence(self, toy_corpus, dtype):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2, dtype=dtype)
        for s in toy_corpus[:4]:
            whole = HashedEmbeddingProvider(8, seed=2).vectors(s, range(len(s)))
            idx = [len(s) - 1, 0, 2, 0]
            got = HashedEmbeddingProvider(8, seed=2).vectors(s, idx)
            assert got.dtype == np.float64 and got.tobytes() == whole[idx].tobytes()
            layout = [(s, idx)]
            ctx = encode_tokens(layout, code_tokens(layout, vocabs), HashedEmbeddingProvider(8, seed=2), emb)[0]
            assert ctx.value.dtype == dtype and ctx.value.tobytes() == whole[idx].astype(dtype).tobytes()

    def test_provider_dimension_checked(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(16, seed=0)
        s = toy_corpus[0]
        layout = [(s, sentence_subgraphs(s).sdp.vertices)]
        with pytest.raises(FeatureError):
            encode_tokens(layout, code_tokens(layout, vocabs), provider, emb)


class TestFileProvider:
    def make_text(self, sentence, dim):
        rng = np.random.default_rng(0)
        lines = []
        for t in sentence.tokens:
            vec = " ".join(repr(float(x)) for x in rng.standard_normal(dim))
            lines.append(f"{sentence.instance_id}\t{t.index}\t{vec}")
        return "\n".join(lines) + "\n"

    def test_lookup_roundtrip(self, pollen_sentence):
        text = self.make_text(pollen_sentence, 6)
        provider = FileEmbeddingProvider(text, dim=6)
        vecs = provider.vectors(pollen_sentence, range(len(pollen_sentence)))
        assert vecs.shape == (len(pollen_sentence), 6)

    def test_missing_vector_names_instance_and_token(self, pollen_sentence):
        text = self.make_text(pollen_sentence, 6)
        kept = "\n".join(text.split("\n")[:-3]) + "\n"  # drop the last two tokens
        provider = FileEmbeddingProvider(kept, dim=6)
        with pytest.raises(FeatureError) as err:
            provider.vectors(pollen_sentence, [0])
        assert str(pollen_sentence.instance_id) in str(err.value)
        assert "token 4" in str(err.value)

    def test_missing_vector_message(self, pollen_sentence):
        text = self.make_text(pollen_sentence, 6)
        provider = FileEmbeddingProvider("\n".join(text.split("\n")[:-3]) + "\n", dim=6)
        with pytest.raises(FeatureError) as err:
            provider.vectors(pollen_sentence, [0, 1])
        assert str(err.value) == f"no precomputed vector for instance {pollen_sentence.instance_id} token 4"

    def test_vectors_are_the_file_rows_in_token_order(self, pollen_sentence):
        text = self.make_text(pollen_sentence, 6)
        want = [[float(x) for x in line.split("\t")[2].split()] for line in text.split("\n") if line]
        got = FileEmbeddingProvider(text, dim=6).vectors(pollen_sentence, range(len(pollen_sentence)))
        assert got.dtype == np.float64 and got.tolist() == want

    def test_missing_vector_error_starts_with_path(self, pollen_sentence, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text(self.make_text(pollen_sentence, 6).split("\n")[0] + "\n", encoding="utf-8")
        provider = FileEmbeddingProvider(path.read_text(encoding="utf-8"), 6, str(path))
        with pytest.raises(FeatureError) as err:
            provider.vectors(pollen_sentence, [0])
        assert str(err.value).startswith(f"{path}: no precomputed vector for instance")
        assert "token 1" in str(err.value)

    def test_second_record_for_a_token_names_both_lines(self, tmp_path):
        text = "7\t0\t1 2\n7\t1\t5 6\n\n7\t0\t3 4\n"
        with pytest.raises(FeatureError) as err:
            FileEmbeddingProvider(text, dim=2)
        message = "embedding file line 4: second vector for instance 7 token 0 (first at line 1)"
        assert str(err.value) == message
        path = tmp_path / "vectors.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FeatureError) as err:
            FileEmbeddingProvider(text, 2, str(path))
        assert str(err.value) == f"{path}: {message}"
        FileEmbeddingProvider("7\t0\t1 2\n8\t0\t3 4\n", dim=2)  # another instance's token 0

    def test_wrong_width_rejected(self):
        with pytest.raises(FeatureError):
            FileEmbeddingProvider("0\t0\t1.0 2.0\n", dim=3)

    @pytest.mark.parametrize("bad_line", [
        "0\t1\t1.0 abc 3.0",  # non-numeric value
        "0\t1\t1.0 2.0 3,5",  # decimal comma
        "0\tx\t1.0 2.0 3.0",  # non-numeric token index
        "0\t1.5\t1.0 2.0 3.0",  # fractional token index
        "0\t1\t1.0 nan 3.0",
        "0\t1\tinf 2.0 3.0",
        "0\t1\t1.0 2.0 -1e400",  # overflows to -inf
        "0\t1\t1.0 2.0",  # too few values
        "0\t1",  # too few fields
    ])
    def test_malformed_line_names_its_line(self, bad_line, tmp_path):
        text = "0\t0\t0.5 0.25 1e-3\n\n" + bad_line + "\n"
        with pytest.raises(FeatureError) as err:
            FileEmbeddingProvider(text, dim=3)
        assert "line 3" in str(err.value)
        path = tmp_path / "vectors.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FeatureError) as err:
            FileEmbeddingProvider(text, 3, str(path))
        assert str(err.value).startswith(f"{path}: ") and "line 3" in str(err.value)
