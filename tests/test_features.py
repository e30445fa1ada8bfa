"""Edge features, frequency tables, token encodings, providers."""

from collections import Counter

import numpy as np
import pytest

from relgat import numerics as nm
from relgat.corpus import build_vocabs, parse_conllu_annotated
from relgat.features import (
    DrefTable,
    FeatureError,
    FeatureEmbeddings,
    FileEmbeddingProvider,
    HashedEmbeddingProvider,
    attention_pairs,
    build_dref_table,
    ctef_edge_features,
    dref_edge_features,
    edge_features,
    encode_tokens,
)
from relgat.graph import SubGraph, sentence_subgraphs
from conftest import build_structure_corpus, build_toy_corpus, conllu_block


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
        assert table.ratio[("NOUN", "VERB", "nsubj")] == pytest.approx(2 / 3)
        assert table.ratio[("VERB", "ADP", "prep")] == pytest.approx(1 / 3)

    def test_ratios_sum_to_one(self, toy_corpus):
        table = build_dref_table(toy_corpus, d_e=4)
        assert abs(sum(table.ratio.values()) - 1.0) < 1e-9

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
        for triple, count in recount.items():
            assert table.ratio[triple] == pytest.approx(count / table.total, abs=1e-12)
        assert abs(sum(table.ratio.values()) - 1.0) < 1e-9

    def test_rebuild_is_identical(self, toy_corpus):
        a = build_dref_table(toy_corpus, d_e=4)
        b = build_dref_table(toy_corpus, d_e=4)
        assert a.counts == b.counts
        assert a.row == b.row
        assert a.ratio == b.ratio

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


def dref_row(sg, sentence, table, i, j):
    _, pairs = attention_pairs(sg)
    rows, _ = dref_edge_features(sg, sentence, pairs, table)
    return rows[pair_row(pairs, i, j)]


def ctef_flags(sentence, sg):
    _, pairs = attention_pairs(sg)
    return pairs, ctef_edge_features(sg, sentence.e1, sentence.e2, pairs)


class TestAttentionPairs:
    def test_closed_neighborhoods_grouped_by_center(self):
        adjacency = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        sg = SubGraph("sdp", [0, 1, 2, 3], adjacency)
        starts, pairs = attention_pairs(sg)
        assert pairs.tolist() == [
            [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 3], [2, 0], [2, 2], [3, 1], [3, 3],
        ]
        assert starts.tolist() == [0, 3, 6, 8]


class TestDrefAssignment:
    def test_known_triple_uses_its_row(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sgs = sentence_subgraphs(s)
        # sdp vertices: core(0) hums(2); 'hums' is an nsubj of 'core'
        i = sgs.sdp.local(0)
        j = sgs.sdp.local(2)
        assert dref_row(sgs.sdp, s, table, i, j) == table.row[("NOUN", "VERB", "nsubj")]

    def test_reversed_orientation_unseen_maps_to_unk(self):
        (s,) = triple_sentence()
        table = build_dref_table([s], d_e=4)
        sgs = sentence_subgraphs(s)
        i = sgs.sdp.local(2)  # verb attending to its noun head: (VERB, NOUN, nsubj)
        j = sgs.sdp.local(0)
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
        _, pairs = attention_pairs(sdp)
        _, ratios = dref_edge_features(sdp, s, pairs, table)
        i, j = sdp.local(0), sdp.local(2)
        assert ratios[pair_row(pairs, i, j)] == pytest.approx(2 / 3)
        assert ratios[pair_row(pairs, i, i)] == 1.0

    def test_unseen_pos_pair_at_test_time(self):
        train = build_toy_corpus()
        table = build_dref_table(train, d_e=4)
        rows = [("gleam", "ADJ", 2, "amod"), ("shard", "NOUN", 0, "root"), ("fell", "VERB", 2, "acl")]
        (test_sentence,) = parse_conllu_annotated(conllu_block(0, rows, (0, 0), (2, 2)))
        sgs = sentence_subgraphs(test_sentence)
        _, pairs = attention_pairs(sgs.sdp)
        dref_rows, _ = dref_edge_features(sgs.sdp, test_sentence, pairs, table)
        off_diagonal = dref_rows[pairs[:, 0] != pairs[:, 1]]
        assert off_diagonal.size and np.all(off_diagonal == DrefTable.UNK_ROW)

    def test_defined_for_every_attention_pair(self, toy_corpus):
        table = build_dref_table(toy_corpus, d_e=4)
        s = toy_corpus[0]
        for sg in sentence_subgraphs(s).all():
            _, pairs = attention_pairs(sg)
            rows, ratios = dref_edge_features(sg, s, pairs, table)
            assert rows.shape == ratios.shape == (len(pairs),)
            assert np.all((rows >= 0) & (rows < table.num_rows))

    def test_non_tree_edge_rejected(self, pollen_sentence):
        table = build_dref_table([pollen_sentence], d_e=4)
        # claim an edge between 'The'(0) and 'causes'(2), absent from the parse
        fake = SubGraph("sdp", [0, 2], np.array([[0, 1], [1, 0]]))
        _, pairs = attention_pairs(fake)
        with pytest.raises(FeatureError) as err:
            dref_edge_features(fake, pollen_sentence, pairs, table)
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
            if not s.entity_token(t.index):
                t.surface = t.surface.upper()
                t.pos = "X"
        _, after = ctef_flags(s, sdp)
        np.testing.assert_array_equal(before, after)


class TestEdgeFeatureDispatch:
    def test_none_mode_returns_none(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        _, pairs = attention_pairs(sdp)
        assert edge_features([(pollen_sentence, sdp)], [pairs], "none", 4) is None

    def test_combined_mode_sums_both(self, pollen_sentence):
        s = pollen_sentence
        table = build_dref_table([s], d_e=4)
        sdp = sentence_subgraphs(s).sdp
        _, pairs = attention_pairs(sdp)
        values = np.arange(table.num_rows * 4, dtype=np.float64).reshape(-1, 4)
        node = edge_features([(s, sdp)], [pairs], "dref+ctef", 4, table, nm.constant(values))
        assert node.shape == (len(pairs), 4)
        k = pair_row(pairs, 1, 0)
        rows, _ = dref_edge_features(sdp, s, pairs, table)
        np.testing.assert_array_equal(node.value[k], values[rows[k]] + np.ones(4))

    def test_units_stack_in_order(self, pollen_sentence, fig_example_sentence):
        units = [(s, sg) for s in (pollen_sentence, fig_example_sentence)
                 for sg in sentence_subgraphs(s).all()]
        table = build_dref_table([s for s, _ in units[::3]], d_e=4)
        values = np.arange(table.num_rows * 4, dtype=np.float64).reshape(-1, 4)
        pairs = [attention_pairs(sg)[1] for _, sg in units]
        node = edge_features(units, pairs, "dref+ctef", 4, table, nm.constant(values), True)
        bounds = np.cumsum([0] + [len(p) for p in pairs])
        for (s, sg), p, lo, hi in zip(units, pairs, bounds[:-1], bounds[1:]):
            alone = edge_features([(s, sg)], [p], "dref+ctef", 4, table, nm.constant(values), True)
            np.testing.assert_array_equal(node.value[lo:hi], alone.value)

    def test_dref_mode_requires_table(self, pollen_sentence):
        sdp = sentence_subgraphs(pollen_sentence).sdp
        _, pairs = attention_pairs(sdp)
        with pytest.raises(FeatureError):
            edge_features([(pollen_sentence, sdp)], [pairs], "dref", 4, None)


def encoded(sentences, provider, emb):
    """The input rows ``encode_tokens`` yields, its column blocks side by side."""
    blocks = encode_tokens(sentences, provider, emb)
    assert blocks[0].shape[1] == emb.d_ctx and not blocks[0].requires_grad
    return np.concatenate([b.value for b in blocks], axis=1)


class TestEncodeTokens:
    def test_default_dimension_is_898(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs)  # defaults: 768 + 3*40 + 10
        provider = HashedEmbeddingProvider(768, seed=0)
        s = toy_corpus[0]
        sdp = sentence_subgraphs(s).sdp
        x = encoded([(s, sdp.vertices)], provider, emb)
        assert x.shape == (len(sdp), 898)

    def test_dimension_constant_across_sentences(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=16, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(16, seed=0)
        widths = set()
        for s in toy_corpus:
            for sg in sentence_subgraphs(s).all():
                widths.add(encoded([(s, sg.vertices)], provider, emb).shape[1])
        assert widths == {emb.input_dim}

    def test_word_type_block_marks_entities(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(8, seed=0)
        s = toy_corpus[0]
        sdp = sentence_subgraphs(s).sdp  # entity, verb, entity
        x = encoded([(s, sdp.vertices)], provider, emb)
        wt = x[:, -2:]
        np.testing.assert_array_equal(wt[0], emb.word_type.value[1])
        np.testing.assert_array_equal(wt[1], emb.word_type.value[0])

    def test_units_stack_in_order(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(8, seed=0)
        units = [(s, sg.vertices) for s in toy_corpus[:3] for sg in sentence_subgraphs(s).all()]
        stacked = encoded(units, provider, emb)
        alone = [encoded([unit], provider, emb) for unit in units]
        np.testing.assert_array_equal(stacked, np.concatenate(alone))

    def test_fallback_provider_deterministic(self, toy_corpus):
        s = toy_corpus[0]
        a = HashedEmbeddingProvider(32, seed=5).vectors(s)
        b = HashedEmbeddingProvider(32, seed=5).vectors(s)
        np.testing.assert_array_equal(a, b)
        c = HashedEmbeddingProvider(32, seed=6).vectors(s)
        assert not np.array_equal(a, c)

    def test_same_surface_same_vector(self, toy_corpus):
        provider = HashedEmbeddingProvider(32, seed=0)
        s = toy_corpus[0]  # two 'the' tokens
        vecs = provider.vectors(s)
        np.testing.assert_array_equal(vecs[0], vecs[3])

    def test_provider_dimension_checked(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        emb = FeatureEmbeddings(vocabs, d_ctx=8, d_f=3, d_wt=2)
        provider = HashedEmbeddingProvider(16, seed=0)
        s = toy_corpus[0]
        with pytest.raises(FeatureError):
            encode_tokens([(s, sentence_subgraphs(s).sdp.vertices)], provider, emb)


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
        vecs = provider.vectors(pollen_sentence)
        assert vecs.shape == (len(pollen_sentence), 6)

    def test_missing_vector_names_instance_and_token(self, pollen_sentence):
        text = self.make_text(pollen_sentence, 6)
        kept = "\n".join(text.split("\n")[:-3]) + "\n"  # drop the last two tokens
        provider = FileEmbeddingProvider(kept, dim=6)
        with pytest.raises(FeatureError) as err:
            provider.vectors(pollen_sentence)
        assert str(pollen_sentence.instance_id) in str(err.value)
        assert "token 4" in str(err.value)

    def test_missing_vector_error_starts_with_path(self, pollen_sentence, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text(self.make_text(pollen_sentence, 6).split("\n")[0] + "\n", encoding="utf-8")
        provider = FileEmbeddingProvider.from_path(str(path), dim=6)
        with pytest.raises(FeatureError) as err:
            provider.vectors(pollen_sentence)
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
            FileEmbeddingProvider.from_path(str(path), dim=2)
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
            FileEmbeddingProvider.from_path(str(path), dim=3)
        assert str(err.value).startswith(f"{path}: ") and "line 3" in str(err.value)
