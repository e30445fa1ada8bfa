"""Corpus ingestion: raw marked-up format, annotated CoNLL-U, vocabularies."""

import os

import pytest

from relgat.corpus import (
    CorpusError,
    RelationLabel,
    Vocab,
    all_labels,
    build_vocabs,
    parse_conllu_annotated,
    parse_semeval_raw,
    to_conllu,
    to_semeval_raw,
)
from conftest import POLLEN_CONLLU, conllu_block

RAW_INSTANCE = '1\t"The <e1>pollen</e1> causes the <e2>allergy</e2>."\nCause-Effect(e1,e2)\nComment:\n\n'


class TestRawFormat:
    def test_marked_tokens_and_label(self):
        (s,) = parse_semeval_raw(RAW_INSTANCE)
        assert [t.surface for t in s.tokens] == ["The", "pollen", "causes", "the", "allergy", "."]
        assert (s.e1.start, s.e1.end) == (1, 1)
        assert (s.e2.start, s.e2.end) == (4, 4)
        assert s.label == RelationLabel("Cause-Effect", "e1,e2")
        assert s.instance_id == 1

    def test_other_label(self):
        text = '4\t"<e1>Ice</e1> near the <e2>door</e2> melted."\nOther\n\n'
        (s,) = parse_semeval_raw(text)
        assert s.label == RelationLabel("Other", None)
        assert s.label.direction is None

    def test_missing_close_marker_names_instance(self):
        text = '42\t"The <e1>pollen</e1> causes the <e2>allergy."\nCause-Effect(e1,e2)\n\n'
        with pytest.raises(CorpusError) as err:
            parse_semeval_raw(text)
        assert "42" in str(err.value)
        assert "</e2>" in str(err.value)

    def test_unknown_label_rejected(self):
        text = '7\t"<e1>a</e1> b <e2>c</e2>"\nMade-Up(e1,e2)\n\n'
        with pytest.raises(CorpusError) as err:
            parse_semeval_raw(text)
        assert "7" in str(err.value)

    def test_missing_blank_separator(self):
        # instance 2 follows instance 1's comment without a blank line
        text = (
            '1\t"<e1>a</e1> and <e2>b</e2>"\nOther\nComment:\n'
            '2\t"<e1>c</e1> and <e2>d</e2>"\nOther\n\n'
        )
        with pytest.raises(CorpusError) as err:
            parse_semeval_raw(text)
        assert "separator" in str(err.value)

    def test_multiword_entity_span(self):
        text = '9\t"The <e1>solar panel array</e1> powers the <e2>pump</e2>."\nInstrument-Agency(e2,e1)\n\n'
        (s,) = parse_semeval_raw(text)
        assert [t.surface for t in s.tokens[s.e1.start : s.e1.end + 1]] == ["solar", "panel", "array"]

    def test_markers_inside_punctuation(self):
        text = '3\t"(<e1>salt</e1>,<e2>water</e2>)"\nOther\n\n'
        (s,) = parse_semeval_raw(text)
        assert s.tokens[s.e1.start].surface == "salt"
        assert s.tokens[s.e2.start].surface == "water"

    def test_roundtrip_preserves_tokens_spans_label(self):
        for text in (
            RAW_INSTANCE,
            '2\t"A <e2>boy</e2> kicked the <e1>ball</e1> hard."\nProduct-Producer(e2,e1)\n\n',
            '3\t"<e1>Water</e1> filled the <e2>tank</e2>!"\nEntity-Destination(e1,e2)\n\n',
        ):
            (s,) = parse_semeval_raw(text)
            (back,) = parse_semeval_raw(to_semeval_raw(s))
            assert len(back) == len(s)
            assert (back.e1.start, back.e1.end) == (s.e1.start, s.e1.end)
            assert (back.e2.start, back.e2.end) == (s.e2.start, s.e2.end)
            assert back.label == s.label


class TestConlluFormat:
    def test_small_block_single_token_spans(self):
        text = conllu_block(
            0,
            [("a", "DET", 2, "det"), ("cat", "NOUN", 0, "root"), ("sat", "VERB", 2, "acl"), ("down", "ADV", 3, "advmod")],
            (0, 0),
            (3, 3),
            "Other",
        )
        (s,) = parse_conllu_annotated(text)
        assert len(s) == 4
        assert (s.e1.start, s.e1.end) == (0, 0)
        assert (s.e2.start, s.e2.end) == (3, 3)

    def test_head_zero_becomes_root(self):
        (s,) = parse_conllu_annotated(POLLEN_CONLLU)
        assert s.tokens[2].head is None
        assert all(t.head is not None for t in s.tokens if t.index != 2)

    def test_multiple_roots_rejected(self):
        text = conllu_block(0, [("a", "X", 0, "root"), ("b", "X", 0, "root")], (0, 0), (1, 1))
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert "multiple roots" in str(err.value)

    def test_non_contiguous_ids_rejected(self):
        text = POLLEN_CONLLU.replace("4\tthe", "5\tthe", 1)
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert "non-contiguous" in str(err.value)

    def test_head_out_of_range_rejected(self):
        text = POLLEN_CONLLU.replace("\t2\tdet", "\t9\tdet", 1)
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert "out of range" in str(err.value)

    def test_missing_entity_comment_rejected(self):
        text = POLLEN_CONLLU.replace("# e2 = 4 4\n", "")
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert "e2" in str(err.value)

    @pytest.mark.parametrize("name,comment", [("e1", "# e1 = 1 1"), ("e2", "# e2 = 4 4")])
    def test_reversed_entity_comment_names_instance(self, name, comment):
        assert comment in POLLEN_CONLLU
        text = POLLEN_CONLLU.replace(comment, f"# {name} = 3 1")
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert "instance 1" in str(err.value)
        assert f"{name} span 3..1 is reversed" in str(err.value)

    @pytest.mark.parametrize("key,value,first", [
        ("id", "9", 1), ("e1", "2 2", 2), ("e2", "5 5", 3), ("label", "Other", 4),
    ])
    def test_repeated_comment_names_instance_and_line(self, key, value, first):
        # a second value at line 5, after the block's four comments
        text = POLLEN_CONLLU.replace("1\tThe", f"# {key} = {value}\n1\tThe", 1)
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert str(err.value) == f"instance 1: repeated '# {key}' comment at line 5 (first at line {first})"

    def test_other_comments_may_repeat(self):
        text = POLLEN_CONLLU.replace("1\tThe", "# text = a\n# text = b\n1\tThe", 1)
        (s,) = parse_conllu_annotated(text)
        assert (s.instance_id, s.e1.start, s.e2.start) == (1, 1, 4)

    def test_single_token_sentence_rejected(self):
        text = "# e1 = 0 0\n# e2 = 0 0\n1\tword\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(CorpusError):
            parse_conllu_annotated(text)

    def test_head_cycle_rejected(self):
        rows = [("a", "X", 3, "dep"), ("b", "X", 1, "dep"), ("c", "X", 2, "dep"), ("r", "X", 0, "root")]
        with pytest.raises(CorpusError):
            parse_conllu_annotated(conllu_block(0, rows, (0, 0), (1, 1)))

    def test_ner_parsed_from_misc(self):
        (s,) = parse_conllu_annotated(POLLEN_CONLLU)
        assert s.tokens[1].ner == "THING"
        assert s.tokens[0].ner == "_"

    def test_label_comment_optional(self):
        text = POLLEN_CONLLU.replace("# label = Cause-Effect(e1,e2)\n", "")
        (s,) = parse_conllu_annotated(text)
        assert s.label is None

    def test_roundtrip_conllu(self, toy_corpus):
        for s in toy_corpus:
            (back,) = parse_conllu_annotated(to_conllu(s))
            assert len(back) == len(s)
            assert (back.e1.start, back.e1.end, back.e1.head_token) == (s.e1.start, s.e1.end, s.e1.head_token)
            assert (back.e2.start, back.e2.end, back.e2.head_token) == (s.e2.start, s.e2.end, s.e2.head_token)
            assert back.label == s.label
            assert [t.pos for t in back.tokens] == [t.pos for t in s.tokens]

    def test_entity_head_token_prefers_outside_pointer(self):
        # span covers tokens 1..2; token 1 heads inside the span, token 2 outside
        rows = [
            ("the", "DET", 3, "det"),
            ("steel", "NOUN", 3, "compound"),
            ("beam", "NOUN", 4, "nsubj"),
            ("bent", "VERB", 0, "root"),
        ]
        (s,) = parse_conllu_annotated(conllu_block(0, rows, (1, 2), (3, 3)))
        assert s.e1.head_token == 2

    def test_head_pointers_terminate_at_root(self, toy_corpus):
        for s in toy_corpus:
            for t in s.tokens:
                steps = 0
                head = t.head
                while head is not None:
                    head = s.tokens[head].head
                    steps += 1
                assert steps <= len(s)


class TestLabels:
    def test_label_space_has_19_members(self):
        labels = all_labels()
        assert len(labels) == 19
        assert len(set(labels)) == 19
        assert labels[-1] == "Other"
        for name in labels:
            assert str(RelationLabel.parse(name)) == name

    def test_direction_none_iff_other(self):
        with pytest.raises(CorpusError):
            RelationLabel("Other", "e1,e2")
        with pytest.raises(CorpusError):
            RelationLabel("Cause-Effect", None)


class TestVocabs:
    def test_sizes_count_unk(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        # toy corpus uses DET/NOUN/VERB/PUNCT
        assert len(vocabs.pos) == 5
        assert vocabs.pos.index("NOUN") > 0

    def test_two_tag_corpus_gives_size_three(self):
        text = conllu_block(0, [("a", "NOUN", 2, "nsubj"), ("b", "VERB", 0, "root")], (0, 0), (1, 1))
        vocabs = build_vocabs(parse_conllu_annotated(text))
        assert len(vocabs.pos) == 3

    def test_unseen_symbol_maps_to_unk(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        assert vocabs.pos.index("X") == Vocab.UNK
        assert vocabs.deprel.index("obl") == Vocab.UNK

    def test_label_vocab_fixed_at_19(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        assert len(vocabs.label) == 19
        assert not vocabs.label.has_unk

    def test_frozen_vocab_never_allocates(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        before = len(vocabs.pos)
        vocabs.pos.index("BRAND-NEW")
        assert len(vocabs.pos) == before
        with pytest.raises(CorpusError):
            vocabs.pos.add("BRAND-NEW")

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocabs([])

    def test_vocab_roundtrip_preserves_order(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        clone = Vocab.from_symbols(vocabs.pos.symbols(), vocabs.pos.has_unk)
        assert clone.symbols() == vocabs.pos.symbols()


OFFICIAL_TRAIN = "data/TRAIN_FILE.TXT"
OFFICIAL_TEST = "data/TEST_FILE_FULL.TXT"


@pytest.mark.skipif(not os.path.exists(OFFICIAL_TRAIN), reason="official dataset not present")
def test_official_train_count():
    with open(OFFICIAL_TRAIN, encoding="utf-8") as f:
        assert len(parse_semeval_raw(f.read())) == 8000


@pytest.mark.skipif(not os.path.exists(OFFICIAL_TEST), reason="official dataset not present")
def test_official_test_count():
    with open(OFFICIAL_TEST, encoding="utf-8") as f:
        assert len(parse_semeval_raw(f.read())) == 2717
