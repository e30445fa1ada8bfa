"""Corpus ingestion: raw marked-up format, annotated CoNLL-U, vocabularies."""

import os

import pytest

from relgat.corpus import (
    CorpusError,
    EntitySpan,
    LABEL_INDEX,
    LABELS,
    RelationLabel,
    Sentence,
    Token,
    Vocab,
    build_vocabs,
    parse_conllu_annotated,
    parse_semeval_raw,
    to_conllu,
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
        # each block against its spelled-out token count, spans and label
        for text, count, e1, e2, label in (
            (RAW_INSTANCE, 6, (1, 1), (4, 4), RelationLabel("Cause-Effect", "e1,e2")),
            (
                '2\t"A <e2>boy</e2> kicked the <e1>ball</e1> hard."\nProduct-Producer(e2,e1)\n\n',
                7, (4, 4), (1, 1), RelationLabel("Product-Producer", "e2,e1"),
            ),
            (
                '3\t"<e1>Water</e1> filled the <e2>tank</e2>!"\nEntity-Destination(e1,e2)\n\n',
                5, (0, 0), (3, 3), RelationLabel("Entity-Destination", "e1,e2"),
            ),
        ):
            (s,) = parse_semeval_raw(text)
            assert len(s) == count
            assert (s.e1.start, s.e1.end) == e1
            assert (s.e2.start, s.e2.end) == e2
            assert s.label == label


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

    @pytest.mark.parametrize("edits,message", [
        # HEAD > n is known only at the block's end, yet an earlier row's fault wins
        ([("2\tpollen\t_\tNOUN\t_\t_\t3", "2\tpollen\t_\tNOUN\t_\t_\t9"), ("5\tallergy", "x\tallergy")],
         "instance 1: HEAD 9 out of range at line 6"),
        ([("2\tpollen", "x\tpollen"), ("5\tallergy\t_\tNOUN\t_\t_\t3", "5\tallergy\t_\tNOUN\t_\t_\t9")],
         "line 6: non-integer ID or HEAD"),
        ([("4\tthe\t_\tDET\t_\t_\t5", "4\tthe\t_\tDET\t_\t_\t7"), ("6\t.\t_\tPUNCT\t_\t_\t3", "6\t.\t_\tPUNCT\t_\t_\t-1")],
         "instance 1: HEAD 7 out of range at line 8"),
        ([("3\tcauses", "4\tcauses"), ("5\tallergy\t_\tNOUN\t_\t_\t3", "5\tallergy\t_\tNOUN\t_\t_\t9")],
         "instance 1: non-contiguous token IDs at line 7"),
    ], ids=["head-past-n-then-bad-id", "bad-id-then-head-past-n", "head-past-n-then-negative-head", "id-gap-then-head-past-n"])
    def test_row_faults_are_reported_in_row_order(self, edits, message):
        text = POLLEN_CONLLU
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert str(err.value) == message

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

    def test_id_of_more_digits_than_int_converts_names_its_line(self):
        # as the raw reader does, not a bare ValueError from int()
        text = "# text = x\n" + POLLEN_CONLLU.replace("# id = 1\n", "# id = " + "9" * 5000 + "\n", 1)
        with pytest.raises(CorpusError) as err:
            parse_conllu_annotated(text)
        assert str(err.value) == "line 2: instance id of 5000 digits"

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

    def test_hand_built_head_cycle_fails_validate(self):
        # 0 -> 2 -> 1 -> 0 under the root 3: one root, every head in range
        heads = [2, 0, 1, None]
        tokens = [Token(i, w, "X", "_", "dep", h) for i, (w, h) in enumerate(zip("abcr", heads))]
        sentence = Sentence(tokens, EntitySpan(0, 0), EntitySpan(3, 3), instance_id=8)
        with pytest.raises(CorpusError) as err:
            sentence.validate()
        message = str(err.value)
        assert message.startswith("instance 8: head cycle involving token ")
        assert int(message.rsplit(" ", 1)[1]) in (0, 1, 2)

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

    @pytest.mark.parametrize("heads", [[-1, 0], [None, 2], [1, None, -3]])
    def test_to_conllu_refuses_a_head_outside_the_sentence(self, heads):
        # written as is, a head of -1 reads back as HEAD 0, the root: [-1, 0] would become a tree
        tokens = [Token(i, f"w{i}", "X", "_", "dep", h) for i, h in enumerate(heads)]
        sentence = Sentence(tokens, EntitySpan(0, 0), EntitySpan(1, 1), instance_id=8)
        bad = next(i for i, h in enumerate(heads) if h is not None and not 0 <= h < len(heads))
        with pytest.raises(CorpusError, match=f"^instance 8: token {bad} head {heads[bad]} out of range$"):
            to_conllu(sentence)

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
        assert len(LABELS) == 19
        assert len(set(LABELS)) == 19
        assert str(LABELS[-1]) == "Other"
        for label in LABELS:
            assert RelationLabel.parse(str(label)) == label

    def test_labels_constant_is_the_logit_order(self):
        # the logit columns: each base in both directions, (e1,e2) first, then Other
        assert [str(label) for label in LABELS] == [
            "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)",
            "Component-Whole(e1,e2)", "Component-Whole(e2,e1)",
            "Content-Container(e1,e2)", "Content-Container(e2,e1)",
            "Entity-Destination(e1,e2)", "Entity-Destination(e2,e1)",
            "Entity-Origin(e1,e2)", "Entity-Origin(e2,e1)",
            "Instrument-Agency(e1,e2)", "Instrument-Agency(e2,e1)",
            "Member-Collection(e1,e2)", "Member-Collection(e2,e1)",
            "Message-Topic(e1,e2)", "Message-Topic(e2,e1)",
            "Product-Producer(e1,e2)", "Product-Producer(e2,e1)",
            "Other",
        ]
        assert LABEL_INDEX == {label: i for i, label in enumerate(LABELS)}

    @pytest.mark.parametrize("text, index", [
        (" Other ", 18), ("Cause-Effect(e1,e2)\r\n", 0), ("\tMessage-Topic(e2,e1)", 15),
    ])
    def test_parse_ignores_surrounding_whitespace(self, text, index):
        assert RelationLabel.parse(text) == LABELS[index]

    @pytest.mark.parametrize("text", [
        "other", "Other(e1,e2)", "Cause-Effect", "Cause-Effect(e1,e3)", "Cause-Effect (e1,e2)",
        "cause-effect(e1,e2)", "Foo(e1,e2)", "Cause-Effect(e1,e2)x", "",
    ])
    def test_parse_refuses_any_other_spelling(self, text):
        with pytest.raises(CorpusError) as err:
            RelationLabel.parse(f" {text} ")
        assert str(err.value) == f"unknown relation label {text!r}"

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

    def test_frozen_vocab_never_allocates(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        before = len(vocabs.pos)
        vocabs.pos.index("BRAND-NEW")
        assert len(vocabs.pos) == before

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocabs([])

    def test_vocab_roundtrip_preserves_order(self, toy_corpus):
        vocabs = build_vocabs(toy_corpus)
        clone = Vocab(vocabs.pos.symbols())
        assert clone.symbols() == vocabs.pos.symbols()
        assert [clone.index(s) for s in clone.symbols()] == [vocabs.pos.index(s) for s in vocabs.pos.symbols()]

    def test_symbols_are_numbered_from_one(self):
        vocab = Vocab(["NOUN", "VERB", "NOUN"])
        assert vocab.symbols() == ["NOUN", "VERB"]
        assert [vocab.index(s) for s in ("NOUN", "VERB", "X", None)] == [1, 2, Vocab.UNK, Vocab.UNK]
        assert len(vocab) == 3

    def test_no_symbol_spells_the_unk(self):
        # a corpus symbol spelled "<unk>" owns a row of its own, apart from unseen symbols
        vocab = Vocab(["<unk>", "X"])
        assert len(vocab) == 3
        assert vocab.index("<unk>") == 1 and vocab.index("X") == 2
        assert vocab.index("unseen") == Vocab.UNK


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
