"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; timings are included where a criterion carries a budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from relgat import numerics as nm
from relgat.cli import main as cli_main
from relgat.corpus import (
    EntitySpan,
    RelationLabel,
    Sentence,
    Token,
    LABEL_INDEX,
    LABELS,
    build_vocabs,
    parse_conllu_annotated,
    to_conllu,
)
from relgat.features import (
    HashedEmbeddingProvider,
    build_dref_table,
)
from relgat.graph import (
    sentence_subgraphs,
    shortest_dependency_path,
)
from relgat.model import (
    GatLayer,
    Model,
    ModelConfig,
    compose_sentence,
    gat_attention,
    gat_vertex_update,
)
from relgat.train_eval import (
    TrainerConfig,
    ablation_sweep,
    score_predictions,
    train,
)
from conftest import (
    FIG_EXAMPLE_CONLLU,
    brute_force_path,
    build_structure_corpus,
    build_toy_corpus,
    dref_entries,
    laid_out,
    random_heads,
)


@contextmanager
def criterion(num, description):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {num:02d}] FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[ACCEPTANCE {num:02d}] PASS ({elapsed:.1f}s): {description}")


TINY = dict(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3)


def test_01_sdp_matches_brute_force_oracle():
    with criterion(1, "shortest path equals brute-force enumeration on 1000 random trees"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            heads = random_heads(rng, n)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            fast = shortest_dependency_path(heads, u, v)
            assert fast == brute_force_path(heads, u, v)
        assert time.monotonic() - started < 5.0


def test_02_worked_subgraph_fixture():
    with criterion(2, "worked-example parse yields the three expected vertex sets"):
        (s,) = parse_conllu_annotated(FIG_EXAMPLE_CONLLU)
        sgs = sentence_subgraphs(s)
        words = lambda sg: {s.tokens[v].surface for v in sg.vertices}
        assert words(sgs.sdp) == {"ridges", "uprises", "from", "surge"}
        assert words(sgs.e1) == {"ridges", "uprises"}
        assert words(sgs.e2) == {"surge", "from", "the"}


def _random_tree_sentence(rng):
    n = int(rng.integers(3, 10))
    heads = random_heads(rng, n)
    pos_pool = ["NOUN", "VERB", "ADP", "DET", "ADJ"]
    dep_pool = ["nsubj", "obj", "det", "prep", "amod", "root"]
    tokens = [
        Token(
            index=i,
            surface=f"w{i}",
            pos=str(rng.choice(pos_pool)),
            ner="_",
            deprel="root" if heads[i] is None else str(rng.choice(dep_pool[:-1])),
            head=heads[i],
        )
        for i in range(n)
    ]
    e1, e2 = (int(x) for x in rng.choice(n, size=2, replace=False))
    sentence = Sentence(
        tokens,
        EntitySpan(min(e1, e2), min(e1, e2)),
        EntitySpan(max(e1, e2), max(e1, e2)),
        RelationLabel("Other", None),
        instance_id=int(rng.integers(10**6)),
    )
    sentence.validate()
    return sentence


def test_03_attention_and_pooling_normalization():
    with criterion(3, "attention rows and pooling distributions sum to 1 (1e-9, 100 models)"):
        rng = np.random.default_rng(202)
        checked_rows = 0
        for trial in range(100):
            sentence = _random_tree_sentence(rng)
            vocabs = build_vocabs([sentence])
            layer = "gat" if trial % 4 else "gcn"
            edge_mode = ["none", "dref", "ctef", "dref+ctef"][int(rng.integers(4))]
            config = ModelConfig(
                **TINY,
                graph_layer=layer,
                edge_mode=edge_mode,
                graph_mode="multi" if trial % 2 else "single",
            )
            dref = build_dref_table([sentence], config.d_e) if config.uses_dref else None
            model = Model(config, vocabs, dref, seed=trial, dtype=np.float64)
            provider = HashedEmbeddingProvider(config.d_ctx, seed=trial)
            sgs = sentence_subgraphs(sentence)
            detail = model.forward(laid_out(model, [(sentence, sgs)]), provider)
            # every center's attention segment and every unit's pooling segment
            for alpha in detail.attention:  # (P, heads) per layer
                sums = np.add.reduceat(alpha, detail.pair_starts)
                assert np.all(np.abs(sums - 1.0) < 1e-9)
                checked_rows += sums.size
            sums = np.add.reduceat(detail.pooling, detail.vertex_starts)
            assert np.all(np.abs(sums - 1.0) < 1e-9)
            checked_rows += len(sums)
        assert checked_rows > 1000


FIVE_TOKEN_CONLLU = """\
# id = 40
# e1 = 1 1
# e2 = 4 4
# label = Cause-Effect(e1,e2)
1\tThe\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tpollen\t_\tNOUN\t_\t_\t3\tnsubj\t_\tNER=THING
3\tcauses\t_\tVERB\t_\t_\t0\troot\t_\t_
4\tthe\t_\tDET\t_\t_\t5\tdet\t_\t_
5\tallergy\t_\tNOUN\t_\t_\t3\tobj\t_\tNER=THING
"""


def test_04_full_model_gradient_fidelity():
    with criterion(4, "central differences beat 1e-4 for every parameter group (<60s)"):
        started = time.monotonic()
        (s,) = parse_conllu_annotated(FIVE_TOKEN_CONLLU)
        assert len(s) == 5
        config = ModelConfig(d_ctx=4, d_f=2, d_wt=2, d_lstm=3, d_g=4, heads=2, d_e=3,
                             edge_mode="dref+ctef")
        vocabs = build_vocabs([s])
        dref = build_dref_table([s], config.d_e)
        model = Model(config, vocabs, dref, seed=11, dtype=np.float64)
        provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
        sgs = sentence_subgraphs(s)
        label = LABEL_INDEX[s.label]

        def loss():
            return nm.cross_entropy(model.forward(laid_out(model, [(s, sgs)]), provider).logits, [label])

        groups = {
            "embeddings": lambda n: n.startswith("embed."),
            "bilstm": lambda n: n.startswith("lstm."),
            "gat_heads": lambda n: n.startswith("gat."),
            "edge_tables": lambda n: n.startswith("edge."),
            "pooling": lambda n: n.startswith("pool."),
            "classifier": lambda n: n.startswith("cls."),
        }
        named = model.parameters()
        for group, keep in groups.items():
            members = [p for n, p in named.items() if keep(n)]
            assert members, group
            err = nm.gradient_check(loss, members)
            assert err < 1e-4, f"{group}: {err}"
        assert time.monotonic() - started < 60.0


def test_05_dref_statistics_match_recount():
    with criterion(5, "triple counts and ratios match an independent recount (50 sentences)"):
        corpus = build_structure_corpus(50, seed=7)
        table = build_dref_table(corpus, d_e=4)
        recount = {}
        total = 0
        for s in corpus:
            for t in s.tokens:
                if t.head is None:
                    continue
                key = (s.tokens[t.head].pos, t.pos, t.deprel)
                recount[key] = recount.get(key, 0) + 1
                total += 1
        assert table.counts == recount
        assert table.total == total
        entries = dref_entries(table)
        for key, count in recount.items():
            assert entries[key][1] == count / total
        assert abs(sum(ratio for _, ratio in entries.values()) - 1.0) <= 1e-9


def test_06_scorer_fidelity():
    with criterion(6, "hand-scored fixture, all-Other and perfect predictions score as computed"):
        parse = RelationLabel.parse
        golds = [parse(x) for x in (
            "Cause-Effect(e1,e2)", "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)",
            "Component-Whole(e1,e2)", "Component-Whole(e1,e2)", "Component-Whole(e2,e1)",
            "Other", "Other", "Instrument-Agency(e1,e2)", "Instrument-Agency(e2,e1)",
            "Other", "Cause-Effect(e1,e2)",
        )]
        preds = [parse(x) for x in (
            "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)", "Cause-Effect(e2,e1)",
            "Cause-Effect(e1,e2)", "Component-Whole(e1,e2)", "Other",
            "Other", "Cause-Effect(e1,e2)", "Instrument-Agency(e1,e2)",
            "Instrument-Agency(e1,e2)", "Component-Whole(e1,e2)", "Instrument-Agency(e2,e1)",
        )]
        # hand-computed: mean of {4/9, 2/5, 2/5} over 9 bases = 13.8272 (%)
        fixture = score_predictions(golds, preds)
        assert round(fixture.macro_f1, 4) == 13.8272

        all_other = score_predictions(golds, [parse("Other")] * len(golds))
        assert all_other.macro_f1 == 0.0

        full_space = list(LABELS)
        assert score_predictions(full_space, list(full_space)).macro_f1 == 100.0


def test_07_capacity_overfit_toy_corpus():
    with criterion(7, "default config reaches 100% training accuracy on the toy corpus (<5min)"):
        started = time.monotonic()
        corpus = build_toy_corpus()
        assert len(corpus) == 20
        assert len({str(s.label) for s in corpus}) == 2
        config = ModelConfig()  # library defaults, deterministic embedding fallback
        trainer = TrainerConfig(epochs=300, seed=7, stop_at_train_accuracy=1.0)
        _, log = train(corpus, config, trainer)
        elapsed = time.monotonic() - started
        assert max(r.train_accuracy for r in log.records) == 1.0
        assert len(log.records) <= 300
        assert elapsed < 300.0


def test_08_reduction_identities():
    with criterion(8, "K=1 multi-head, edge-free attention and single-graph composition reduce exactly"):
        rng = np.random.default_rng(303)

        # multi-head with one head equals the plain single-head update bitwise
        layer = GatLayer(4, 1, 6, 0, rng)
        from test_model import make_subgraph, pair_layout

        neighborhoods, pairs = pair_layout(make_subgraph([[0, 1], [0, 2]], 3))
        h = nm.constant(rng.standard_normal((3, 4)))
        multi, _ = gat_vertex_update(h, neighborhoods, pairs, layer)
        wh = nm.matmul(h, layer.w)
        alpha = gat_attention(wh, neighborhoods, pairs, layer)
        single = nm.elu(nm.segment_sum(nm.mul(nm.gather_rows(wh, pairs[:, 1]), alpha), neighborhoods))
        assert np.array_equal(multi.value, single.value)

        # zeroing the edge columns of the attention vectors equals deleting the block
        d_e = 3
        with_edges = GatLayer(4, 2, 3, d_e, rng)
        with_edges.a_edge.value[:] = 0.0
        plain = GatLayer(4, 2, 3, 0, rng)
        for name in ("w", "a_center", "a_neighbor"):
            getattr(plain, name).value = getattr(with_edges, name).value.copy()
        efeat = nm.constant(rng.standard_normal((len(pairs), d_e)))
        out_e, _ = gat_vertex_update(h, neighborhoods, pairs, with_edges, efeat)
        out_p, _ = gat_vertex_update(h, neighborhoods, pairs, plain, None)
        assert np.array_equal(out_e.value, out_p.value)

        # single-graph composition is entity states plus the one pooled vector
        e1, e2, pool = (rng.standard_normal((1, 6)) for _ in range(3))
        v = compose_sentence(nm.constant(pool), nm.Segments([0], 1), nm.constant(e1), nm.constant(e2))
        assert np.array_equal(v.value, e1 + e2 + pool)


def test_09_train_eval_determinism(tmp_path):
    with criterion(9, "two identically seeded train+eval runs emit byte-identical JSON"):
        corpus_path = tmp_path / "train.conllu"
        corpus_path.write_text("".join(to_conllu(s) for s in build_toy_corpus()), encoding="utf-8")
        flags = ["--d-ctx", "6", "--d-f", "3", "--d-wt", "2", "--d-lstm", "4",
                 "--d-g", "6", "--heads", "2", "--d-e", "3",
                 "--epochs", "3", "--seed", "17", "--edge-mode", "dref"]
        outputs = []
        for name in ("runA", "runB"):
            out_dir = tmp_path / name
            assert cli_main(["train", "--train", str(corpus_path),
                             "--out-dir", str(out_dir), *flags]) == 0
            eval_path = tmp_path / f"{name}.eval.json"
            assert cli_main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                             "--test", str(corpus_path), "--out", str(eval_path)]) == 0
            outputs.append(
                (
                    (out_dir / "metrics.json").read_bytes(),
                    (out_dir / "model.ckpt").read_bytes(),
                    eval_path.read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]  # metrics JSON
        assert outputs[0][1] == outputs[1][1]  # checkpoint
        assert outputs[0][2] == outputs[1][2]  # eval report JSON


def test_10_ablation_harness_smoke(tmp_path):
    with criterion(10, "8-cell sweep on the 500-sentence structural corpus yields well-formed rows"):
        corpus = build_structure_corpus(500, seed=13)
        assert len(corpus) == 500
        train_split, test_split = corpus[:400], corpus[400:]
        base = ModelConfig(d_ctx=8, d_f=3, d_wt=2, d_lstm=4, d_g=8, heads=2, d_e=3)
        trainer = TrainerConfig(epochs=2, seed=5)
        csv_path = str(tmp_path / "sweep.csv")
        rows = ablation_sweep(
            train_split,
            test_split,
            base,
            trainer,
            {"graph_layer": ["gcn", "gat"], "graph_mode": ["single", "multi"], "edge_mode": ["none", "dref"]},
            csv_path=csv_path,
        )
        assert len(rows) == 8
        names = [r["name"] for r in rows]
        assert len(set(names)) == 8
        for row in rows:
            assert set(row) >= {"name", "graph_layer", "graph_mode", "edge_mode", "precision", "recall", "f1"}
            assert 0.0 <= row["f1"] <= 100.0
            assert np.isfinite(row["f1"])
        header = open(csv_path, encoding="utf-8").readline()
        assert header.startswith("name,")

        mg = np.mean([r["f1"] for r in rows if r["graph_mode"] == "multi"])
        sg = np.mean([r["f1"] for r in rows if r["graph_mode"] == "single"])
        # directional observation only; the full-scale ordering is an
        # empirical claim, not asserted at this scale
        print(f"    multi-graph mean F1 {mg:.2f} vs single-graph {sg:.2f} (delta {mg - sg:+.2f})")
