"""Planted claims of the paper: a label is planted where only the mechanism under test can read it,
and a small model must order its configurations as the paper claims."""

import numpy as np

from relgat.corpus import LABELS, EntitySpan, Sentence, Token
from relgat.features import HashedEmbeddingProvider
from relgat.graph import shortest_dependency_path
from relgat.model import ModelConfig
from relgat.train_eval import TrainerConfig, evaluate, train

POS = ("NOUN", "VERB", "ADJ", "ADP")
DEPRELS = ("obj", "nmod", "nsubj", "amod")
PARITY_LABELS = (LABELS[0], LABELS[2])  # two bases, so macro-F1 is capped at 22.2: score accuracy
TINY = dict(d_ctx=8, d_f=8, d_wt=2, d_lstm=8, d_g=8, heads=2, d_e=8)
SEED = 1


def parity_corpus(n: int, seed: int) -> list[Sentence]:
    """``n`` random trees of 6–12 tokens, labelled by the dependency triple on e1's first path edge.

    On that edge the head POS and the dependent POS are each NOUN or VERB,
    and the dependent's deprel is obj or nmod, each drawn apart; the label
    is the parity of the three draws. Every other token draws its POS and
    deprel from sets that hold these symbols too, so each part of the
    triple also occurs apart, and only the triple as a whole tells the label.
    """
    rng = np.random.default_rng(seed)
    sentences = []
    for instance in range(n):
        size = int(rng.integers(6, 13))
        order = rng.permutation(size)  # order[0] is the root
        heads: list[int | None] = [None] * size
        for k in range(1, size):
            heads[order[k]] = int(order[rng.integers(0, k)])
        tokens = [
            Token(i, f"w{rng.integers(50)}", str(rng.choice(POS)), "_",
                  "root" if heads[i] is None else str(rng.choice(DEPRELS)), heads[i])
            for i in range(size)
        ]
        e1, e2 = sorted(rng.choice(size, 2, replace=False).tolist())
        step = shortest_dependency_path(heads, e1, e2)[1]
        head, dependent = (step, e1) if heads[e1] == step else (e1, step)
        a, b, c = rng.integers(0, 2, 3)
        tokens[head].pos, tokens[dependent].pos = ("NOUN", "VERB")[a], ("NOUN", "VERB")[b]
        tokens[dependent].deprel = ("obj", "nmod")[c]
        sentence = Sentence(tokens, EntitySpan(e1, e1), EntitySpan(e2, e2), PARITY_LABELS[a ^ b ^ c], instance)
        sentence.validate()
        sentences.append(sentence)
    return sentences


def parity_accuracy(edge_mode: str, seed: int) -> float:
    """Test accuracy (%) of a tiny GCN trained on 200 parity trees and scored on 50 more."""
    corpus = parity_corpus(250, seed)
    config = ModelConfig(**TINY, graph_layer="gcn", edge_mode=edge_mode)
    trainer = TrainerConfig(epochs=25, batch_size=20, learning_rate=0.5, decay_patience=1000, seed=seed)
    provider = HashedEmbeddingProvider(config.d_ctx, seed=0)
    model, _ = train(corpus[:200], config, trainer, provider)
    return evaluate(model, corpus[200:], provider).accuracy


def test_dref_reads_the_planted_triple_under_gcn():
    # the paper's edge-feature claim: with the triple's own dref row the GCN
    # reads the parity; without edge features it guesses
    none, dref = parity_accuracy("none", SEED), parity_accuracy("dref", SEED)
    assert dref - none >= 30, (none, dref)
