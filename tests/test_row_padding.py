"""Weights whose rows alias 4 KiB are row-padded views, and only their memory layout differs.

At the paper's dims the LSTM matrices have 8d-wide rows of 8 KiB (float32)
or 16 KiB (float64); ``nm.padded_zeros`` puts them in storage 64 bytes
wider per row. These tests pin the rule, that the padding stays zero
through training and checkpoints, and that a padded model computes what
an unpadded copy of its values computes, bit for bit.
"""

import numpy as np
import pytest

from relgat import numerics as nm
from relgat import train_eval
from relgat.checkpoint import load_checkpoint, save_checkpoint
from relgat.corpus import LABEL_INDEX, build_vocabs
from relgat.features import HashedEmbeddingProvider, build_dref_table
from relgat.graph import batch_layout
from relgat.model import Model, ModelConfig, forward_inputs
from relgat.train_eval import TrainerConfig, train
from conftest import build_toy_corpus

PAPER = ModelConfig(edge_mode="dref")  # the defaults are the paper's dims: 768/256/256, 4 heads
TINY = ModelConfig(d_ctx=6, d_f=3, d_wt=2, d_lstm=4, d_g=6, heads=2, d_e=3, edge_mode="dref")
LSTM_MATRICES = ("lstm.w_ctx", "lstm.w_feat", "lstm.w_hidden")


def build(config, dtype, seed=4):
    corpus = build_toy_corpus()
    model = Model(config, build_vocabs(corpus), build_dref_table(corpus, config.d_e), seed=seed, dtype=dtype)
    return model, corpus


def padding(a: np.ndarray) -> np.ndarray:
    """The padding columns of the storage under ``a`` (none for a plain array)."""
    return nm.storage(a)[..., a.shape[-1] :]


def assert_padded(a: np.ndarray) -> None:
    row = a.shape[1] * a.itemsize
    assert row % nm.ALIAS_BYTES == 0  # the rows alias ...
    assert a.strides == (row + nm.ROW_PAD_BYTES, a.itemsize)  # ... so the storage rows are 64 bytes longer
    assert a.strides[0] % nm.ALIAS_BYTES != 0
    assert padding(a).shape == (len(a), nm.ROW_PAD_BYTES // a.itemsize) and not padding(a).any()
    assert a.ctypes.data % nm.LINE_BYTES == 0  # the storage starts on a cache line


@pytest.mark.parametrize(
    "shape, dtype, padded",
    [
        ((2, 1024), np.float32, True),
        ((3, 2048), np.float32, True),
        ((3, 512), np.float64, True),
        ((1, 2048), np.float32, False),  # one row aliases with nothing
        ((3, 1000), np.float32, False),
        ((3, 512), np.float32, False),
        ((2048,), np.float32, False),
        ((3, 0), np.float32, False),
    ],
)
def test_padded_zeros_pads_exactly_the_aliasing_matrices(shape, dtype, padded):
    a = nm.padded_zeros(shape, dtype)
    assert a.shape == shape and a.dtype == dtype and not a.any()
    if padded:
        assert_padded(a)
        storage = nm.storage(a)
        assert storage.flags.c_contiguous and np.shares_memory(storage, a)
        assert np.array_equal(storage[:, : shape[1]], a)
    else:
        assert a.flags.c_contiguous and nm.storage(a) is a


def test_storage_of_any_other_array_is_the_array():
    a = np.arange(12.0).reshape(3, 4)
    for view in (a, a.T, a[:, 1:], a[::2], a[1:, :2], np.zeros((3, 4))[:, :2]):
        assert nm.storage(view) is view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_paper_dims_lstm_matrices_are_padded_and_nothing_else(dtype):
    model, _ = build(PAPER, dtype)
    for name, p in model.parameters().items():
        if name in LSTM_MATRICES:
            assert_padded(p.value)
        else:
            assert p.value.flags.c_contiguous, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tiny_dims_pad_nothing(dtype):
    model, _ = build(TINY, dtype)
    assert all(p.value.flags.c_contiguous for p in model.parameters().values())


def test_training_keeps_the_layout_and_the_padding_zero(monkeypatch):
    # every step's gradient buffers are padded like the values, with zero padding; the returned
    # model (the best-dev snapshot) keeps the layout
    steps = []
    clip = train_eval.clip_gradients

    def checked(params, max_norm):
        for p in params:
            assert p.grad is None or p.grad.strides == p.value.strides
            assert p.grad is None or not padding(p.grad).any()
            assert not padding(p.value).any()
        steps.append(max_norm)
        return clip(params, max_norm)

    monkeypatch.setattr(train_eval, "clip_gradients", checked)
    corpus = build_toy_corpus()[::2]
    model, log = train(corpus, PAPER, TrainerConfig(epochs=2, batch_size=5, seed=1, gradient_clip_norm=1e-3))
    assert len(steps) == 4 and log.best_epoch >= 1
    for name in LSTM_MATRICES:
        assert_padded(model.parameters()[name].value)


def test_save_load_save_is_byte_identical_and_the_load_is_padded(tmp_path):
    model, _ = build(PAPER, np.float32)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, str(first))
    loaded = load_checkpoint(str(first))
    save_checkpoint(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    for name, p in loaded.parameters().items():
        assert np.array_equal(p.value, model.parameters()[name].value), name
        if name in LSTM_MATRICES:
            assert_padded(p.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_and_unpadded_models_compute_the_same_bits(dtype):
    # only the memory layout changes: the logits, the loss and every gradient of an unpadded
    # copy of the same values are bit for bit those of the padded model, which writes its
    # gradients into padded buffers as train() does
    padded, corpus = build(PAPER, dtype)
    plain, _ = build(PAPER, dtype)
    for p, q in zip(padded.parameters().values(), plain.parameters().values()):
        q.value = np.ascontiguousarray(p.value)
        p.grad_buffer = nm.padded_zeros(p.shape, dtype)
        q.grad_buffer = np.zeros_like(q.value)
    assert plain.parameters()["lstm.w_ctx"].value.flags.c_contiguous
    batch = corpus[:6]
    golds = [LABEL_INDEX[s.label] for s in batch]
    provider = HashedEmbeddingProvider(PAPER.d_ctx, seed=0)
    results = []
    for model in (padded, plain):
        logits = model.forward(forward_inputs(batch_layout(batch), model.vocabs), provider).logits
        loss = nm.cross_entropy(logits, golds)
        loss.backward()
        results.append((logits.value, loss.value, [p.grad for p in model.parameters().values()]))
    (logits, loss, grads), (want_logits, want_loss, want_grads) = results
    assert logits.tobytes() == want_logits.tobytes()
    assert loss.tobytes() == want_loss.tobytes()
    for name, g, want in zip(padded.parameters(), grads, want_grads):
        assert g.tobytes() == want.tobytes(), name
    assert all(not padding(g).any() for g in grads)
    for name in LSTM_MATRICES:
        assert_padded(padded.parameters()[name].grad)
