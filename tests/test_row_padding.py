"""A model's parameters are line-aligned views of one arena, and only their memory layout differs.

At the paper's dims the LSTM matrices have 8d-wide rows of 8 KiB (float32)
or 16 KiB (float64); ``nm.Arena`` stores them with rows 64 bytes wider.
These tests pin the padding rule, that every parameter of a built or
loaded model is a view of the model's one arena on a cache line, that
the padding stays zero through training and checkpoints, and that a
padded model computes what an unpadded copy of its values computes, bit
for bit.
"""

import numpy as np
import pytest

from relgat import checkpoint, train_eval
from relgat import numerics as nm
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
    """The padding columns of the rows a matrix ``a`` reads, as its row stride spans them (none if contiguous)."""
    if a.ndim != 2:
        return a[:0]
    width = a.strides[0] // a.itemsize
    rows = np.lib.stride_tricks.as_strided(a, (len(a), width), (a.strides[0], a.itemsize), writeable=False)
    return rows[:, a.shape[1] :]


def recorded(monkeypatch, module) -> list:
    """The models ``module`` builds from now on, each with the value arrays its ``__init__`` gave it."""
    built = []

    class Recorded(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, [p.value for p in self.parameters().values()]))

    monkeypatch.setattr(module, "Model", Recorded)
    return built


def assert_arena_views(model) -> None:
    """Every parameter is the matching view of the model's one arena, in order, on a cache line."""
    params, arena = list(model.parameters().values()), model.arena
    assert len(params) == len(arena.views) and arena.flat.ctypes.data % nm.LINE_BYTES == 0
    for p, view, block in zip(params, arena.views, arena.blocks):
        assert p.value.ctypes.data == view.ctypes.data == block.ctypes.data
        assert p.value.shape == view.shape and p.value.strides == view.strides
        assert np.shares_memory(p.value, arena.flat) and p.value.ctypes.data % nm.LINE_BYTES == 0


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
    # an arena pads a block by the rule of the padded_zeros helper it replaced
    arena = nm.Arena([(1, 3), shape], dtype)  # a block before it, which the view starts a line after
    a, block = arena.views[1], arena.blocks[1]
    assert a.shape == shape and a.dtype == dtype and not a.any()
    assert block.ndim == 1 and block.flags.c_contiguous and block.ctypes.data % nm.LINE_BYTES == 0
    assert a.ctypes.data == block.ctypes.data and (a.size == 0 or np.shares_memory(a, block))
    if padded:
        assert_padded(a)
        assert block.size == shape[0] * (shape[1] + nm.ROW_PAD_BYTES // a.itemsize)
        assert np.array_equal(block.reshape(shape[0], -1)[:, : shape[1]], a)
    else:
        assert a.flags.c_contiguous and block.size == a.size


def test_arena_blocks_are_line_aligned_in_order_and_two_arenas_share_a_layout():
    shapes = [(3, 5), (7,), (2, 1024), (1, 1), (4, 2)]
    one, two = nm.Arena(shapes, np.float32), nm.Arena(shapes, np.float32)
    starts = [b.ctypes.data - one.flat.ctypes.data for b in one.blocks]
    assert starts == [0, 64, 128, 128 + 2 * 1040 * 4, 128 + 2 * 1040 * 4 + 64]
    assert starts == [b.ctypes.data - two.flat.ctypes.data for b in two.blocks]
    assert one.flat.size * 4 == starts[-1] + 64 and one.shapes == shapes
    for view in one.views:
        view[...] = 1
    assert one.flat.sum() == sum(np.prod(shape) for shape in shapes)  # no view reaches the gaps or the padding


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


GCN_PROJECTION = ModelConfig(**{**vars(TINY), "graph_layer": "gcn", "contextual": False})


@pytest.mark.parametrize("config", [PAPER, TINY, GCN_PROJECTION])
def test_every_parameter_is_a_line_aligned_view_of_the_model_arena(config, tmp_path):
    model, _ = build(config, np.float32)
    assert_arena_views(model)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    assert_arena_views(load_checkpoint(path))


def test_a_load_writes_every_value_in_place(monkeypatch, tmp_path):
    # the loaded model's parameters are the very arrays its __init__ gave them: the load
    # allocates no array per parameter
    model, _ = build(PAPER, np.float32)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    built = recorded(monkeypatch, checkpoint)
    loaded = load_checkpoint(path)
    assert len(built) == 1 and built[0][0] is loaded
    for (name, p), value in zip(loaded.parameters().items(), built[0][1]):
        assert p.value is value and np.array_equal(value, model.parameters()[name].value), name


def test_training_keeps_the_layout_and_the_padding_zero(monkeypatch):
    # every step's gradient buffers are the views of one arena laid out as the values', padded
    # like them, with zero padding; the clip reads that arena's blocks; the returned model (the
    # best-dev snapshot, copied back) keeps its arena and its padding
    built, steps = recorded(monkeypatch, train_eval), []
    clip = train_eval.clip_gradients

    def checked(grads, max_norm):
        params = list(built[0][0].parameters().values())
        assert len(grads) == len(params)
        for p, block in zip(params, grads):
            if p.grad is not None:
                assert p.grad.strides == p.value.strides and p.grad.ctypes.data == block.ctypes.data
                assert not padding(p.grad).any()
            assert not padding(p.value).any()
        steps.append(max_norm)
        return clip(grads, max_norm)

    monkeypatch.setattr(train_eval, "clip_gradients", checked)
    corpus = build_toy_corpus()[::2]
    model, log = train(corpus, PAPER, TrainerConfig(epochs=2, batch_size=5, seed=1, gradient_clip_norm=1e-3))
    assert len(steps) == 4 and log.best_epoch >= 1 and built[0][0] is model
    assert_arena_views(model)
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
    grads = nm.Arena(padded.arena.shapes, dtype)
    for p, q, buffer in zip(padded.parameters().values(), plain.parameters().values(), grads.views):
        q.value = np.ascontiguousarray(p.value)
        p.grad_buffer = buffer
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
