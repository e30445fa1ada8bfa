"""Engine tests: op semantics, stability, and gradient fidelity."""

import warnings
import weakref
import zlib

import numpy as np
import pytest

from relgat import numerics as nm
from conftest import gradient_check, graph_nodes, total


def rand(rng, *shape):
    return nm.parameter(rng.standard_normal(shape))


def doubled(x, make=nm.parameter):
    """One direction's draw ``x`` (a Node) as both directions' column blocks."""
    return make(np.hstack([x.value, x.value]))


def one_direction(probe, reverse):
    """A probe of ``bilstm_sequence`` states that reads one direction's columns.

    ``reverse`` keeps the backward direction's columns, else the forward
    one's; the other direction's are zero.
    """
    d = probe.shape[1] // 2
    kept = slice(d, None) if reverse else slice(None, d)
    value = np.zeros_like(probe.value)
    value[:, kept] = probe.value[:, kept]
    return nm.constant(value)


# ---------------------------------------------------------------------------
# Forward semantics


def test_matmul_hand_value():
    out = nm.matmul(nm.constant([[1.0, 2.0]]), nm.constant([[3.0], [4.0]]))
    assert out.value.tolist() == [[11.0]]


def test_concat_shape_rule():
    a = nm.constant(np.zeros((2, 3)))
    b = nm.constant(np.ones((2, 5)))
    assert nm.concat([a, b], axis=1).shape == (2, 8)


def test_shape_errors_name_both_shapes():
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.matmul(nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.add(nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
    w_hidden = nm.constant(np.zeros((2, 16)))
    for z_shape in ((2, 8), (2, 17)):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.bilstm_sequence(nm.constant(np.zeros(z_shape)), w_hidden, nm.Segments([0], 2), [0, 1])
        assert str(z_shape) in str(err.value) and "(2, 16)" in str(err.value)
    for w_shape in ((2, 8), (4, 16)):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.bilstm_sequence(
                nm.constant(np.zeros((2, 16))), nm.constant(np.zeros(w_shape)), nm.Segments([0], 2), [0, 1]
            )
        assert "(2, 16)" in str(err.value) and str(w_shape) in str(err.value)
    x = nm.constant(np.zeros((4, 2)))

    def packed_lstm(x, segments):  # one token row per row of x
        return nm.bilstm_sequence(x, w_hidden, segments, np.arange(len(x.value)))

    for indices in ([0, 4], [[0, 1]], [-1, 0], [[0], [1]]):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.gather_rows(x, indices)
        assert "(4, 2)" in str(err.value) and str(indices) in str(err.value)
    for starts in ([1, 3], [0, 2, 2], [0, 3, 1], [0, 4], [], [[0, 2]]):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.Segments(starts, 4)
        assert "4 rows" in str(err.value) and str(starts) in str(err.value)
    for op in (nm.segment_sum, nm.segment_softmax, packed_lstm):
        for rows in (3, 5):
            with pytest.raises(nm.ShapeMismatch) as err:
                op(x, nm.Segments([0, 2], rows))
            assert "(4, 2)" in str(err.value) and f"{rows} rows" in str(err.value)
        with pytest.raises(nm.ShapeMismatch):
            op(nm.constant(np.zeros(4)), nm.Segments([0, 2], 4))
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.mul(nm.constant(np.zeros((3, 4))), nm.constant(np.zeros((2, 1))))
    assert "(3, 4)" in str(err.value) and "(2, 1)" in str(err.value)


def test_nonlinearity_values():
    assert nm.leaky_relu(nm.constant(-1.0)).item() == pytest.approx(-0.2)
    assert nm.leaky_relu(nm.constant(3.0)).item() == 3.0
    assert nm.tanh(nm.constant(0.0)).item() == 0.0
    assert nm.elu(nm.constant(2.0)).item() == 2.0
    assert nm.elu(nm.constant(-1.0)).item() == pytest.approx(np.expm1(-1.0))


@pytest.mark.parametrize("dtype, big", [(np.float64, 800.0), (np.float32, 3e38)])
def test_bilstm_saturated_gates_stay_finite(dtype, big):
    # pre-activations far past where exp overflows saturate every gate:
    # the states stay finite and in [-1, 1], and nothing warns
    rng = np.random.default_rng(8)
    signs = rng.choice([-1.0, 1.0], size=(6, 16))
    signs[0] = 1.0  # one row with every gate fully open
    z = nm.parameter((signs * big).astype(dtype))
    w_hidden = nm.parameter(rng.standard_normal((2, 16)).astype(dtype))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = nm.bilstm_sequence(z, w_hidden, nm.Segments([0, 2], 6), np.arange(6))
        total(out).backward()
    assert out.value.dtype == dtype
    assert np.all(np.isfinite(out.value)) and np.all(np.abs(out.value) <= 1.0)
    assert np.all(np.isfinite(z.grad)) and np.all(np.isfinite(w_hidden.grad))


def one_segment_softmax(column):
    """``segment_softmax`` of the rows of ``column`` taken as one segment."""
    x = np.asarray(column, dtype=np.float64).reshape(len(column), -1)
    return nm.segment_softmax(nm.constant(x), nm.Segments([0], len(x))).value


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(one_segment_softmax([0.0, 0.0]), [[0.5], [0.5]])
    for big in (1000.0, -1000.0):
        out = one_segment_softmax([big, 0.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[float(big > 0)], [float(big < 0)]], atol=1e-12)
    np.testing.assert_allclose(one_segment_softmax([7.0]), [[1.0]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = one_segment_softmax(rng.standard_normal((7, 4)) * rng.uniform(0.1, 50))
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)


def test_sum_gradient_is_ones():
    x = nm.parameter(np.arange(6.0).reshape(2, 3))
    total(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = nm.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        nm.add(x, x).backward()


def test_diamond_graph_accumulates_shared_gradients():
    # y = sum(elu(x) * tanh(x)); x feeds two branches, so
    # dy/dx = elu'(x) tanh(x) + elu(x) tanh'(x)
    x = nm.parameter(np.array([[0.3, -0.7, 1.1]]))
    total(nm.mul(nm.elu(x), nm.tanh(x))).backward()
    v = x.value
    elu = np.where(v > 0, v, np.expm1(v))
    expected = np.where(v > 0, 1.0, np.exp(v)) * np.tanh(v) + elu * (1.0 - np.tanh(v) ** 2)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# No-grad mode


def every_op(leaf):
    """One result of every op, over fresh seeded leaves made by ``leaf``."""
    rng = np.random.default_rng(21)
    x, y = leaf(rng.standard_normal((4, 3))), leaf(rng.standard_normal((4, 3)))
    row, column = leaf(rng.standard_normal((1, 3))), leaf(rng.standard_normal((4, 1)))
    w = leaf(rng.standard_normal((3, 2)))
    z, w_hidden = leaf(rng.standard_normal((4, 16))), leaf(rng.standard_normal((2, 16)))
    segments = nm.Segments([0, 1], 4)
    return {
        "add": nm.add(x, y),
        "add_row": nm.add(x, row),
        "mul": nm.mul(x, y),
        "mul_column": nm.mul(x, column),
        "matmul": nm.matmul(x, w),
        "concat": nm.concat([x, y], axis=1),
        "gather_rows": nm.gather_rows(x, [3, 0, 3]),
        "relu": nm.relu(x),
        "leaky_relu": nm.leaky_relu(x),
        "elu": nm.elu(x),
        "tanh": nm.tanh(x),
        "segment_sum": nm.segment_sum(x, segments),
        "segment_softmax": nm.segment_softmax(x, segments),
        "bilstm_sequence": nm.bilstm_sequence(z, w_hidden, segments, [3, 0, 3, 1]),
        "cross_entropy": nm.cross_entropy(x, [0, 2, 1, 1]),
    }


def is_plain(node):
    return node.parents == () and node.vjps == () and not node.requires_grad


def test_no_grad_ops_return_plain_value_nodes():
    tracked = every_op(nm.parameter)
    with nm.no_grad():
        plain = every_op(nm.parameter)
    for name, node in plain.items():
        assert is_plain(node), name
        assert tracked[name].requires_grad and tracked[name].parents, name
        np.testing.assert_array_equal(node.value, tracked[name].value, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_values_are_arrays_of_the_operand_dtype(dtype):
    # a value-only node holds an ndarray, never a numpy scalar: the
    # batch-mean loss is a 0-d array
    with nm.no_grad():
        plain = every_op(lambda value: nm.parameter(value.astype(dtype)))
    for name, node in plain.items():
        assert type(node.value) is np.ndarray and node.value.dtype == dtype, name
    assert plain["cross_entropy"].value.shape == ()


def test_ops_over_constants_build_no_graph():
    # with grads on, a result none of whose parents requires grad is a plain node too
    for name, node in every_op(nm.constant).items():
        assert is_plain(node), name
    x, c = nm.parameter(np.ones((2, 2))), nm.constant(np.ones((2, 2)))
    assert nm.mul(c, x).parents == (c, x)


def test_no_grad_nests_and_is_restored_after_an_exception():
    x = nm.parameter(np.ones((2, 2)))
    with nm.no_grad():
        with nm.no_grad():
            assert is_plain(nm.tanh(x))
        assert is_plain(nm.tanh(x))  # leaving the inner block keeps the outer one's mode
    assert nm.tanh(x).requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with nm.no_grad():
            raise RuntimeError("inside")
    assert nm.tanh(x).requires_grad
    with nm.no_grad():
        with pytest.raises(RuntimeError):
            with nm.no_grad():
                raise RuntimeError
        assert is_plain(nm.tanh(x))


def test_backward_refuses_a_node_that_requires_no_grad():
    with pytest.raises(ValueError, match="requires grad"):
        total(nm.constant(np.ones((2, 3)))).backward()
    x = nm.parameter(np.arange(6.0).reshape(2, 3))
    with nm.no_grad():
        loss = total(x)
    with pytest.raises(ValueError, match="requires grad"):
        loss.backward()
    assert x.grad is None


# ---------------------------------------------------------------------------
# Cross entropy


def test_cross_entropy_uniform_logits():
    loss = nm.cross_entropy(nm.constant(np.zeros((1, 19))), [4])
    assert loss.item() == pytest.approx(np.log(19.0), abs=1e-12)


def test_cross_entropy_large_margin():
    logits = np.zeros((1, 19))
    logits[0, 2] = 1000.0
    assert nm.cross_entropy(nm.constant(logits), [2]).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        nm.cross_entropy(nm.constant(np.zeros((1, 19))), [19])
    with pytest.raises(ValueError):
        nm.cross_entropy(nm.constant(np.zeros((2, 19))), [0, -1])
    with pytest.raises(nm.ShapeMismatch):
        nm.cross_entropy(nm.constant(np.zeros((2, 19))), [0])
    with pytest.raises(nm.ShapeMismatch):
        nm.cross_entropy(nm.constant(np.zeros(19)), [0])


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = nm.parameter(rng.standard_normal((1, 19)))
    err = gradient_check(lambda: nm.cross_entropy(logits, [7]), [logits])
    assert err < 1e-6
    batch = nm.parameter(rng.standard_normal((4, 19)))
    err = gradient_check(lambda: nm.cross_entropy(batch, [7, 0, 18, 7]), [batch])
    assert err < 1e-6


def test_cross_entropy_is_mean_of_rows():
    rng = np.random.default_rng(13)
    values = rng.standard_normal((5, 19)) * 10
    labels = [3, 0, 18, 3, 9]
    rows = np.array([
        nm.cross_entropy(nm.constant(values[b : b + 1]), [label]).item()
        for b, label in enumerate(labels)
    ])
    for row, v, label in zip(rows, values, labels):
        top = v.max()
        assert row == pytest.approx(top + np.log(np.sum(np.exp(v - top))) - v[label], abs=1e-12)
    assert nm.cross_entropy(nm.constant(values), labels).item() == pytest.approx(rows.mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient checks per op


def test_gradient_check_analytic_square():
    x = nm.parameter(np.array([[1.0, 2.0]]))
    err = gradient_check(lambda: total(nm.mul(x, x)), [x])
    nm.zero_grads([x])
    total(nm.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-12)
    assert err < 1e-8


def test_gradient_check_refuses_float32():
    x = nm.parameter(np.array([[1.0, 2.0]], dtype=np.float32))
    with pytest.raises(ValueError, match="float32"):
        gradient_check(lambda: total(nm.mul(x, x)), [x])


def test_node_keeps_float_dtype():
    for dtype in (np.float32, np.float64):
        assert nm.constant(np.zeros((2, 2), dtype)).value.dtype == dtype
    for value in ([1, 2], np.arange(3), np.array([True, False]), 2):
        assert nm.constant(value).value.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fresh_gradient_adopted_in_its_dtype(dtype):
    # a VJP's freshly allocated result of the leaf's dtype becomes its grad uncopied
    w = nm.parameter(np.ones((3, 2), dtype))
    out = nm.matmul(nm.constant(np.ones((2, 3), dtype)), w)
    made = []
    vjp_w = out.vjps[1]

    def recorded(g):
        result = vjp_w(g)
        made.append(weakref.ref(result))  # a weak reference leaves the result's owner alone
        return result

    out.vjps = (out.vjps[0], recorded)
    nm.cross_entropy(out, [0, 1]).backward()
    assert made[0]() is w.grad and w.grad.dtype == dtype


def test_gradient_check_skips_frozen_leaves():
    x = nm.parameter(np.array([[1.0, 2.0]]))
    frozen = nm.constant(np.array([[3.0, 4.0]]))
    err = gradient_check(lambda: total(nm.mul(x, frozen)), [x, frozen])
    assert err < 1e-8
    assert frozen.grad is None


@pytest.mark.parametrize("case", [
    "add_same", "add_bias", "mul_same", "mul_column", "mul_column_left", "segment_sum", "segment_softmax", "matmul",
    "concat0", "concat1", "gather", "relu", "leaky", "elu",
    "tanh", "lstm_packed", "lstm_packed_reverse",
    "lstm_tokens", "lstm_tokens_reverse", "lstm_blocks",
    "lstm_tied", "lstm_length_one", "lstm_single", "lstm_shared",
])
def test_op_gradients(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))  # str hash() varies per process
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4)
    bias = rand(rng, 4)
    w = rand(rng, 4, 2)
    column = rand(rng, 3, 1)
    segments = nm.Segments([0, 1], 3)  # rows {0} and {1, 2}
    probe = nm.constant(rng.standard_normal((3, 4)))
    probe_32 = nm.constant(rng.standard_normal((3, 2)))
    probe_44 = nm.constant(rng.standard_normal((4, 4)))
    probe_24 = nm.constant(rng.standard_normal((2, 4)))
    # pre-activations of packed sequences of lengths 1, 4 and 2; each LSTM
    # array holds one direction's draw in both directions' columns, so a loss
    # that reads one direction (``one_direction``) is the one-direction case
    seq_z, seq_segments = doubled(rand(rng, 7, 8)), nm.Segments([0, 1, 5], 7)
    w_input, w_hidden, lstm_bias = (doubled(rand(rng, *shape)) for shape in ((3, 8), (2, 8), (1, 8)))
    lstm_params = [seq_z, w_hidden]
    probe_74 = doubled(nm.constant(rng.standard_normal((7, 2))), nm.constant)

    def packed_lstm(reverse):
        out = nm.bilstm_sequence(seq_z, w_hidden, seq_segments, np.arange(7))
        return nm.mul(out, one_direction(probe_74, reverse))

    # three token rows read by sequences of lengths 2 and 3, rows 0 and 1 twice each
    token_x, token_rows = rand(rng, 3, 3), [0, 1, 1, 2, 0]
    token_params = [token_x, w_input, w_hidden, lstm_bias]
    probe_54 = doubled(nm.constant(rng.standard_normal((5, 2))), nm.constant)
    # the same input as a constant block of two columns and a trainable one,
    # each with its own rows of the input matrix
    fixed_block, free_block = nm.constant(rng.standard_normal((3, 2))), rand(rng, 3, 1)
    w_fixed, w_free = doubled(rand(rng, 2, 8)), doubled(rand(rng, 1, 8))

    def token_lstm(z, reverse):
        out = nm.bilstm_sequence(nm.add(z, lstm_bias), w_hidden, nm.Segments([0, 2], 5), token_rows)
        return nm.mul(out, one_direction(probe_54, reverse))

    # both directions with their own weights, read together
    both_z, both_w_hidden = rand(rng, 7, 16), rand(rng, 2, 16)
    both_params = [both_z, both_w_hidden]

    def both_lstm(starts, z=both_z, token_rows=range(7)):
        out = nm.bilstm_sequence(z, both_w_hidden, nm.Segments(starts, 7), list(token_rows))
        return nm.mul(out, nm.constant(np.arange(1.0, 29.0).reshape(7, 4) / 28.0))

    # token 0 is read by all three sequences, as a sub-graph token shared by a sentence's three units
    shared_z = rand(rng, 4, 16)

    builders = {
        "add_same": (lambda: nm.mul(nm.add(a, b), probe), [a, b]),
        "add_bias": (lambda: nm.mul(nm.add(a, bias), probe), [a, bias]),
        "mul_same": (lambda: nm.mul(nm.mul(a, b), probe), [a, b]),
        "mul_column": (lambda: nm.mul(nm.mul(a, column), probe), [a, column]),
        "mul_column_left": (lambda: nm.mul(nm.mul(a, column), probe), [a, column]),
        "segment_sum": (lambda: nm.mul(nm.segment_sum(a, segments), probe_24), [a]),
        "segment_softmax": (lambda: nm.mul(nm.segment_softmax(a, segments), probe), [a]),
        "matmul": (lambda: nm.mul(nm.matmul(a, w), probe_32), [a, w]),
        "concat0": (lambda: nm.mul(nm.concat([a, b], 0), nm.constant(np.ones((6, 4)))), [a, b]),
        "concat1": (lambda: nm.mul(nm.concat([a, b], 1), nm.constant(np.ones((3, 8)))), [a, b]),
        "gather": (lambda: nm.mul(nm.gather_rows(a, [0, 2, 2, 1]), probe_44), [a]),
        "relu": (lambda: nm.mul(nm.relu(a), probe), [a]),
        "leaky": (lambda: nm.mul(nm.leaky_relu(a), probe), [a]),
        "elu": (lambda: nm.mul(nm.elu(a), probe), [a]),
        "tanh": (lambda: nm.mul(nm.tanh(a), probe), [a]),
        "lstm_packed": (lambda: packed_lstm(False), lstm_params),
        "lstm_packed_reverse": (lambda: packed_lstm(True), lstm_params),
        "lstm_tokens": (lambda: token_lstm(nm.matmul(token_x, w_input), False), token_params),
        "lstm_tokens_reverse": (
            lambda: token_lstm(nm.matmul(token_x, w_input), True), token_params
        ),
        "lstm_blocks": (
            lambda: token_lstm(
                nm.add(nm.matmul(fixed_block, w_fixed), nm.matmul(free_block, w_free)), False
            ),
            [free_block, w_free, w_fixed, w_hidden, lstm_bias],
        ),
        # lengths 1, 2, 2, 2: three tied sequences keep their order
        "lstm_tied": (lambda: both_lstm([0, 1, 3, 5]), both_params),
        # every sequence one row long: no step reads a previous state
        "lstm_length_one": (lambda: both_lstm(list(range(7))), [both_z]),
        "lstm_single": (lambda: both_lstm([0]), both_params),
        "lstm_shared": (lambda: both_lstm([0, 2, 5], shared_z, [1, 0, 2, 0, 3, 3, 0]), [shared_z, both_w_hidden]),
    }
    build, params = builders[case]
    err = gradient_check(lambda: total(build()), params)
    assert err < 1e-6, f"{case}: {err}"
    for p in params:  # every parent gets gradient
        assert np.any(p.grad != 0.0), case
    assert fixed_block.grad is None


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 5])
def test_lstm_sequence_gradients(n, reverse):
    # the loss reads one direction's states: the other direction's columns
    # of every parameter get exactly zero gradient
    rng = np.random.default_rng(7 + n + int(reverse))
    x = rand(rng, n, 3)
    w_input = doubled(rand(rng, 3, 8))
    w_hidden = doubled(rand(rng, 2, 8))
    bias = doubled(rand(rng, 1, 8))
    probe = one_direction(doubled(nm.constant(rng.standard_normal((n, 2))), nm.constant), reverse)

    def lstm():
        z = nm.add(nm.matmul(x, w_input), bias)
        return nm.mul(nm.bilstm_sequence(z, w_hidden, nm.Segments([0], n), np.arange(n)), probe)

    err = gradient_check(lambda: total(lstm()), [x, w_input, w_hidden, bias])
    z = nm.constant(np.zeros((n, 16)))
    assert nm.bilstm_sequence(z, w_hidden, nm.Segments([0], n), np.arange(n)).parents == (z, w_hidden)
    assert err < 1e-6
    # every parent gets gradient; w_hidden only sees a nonzero state after step one
    for p in (x, w_input, bias) if n == 1 else (x, w_input, w_hidden, bias):
        assert np.any(p.grad != 0.0)
    other = slice(None, 8) if reverse else slice(8, None)
    for p in (w_input, w_hidden, bias):
        assert np.all(p.grad[:, other] == 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_token_rows_equal_gathered_input(reverse):
    # reading token rows equals feeding their gather_rows: the same states,
    # w_hidden gradient and token-row gradient, bit for bit. Tokens are read
    # one to three times, each token's rows summed in layout order in
    # float64, with -0.0 becoming +0.0 as under gather_rows' bincount
    rng = np.random.default_rng(9 + int(reverse))
    token_rows, starts = np.array([0, 1, 1, 2, 0, 3, 2, 0]), [0, 3, 4, 6]
    z_tok, w_hidden = rng.standard_normal((4, 16)), rng.standard_normal((2, 16))
    g = one_direction(nm.constant(rng.standard_normal((8, 4))), reverse).value
    for dtype in (np.float32, np.float64):
        runs = []
        for gathered in (False, True):
            z, w = nm.parameter(z_tok.astype(dtype)), nm.parameter(w_hidden.astype(dtype))
            z_in, rows = (nm.gather_rows(z, token_rows), np.arange(8)) if gathered else (z, token_rows)
            out = nm.bilstm_sequence(z_in, w, nm.Segments(starts, 8), rows)
            total(nm.mul(out, nm.constant(g.astype(dtype)))).backward()
            runs.append((out.value, w.grad, z.grad))
        for name, a, b in zip(("states", "w_hidden gradient", "token-row gradient"), *runs):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), (name, dtype)
        # the layout rows' gradients hold -0.0 (the unprobed direction's gates); the sums do not
        z_rows, w_rows, g_rows = (x.astype(dtype) for x in (z_tok[token_rows], w_hidden, g))
        layout_grad = earlier_bilstm(z_rows, w_rows, starts, g_rows)[1]
        assert np.any((layout_grad == 0) & np.signbit(layout_grad)), dtype
        token_grad = runs[0][2]
        assert not np.any((token_grad == 0) & np.signbit(token_grad)), dtype


@pytest.mark.parametrize("token_rows", [[0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 4, 2], [0, -1, 1, 2], [[0, 1, 2, 3]]])
def test_lstm_token_rows_out_of_range_or_wrong_length(token_rows):
    # four layout rows read token rows of a (4, 16) input
    z, w_hidden = nm.constant(np.zeros((4, 16))), nm.constant(np.zeros((2, 16)))
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.bilstm_sequence(z, w_hidden, nm.Segments([0, 2], 4), token_rows)
    message = str(err.value)
    assert str(token_rows).strip("[]") in message and "4 rows" in message and "(4, 16)" in message


def earlier_bilstm(z, w_hidden, starts, g):
    """The recurrence as it ran before its per-width scratch rows, and its two VJPs at ``g``.

    A plain numpy copy of the earlier loop: each step's ``matmul`` writes
    straight into its gate block, the gates are scaled and shifted by
    broadcast (4d,) rows, and the forget term of the cell update is a
    temporary. Returns the (n, 2d)
    states and the gradients of ``sum(g * states)`` with respect to ``z``
    and ``w_hidden``.
    """
    n, d = z.shape[0], w_hidden.shape[0]
    starts = np.asarray(starts)
    lengths = np.diff(np.append(starts, n))
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    step = np.arange(lengths[0])[:, None]
    running = step < lengths
    forward_rows = (first + step)[running]
    backward_rows = (first + lengths - 1 - step)[running]
    widths = running.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    dtype = z.dtype
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), d)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype), d)
    wh = w_hidden.reshape(d, 2, 4 * d).transpose(1, 0, 2)
    z_input = np.empty((n, 2, 4 * d), dtype)
    z_input[:, 0] = z[forward_rows, : 4 * d]
    z_input[:, 1] = z[backward_rows, 4 * d :]
    acts = np.empty((n, 2, 4 * d), dtype)
    gate_in, gate_forget, gate_cell, gate_out = (acts[..., j * d : (j + 1) * d] for j in range(4))
    hidden, cell, tanh_cell = (np.empty((n, 2, d), dtype) for _ in range(3))
    for s, k in enumerate(widths):
        rows = slice(offsets[s], offsets[s] + k)
        a = acts[rows]
        if s:
            last = slice(offsets[s - 1], offsets[s - 1] + k)
            np.matmul(hidden[last].transpose(1, 0, 2), wh, out=a.transpose(1, 0, 2))
            a += z_input[rows]
            a *= scale
        else:
            np.multiply(z_input[rows], scale, out=a)
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = cell[rows]
        np.multiply(gate_in[rows], gate_cell[rows], out=c)
        if s:
            c += gate_forget[rows] * cell[last]
        np.tanh(c, out=tanh_cell[rows])
        np.multiply(gate_out[rows], tanh_cell[rows], out=hidden[rows])
    out = np.empty((n, 2 * d), dtype)
    out[forward_rows, :d] = hidden[:, 0]
    out[backward_rows, d:] = hidden[:, 1]

    prev = np.arange(widths[0], n) - np.repeat(widths[:-1], widths[1:])
    g_hidden = np.empty((n, 2, d), dtype)
    g_hidden[:, 0] = g[forward_rows, :d]
    g_hidden[:, 1] = g[backward_rows, d:]
    gates = acts.reshape(n, 2, 4, d)
    factor = np.empty_like(gates)
    factor[:, :, 0] = gates[:, :, 2]
    factor[: widths[0], :, 1] = 0.0
    factor[widths[0] :, :, 1] = cell[prev]
    factor[:, :, 2] = gates[:, :, 0]
    factor[:, :, 3] = tanh_cell
    slope = gates * (1.0 - gates)
    slope[:, :, 2] = 1.0 - gates[:, :, 2] * gates[:, :, 2]
    factor *= slope
    cell_from_hidden = gates[:, :, 3] * (1.0 - tanh_cell * tanh_cell)
    wh_t = wh.transpose(0, 2, 1)
    dz = np.empty_like(gates)
    dh_next = np.zeros((widths[0], 2, d), dtype)
    dc_next = np.zeros((widths[0], 2, d), dtype)
    for s in range(len(widths) - 1, -1, -1):
        k = widths[s]
        rows = slice(offsets[s], offsets[s] + k)
        dh = g_hidden[rows] + dh_next[:k]
        dc = dh * cell_from_hidden[rows]
        dc += dc_next[:k]
        block = dz[rows]
        np.multiply(dc[:, :, None], factor[rows, :, :3], out=block[:, :, :3])
        np.multiply(dh, factor[rows, :, 3], out=block[:, :, 3])
        if s:
            np.multiply(dc, gates[rows, :, 1], out=dc_next[:k])
            np.matmul(block.reshape(k, 2, 4 * d).transpose(1, 0, 2), wh_t, out=dh_next[:k].transpose(1, 0, 2))
    dz = dz.reshape(n, 2, 4 * d)
    z_grad = np.empty((n, 8 * d), dtype)
    z_grad[forward_rows, : 4 * d] = dz[:, 0]
    z_grad[backward_rows, 4 * d :] = dz[:, 1]
    w_grad = np.hstack(np.matmul(hidden[prev].transpose(1, 2, 0), dz[widths[0] :].transpose(1, 0, 2)))
    return out, z_grad, w_grad


def assert_equals_the_earlier_loop(lengths, d, dtype, w_scale=1.0):
    """States and both VJPs of ``bilstm_sequence`` on identity token rows equal ``earlier_bilstm``'s bytes.

    The earlier loop's z gradient goes through ``gather_rows``' row sums,
    which make a -0.0 +0.0, as the op's token-row sums do.
    """
    rng = np.random.default_rng(sum(lengths) + len(lengths))
    n = sum(lengths)
    starts = np.cumsum([0] + lengths[:-1])
    z = (rng.standard_normal((n, 8 * d)) * 2).astype(dtype)
    w_hidden = (rng.standard_normal((d, 8 * d)) * w_scale).astype(dtype)
    g = rng.standard_normal((n, 2 * d)).astype(dtype)
    out = nm.bilstm_sequence(nm.parameter(z), nm.parameter(w_hidden), nm.Segments(starts, n), np.arange(n))
    got = (out.value, out.vjps[0](g), out.vjps[1](g))
    states, z_grad, w_grad = earlier_bilstm(z, w_hidden, starts, g)
    want = (states, nm._sum_rows_by_index(z_grad, np.arange(n), n), w_grad)
    for name, a, b in zip(("states", "z VJP", "w_hidden VJP"), got, want):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths", [
    [3, 3, 3],  # ties throughout
    [2, 4, 2, 4, 1],  # ties and a length-1 sequence out of order
    [1, 1, 1],  # every sequence one row long
    [1],
    [15, 4, 4],  # a long tail of one-sequence steps
    [33, 5, 3],
    # 24 sentences' units as an infer-long batch lays them out: widths fall from 72 to 1
    [x for sdp in range(24, 0, -1) for x in (sdp, 3, 2)],
])
def test_bilstm_equals_the_earlier_loop_bit_for_bit(dtype, lengths):
    # the step's scratch term added into the gates, the per-width scale and
    # shift rows, the carry buffer and the hidden-gradient product written
    # direction by direction as (d, k) blocks move no bit: states and both
    # VJPs equal the earlier loop's
    assert_equals_the_earlier_loop(lengths, 3, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilstm_equals_the_earlier_loop_at_paper_width(dtype):
    # BLAS picks its kernels by shape: a train-paper minibatch, 18 sequences
    # of 3 rows at d 256, with weights at the scale of their init
    assert_equals_the_earlier_loop([3] * 18, 256, dtype, w_scale=1 / 16)


def test_segment_ops_match_per_segment_loops():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 3)) * 30
    starts = [0, 1, 4]
    bounds = [(0, 1), (1, 4), (4, 6)]
    segments = nm.Segments(starts, 6)
    summed = nm.segment_sum(nm.constant(x), segments).value
    soft = nm.segment_softmax(nm.constant(x), segments).value
    for k, (lo, hi) in enumerate(bounds):
        np.testing.assert_allclose(summed[k], x[lo:hi].sum(axis=0), rtol=0, atol=1e-12)
        e = np.exp(x[lo:hi] - x[lo:hi].max(axis=0))
        np.testing.assert_allclose(soft[lo:hi], e / e.sum(axis=0), rtol=0, atol=1e-15)


def test_gather_rows_accumulates_duplicates():
    x = nm.parameter(np.eye(3))
    total(nm.gather_rows(x, [1, 1, 1])).backward()
    np.testing.assert_array_equal(x.grad[1], [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(x.grad[0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_backward_matches_add_at(dtype):
    # the scatter-add sums duplicates in index order, as np.add.at does:
    # bit for bit in float64, and in float32 within one rounding of the sum
    rng = np.random.default_rng(17)
    index = rng.integers(0, 6, size=40)
    index[:5] = 3  # duplicates, and row 5 read by none on some draws
    x = nm.parameter(rng.standard_normal((7, 5)).astype(dtype))
    g = (rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))).astype(dtype)
    out = nm.gather_rows(x, index)
    np.testing.assert_array_equal(out.value, x.value[index])
    got = out.vjps[0](g)
    want = np.zeros((7, 5), np.float64)
    np.add.at(want, index, g.astype(np.float64))
    assert got.dtype == dtype
    if dtype == np.float64:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_array_equal(got, want.astype(np.float32))
    empty = nm.gather_rows(x, np.array([], dtype=int))
    assert empty.shape == (0, 5)
    np.testing.assert_array_equal(empty.vjps[0](np.zeros((0, 5), dtype)), np.zeros((7, 5)))


def test_uniform_init_bounds_and_determinism():
    a = nm.initial_values(np.random.default_rng(3), 25, np.empty((50, 50)))
    b = nm.initial_values(np.random.default_rng(3), 25, np.empty((50, 50)))
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0 / 5.0
    # drawn block by block, yet the same values as one draw for the whole shape,
    # and in float32 those values rounded
    whole = np.random.default_rng(3).uniform(-0.2, 0.2, size=(300, 400))
    for dtype in (np.float64, np.float32):
        init = nm.initial_values(np.random.default_rng(3), 25, np.empty((300, 400), dtype))
        assert init.dtype == dtype
        np.testing.assert_array_equal(init, whole.astype(dtype))


def test_uniform_init_fills_a_given_block():
    # a column block filled in place holds the values of a contiguous init from
    # the same generator state, rounded to the block's dtype, and the generator
    # ends where it would; the other columns are left alone, and so is the
    # whole block under UNDRAWN
    for dtype in (np.float64, np.float32):
        whole = np.full((300, 700), 7.0, dtype)
        block = whole[:, 200:500]
        assert nm.initial_values(nm.UNDRAWN, 25, block) is block and np.all(whole == 7.0)
        rng = np.random.default_rng(4)
        assert nm.initial_values(rng, 25, block) is block
        after = rng.uniform()
        rng = np.random.default_rng(4)
        np.testing.assert_array_equal(block, nm.initial_values(rng, 25, np.empty((300, 300), dtype)))
        assert rng.uniform() == after
        assert np.all(whole[:, :200] == 7.0) and np.all(whole[:, 500:] == 7.0)


@pytest.mark.parametrize("shape, block", [
    ((20000, 7), None),  # 9362 rows of 7 per chunk: two full chunks and a short one
    ((70001,), None),  # one value per row: a full chunk and a short one
    ((20000, 7), slice(3, 10)),  # a column block of a wider matrix
])
def test_uniform_init_chunks_equal_one_uniform_draw(shape, block):
    # buffered chunk draws give the bytes of one Generator.uniform call, in
    # float64 and rounded to float32, and leave the generator where it would
    assert nm._INIT_BLOCK % 7 and nm._INIT_BLOCK < np.prod(shape)
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(6)
        whole = rng.uniform(-0.2, 0.2, size=shape).astype(dtype)
        after = rng.random()
        rng = np.random.default_rng(6)
        out = np.empty(shape, dtype) if block is None else np.zeros((shape[0], 12), dtype)[:, block]
        init = nm.initial_values(rng, 25, out)
        assert init.dtype == dtype and init.tobytes() == whole.tobytes()
        assert rng.random() == after


# ---------------------------------------------------------------------------
# In-place gradient accumulation


def _out_of_place_grads(root, leaves):
    """Reference backward that sums every contribution into a fresh array."""
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for parent in node.parents:
                visit(parent)
            order.append(node)

    visit(root)
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if parent.requires_grad:
                grads[id(parent)] = grads.get(id(parent), np.zeros_like(parent.value)) + vjp(g)
    return [grads[id(leaf)] for leaf in leaves]


def _assert_no_shared_grads(nodes):
    grads = [n.grad for n in nodes if n.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_accumulation_add_same_operand():
    x = nm.parameter(np.array([[0.5, -1.0, 2.0]]))
    root = total(nm.add(x, x))
    (expected,) = _out_of_place_grads(root, [x])
    root.backward()
    _assert_no_shared_grads(graph_nodes(root))
    np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0, 2.0]])


def test_accumulation_pass_through_chain_to_two_parents():
    # add and concat both hand back g or a view of it, so the
    # same buffer reaches a (twice) and b unless the first write copies.
    rng = np.random.default_rng(4)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    probe = nm.constant(rng.standard_normal((4, 3)))
    chain = nm.concat([nm.add(a, b), a], axis=0)
    root = total(nm.mul(chain, probe))
    expected = _out_of_place_grads(root, [a, b])
    root.backward()
    _assert_no_shared_grads(graph_nodes(root))
    np.testing.assert_allclose(a.grad, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, expected[1], rtol=0, atol=1e-12)


def test_accumulation_leaf_over_two_backward_calls():
    rng = np.random.default_rng(5)
    x, w = rand(rng, 3, 4), rand(rng, 4, 2)
    probe = nm.constant(rng.standard_normal((3, 2)))

    def f():
        return total(nm.mul(nm.add(nm.matmul(x, w), nm.matmul(x, w)), probe))

    roots = [f(), f()]
    expected = [sum(g) for g in zip(*(_out_of_place_grads(r, [x, w]) for r in roots))]
    for root in roots:
        root.backward()
    _assert_no_shared_grads(graph_nodes(*roots))
    np.testing.assert_allclose(x.grad, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, expected[1], rtol=0, atol=1e-12)


def test_accumulation_shared_interior_over_two_backward_calls():
    # two losses over one forward: the shared interior node passes on each
    # loss's gradient once, so the leaf gets the sum of both, not more
    rng = np.random.default_rng(6)
    x = rand(rng, 2, 3)
    shared = nm.tanh(nm.matmul(x, nm.constant(rng.standard_normal((3, 3)))))
    roots = [total(nm.mul(shared, nm.constant(rng.standard_normal((2, 3))))) for _ in range(2)]
    expected = sum(_out_of_place_grads(r, [x])[0] for r in roots)
    for root in roots:
        root.backward()
    np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-12)


def _kept_result_node(a, b):
    """a + b, whose VJP writes g into a buffer it keeps and returns it to both parents."""
    kept = np.empty(a.shape)

    def vjp(g):
        np.multiply(g, 1.0, out=kept)
        return kept

    return nm.Node(a.value + b.value, (a, b), (vjp, vjp), requires_grad=True)


def test_accumulation_kept_vjp_result_to_two_parents():
    # a fresh-looking base array that the VJP still holds may not become a grad
    rng = np.random.default_rng(7)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    probe = nm.constant(rng.standard_normal((2, 3)))
    root = total(nm.mul(nm.tanh(_kept_result_node(a, b)), probe))
    expected = _out_of_place_grads(root, [a, b])
    root.backward()
    _assert_no_shared_grads(graph_nodes(root))
    np.testing.assert_allclose(a.grad, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, expected[1], rtol=0, atol=1e-12)


def test_accumulation_kept_vjp_result_over_two_backward_calls():
    # the second call rewrites the kept buffer; grads of the first must not change
    rng = np.random.default_rng(8)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    node = _kept_result_node(a, b)
    probes = [nm.constant(rng.standard_normal((2, 3))) for _ in range(2)]
    roots = [total(nm.mul(nm.tanh(node), probe)) for probe in probes]
    firsts = []
    for root in roots:
        expected = _out_of_place_grads(root, [a, b])
        nm.zero_grads([a, b])
        root.backward()
        _assert_no_shared_grads(graph_nodes(root))
        np.testing.assert_allclose(a.grad, expected[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, expected[1], rtol=0, atol=1e-12)
        firsts.append((a.grad, b.grad, expected))
    first_a, first_b, first_expected = firsts[0]
    np.testing.assert_allclose(first_a, first_expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(first_b, first_expected[1], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient buffers


def _buffer_case(dtype):
    """Leaf values and a loss over them whose k-th call reads probe k.

    ``w`` gets two weight-side ``matmul`` contributions, ``w_hidden`` the
    strided per-direction blocks of ``bilstm_sequence``; ``bias`` and
    ``emb`` get reductions that are copied in.
    """
    rng = np.random.default_rng(9)
    d, n = 2, 7
    shapes = dict(emb=(5, 3), w=(3, 3), w_in=(3, 8 * d), bias=(1, 8 * d), w_hidden=(d, 8 * d))
    values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    rows = rng.integers(0, 5, n)
    probes = [nm.constant(rng.standard_normal((n, 2 * d)).astype(dtype)) for _ in range(3)]
    segments = nm.Segments([0, 3, 5], n)

    def loss(p, k):
        x = nm.gather_rows(p["emb"], rows)
        h = nm.tanh(nm.matmul(nm.matmul(x, p["w"]), p["w"]))
        z = nm.add(nm.matmul(h, p["w_in"]), p["bias"])
        return total(nm.mul(nm.bilstm_sequence(z, p["w_hidden"], segments, np.arange(n)), probes[k]))

    return values, loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_buffered_gradients_equal_adopted_ones(dtype):
    values, loss = _buffer_case(dtype)
    plain = {name: nm.parameter(v.copy()) for name, v in values.items()}
    buffered = {name: nm.parameter(v.copy()) for name, v in values.items()}
    for p in buffered.values():
        p.grad_buffer = np.full_like(p.value, np.nan)  # a first write that misses an entry shows
    # two backward calls that accumulate, then one after zero_grads
    for calls in ((0, 1), (2,)):
        for params in (plain, buffered):
            nm.zero_grads(params.values())
            for k in calls:
                loss(params, k).backward()
        for name, p in buffered.items():
            assert p.grad is p.grad_buffer, name
            assert p.grad.tobytes() == plain[name].grad.tobytes(), name
        arrays = [p.grad for p in buffered.values()] + [p.value for p in buffered.values()]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
    assert all(p.grad_buffer is None for p in plain.values())
