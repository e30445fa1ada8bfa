"""Engine tests: op semantics, stability, and gradient fidelity."""

import weakref
import zlib

import numpy as np
import pytest

from relgat import numerics as nm
from conftest import graph_nodes, total


def rand(rng, *shape):
    return nm.parameter(rng.standard_normal(shape))


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
    w_hidden = nm.constant(np.zeros((2, 8)))
    for z_shape in ((2, 6), (2, 9)):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.lstm_sequence(nm.constant(np.zeros(z_shape)), w_hidden, [0])
        assert str(z_shape) in str(err.value) and "(2, 8)" in str(err.value)
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.lstm_sequence(nm.constant(np.zeros((2, 8))), nm.constant(np.zeros((2, 6))), [0])
    assert "(2, 8)" in str(err.value) and "(2, 6)" in str(err.value)
    x = nm.constant(np.zeros((4, 2)))

    def packed_lstm(x, starts):
        return nm.lstm_sequence(x, w_hidden, starts)

    for indices in ([0, 4], [[0, 1]], [-1, 0], [[0], [1]]):
        with pytest.raises(nm.ShapeMismatch) as err:
            nm.gather_rows(x, indices)
        assert "(4, 2)" in str(err.value) and str(indices) in str(err.value)
    for op in (nm.segment_sum, nm.segment_softmax, packed_lstm):
        for starts in ([1, 3], [0, 2, 2], [0, 3, 1], [0, 4], [], [[0, 2]]):
            with pytest.raises(nm.ShapeMismatch) as err:
                op(x, starts)
            assert "(4, 2)" in str(err.value) and str(starts) in str(err.value)
        with pytest.raises(nm.ShapeMismatch):
            op(nm.constant(np.zeros(4)), [0, 2])
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.mul(nm.constant(np.zeros((3, 4))), nm.constant(np.zeros((2, 1))))
    assert "(3, 4)" in str(err.value) and "(2, 1)" in str(err.value)


def test_nonlinearity_values():
    assert nm.leaky_relu(nm.constant(-1.0)).item() == pytest.approx(-0.2)
    assert nm.leaky_relu(nm.constant(3.0)).item() == 3.0
    assert nm.tanh(nm.constant(0.0)).item() == 0.0
    assert nm.elu(nm.constant(2.0)).item() == 2.0
    assert nm.elu(nm.constant(-1.0)).item() == pytest.approx(np.expm1(-1.0))
    assert nm._sigmoid(np.array(0.0)) == 0.5
    with np.errstate(over="raise"):
        np.testing.assert_array_equal(nm._sigmoid(np.array([-800.0, 800.0])), [0.0, 1.0])


def test_softmax_symmetry_and_stability():
    out = nm.softmax(nm.constant([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.value, [0.5, 0.5])
    big = nm.softmax(nm.constant([1000.0, 0.0]), axis=0)
    assert np.all(np.isfinite(big.value))
    np.testing.assert_allclose(big.value, [1.0, 0.0], atol=1e-12)
    single = nm.softmax(nm.constant([7.0]), axis=0)
    np.testing.assert_allclose(single.value, [1.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = nm.constant(rng.standard_normal((4, 7)) * rng.uniform(0.1, 50))
        out = nm.softmax(x, axis=1)
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-9)


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
    err = nm.gradient_check(lambda: nm.cross_entropy(logits, [7]), [logits])
    assert err < 1e-6
    batch = nm.parameter(rng.standard_normal((4, 19)))
    err = nm.gradient_check(lambda: nm.cross_entropy(batch, [7, 0, 18, 7]), [batch])
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
    err = nm.gradient_check(lambda: total(nm.mul(x, x)), [x])
    nm.zero_grads([x])
    total(nm.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-12)
    assert err < 1e-8


def test_gradient_check_refuses_float32():
    x = nm.parameter(np.array([[1.0, 2.0]], dtype=np.float32))
    with pytest.raises(ValueError, match="float32"):
        nm.gradient_check(lambda: total(nm.mul(x, x)), [x])


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
    err = nm.gradient_check(lambda: total(nm.mul(x, frozen)), [x, frozen])
    assert err < 1e-8
    assert frozen.grad is None


@pytest.mark.parametrize("case", [
    "add_same", "add_bias", "add_scalar", "mul_same", "mul_scalar", "mul_column",
    "mul_column_left", "segment_sum", "segment_softmax", "matmul",
    "concat0", "concat1", "slice0", "slice1", "gather", "relu", "leaky", "elu",
    "tanh", "softmax", "lstm_packed", "lstm_packed_reverse",
    "lstm_tokens", "lstm_tokens_reverse", "lstm_blocks",
])
def test_op_gradients(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))  # str hash() varies per process
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4)
    bias = rand(rng, 4)
    scalar = rand(rng, 1, 1)
    w = rand(rng, 4, 2)
    column = rand(rng, 3, 1)
    starts = [0, 1]  # segments of rows {0} and {1, 2}
    probe = nm.constant(rng.standard_normal((3, 4)))
    probe_32 = nm.constant(rng.standard_normal((3, 2)))
    probe_44 = nm.constant(rng.standard_normal((4, 4)))
    probe_24 = nm.constant(rng.standard_normal((2, 4)))
    # pre-activations of packed sequences of lengths 1, 4 and 2
    seq_z, seq_starts = rand(rng, 7, 8), [0, 1, 5]
    w_input, w_hidden, lstm_bias = rand(rng, 3, 8), rand(rng, 2, 8), rand(rng, 1, 8)
    lstm_params = [seq_z, w_hidden]
    probe_72 = nm.constant(rng.standard_normal((7, 2)))

    def packed_lstm(reverse):
        return nm.mul(nm.lstm_sequence(seq_z, w_hidden, seq_starts, reverse), probe_72)

    # three token rows read by sequences of lengths 2 and 3, rows 0 and 1 twice each
    token_x, token_rows = rand(rng, 3, 3), [0, 1, 1, 2, 0]
    token_params = [token_x, w_input, w_hidden, lstm_bias]
    probe_52 = nm.constant(rng.standard_normal((5, 2)))
    # the same input as a constant block of two columns and a trainable one,
    # each with its own rows of the input matrix
    fixed_block, free_block = nm.constant(rng.standard_normal((3, 2))), rand(rng, 3, 1)
    w_fixed, w_free = rand(rng, 2, 8), rand(rng, 1, 8)

    def token_lstm(z, reverse):
        out = nm.lstm_sequence(nm.gather_rows(nm.add(z, lstm_bias), token_rows), w_hidden, [0, 2], reverse)
        return nm.mul(out, probe_52)

    builders = {
        "add_same": (lambda: nm.mul(nm.add(a, b), probe), [a, b]),
        "add_bias": (lambda: nm.mul(nm.add(a, bias), probe), [a, bias]),
        "add_scalar": (lambda: nm.mul(nm.add(a, scalar), probe), [a, scalar]),
        "mul_same": (lambda: nm.mul(nm.mul(a, b), probe), [a, b]),
        "mul_scalar": (lambda: nm.mul(nm.mul(a, scalar), probe), [a, scalar]),
        "mul_column": (lambda: nm.mul(nm.mul(a, column), probe), [a, column]),
        "mul_column_left": (lambda: nm.mul(nm.mul(column, a), probe), [a, column]),
        "segment_sum": (lambda: nm.mul(nm.segment_sum(a, starts), probe_24), [a]),
        "segment_softmax": (lambda: nm.mul(nm.segment_softmax(a, starts), probe), [a]),
        "matmul": (lambda: nm.mul(nm.matmul(a, w), probe_32), [a, w]),
        "concat0": (lambda: nm.mul(nm.concat([a, b], 0), nm.constant(np.ones((6, 4)))), [a, b]),
        "concat1": (lambda: nm.mul(nm.concat([a, b], 1), nm.constant(np.ones((3, 8)))), [a, b]),
        "slice0": (lambda: nm.mul(nm.slice_axis(a, 0, 1, 3), nm.constant(np.ones((2, 4)))), [a]),
        "slice1": (lambda: nm.mul(nm.slice_axis(a, 1, 0, 2), nm.constant(np.ones((3, 2)))), [a]),
        "gather": (lambda: nm.mul(nm.gather_rows(a, [0, 2, 2, 1]), probe_44), [a]),
        "relu": (lambda: nm.mul(nm.relu(a), probe), [a]),
        "leaky": (lambda: nm.mul(nm.leaky_relu(a), probe), [a]),
        "elu": (lambda: nm.mul(nm.elu(a), probe), [a]),
        "tanh": (lambda: nm.mul(nm.tanh(a), probe), [a]),
        "softmax": (lambda: nm.mul(nm.softmax(a, axis=1), probe), [a]),
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
    }
    build, params = builders[case]
    err = nm.gradient_check(lambda: total(build()), params)
    assert err < 1e-6, f"{case}: {err}"
    for p in params:  # every parent gets gradient
        assert np.any(p.grad != 0.0), case
    assert fixed_block.grad is None


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 5])
def test_lstm_sequence_gradients(n, reverse):
    rng = np.random.default_rng(7 + n + int(reverse))
    x = rand(rng, n, 3)
    w_input = rand(rng, 3, 8)
    w_hidden = rand(rng, 2, 8)
    bias = rand(rng, 1, 8)
    probe = nm.constant(rng.standard_normal((n, 2)))

    def lstm():
        z = nm.add(nm.matmul(x, w_input), bias)
        return nm.mul(nm.lstm_sequence(z, w_hidden, [0], reverse), probe)

    err = nm.gradient_check(lambda: total(lstm()), [x, w_input, w_hidden, bias])
    z = nm.constant(np.zeros((n, 8)))
    assert nm.lstm_sequence(z, w_hidden, [0], reverse).parents == (z, w_hidden)
    assert err < 1e-6
    # every parent gets gradient; w_hidden only sees a nonzero state after step one
    for p in (x, w_input, bias) if n == 1 else (x, w_input, w_hidden, bias):
        assert np.any(p.grad != 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_token_rows_equal_gathered_input(reverse):
    # gathering token rows into the layout equals feeding the gathered
    # rows: the same hidden states and the same gradients, bit for bit,
    # duplicate rows summed in layout order
    rng = np.random.default_rng(9 + int(reverse))
    z_tok = rng.standard_normal((4, 8))
    token_rows, starts = np.array([0, 1, 1, 2, 0, 3, 2]), [0, 3, 4]
    w_hidden = rand(rng, 2, 8)
    probe = nm.constant(rng.standard_normal((7, 2)))

    def run(z):
        nm.zero_grads([w_hidden])
        out = nm.lstm_sequence(z, w_hidden, starts, reverse)
        total(nm.mul(out, probe)).backward()
        return out.value, w_hidden.grad

    by_token, gathered = nm.parameter(z_tok), nm.parameter(z_tok[token_rows])
    out_a, grad_a = run(nm.gather_rows(by_token, token_rows))
    out_b, grad_b = run(gathered)
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_array_equal(grad_a, grad_b)
    gathered_z_grad = np.zeros_like(z_tok)
    np.add.at(gathered_z_grad, token_rows, gathered.grad)
    np.testing.assert_array_equal(by_token.grad, gathered_z_grad)


def test_segment_ops_match_per_segment_loops():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 3)) * 30
    starts = [0, 1, 4]
    bounds = [(0, 1), (1, 4), (4, 6)]
    summed = nm.segment_sum(nm.constant(x), starts).value
    soft = nm.segment_softmax(nm.constant(x), starts).value
    for k, (lo, hi) in enumerate(bounds):
        np.testing.assert_allclose(summed[k], x[lo:hi].sum(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            soft[lo:hi], nm.softmax(nm.constant(x[lo:hi]), axis=0).value, rtol=0, atol=1e-15
        )


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
    a = nm.uniform_init(np.random.default_rng(3), (50, 50), fan_in=25)
    b = nm.uniform_init(np.random.default_rng(3), (50, 50), fan_in=25)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0 / 5.0
    # drawn block by block, yet the same values as one draw for the whole shape,
    # and in float32 those values rounded
    whole = np.random.default_rng(3).uniform(-0.2, 0.2, size=(300, 400))
    for dtype in (np.float64, np.float32):
        init = nm.uniform_init(np.random.default_rng(3), (300, 400), fan_in=25, dtype=dtype)
        assert init.dtype == dtype
        np.testing.assert_array_equal(init, whole.astype(dtype))


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
