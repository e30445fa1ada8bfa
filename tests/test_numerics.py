"""Engine tests: op semantics, stability, and gradient fidelity."""

import numpy as np
import pytest

from relgat import numerics as nm
from conftest import graph_nodes


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
    with pytest.raises(nm.ShapeMismatch) as err:
        nm.lstm_sequence(
            nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((4, 8))),
            nm.constant(np.zeros((2, 8))), nm.constant(np.zeros((1, 8))),
        )
    assert "(2, 3)" in str(err.value) and "(4, 8)" in str(err.value)
    x = nm.constant(np.zeros((4, 2)))
    for op in (nm.segment_sum, nm.segment_softmax):
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
    assert nm.sigmoid(nm.constant(0.0)).item() == 0.5
    with np.errstate(over="raise"):
        np.testing.assert_array_equal(nm.sigmoid(nm.constant([-800.0, 800.0])).value, [0.0, 1.0])


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
    nm.tensor_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = nm.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        nm.add(x, x).backward()


def test_diamond_graph_accumulates_shared_gradients():
    # y = sum(sigmoid(x) * tanh(x)); x feeds two branches, so
    # dy/dx = sigmoid'(x) tanh(x) + sigmoid(x) tanh'(x)
    x = nm.parameter(np.array([0.3, -0.7, 1.1]))
    nm.tensor_sum(nm.mul(nm.sigmoid(x), nm.tanh(x))).backward()
    v = x.value
    s = 1.0 / (1.0 + np.exp(-v))
    expected = s * (1 - s) * np.tanh(v) + s * (1.0 - np.tanh(v) ** 2)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# Cross entropy


def test_cross_entropy_uniform_logits():
    loss = nm.cross_entropy(nm.constant(np.zeros(19)), 4)
    assert loss.item() == pytest.approx(np.log(19.0), abs=1e-12)


def test_cross_entropy_large_margin():
    logits = np.zeros(19)
    logits[2] = 1000.0
    assert nm.cross_entropy(nm.constant(logits), 2).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        nm.cross_entropy(nm.constant(np.zeros(19)), 19)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = nm.parameter(rng.standard_normal(19))
    err = nm.gradient_check(lambda: nm.cross_entropy(logits, 7), [logits])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Gradient checks per op


def test_gradient_check_analytic_square():
    x = nm.parameter(np.array([1.0, 2.0]))
    err = nm.gradient_check(lambda: nm.tensor_sum(nm.mul(x, x)), [x])
    nm.zero_grads([x])
    nm.tensor_sum(nm.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)
    assert err < 1e-8


def test_gradient_check_skips_frozen_leaves():
    x = nm.parameter(np.array([1.0, 2.0]))
    frozen = nm.constant(np.array([3.0, 4.0]))
    err = nm.gradient_check(lambda: nm.tensor_sum(nm.mul(x, frozen)), [x, frozen])
    assert err < 1e-8
    assert frozen.grad is None


@pytest.mark.parametrize("case", [
    "add_same", "add_bias", "add_scalar", "mul_same", "mul_scalar", "mul_column",
    "mul_column_left", "segment_sum", "segment_softmax", "matmul",
    "concat0", "concat1", "slice0", "slice1", "gather", "sum_all", "sum_axis",
    "mean_all", "mean_axis", "transpose", "reshape", "relu", "leaky", "elu",
    "tanh", "sigmoid", "softmax",
])
def test_op_gradients(case):
    rng = np.random.default_rng(hash(case) % 2**31)
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4)
    bias = rand(rng, 4)
    scalar = rand(rng, 1, 1)
    w = rand(rng, 4, 2)
    column = rand(rng, 3, 1)
    starts = [0, 1]  # segments of rows {0} and {1, 2}
    probe = nm.constant(rng.standard_normal((3, 4)))
    probe_32 = nm.constant(rng.standard_normal((3, 2)))
    probe_43 = nm.constant(rng.standard_normal((4, 3)))
    probe_44 = nm.constant(rng.standard_normal((4, 4)))
    probe_24 = nm.constant(rng.standard_normal((2, 4)))

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
        "sum_all": (lambda: nm.tensor_sum(a), [a]),
        "sum_axis": (lambda: nm.mul(nm.tensor_sum(a, axis=0), nm.constant(np.arange(4.0))), [a]),
        "mean_all": (lambda: nm.mean(a), [a]),
        "mean_axis": (lambda: nm.mul(nm.mean(a, axis=1), nm.constant(np.arange(3.0))), [a]),
        "transpose": (lambda: nm.mul(nm.transpose(a), probe_43), [a]),
        "reshape": (lambda: nm.mul(nm.reshape(a, (4, 3)), probe_43), [a]),
        "relu": (lambda: nm.mul(nm.relu(a), probe), [a]),
        "leaky": (lambda: nm.mul(nm.leaky_relu(a), probe), [a]),
        "elu": (lambda: nm.mul(nm.elu(a), probe), [a]),
        "tanh": (lambda: nm.mul(nm.tanh(a), probe), [a]),
        "sigmoid": (lambda: nm.mul(nm.sigmoid(a), probe), [a]),
        "softmax": (lambda: nm.mul(nm.softmax(a, axis=1), probe), [a]),
    }
    build, params = builders[case]
    err = nm.gradient_check(lambda: nm.tensor_sum(build()), params)
    assert err < 1e-6, f"{case}: {err}"


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 5])
def test_lstm_sequence_gradients(n, reverse):
    rng = np.random.default_rng(7 + n + int(reverse))
    x = rand(rng, n, 3)
    w_input = rand(rng, 3, 8)
    w_hidden = rand(rng, 2, 8)
    bias = rand(rng, 1, 8)
    probe = nm.constant(rng.standard_normal((n, 2)))
    err = nm.gradient_check(
        lambda: nm.tensor_sum(nm.mul(nm.lstm_sequence(x, w_input, w_hidden, bias, reverse), probe)),
        [x, w_input, w_hidden, bias],
    )
    assert err < 1e-6
    # every parent gets gradient; w_hidden only sees a nonzero state after step one
    for p in (x, w_input, bias) if n == 1 else (x, w_input, w_hidden, bias):
        assert np.any(p.grad != 0.0)


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
    nm.tensor_sum(nm.gather_rows(x, [1, 1, 1])).backward()
    np.testing.assert_array_equal(x.grad[1], [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(x.grad[0], [0.0, 0.0, 0.0])


def test_uniform_init_bounds_and_determinism():
    a = nm.uniform_init(np.random.default_rng(3), (50, 50), fan_in=25)
    b = nm.uniform_init(np.random.default_rng(3), (50, 50), fan_in=25)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0 / 5.0


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
    root = nm.tensor_sum(nm.add(x, x))
    (expected,) = _out_of_place_grads(root, [x])
    root.backward()
    _assert_no_shared_grads(graph_nodes(root))
    np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0, 2.0]])


def test_accumulation_pass_through_chain_to_two_parents():
    # add, reshape and concat all hand back g or a view of it, so the
    # same buffer reaches a (twice) and b unless the first write copies.
    rng = np.random.default_rng(4)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    probe = nm.constant(rng.standard_normal((4, 3)))
    chain = nm.concat([nm.reshape(nm.add(a, b), (2, 3)), a], axis=0)
    root = nm.tensor_sum(nm.mul(chain, probe))
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
        return nm.tensor_sum(nm.mul(nm.add(nm.matmul(x, w), nm.matmul(x, w)), probe))

    roots = [f(), f()]
    expected = [sum(g) for g in zip(*(_out_of_place_grads(r, [x, w]) for r in roots))]
    for root in roots:
        root.backward()
    _assert_no_shared_grads(graph_nodes(*roots))
    np.testing.assert_allclose(x.grad, expected[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, expected[1], rtol=0, atol=1e-12)
