"""Dense float64 autodiff engine (reverse mode).

Values are plain numpy arrays; ``Node`` adds the graph bookkeeping. Each
operation returns a Node holding its parents and one vector-Jacobian
closure per parent, and ``Node.backward`` walks the graph once in
reverse topological order. Broadcasting is deliberately restricted to
scalar*tensor, row-vector bias addition and an (m, 1) column scaling
the rows of an (m, n) matrix, so every backward rule stays small enough
to audit by hand.

Graph neighborhoods are contiguous row segments: ``segment_sum`` adds
the rows of each segment (scatter-add) and ``segment_softmax`` normalizes
within each segment, both given the sorted first row of every segment.
A graph layer is then a fixed handful of nodes whatever the vertex
count.

Recurrences are fused: ``lstm_sequence`` runs one LSTM direction over a
whole sequence as a single node. Its forward does the input projection
``x @ w_input + bias`` as one GEMM for all timesteps, so only
``h @ w_hidden`` stays inside the step loop; its backward runs one
backpropagation-through-time sweep that yields the gate gradients of
every step, from which each weight gradient is one GEMM per sequence.
The graph therefore grows with layers, not with timesteps.

A graph is built fresh for every forward pass. Leaf nodes (parameters)
accumulate gradients across repeated backward calls until cleared with
``zero_grads``; interior nodes are throwaway. Accumulation is in place
with copy-on-first-write: a node's first gradient contribution is stored
as an owned copy, because pass-through VJPs (``add``, ``concat``,
``reshape``) return the incoming gradient or a view of it, and every
later contribution is added into that copy with ``+=``. No two nodes'
``grad`` arrays ever share memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Node",
    "ShapeMismatch",
    "constant",
    "parameter",
    "add",
    "mul",
    "matmul",
    "concat",
    "slice_axis",
    "gather_rows",
    "tensor_sum",
    "mean",
    "transpose",
    "reshape",
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "sigmoid",
    "softmax",
    "segment_sum",
    "segment_softmax",
    "lstm_sequence",
    "cross_entropy",
    "gradient_check",
    "zero_grads",
    "uniform_init",
]


class ShapeMismatch(ValueError):
    """Incompatible operand shapes; the message names both shapes."""


class Node:
    """A float64 array plus reverse-mode bookkeeping.

    ``parents`` and ``vjps`` are parallel tuples: ``vjps[k](g)`` maps the
    gradient w.r.t. this node to the gradient contribution for
    ``parents[k]``.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() on non-scalar node of shape {self.shape}")
        return float(self.value.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` of every reachable leaf.

        Only valid for scalar (size-1) outputs. Visits each node exactly
        once; shared subexpressions therefore sum their contributions. The
        first contribution to a node is copied (VJPs may return ``g`` itself
        or a view of it); later ones are added into that copy in place.
        """
        if self.value.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in order:
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.requires_grad:
                    continue
                contribution = vjp(g)
                if parent.grad is None:
                    parent.grad = np.array(contribution, dtype=np.float64)
                else:
                    parent.grad += contribution

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Node) -> list[Node]:
    """Reverse topological order from root, pruned to grad-requiring paths.

    Iterative so deep graphs (long BiLSTM chains) cannot hit the Python
    recursion limit.
    """
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    order.reverse()
    return order


def constant(value) -> Node:
    return Node(value)


def parameter(value) -> Node:
    return Node(value, requires_grad=True)


def _node(value, parents, vjps) -> Node:
    requires = any(p.requires_grad for p in parents)
    return Node(value, parents, vjps, requires_grad=requires)


def _is_scalar(x: Node) -> bool:
    return x.value.size == 1


def add(a: Node, b: Node) -> Node:
    """Elementwise addition.

    Beyond same-shape operands, two broadcast forms are supported: a
    scalar added to a tensor, and a row vector of shape (n,) or (1, n)
    added to an (m, n) matrix (bias addition).
    """
    # Normalize so any scalar/row-vector operand sits on the right.
    if a.value.size < b.value.size:
        a, b = b, a
    if a.shape == b.shape:
        return _node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))
    if _is_scalar(b):
        return _node(
            a.value + b.value,
            (a, b),
            (lambda g: g, lambda g: np.sum(g).reshape(b.shape)),
        )
    if a.value.ndim == 2 and b.value.ndim in (1, 2):
        rows = b.value.reshape(-1)
        if a.shape[1] == rows.shape[0] and (b.value.ndim == 1 or b.shape[0] == 1):
            return _node(
                a.value + rows,
                (a, b),
                (lambda g: g, lambda g: np.sum(g, axis=0).reshape(b.shape)),
            )
    raise ShapeMismatch(f"add: incompatible shapes {a.shape} and {b.shape}")


def mul(a: Node, b: Node) -> Node:
    """Elementwise product.

    Beyond same-shape operands, either operand may be a scalar, or an
    (m, 1) column that scales the rows of an (m, n) matrix.
    """
    if a.shape == b.shape:
        return _node(
            a.value * b.value,
            (a, b),
            (lambda g: g * b.value, lambda g: g * a.value),
        )
    if _is_scalar(b) or _is_scalar(a):
        if _is_scalar(a):
            a, b = b, a
        return _node(
            a.value * b.value,
            (a, b),
            (
                lambda g: g * b.value.reshape(()),
                lambda g: np.sum(g * a.value).reshape(b.shape),
            ),
        )
    # Normalize so an (m, 1) column operand sits on the right.
    if a.value.ndim == 2 and a.shape[1] == 1:
        a, b = b, a
    if a.value.ndim == 2 and b.shape == (a.shape[0], 1):
        return _node(
            a.value * b.value,
            (a, b),
            (lambda g: g * b.value, lambda g: np.sum(g * a.value, axis=1, keepdims=True)),
        )
    raise ShapeMismatch(f"mul: incompatible shapes {a.shape} and {b.shape}")


def matmul(a: Node, b: Node) -> Node:
    """2-D matrix product (m,k) @ (k,n)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _node(
        a.value @ b.value,
        (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def concat(nodes, axis: int) -> Node:
    """Concatenate along an existing axis; gradient splits back."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("concat of zero nodes")
    value = np.concatenate([n.value for n in nodes], axis=axis)
    vjps = []
    offset = 0
    for n in nodes:
        width = n.shape[axis]
        index = [slice(None)] * value.ndim
        index[axis] = slice(offset, offset + width)
        vjps.append(lambda g, ix=tuple(index): g[ix])
        offset += width
    return _node(value, tuple(nodes), tuple(vjps))


def slice_axis(x: Node, axis: int, start: int, stop: int) -> Node:
    """Contiguous slice [start:stop) along one axis."""
    index = [slice(None)] * x.value.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def vjp(g):
        out = np.zeros_like(x.value)
        out[index] = g
        return out

    return _node(x.value[index].copy(), (x,), (vjp,))


def gather_rows(x: Node, indices) -> Node:
    """Select rows by index (duplicates allowed); gradient scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.value.ndim != 2:
        raise ShapeMismatch(f"gather_rows: expected a matrix, got shape {x.shape}")

    def vjp(g):
        out = np.zeros_like(x.value)
        np.add.at(out, idx, g)
        return out

    return _node(x.value[idx], (x,), (vjp,))


def tensor_sum(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        return _node(
            np.sum(x.value),
            (x,),
            (lambda g: np.broadcast_to(g, x.shape).copy(),),
        )

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()

    return _node(np.sum(x.value, axis=axis), (x,), (vjp,))


def mean(x: Node, axis: int | None = None) -> Node:
    count = x.value.size if axis is None else x.shape[axis]
    if axis is None:
        return _node(
            np.mean(x.value),
            (x,),
            (lambda g: np.broadcast_to(g / count, x.shape).copy(),),
        )

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g / count, axis), x.shape).copy()

    return _node(np.mean(x.value, axis=axis), (x,), (vjp,))


def transpose(x: Node) -> Node:
    if x.value.ndim != 2:
        raise ShapeMismatch(f"transpose: expected a matrix, got shape {x.shape}")
    return _node(x.value.T.copy(), (x,), (lambda g: g.T.copy(),))


def reshape(x: Node, shape) -> Node:
    return _node(
        x.value.reshape(shape).copy(),
        (x,),
        (lambda g: g.reshape(x.shape),),
    )


def relu(x: Node) -> Node:
    mask = x.value > 0
    return _node(np.where(mask, x.value, 0.0), (x,), (lambda g: g * mask,))


def leaky_relu(x: Node, slope: float = 0.2) -> Node:
    factor = np.where(x.value > 0, 1.0, slope)
    return _node(x.value * factor, (x,), (lambda g: g * factor,))


def elu(x: Node) -> Node:
    positive = x.value > 0
    y = np.where(positive, x.value, np.expm1(x.value))
    # d/dx expm1(x) = exp(x) = y + 1 on the negative branch
    return _node(y, (x,), (lambda g: g * np.where(positive, 1.0, y + 1.0),))


def tanh(x: Node) -> Node:
    y = np.tanh(x.value)
    return _node(y, (x,), (lambda g: g * (1.0 - y * y),))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |v|.
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Node) -> Node:
    y = _sigmoid(x.value)
    return _node(y, (x,), (lambda g: g * y * (1.0 - y),))


def softmax(x: Node, axis: int) -> Node:
    """Stable softmax along one axis (max subtraction before exp)."""
    shifted = x.value - np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        return y * (g - np.sum(g * y, axis=axis, keepdims=True))

    return _node(y, (x,), (vjp,))


def _segment_ids(op: str, x: Node, starts) -> tuple[np.ndarray, np.ndarray]:
    """Validated segment starts and the segment index of every row of ``x``."""
    starts = np.asarray(starts, dtype=np.intp)
    if (
        x.value.ndim != 2
        or starts.ndim != 1
        or starts.size == 0
        or starts[0] != 0
        or np.any(np.diff(starts) <= 0)
        or starts[-1] >= x.shape[0]
    ):
        raise ShapeMismatch(
            f"{op}: segment starts {starts.tolist()} do not split the rows of shape {x.shape}"
        )
    return starts, np.repeat(np.arange(starts.size), np.diff(starts, append=x.shape[0]))


def segment_sum(x: Node, starts) -> Node:
    """Row sums of the contiguous segments of ``x`` (P, n) that begin at ``starts``; (S, n)."""
    starts, ids = _segment_ids("segment_sum", x, starts)
    return _node(np.add.reduceat(x.value, starts, axis=0), (x,), (lambda g: g[ids],))


def segment_softmax(x: Node, starts) -> Node:
    """Stable softmax down the rows of each contiguous segment of ``x``."""
    starts, ids = _segment_ids("segment_softmax", x, starts)
    e = np.exp(x.value - np.maximum.reduceat(x.value, starts, axis=0)[ids])
    y = e / np.add.reduceat(e, starts, axis=0)[ids]

    def vjp(g):
        return y * (g - np.add.reduceat(g * y, starts, axis=0)[ids])

    return _node(y, (x,), (vjp,))


def lstm_sequence(x: Node, w_input: Node, w_hidden: Node, bias: Node, reverse: bool = False) -> Node:
    """Hidden states of one LSTM direction over the rows of ``x``, as one node.

    Gates are stacked (input, forget, cell, output) along the columns of
    ``w_input`` (k, 4d), ``w_hidden`` (d, 4d) and ``bias`` (4d or 1x4d).
    Row t of the (n, d) result is the hidden state after reading row t;
    with ``reverse`` the sequence is read from its last row to its first.
    Initial hidden and cell states are zero.
    """
    if x.value.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatch(f"lstm_sequence: expected a non-empty matrix, got shape {x.shape}")
    d = w_hidden.shape[0]
    if (
        w_input.shape != (x.shape[1], 4 * d)
        or w_hidden.shape != (d, 4 * d)
        or bias.value.size != 4 * d
    ):
        raise ShapeMismatch(
            f"lstm_sequence: input {x.shape} with weights {w_input.shape}, "
            f"{w_hidden.shape} and bias {bias.shape}"
        )
    n = x.shape[0]
    wh = w_hidden.value

    def flip(a):
        """Row order <-> step order (reversal is its own inverse)."""
        return a[::-1] if reverse else a

    # Everything below is indexed by step s; step s reads row n-1-s when reversed.
    xs = flip(x.value)
    z_input = xs @ w_input.value + bias.value.reshape(-1)
    acts = np.empty((n, 4 * d))
    hidden = np.zeros((n + 1, d))  # hidden[s], cell[s]: the states before step s
    cell = np.zeros((n + 1, d))
    tanh_cell = np.empty((n, d))
    for s in range(n):
        z = z_input[s] + hidden[s] @ wh
        a = acts[s]
        a[: 2 * d] = _sigmoid(z[: 2 * d])
        a[2 * d : 3 * d] = np.tanh(z[2 * d : 3 * d])
        a[3 * d :] = _sigmoid(z[3 * d :])
        cell[s + 1] = a[d : 2 * d] * cell[s] + a[:d] * a[2 * d : 3 * d]
        tanh_cell[s] = np.tanh(cell[s + 1])
        hidden[s + 1] = a[3 * d :] * tanh_cell[s]
    out = np.ascontiguousarray(flip(hidden[1:]))

    cache: dict = {}

    def gate_grads(g):
        """d(loss)/d(pre-activation gates), (n, 4d) in step order; one BPTT sweep per g."""
        if cache.get("g") is not g:
            cache["g"] = g
            cache["dz"] = _lstm_bptt(flip(g), acts, cell, tanh_cell, wh)
        return cache["dz"]

    return _node(
        out,
        (x, w_input, w_hidden, bias),
        (
            lambda g: flip(gate_grads(g) @ w_input.value.T),
            lambda g: xs.T @ gate_grads(g),
            lambda g: hidden[:-1].T @ gate_grads(g),
            lambda g: gate_grads(g).sum(axis=0).reshape(bias.shape),
        ),
    )


def _lstm_bptt(g_hidden, acts, cell, tanh_cell, wh) -> np.ndarray:
    """Backpropagation through time for ``lstm_sequence`` (all arrays in step order)."""
    n, d = tanh_cell.shape
    gate_in, gate_forget = acts[:, :d], acts[:, d : 2 * d]
    gate_cell, gate_out = acts[:, 2 * d : 3 * d], acts[:, 3 * d :]
    # Activation derivatives: y(1-y) for sigmoid gates, 1-y^2 for the tanh gate.
    slope = acts * (1.0 - acts)
    slope[:, 2 * d : 3 * d] = 1.0 - gate_cell * gate_cell
    cell_from_hidden = gate_out * (1.0 - tanh_cell * tanh_cell)
    dz = np.empty_like(acts)
    dh_next = np.zeros(d)
    dc_next = np.zeros(d)
    for s in range(n - 1, -1, -1):
        dh = g_hidden[s] + dh_next
        dc = dh * cell_from_hidden[s] + dc_next
        row = dz[s]
        row[:d] = dc * gate_cell[s]
        row[d : 2 * d] = dc * cell[s]
        row[2 * d : 3 * d] = dc * gate_in[s]
        row[3 * d :] = dh * tanh_cell[s]
        row *= slope[s]
        dc_next = dc * gate_forget[s]
        dh_next = wh @ row
    return dz


def cross_entropy(logits: Node, label: int) -> Node:
    """Negative log-likelihood of ``label`` under softmax(logits).

    ``logits`` must be 1-D. Computed as logsumexp(logits) - logits[label];
    the gradient is softmax(logits) - onehot(label).
    """
    v = logits.value
    if v.ndim != 1:
        raise ShapeMismatch(f"cross_entropy: expected 1-D logits, got shape {logits.shape}")
    if not 0 <= label < v.shape[0]:
        raise ValueError(f"cross_entropy: label {label} out of range for {v.shape[0]} classes")
    m = np.max(v)
    e = np.exp(v - m)
    total = np.sum(e)
    loss = m + np.log(total) - v[label]
    soft = e / total

    def vjp(g):
        out = soft.copy()
        out[label] -= 1.0
        return out * g.reshape(())

    return _node(np.asarray(loss), (logits,), (vjp,))


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) initialization."""
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def gradient_check(f, params, h: float = 1e-5) -> float:
    """Max per-coordinate relative error between backward and central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Node built from ``params``. Coordinates where both gradients are tiny
    (< 1e-8) are compared absolutely to avoid 0/0 blowups.
    """
    params = [p for p in params if p.requires_grad]
    zero_grads(params)
    out = f()
    if out.value.size != 1:
        raise ValueError("gradient_check requires a scalar-valued function")
    out.backward()
    analytic = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite analytic gradient")
        analytic.append(g.copy())

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat_value = p.value.reshape(-1)
        flat_grad = ga.reshape(-1)
        for i in range(flat_value.shape[0]):
            original = flat_value[i]
            flat_value[i] = original + h
            f_plus = f().item()
            flat_value[i] = original - h
            f_minus = f().item()
            flat_value[i] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("non-finite function value during gradient check")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = flat_grad[i]
            scale = max(abs(a), abs(numeric))
            err = abs(a - numeric) if scale < 1e-8 else abs(a - numeric) / scale
            if err > worst:
                worst = err
    return worst
