"""Dense reverse-mode autodiff engine whose value dtype is given by its inputs.

Values are plain numpy arrays; ``Node`` adds the graph bookkeeping. A
node keeps the floating dtype of the array it is given, and only
non-float input (ints, bools, lists of numbers) becomes float64; every
operation computes in its operands' dtype and allocates its buffers and
gradients in it, so a graph built from float32 leaves stays float32 end
to end and one built from float64 leaves stays float64. Mixing the two
promotes to float64, so a caller builds its constants in the dtype of
its parameters. Each operation returns a Node holding its parents and
one vector-Jacobian closure per parent, and ``Node.backward`` walks the
graph once in reverse topological order. Broadcasting is deliberately
restricted to scalar*tensor, row-vector bias addition and an (m, 1)
column scaling the rows of an (m, n) matrix, so every backward rule
stays small enough to audit by hand.

Graph neighborhoods are contiguous row segments: ``segment_sum`` adds
the rows of each segment and ``segment_softmax`` normalizes within each
segment, both given the sorted first row of every segment. A graph
layer is then a fixed handful of nodes whatever the vertex count.
``gather_rows`` selects rows by index, duplicates allowed; its backward
is the engine's one scatter-add, a single ``bincount`` that sums the
gradient rows of every index.

Recurrences are fused and packed: ``lstm_sequence`` runs one LSTM
direction over any number of sequences, laid out as contiguous row
segments in the same ``starts`` convention, as a single node. It is the
recurrence alone: its input is the (n, 4d) gate pre-activations
``x @ w_input + bias`` of every layout row, which the caller builds from
ordinary ops (a projection over distinct tokens and a ``gather_rows`` to
the layout, say), so input GEMMs and their gradients are the engine's
usual ``matmul`` and ``requires_grad`` pruning skips a constant input.
With the sequences sorted longest first, step s of the loop updates the
k_s sequences still running with one ``h @ w_hidden`` GEMM, so the loop
runs max-length steps, not total rows. Its backward runs one
backpropagation-through-time sweep over the same steps, yields the gate
gradients of every row, and makes the ``w_hidden`` gradient one GEMM for
the whole call. The graph therefore grows with layers, not with
timesteps or sequences.

``cross_entropy`` scores a (B, C) batch of logits against B labels and
returns the batch-mean loss, so a minibatch is one forward and one
backward whose gradient is the mean of the per-instance gradients.

A graph is built fresh for every forward pass. Leaf nodes (parameters)
accumulate gradients across repeated backward calls until cleared with
``zero_grads``. An interior node's gradient is released as soon as it
has been passed to its parents: a batch's backward then holds only the
gradients still in flight, and two backward calls through a shared
interior node each pass their own gradient on once. Accumulation is in
place, and a node's first gradient contribution is adopted or copied: a
freshly allocated array of the node's own dtype that nothing else
references becomes the node's ``grad`` as it is; anything else is copied
into that dtype, because the pass-through VJPs of ``add`` and ``concat``
return the incoming gradient or a view of it and a VJP may keep the
array it returns. Every later contribution is added into that array with
``+=``. No two nodes' ``grad`` arrays ever share memory, with each other
or with a value.

``gradient_check`` compares against central differences, which only
resolve the gradient in float64; it refuses parameters of any other
dtype.
"""

from __future__ import annotations

import sys

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
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "softmax",
    "segment_sum",
    "segment_softmax",
    "lstm_sequence",
    "cross_entropy",
    "gradient_check",
    "zero_grads",
    "uniform_init",
]


def _sole_owner_refs() -> int:
    """What ``sys.getrefcount`` reports for an array held by one local variable only."""
    fresh = np.empty(0)
    return sys.getrefcount(fresh)


_SOLE_OWNER_REFS = _sole_owner_refs()


class ShapeMismatch(ValueError):
    """Incompatible operand shapes; the message names both shapes."""


class Node:
    """A floating-point array plus reverse-mode bookkeeping.

    A float array keeps its dtype; anything else becomes float64.

    ``parents`` and ``vjps`` are parallel tuples: ``vjps[k](g)`` maps the
    gradient w.r.t. this node to the gradient contribution for
    ``parents[k]``.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(np.float64)
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
        once; shared subexpressions therefore sum their contributions. A
        node's first contribution is adopted as its gradient when it is a
        fresh array of the parent's dtype that nothing else references,
        and copied into that dtype otherwise (VJPs may return ``g``
        itself, a view of it, or an array they keep); later ones are added
        into it in place. Interior nodes drop their gradient once it has
        reached their parents.
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
                if parent.grad is not None:
                    parent.grad += contribution
                elif (
                    type(contribution) is np.ndarray
                    and contribution.dtype == parent.value.dtype
                    and contribution.base is None
                    and sys.getrefcount(contribution) == _SOLE_OWNER_REFS
                ):
                    parent.grad = contribution
                else:
                    parent.grad = np.array(contribution, dtype=parent.value.dtype)
            if node.parents:
                node.grad = None

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
    rows = x.shape[0]
    # one reduction: a negative index read as unsigned exceeds any row count
    if idx.ndim != 1 or (idx.size and idx.view(np.uintp).max() >= rows):
        raise ShapeMismatch(f"gather_rows: indices {idx.tolist()} for rows of shape {x.shape}")
    return _node(x.value.take(idx, axis=0), (x,), (lambda g: _sum_rows_by_index(g, idx, rows),))


def _sum_rows_by_index(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """(size, m) sums of the rows of ``values`` (n, m) that share an ``index`` entry.

    Row t adds the rows i with index[i] == t in increasing order of i, as
    a loop over the rows would, but as one ``bincount`` over the flat entries.
    bincount adds in float64; the sums come back in the dtype of ``values``.
    """
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=size * width)
    return sums.reshape(size, width).astype(values.dtype, copy=False)


def relu(x: Node) -> Node:
    mask = x.value > 0
    return _node(np.where(mask, x.value, 0.0), (x,), (lambda g: g * mask,))


def leaky_relu(x: Node, slope: float = 0.2) -> Node:
    factor = np.where(x.value > 0, 1.0, slope).astype(x.value.dtype)
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


def softmax(x: Node, axis: int) -> Node:
    """Stable softmax along one axis (max subtraction before exp)."""
    shifted = x.value - np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        return y * (g - np.sum(g * y, axis=axis, keepdims=True))

    return _node(y, (x,), (vjp,))


def _segment_ids(op: str, shape: tuple, starts) -> tuple[np.ndarray, np.ndarray]:
    """Validated segment starts and the segment index of every row of a matrix of ``shape``."""
    starts = np.asarray(starts, dtype=np.intp)
    if (
        len(shape) != 2
        or starts.ndim != 1
        or starts.size == 0
        or starts[0] != 0
        or np.any(np.diff(starts) <= 0)
        or starts[-1] >= shape[0]
    ):
        raise ShapeMismatch(
            f"{op}: segment starts {starts.tolist()} do not split the rows of shape {shape}"
        )
    return starts, np.repeat(np.arange(starts.size), np.diff(starts, append=shape[0]))


def segment_sum(x: Node, starts) -> Node:
    """Row sums of the contiguous segments of ``x`` (P, n) that begin at ``starts``; (S, n)."""
    starts, ids = _segment_ids("segment_sum", x.shape, starts)
    return _node(np.add.reduceat(x.value, starts, axis=0), (x,), (lambda g: g[ids],))


def segment_softmax(x: Node, starts) -> Node:
    """Stable softmax down the rows of each contiguous segment of ``x``."""
    starts, ids = _segment_ids("segment_softmax", x.shape, starts)
    e = np.exp(x.value - np.maximum.reduceat(x.value, starts, axis=0)[ids])
    y = e / np.add.reduceat(e, starts, axis=0)[ids]

    def vjp(g):
        return y * (g - np.add.reduceat(g * y, starts, axis=0)[ids])

    return _node(y, (x,), (vjp,))


def lstm_sequence(z: Node, w_hidden: Node, starts, reverse: bool = False) -> Node:
    """Hidden states of one LSTM direction over packed sequences, as one node.

    ``z`` (n, 4d) holds the input pre-activations of every layout row,
    ``x @ w_input + bias`` computed by the caller; this op is the
    recurrence alone. The layout holds S sequences as contiguous,
    non-empty row segments that begin at ``starts`` (the ``segment_sum``
    convention). Each is read on its own, first row to last, or last to
    first with ``reverse``. Gates are stacked (input, forget, cell,
    output) along the columns of ``z`` and ``w_hidden`` (d, 4d). Row r of
    the (n, d) result is the hidden state after reading row r; initial
    hidden and cell states are zero. Every buffer has the input's dtype.

    The sequences are stably sorted longest first, so those still running
    at step s are a prefix of k_s of them. The rows are permuted once into
    step-major order, where step s is a contiguous slice of k_s rows
    updated with one (k_s, d) @ (d, 4d) GEMM, and scattered back once.
    """
    starts, _ = _segment_ids("lstm_sequence", z.shape, starts)
    d = w_hidden.shape[0]
    if z.shape[1] != 4 * d or w_hidden.shape != (d, 4 * d):
        raise ShapeMismatch(
            f"lstm_sequence: pre-activations {z.shape} with hidden weights {w_hidden.shape}"
        )
    n = z.shape[0]
    lengths = np.diff(starts, append=n)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    step = np.arange(lengths[0])[:, None]
    running = step < lengths  # (step, sequence): a prefix of each row is True
    read = first + lengths - 1 - step if reverse else first + step
    perm = read[running]  # step-major position -> layout row
    widths = running.sum(axis=1)  # k_s
    offsets = np.concatenate(([0], np.cumsum(widths)))
    wh = w_hidden.value
    dtype = z.value.dtype

    z_input = z.value.take(perm, axis=0)
    acts = np.empty((n, 4 * d), dtype)
    hidden = np.empty((n, d), dtype)  # hidden and cell states after each step
    cell = np.empty((n, d), dtype)
    hidden_prev = np.zeros((n, d), dtype)  # and before it
    cell_prev = np.zeros((n, d), dtype)
    tanh_cell = np.empty((n, d), dtype)
    for s, k in enumerate(widths):
        rows = slice(offsets[s], offsets[s] + k)
        pre = z_input[rows]
        if s:
            last = slice(offsets[s - 1], offsets[s - 1] + k)
            hidden_prev[rows] = hidden[last]
            cell_prev[rows] = cell[last]
            pre = pre + hidden_prev[rows] @ wh
        a = acts[rows]
        a[:] = _sigmoid(pre)
        a[:, 2 * d : 3 * d] = np.tanh(pre[:, 2 * d : 3 * d])
        cell[rows] = a[:, d : 2 * d] * cell_prev[rows] + a[:, :d] * a[:, 2 * d : 3 * d]
        tanh_cell[rows] = np.tanh(cell[rows])
        hidden[rows] = a[:, 3 * d :] * tanh_cell[rows]
    out = np.empty((n, d), dtype)
    out[perm] = hidden

    cache: dict = {}

    def gate_grads(g):
        """d(loss)/d(pre-activation gates) in step-major order, one BPTT sweep per g."""
        if cache.get("g") is not g:
            cache["g"] = g
            cache["dz"] = _lstm_bptt(g[perm], acts, cell_prev, tanh_cell, wh, offsets, widths)
        return cache["dz"]

    def z_vjp(g):
        dz = np.empty_like(acts)
        dz[perm] = gate_grads(g)
        return dz

    return _node(out, (z, w_hidden), (z_vjp, lambda g: hidden_prev.T @ gate_grads(g)))


def _lstm_bptt(g_hidden, acts, cell_prev, tanh_cell, wh, offsets, widths) -> np.ndarray:
    """Backpropagation through time for ``lstm_sequence`` (all rows step-major).

    Carries run over the sorted-sequence prefix: a sequence that ends at
    step s first gets its (zero) carry there, since later steps only wrote
    the narrower prefix of longer sequences.
    """
    n, d = tanh_cell.shape
    gate_in, gate_forget = acts[:, :d], acts[:, d : 2 * d]
    gate_cell, gate_out = acts[:, 2 * d : 3 * d], acts[:, 3 * d :]
    # Activation derivatives: y(1-y) for sigmoid gates, 1-y^2 for the tanh gate.
    slope = acts * (1.0 - acts)
    slope[:, 2 * d : 3 * d] = 1.0 - gate_cell * gate_cell
    cell_from_hidden = gate_out * (1.0 - tanh_cell * tanh_cell)
    dz = np.empty_like(acts)
    dh_next = np.zeros((widths[0], d), acts.dtype)
    dc_next = np.zeros((widths[0], d), acts.dtype)
    for s in range(len(widths) - 1, -1, -1):
        k = widths[s]
        rows = slice(offsets[s], offsets[s] + k)
        dh = g_hidden[rows] + dh_next[:k]
        dc = dh * cell_from_hidden[rows] + dc_next[:k]
        block = dz[rows]
        block[:, :d] = dc * gate_cell[rows]
        block[:, d : 2 * d] = dc * cell_prev[rows]
        block[:, 2 * d : 3 * d] = dc * gate_in[rows]
        block[:, 3 * d :] = dh * tanh_cell[rows]
        block *= slope[rows]
        dc_next[:k] = dc * gate_forget[rows]
        dh_next[:k] = block @ wh.T
    return dz


def cross_entropy(logits: Node, labels) -> Node:
    """Mean negative log-likelihood of ``labels`` under the row softmaxes of ``logits``.

    ``logits`` is (B, C) with one label per row; row b's loss is
    logsumexp(logits[b]) - logits[b, labels[b]] and its gradient is
    (softmax(logits[b]) - onehot(labels[b])) / B.
    """
    v = logits.value
    labels = np.asarray(labels, dtype=np.intp)
    if v.ndim != 2 or labels.shape != (v.shape[0],) or v.shape[0] == 0:
        raise ShapeMismatch(
            f"cross_entropy: logits of shape {logits.shape} with labels of shape {labels.shape}"
        )
    if np.any((labels < 0) | (labels >= v.shape[1])):
        raise ValueError(f"cross_entropy: labels {labels.tolist()} out of range for {v.shape[1]} classes")
    m = np.max(v, axis=1, keepdims=True)
    e = np.exp(v - m)
    total = np.sum(e, axis=1, keepdims=True)
    rows = np.arange(v.shape[0])
    losses = (m + np.log(total))[:, 0] - v[rows, labels]

    def vjp(g):
        out = e / total
        out[rows, labels] -= 1.0
        out *= g.reshape(()) / len(losses)
        return out

    return _node(np.mean(losses), (logits,), (vjp,))


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


_INIT_BLOCK = 1 << 16  # values drawn per call: a float64 block that stays in cache


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=np.float64) -> np.ndarray:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) initialization, rounded to ``dtype``.

    The draws are float64 whatever ``dtype`` is, so a float32 init is the
    float64 init rounded. They are made a block at a time and written into
    the result: the generator yields the same sequence as one call for the
    whole shape, with no full-size float64 temporary.
    """
    bound = float(np.sqrt(1.0 / fan_in))
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _INIT_BLOCK):
        size = min(_INIT_BLOCK, flat.size - lo)
        flat[lo : lo + size] = rng.uniform(-bound, bound, size=size)
    return out


def gradient_check(f, params, h: float = 1e-5) -> float:
    """Max per-coordinate relative error between backward and central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Node built from ``params``. Coordinates where both gradients are tiny
    (< 1e-8) are compared absolutely to avoid 0/0 blowups. The parameters
    must be float64: a step of ``h`` in float32 is lost in rounding noise,
    so any other dtype raises ValueError.
    """
    params = [p for p in params if p.requires_grad]
    for p in params:
        if p.value.dtype != np.float64:
            raise ValueError(f"gradient_check needs float64 parameters, got {p.value.dtype}")
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
