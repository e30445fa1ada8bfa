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
segment of a ``Segments``: the segments' starts, lengths and row ids,
validated once when built and shared by every op over the same rows. A
graph layer is then a fixed handful of nodes whatever the vertex count.
``gather_rows`` selects rows by index, duplicates allowed; its backward
is a single ``bincount`` that sums the gradient rows of every index.

Recurrences are fused and packed: ``bilstm_sequence`` runs both LSTM
directions over any number of sequences, one per segment of a
``Segments``, as a single node. It is the recurrence alone: its input is
the (T, 8d) gate pre-activations ``x @ w_input + bias`` of T tokens, the
two directions as column blocks, and the token row each layout row
reads. The caller builds them with ordinary ops (a projection over a
batch's distinct tokens, say), so input GEMMs and their gradients are
the engine's usual ``matmul`` and ``requires_grad`` pruning skips a
constant input. The op gathers its gate buffer straight from the token
rows, and its input gradient is ``gather_rows``' to the bit: each
token's rows summed in layout order, in float64. It sums them by rank
layers, every token's first row, then every second row and so on, one
fancy index each: at the paper's widths a ``bincount`` over the flat
(n, 8d) gradient costs several times the few layers a token's
multiplicity allows. ``gather_rows`` keeps its ``bincount``, which is
the cheaper of the two over narrow rows read many times, as the graph
layers' neighbour gathers are.
With the sequences sorted longest first, step s of the loop updates the
k_s sequences still running, in both directions at once, with one
stacked (2, k_s, d) @ (2, d, 4d) ``matmul``, so the loop runs max-length
steps, not total rows or directions. At small widths a step costs its
numpy calls, not its arithmetic: a step is a ``matmul`` and ten
elementwise calls, each over contiguous operands of the shape of the
block it updates, with no temporary. The gates stay in the layout the
``matmul`` writes, direction-major, because at batch widths a
transposing write into a gate-major layout cost more than its
contiguous gates saved at width 1. Its backward runs one
backpropagation-through-time sweep over the same steps for both
directions, yields the gate gradients of every row, and makes the
``w_hidden`` gradient one stacked GEMM for the whole call. The graph
therefore grows with layers, not with timesteps, sequences or
directions.

``cross_entropy`` scores a (B, C) batch of logits against B labels and
returns the batch-mean loss, so a minibatch is one forward and one
backward whose gradient is the mean of the per-instance gradients.

A graph is built fresh for every forward pass. Leaf nodes (parameters)
accumulate gradients across repeated backward calls until cleared with
``zero_grads``. An interior node's gradient is released as soon as it
has been passed to its parents: a batch's backward then holds only the
gradients still in flight, and two backward calls through a shared
interior node each pass their own gradient on once. Accumulation is in
place. Where a node's first gradient contribution goes depends on its
``grad_buffer``, an array of its value's shape and dtype that a caller
may give a parameter (a training loop, for its length; ``None`` by
default):

- With a buffer, the buffer becomes the node's ``grad``. The weight-side
  VJPs of ``matmul`` and of ``bilstm_sequence``'s ``w_hidden`` compute
  straight into it with ``out=``; every other first contribution is
  copied into it. So a training step allocates no parameter gradient.
- Without one, a freshly allocated array of the node's own dtype that
  nothing else references becomes the node's ``grad`` as it is; anything
  else is copied into that dtype, because the pass-through VJPs of
  ``add`` and ``concat`` return the incoming gradient or a view of it
  and a VJP may keep the array it returns. Those two VJPs then compute
  into a fresh array through the same code.

Every later contribution is added into the node's ``grad`` with ``+=``.
No two nodes' ``grad`` arrays ever share memory, with each other or with
a value, as long as no two buffers do.

Inside ``no_grad()`` nothing is built for a backward, in the spirit of
``torch.no_grad``. One rule in ``_node`` serves every op: a result keeps
its parents and VJP closures only when grads are on and some parent
requires grad; otherwise it is a plain value node, as a constant is.
``_node`` fills the node's slots directly rather than through
``Node.__init__``: the op has just computed its value as an array of its
operands' float dtype, so only a reduction's numpy scalar (the
batch-mean loss) needs wrapping, as a 0-d array. A forward under
``no_grad`` thus holds no closures, and each intermediate is freed once
nothing reads it; a training graph loses only nodes that no backward
visits. ``bilstm_sequence`` also skips its backward state
there. ``backward`` on a node that does not require grad raises
ValueError instead of leaving every gradient untouched.

A model keeps its parameters in one ``Arena``: one zeroed buffer,
``flat``, with a block per parameter, each starting on a 64-byte cache
line. malloc puts a large array 16 bytes past a line, where each row's
loads straddle one more line: for the paper's ``w_ctx`` shape unpadded,
a (9, 768) product took 1.26 ms there and 1.14 ms line-aligned. A
weight matrix whose rows are a whole multiple of 4096 bytes long also
puts the same column of every row on the same cache sets, so a GEMM that
packs a few of its rows at a time (a forward's small-M products, the
weight gradients) keeps evicting what it has just loaded: 4 KiB
aliasing (Goto and van de Geijn 2008, "Anatomy of High-Performance
Matrix Multiplication"). The arena stores such a matrix, of two or more
rows, with rows 64 bytes longer (``ROW_PAD_BYTES``) and zero padding,
and its view reads their leading columns. BLAS reads the view through
its leading dimension, so no product changes a bit. At the paper's dims
the LSTM's ``w_ctx``, ``w_feat`` and ``w_hidden`` have 8 KiB float32
rows. On 2 vCPUs with one BLAS thread (medians of 15 samples), a
(9, 768) @ (768, 2048) product took 1.26 ms unpadded where malloc puts
it, 0.95 ms with 64-byte padding there and 0.87 ms padded and
line-aligned; padding by 128 or 256 bytes gave 1.19 and 1.35 ms. At
small widths nothing is padded. Elementwise passes over parameters (a
training step, the clip norm, a snapshot copy) run over contiguous
storage, a block or the whole ``flat``: over the padded ``w_ctx`` views
an in-place subtract took 1.43 ms against 0.60 ms over its storage, and
``vdot`` 4.6 ms (it copies a strided operand) against 0.31 ms. So a
model's gradients and its best-dev copy take the values' layout, an
arena of the same shapes, and their padding and the gaps between blocks
stay zero.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys

import numpy as np

__all__ = [
    "Node",
    "ShapeMismatch",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "mul",
    "matmul",
    "concat",
    "gather_rows",
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "Segments",
    "segment_sum",
    "segment_softmax",
    "bilstm_sequence",
    "cross_entropy",
    "zero_grads",
    "initial_values",
    "UNDRAWN",
    "Arena",
]


def _sole_owner_refs() -> int:
    """What ``sys.getrefcount`` reports for an array held by one local variable only."""
    fresh = np.empty(0)
    return sys.getrefcount(fresh)


_SOLE_OWNER_REFS = _sole_owner_refs()
_grad_enabled = True
_new_node = object.__new__


@contextlib.contextmanager
def no_grad():
    """Build no autodiff graph inside the block: every op returns a plain value node.

    Blocks nest; on leaving one, the mode in force before it returns,
    also when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class ShapeMismatch(ValueError):
    """Incompatible operand shapes; the message names both shapes."""


class Node:
    """A floating-point array plus reverse-mode bookkeeping.

    A float array keeps its dtype; anything else becomes float64.

    ``parents`` and ``vjps`` are parallel tuples: ``vjps[k](g)`` maps the
    gradient w.r.t. this node to the gradient contribution for
    ``parents[k]``. ``grad_buffer``, when set, is where ``backward``
    puts the node's first gradient contribution (see the module notes).
    """

    __slots__ = ("value", "grad", "grad_buffer", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(np.float64)
        self.grad = self.grad_buffer = None
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
        node's first contribution becomes its ``grad_buffer`` when it has
        one, computed or copied into it. Without one, the contribution is
        adopted as the gradient when it is a fresh array of the parent's
        dtype that nothing else references, and copied into that dtype
        otherwise (VJPs may return ``g`` itself, a view of it, or an array
        they keep). Later ones are added into it in place. Interior nodes
        drop their gradient once it has reached their parents.
        """
        if self.value.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() needs a node that requires grad, not one of constants or built under no_grad")
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
                buffer = parent.grad_buffer
                if parent.grad is not None:
                    parent.grad += contribution
                elif buffer is not None:
                    if contribution is not buffer:  # else the VJP computed into it
                        np.copyto(buffer, contribution)
                    parent.grad = buffer
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


def _tracked(parents) -> bool:
    """Whether an op over ``parents`` enters the graph: grads on and some parent requires grad."""
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _node(value, parents, vjps) -> Node:
    """An op's result around ``value``, the array it computed in its operands' float dtype.

    It skips ``Node.__init__``: only a numpy scalar (a reduction's) is
    wrapped as a 0-d array. Untracked, it is a plain value node.
    """
    node = _new_node(Node)
    node.value = value if type(value) is np.ndarray else np.asarray(value)
    node.grad = node.grad_buffer = None
    if _tracked(parents):
        node.parents, node.vjps, node.requires_grad = parents, vjps, True
    else:
        node.parents = node.vjps = ()
        node.requires_grad = False
    return node


def _identity(g):
    return g


def _grad_out(node: Node) -> np.ndarray | None:
    """Where a VJP computes ``node``'s first gradient contribution: its buffer, or None (a fresh array)."""
    return node.grad_buffer if node.grad is None else None


def add(a: Node, b: Node) -> Node:
    """Elementwise addition.

    Beyond same-shape operands, ``b`` may be a row vector of shape (n,)
    or (1, n) added to an (m, n) matrix ``a`` (bias addition).
    """
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        return _node(av + bv, (a, b), (_identity, _identity))
    if av.ndim == 2 and bv.ndim in (1, 2):
        shape = bv.shape
        rows = bv.reshape(-1)
        if av.shape[1] == rows.shape[0] and (bv.ndim == 1 or shape[0] == 1):
            return _node(av + rows, (a, b), (_identity, lambda g: np.sum(g, axis=0).reshape(shape)))
    raise ShapeMismatch(f"add: incompatible shapes {av.shape} and {bv.shape}")


def mul(a: Node, b: Node) -> Node:
    """Elementwise product.

    Beyond same-shape operands, ``b`` may be an (m, 1) column that
    scales the rows of an (m, n) matrix ``a``.
    """
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        return _node(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))
    if av.ndim == 2 and bv.shape == (av.shape[0], 1):
        return _node(
            av * bv, (a, b), (lambda g: g * bv, lambda g: np.sum(g * av, axis=1, keepdims=True))
        )
    raise ShapeMismatch(f"mul: incompatible shapes {av.shape} and {bv.shape}")


def matmul(a: Node, b: Node) -> Node:
    """2-D matrix product (m,k) @ (k,n)."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    return _node(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: np.matmul(av.T, g, out=_grad_out(b))))


def concat(nodes, axis: int) -> Node:
    """Concatenate along an existing axis; gradient splits back."""
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("concat of zero nodes")
    values = [n.value for n in nodes]
    value = np.concatenate(values, axis=axis)
    vjps = []
    offset = 0
    for v in values:
        width = v.shape[axis]
        index = (slice(None),) * (axis % value.ndim) + (slice(offset, offset + width),)
        vjps.append(lambda g, ix=index: g[ix])
        offset += width
    return _node(value, nodes, tuple(vjps))


def gather_rows(x: Node, indices) -> Node:
    """Select rows by index (duplicates allowed); gradient scatter-adds."""
    xv = x.value
    idx = np.asarray(indices, dtype=np.intp)
    if xv.ndim != 2:
        raise ShapeMismatch(f"gather_rows: expected a matrix, got shape {xv.shape}")
    rows = xv.shape[0]
    # one reduction: a negative index read as unsigned exceeds any row count
    if idx.ndim != 1 or (idx.size and np.maximum.reduce(idx.view(np.uintp)) >= rows):
        raise ShapeMismatch(f"gather_rows: indices {idx.tolist()} for rows of shape {xv.shape}")
    return _node(xv.take(idx, axis=0), (x,), (lambda g: _sum_rows_by_index(g, idx, rows),))


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
    xv = x.value
    positive = xv > 0
    # a Python float slope multiplies in the array's dtype
    return _node(np.where(positive, xv, xv * slope), (x,), (lambda g: np.where(positive, g, g * slope),))


def elu(x: Node) -> Node:
    positive = x.value > 0
    y = np.where(positive, x.value, np.expm1(x.value))
    # d/dx expm1(x) = exp(x) = y + 1 on the negative branch
    return _node(y, (x,), (lambda g: g * np.where(positive, 1.0, y + 1.0),))


def tanh(x: Node) -> Node:
    y = np.tanh(x.value)
    return _node(y, (x,), (lambda g: g * (1.0 - y * y),))


class Segments:
    """Contiguous, non-empty row segments of ``rows`` rows: ``starts``, ``lengths`` and row ``ids``.

    Starts that do not split the rows raise ShapeMismatch naming them and the row count.
    """

    def __init__(self, starts, rows: int):
        starts = np.asarray(starts, dtype=np.intp)
        valid = starts.ndim == 1 and starts.size and starts[0] == 0
        lengths = np.concatenate((starts[1:], (rows,))) - starts if valid else None
        if not valid or np.minimum.reduce(lengths) <= 0:
            raise ShapeMismatch(f"segment starts {starts.tolist()} do not split {rows} rows")
        self.starts, self.rows, self.lengths = starts, rows, lengths
        self.ids = np.arange(starts.size).repeat(lengths)


def _check_rows(op: str, x: Node, segments: Segments) -> None:
    shape = x.value.shape
    if len(shape) != 2 or shape[0] != segments.rows:
        raise ShapeMismatch(f"{op}: segments of {segments.rows} rows for shape {shape}")


def segment_sum(x: Node, segments: Segments) -> Node:
    """Row sums of the segments of ``x`` (P, n); (S, n)."""
    _check_rows("segment_sum", x, segments)
    ids = segments.ids
    return _node(np.add.reduceat(x.value, segments.starts, axis=0), (x,), (lambda g: g[ids],))


def segment_softmax(x: Node, segments: Segments) -> Node:
    """Stable softmax down the rows of each segment of ``x``."""
    _check_rows("segment_softmax", x, segments)
    starts, ids = segments.starts, segments.ids
    e = np.exp(x.value - np.maximum.reduceat(x.value, starts, axis=0)[ids])
    y = e / np.add.reduceat(e, starts, axis=0)[ids]

    def vjp(g):
        return y * (g - np.add.reduceat(g * y, starts, axis=0)[ids])

    return _node(y, (x,), (vjp,))


_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])  # per gate: (input, forget, cell, output)
_DIRECTIONS = np.arange(2)


def bilstm_sequence(z: Node, w_hidden: Node, segments: Segments, token_rows) -> Node:
    """Hidden states of both LSTM directions over packed sequences, as one node.

    ``z`` (T, 8d) holds the input pre-activations of T tokens,
    ``x @ w_input + bias`` computed by the caller; this op is the
    recurrence alone. Layout row r reads token row ``token_rows[r]``, so
    the op equals one over ``gather_rows(z, token_rows)`` with identity
    token rows, bit for bit, its ``z`` gradient included. Token rows that
    are not one per layout row, or name no row of ``z``, raise
    ShapeMismatch naming them and both shapes. The columns of ``z`` are
    ``[forward 4d | backward 4d]``, as are those of ``w_hidden`` (d, 8d),
    and within each direction the gates are stacked (input, forget, cell,
    output). The n layout rows hold S sequences, one per row segment of
    ``segments``; the forward direction reads each first row to last, the
    backward one last to first. Row r of the (n, 2d) result is
    ``[h_fwd | h_bwd]`` after reading row r; initial hidden and cell
    states are zero. Every buffer has the input's dtype.

    The sequences are stably sorted longest first, so those still running
    at step s are a prefix of k_s of them in both directions. The rows are
    permuted once into step-major order, where step s is a contiguous
    block of k_s rows, direction second: the gather of the token rows of
    ``z`` into that order is the gate buffer ``acts`` (n, 2, 4d) itself,
    one fancy index with no (n, 8d) layout copy between. A step adds one
    ``matmul`` of the (2, k_s, d) previous states, read in place from step
    s-1's rows, with a strided (2, d, 4d) view of ``w_hidden`` into its
    rows. All four gates come from one ``tanh`` over the gate block, since
    sigmoid(x) = tanh(x/2)/2 + 1/2, with constant per-gate scale and
    shift rows of the block's shape, cut once per width like the step's
    other scratch buffers. So a step's elementwise calls all take
    contiguous operands of one shape and write into preallocated buffers.

    The gates stay direction-major, as the ``matmul`` writes them; a
    gate is then a strided (k_s, 2, d) view. Storing them gate-major,
    (k_s, 4, 2, d), makes each gate one block, which pays at k_s = 1, but
    the multiply that moves the block into that order transposes it, and
    at batch widths that write costs more than the strided gate views.
    No-grad, at d 16 on one 2-vCPU core: one 24-sentence infer-long call
    (72 sequences, 24 steps) ran 656 µs gate-major and 417 µs
    direction-major, one sentence (19 steps, k_s <= 3) 169 and 174 µs.

    Folding the scale, a power of two, into a scaled copy of the hidden
    weights would save one call per step but streams a copy of
    ``w_hidden`` per call: 2 MB at the paper's d = 256, slower than the
    calls it saves.

    The ``z`` gradient is summed into token rows from the step-major gate
    gradients directly, by rank layers (``_rank_layers``): layer j holds
    every token's (j+1)-th layout row, in layout order. The first layer is
    written into a float64 (T, 8d) buffer of zeros, each later one added
    to it, and a final +0.0 turns a -0.0 into +0.0: the bits of
    ``bincount``'s sum, which starts at +0.0. A token appears once per
    layer, so each layer is one fancy index; a batch's token is read by at
    most its sentence's three sub-graphs, so there are at most three.
    """
    zv, whv, n = z.value, w_hidden.value, segments.rows
    tokens = np.asarray(token_rows, dtype=np.intp)
    # one reduction: a negative row read as unsigned exceeds any token count
    if zv.ndim != 2 or tokens.shape != (n,) or np.maximum.reduce(tokens.view(np.uintp)) >= len(zv):
        raise ShapeMismatch(f"bilstm_sequence: token rows {tokens.tolist()} of {n} rows for shape {zv.shape}")
    d = whv.shape[0]
    if zv.shape[1] != 8 * d or whv.shape != (d, 8 * d):
        raise ShapeMismatch(f"bilstm_sequence: pre-activations {zv.shape} with hidden weights {whv.shape}")
    order = np.argsort(-segments.lengths, kind="stable")
    first, lengths = segments.starts[order], segments.lengths[order]
    # the (step, sequence) of each step-major position: a prefix of the sequences runs at each step
    step, sequence = (np.arange(lengths[0])[:, None] < lengths).nonzero()
    layout_rows = np.empty((n, 2), np.intp)  # the layout row each direction reads there
    layout_rows[:, 0] = first[sequence] + step
    layout_rows[:, 1] = (first + lengths - 1)[sequence] - step
    widths = np.bincount(step)  # k_s
    k0 = int(widths[0])
    dtype = zv.dtype
    wh = whv.reshape(d, 2, 4 * d).transpose(1, 0, 2)  # direction k's block
    # a step's gates are (k, 2, 4d), direction-major as the matmul writes them; the input
    # pre-activations are gathered into place; sigmoid(x) = tanh(x/2) * 1/2 + 1/2
    acts = zv.reshape(len(zv), 2, 4 * d)[tokens[layout_rows], _DIRECTIONS]
    gates = acts.reshape(n, 2, 4, d)
    gate_in, gate_forget, gate_cell, gate_out = (gates[:, :, j] for j in range(4))
    scale_rows = np.empty((k0, 2, 4 * d), dtype)
    scale_rows[...] = _GATE_SCALE.repeat(d)
    shift_rows = 1 - scale_rows
    pre = np.empty((k0, 2, 4 * d), dtype)  # one step's hidden-state term
    hidden, cell, tanh_cell = np.empty((3, n, 2, d), dtype)  # hidden and cell states after each step
    hidden_t = hidden.transpose(1, 0, 2)
    carry = np.empty((k0, 2, d), dtype)  # forget gate times the previous cell state
    lo = 0
    for k, run in itertools.groupby(widths.tolist()):  # scratch views are cut once per width
        pre_k, carry_k, scale_k, shift_k = pre[:k], carry[:k], scale_rows[:k], shift_rows[:k]
        pre_t = pre_k.transpose(1, 0, 2)
        for _ in run:
            rows = slice(lo, lo + k)
            a = acts[rows]
            if lo:  # step 0 reads zero states
                last = slice(last.start, last.start + k)
                np.matmul(hidden_t[:, last], wh, out=pre_t)
                a += pre_k
            a *= scale_k
            np.tanh(a, out=a)
            a *= scale_k
            a += shift_k
            c = cell[rows]
            np.multiply(gate_in[rows], gate_cell[rows], out=c)
            if lo:
                np.multiply(gate_forget[rows], cell[last], out=carry_k)
                c += carry_k
            tc = tanh_cell[rows]
            np.tanh(c, out=tc)
            np.multiply(gate_out[rows], tc, out=hidden[rows])
            last, lo = rows, lo + k
    out = np.empty((n, 2 * d), dtype)
    out.reshape(n, 2, d)[layout_rows, _DIRECTIONS] = hidden
    if not _tracked((z, w_hidden)):
        return _node(out, (), ())
    # the row of step s-1 that each row of steps 1, 2, ... reads its previous state from
    prev = np.arange(k0, n) - np.repeat(widths[:-1], widths[1:])

    cache: dict = {}

    def gate_grads(g):
        """d(loss)/d(pre-activation gates) in step-major order, one BPTT sweep per g."""
        if cache.get("g") is not g:
            g_hidden = g.reshape(n, 2, d)[layout_rows, _DIRECTIONS]
            cache["g"] = g
            cache["dz"] = _bilstm_bptt(g_hidden, gates, cell, tanh_cell, prev, wh, widths.tolist())
        return cache["dz"]

    def z_vjp(g):
        dz = gate_grads(g)
        position = np.empty((n, 2), np.intp)  # the step-major row of each layout row, per direction
        position[layout_rows, _DIRECTIONS] = np.arange(n)[:, None]
        sums = np.zeros((len(zv), 2, 4 * d))
        first, *later = _rank_layers(tokens)  # a token's rows, one per layer, in layout order
        sums[tokens[first]] = dz[position[first], _DIRECTIONS]
        for rows in later:
            sums[tokens[rows]] += dz[position[rows], _DIRECTIONS]
        sums += 0.0  # a -0.0 comes out +0.0, as from a sum that starts at +0.0
        return sums.reshape(len(zv), 8 * d).astype(dtype, copy=False)

    def w_hidden_vjp(g):
        dz = gate_grads(g)[k0:]  # step 0 reads zero states
        out = _grad_out(w_hidden)
        if out is None:
            out = np.empty((d, 8 * d), dtype)
        # one (d, 4d) GEMM per direction, each into its strided column block
        blocks = out.reshape(d, 2, 4 * d).transpose(1, 0, 2)
        np.matmul(hidden[prev].transpose(1, 2, 0), dz.transpose(1, 0, 2), out=blocks)
        return out

    return _node(out, (z, w_hidden), (z_vjp, w_hidden_vjp))


def _bilstm_bptt(g_hidden, gates, cell, tanh_cell, prev, wh, widths: list[int]) -> np.ndarray:
    """Backpropagation through time for ``bilstm_sequence``: (n, 2, 4d) gate gradients.

    All arrays are step-major, direction second; the ``gates`` are
    (n, 2, 4, d), a view of the forward's direction-major gate buffer.
    Each gate's gradient is the cell gradient (input, forget and cell
    gates) or the hidden one (output gate) times a per-row factor
    computed for all rows up front. Carries run over the sorted-sequence
    prefix: a sequence that ends at step s first gets its (zero) carry
    there, since later steps only wrote the narrower prefix of longer
    sequences. Step s owns the ``widths[s]`` rows after those of the
    steps before it, and the sweep runs the steps last to first, with the
    carries, scratch rows and their views cut once per width.

    The hidden-state carry ``dh_next`` is (2, d, k0): each step's product
    ``wh @ block^T`` writes a (d, k_s) block per direction in C order.
    The transposed product ``block @ wh^T`` has the same bits, but writing
    (k_s, d) blocks it ran 1.5 times as long at the paper's d = 256
    (k_s = 18; 2 vCPUs, one BLAS thread). The price is a strided read of
    the carry in the next step's first add, about 1 µs a step at d = 16.
    Writing each step's results into scratch rows, through views cut once
    per width, wins that back: a d = 16 sweep of 24 sequences and about
    20 steps took as long as the earlier loop's (250-275 µs).
    """
    n, _, d = tanh_cell.shape
    k0, dtype = widths[0], gates.dtype
    gate_in, gate_forget, gate_cell = gates[:, :, 0], gates[:, :, 1], gates[:, :, 2]
    factor = np.empty(gates.shape, gates.dtype)
    factor[:, :, 0] = gate_cell
    factor[:k0, :, 1] = 0.0
    factor[k0:, :, 1] = cell[prev]
    factor[:, :, 2] = gate_in
    factor[:, :, 3] = tanh_cell
    # activation derivatives: y(1-y) for the sigmoid gates, 1-y^2 for the tanh gate
    slope = gates * (1.0 - gates)
    slope[:, :, 2] = 1.0 - gate_cell * gate_cell
    factor *= slope
    cell_from_hidden = gates[:, :, 3] * (1.0 - tanh_cell * tanh_cell)
    factor_cell, factor_out = factor[:, :, :3], factor[:, :, 3]
    dz = np.empty_like(factor)
    dz_cell, dz_out, dz_t = dz[:, :, :3], dz[:, :, 3], dz.reshape(n, 2, 4 * d).transpose(1, 2, 0)
    dh_next, dc_next = np.zeros((2, d, k0), dtype), np.zeros((k0, 2, d), dtype)
    dh_rows, dc_rows = np.empty((k0, 2, d), dtype), np.empty((k0, 2, d), dtype)
    hi = n
    for k, run in itertools.groupby(reversed(widths)):
        carry_h, carry_c, dh, dc = dh_next[:, :, :k], dc_next[:k], dh_rows[:k], dc_rows[:k]
        carry_h_rows, dc_cell = carry_h.transpose(2, 0, 1), dc[:, :, None]
        for _ in run:
            lo = hi - k
            np.add(g_hidden[lo:hi], carry_h_rows, out=dh)
            np.multiply(dh, cell_from_hidden[lo:hi], out=dc)
            dc += carry_c
            np.multiply(dc_cell, factor_cell[lo:hi], out=dz_cell[lo:hi])
            np.multiply(dh, factor_out[lo:hi], out=dz_out[lo:hi])
            if lo:  # step 0 passes nothing on
                np.multiply(dc, gate_forget[lo:hi], out=carry_c)
                np.matmul(wh, dz_t[:, :, lo:hi], out=carry_h)
            hi = lo
    return dz.reshape(n, 2, 4 * d)


def _rank_layers(index: np.ndarray) -> list[np.ndarray]:
    """The positions of ``index`` by rank: layer j holds the (j+1)-th position of each value.

    A layer holds each value at most once, and a value's positions are in
    increasing order across the layers.
    """
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    rank = np.arange(len(index)) - ranked.searchsorted(ranked)  # minus where the value's run starts
    return [order[rank == j] for j in range(rank.max() + 1)]


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
    """Clear the accumulated gradients: the next backward starts each one afresh.

    A parameter keeps its ``grad_buffer``, so that start writes into the
    same storage again; a caller that gave buffers drops them itself.
    """
    for p in params:
        p.grad = None


ALIAS_BYTES = 4096  # rows a whole multiple of this long alias in the caches
ROW_PAD_BYTES = 64  # what an aliasing row's storage adds
LINE_BYTES = 64  # where every block of an arena starts: on a cache line


class Arena:
    """One zeroed buffer, ``flat``, that holds a block for each of ``shapes``, in order.

    ``views[k]`` is block k as an array of ``shapes[k]`` and ``blocks[k]``
    its contiguous storage, 1-D. Every block starts on a ``LINE_BYTES``
    line. A 2-D shape of two or more rows whose row length in bytes is a
    whole multiple of ``ALIAS_BYTES`` is stored with rows ``ROW_PAD_BYTES``
    longer, and its view reads their leading columns (module notes). No
    view reaches the padding or the gaps between blocks, so they stay
    zero. Two arenas of the same shapes and dtype share one layout.
    """

    def __init__(self, shapes, dtype=np.float64):
        dtype = np.dtype(dtype)
        self.shapes = [tuple(shape) for shape in shapes]
        line, stored, starts, end = LINE_BYTES // dtype.itemsize, [], [], 0
        for shape in self.shapes:
            row_bytes = shape[-1] * dtype.itemsize if len(shape) == 2 and shape[0] > 1 else 0
            aliasing = row_bytes > 0 and row_bytes % ALIAS_BYTES == 0
            stored.append((shape[0], shape[1] + ROW_PAD_BYTES // dtype.itemsize) if aliasing else shape)
            starts.append(end)
            end += -(-math.prod(stored[-1]) // line) * line  # up to the next line
        raw = np.zeros(end + line, dtype)  # a line more, so that flat can start on one
        first = -raw.ctypes.data % LINE_BYTES // dtype.itemsize
        self.flat = raw[first : first + end]
        self.blocks = [self.flat[lo : lo + math.prod(shape)] for lo, shape in zip(starts, stored)]
        self.views = [
            block.reshape(shape) if shape == want else block.reshape(shape)[:, : want[1]]
            for block, shape, want in zip(self.blocks, stored, self.shapes)
        ]


# In place of a generator: parameters are allocated but not drawn, for a
# model whose every value a checkpoint load writes.
UNDRAWN = object()


_INIT_BLOCK = 1 << 16  # values drawn per call: a float64 block that stays in cache


def initial_values(rng, fan_in: int, out: np.ndarray) -> np.ndarray:
    """``out`` filled in place with Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) draws and returned.

    With ``rng`` UNDRAWN, ``out`` is left as it is. The draws are float64
    whatever ``out``'s dtype is, and are rounded to it, so a float32 init
    is the float64 init rounded. They are made a chunk of rows at a time
    into one float64 buffer, allocated once per call, and written into
    ``out`` (a column block of a larger matrix, say): ``rng.random``
    fills the buffer, which is scaled and shifted as ``Generator.uniform``
    does, ``low + (high - low) * u``, so the values and the generator's
    state equal one ``uniform`` call for the whole shape, with no
    full-size float64 temporary.
    """
    if rng is UNDRAWN:
        return out
    bound = float(np.sqrt(1.0 / fan_in))
    rows = max(1, _INIT_BLOCK // max(1, int(np.prod(out.shape[1:]))))
    drawn = np.empty((min(rows, len(out)), *out.shape[1:]))
    for lo in range(0, len(out), rows):
        chunk = out[lo : lo + rows]
        u = drawn[: len(chunk)]
        rng.random(out=u)
        u *= 2 * bound  # high - low, exactly
        u -= bound  # + low
        chunk[...] = u
    return out
