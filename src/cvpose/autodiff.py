"""Reverse-mode automatic differentiation over dense 2D matrices.

A Tape records every Value in creation order, which is already a valid
topological order, and the backward sweep walks it in reverse. Gradient
buffers are allocated lazily.

A forward-only tape (Tape(record=False)), for a caller that never sweeps,
records nothing: its Values keep their data, but not their backward
closures, and the tape holds none of them, so each array of the forward
frees by refcount as soon as no caller or op holds it, with no Tape-Value
cycle for release() to break. Its backward() raises ValueError. The ops
are the same on both kinds of tape, and so are their results.

The backward sweep lets go of what it has passed. It pops each interior
node (a Value with a backward closure) off the tape and drops the node's
closure and gradient before running the closure, so an array that only
the tape held is freed by refcount as soon as the sweep is past it: no
earlier closure can read a later node. Leaves (Values with no closure:
inputs, weights) stay on the tape with their gradients until release().
Values the caller holds keep their data, but for those an op consumed:
block_left_matmul_add, the decoder join, takes two graph-conv units'
results (residual_graph_conv, lift_residual_graph_conv), which no
backward reads, and consumes both. It adds its sum into the skip's buffer
and drops h's data, so the forward leaves on the tape only what some
backward reads. A consumed Value keeps its shape and dtype, so its
gradient works, but reading its data raises ValueError. A tape can be
swept once.

A leaf does not copy the array it wraps: its data is a read-only view of
the caller's float64 array, so the caller leaves that array unchanged
until the tape is released or dropped (an optimizer updates the weights
only after release()), and an op that wrote into a leaf would raise.

Precision follows the tape's conv_dtype, float64 by default or float32
(mixed precision in the sense of Micikevicius et al., ICLR 2018). A
Value is stored in conv_dtype when its data already has that dtype and
as float64 otherwise, and its gradient has the dtype of its data. Leaves
are always float64. The graph convolutions multiply in conv_dtype:
lift_residual_graph_conv, the network's 3 -> C lift and the residual
unit after it, casts its input to it, and residual_graph_conv, a
residual unit, takes its input only in it. Each reads its kernels in
conv_dtype from a KernelStack, which holds them in both dtypes, casts its
weight panels to it, and hands back a conv_dtype result, so on a float32
tape a chain of convolutions, block_left_matmuls (with or without their
adds) and adds stays float32 from end to end. residual_graph_conv_head,
the last unit with the C -> 3 head folded in, casts its conv_dtype input
to float64 a tile at a time and hands back a float64 result. A
float64 tape computes everything in float64. The finite-difference
checks, in tests/gradcheck.py, always run on float64 tapes.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDepth, NotScalar, ShapeMismatch
from .geometry import DEPTH_EPS


class _Consumed:
    """What a consumed Value keeps of its data: its shape and dtype, which
    its gradient needs, and the op that consumed it."""

    __slots__ = ("shape", "dtype", "by")

    def __init__(self, data, by):
        self.shape, self.dtype, self.by = data.shape, data.dtype, by


class Value:
    """A matrix on a tape. data is (rows, cols), float64 or the tape's
    conv_dtype; grad matches its shape and dtype. Once an op has consumed
    the Value (block_left_matmul_add), reading data raises ValueError;
    shape, dtype and grad still work."""

    __slots__ = ("_data", "_grad", "tape", "op", "_backward", "__weakref__")

    def __init__(self, data, tape, op, backward=None):
        self._data = data
        self._grad = None
        self.tape = tape
        self.op = op
        self._backward = backward

    @property
    def data(self):
        data = self._data
        if type(data) is _Consumed:
            raise ValueError(f"the {self.op} value was consumed by {data.by}; "
                             f"its data is gone")
        return data

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros(self.shape, self.dtype)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    def _consume(self, by):
        self._data = _Consumed(self._data, by)

    def __repr__(self):
        return f"Value(op={self.op!r}, shape={self.shape})"


class Tape:
    """Records Values; creation order doubles as topological order.

    conv_dtype is the precision the graph convolutions multiply in:
    float64 (exact, the default) or float32 (about twice the GEMM
    throughput). A Value whose data comes out in conv_dtype is kept in it;
    any other is stored as float64. With record=False the tape is
    forward-only: it keeps no Value and no backward closure, and
    backward() raises ValueError.
    """

    def __init__(self, conv_dtype=np.float64, record=True):
        try:  # np.dtype(None) would silently mean float64
            dtype = None if conv_dtype is None else np.dtype(conv_dtype)
        except TypeError:
            dtype = None
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"conv_dtype must be float32 or float64, "
                             f"got {conv_dtype!r}")
        self.conv_dtype = dtype
        self.record = bool(record)
        self.nodes = []
        self._swept = False

    def _record(self, data, op, backward=None):
        dtype = (self.conv_dtype if getattr(data, "dtype", None) == self.conv_dtype
                 else np.float64)
        data = np.ascontiguousarray(data, dtype=dtype)
        if not self.record:
            return Value(data, self, op)
        v = Value(data, self, op, backward)
        self.nodes.append(v)
        return v

    def leaf(self, data, op="leaf"):
        """Wrap a 2D array as a differentiable input.

        The leaf's data is a read-only view, not a copy, of the array when
        it is already C-contiguous float64 (of a contiguous float64 copy
        otherwise). The caller leaves the array unchanged until the tape
        is released or dropped, and may update it in place after that.
        """
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"leaf must be 2D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf holds non-finite entries")
        view = np.ascontiguousarray(arr).view()
        view.flags.writeable = False
        return self._record(view, op)

    def backward(self, loss):
        """Seed d loss/d loss = 1 and sweep the tape in reverse, once.

        Each interior node is popped off the tape, and its closure and
        gradient are dropped before the closure runs, so the sweep frees
        what it has passed. Afterwards the tape holds only its leaves,
        whose gradients stay readable until release(). A second sweep of
        the same tape raises ValueError.
        """
        if loss.tape is not self:
            raise ValueError("loss lives on another tape")
        if loss.data.shape != (1, 1):
            raise NotScalar(f"loss must be 1x1, got {loss.data.shape}")
        if not self.record:
            raise ValueError("a forward-only tape (record=False) keeps no "
                             "graph to sweep")
        if self._swept:
            raise ValueError("tape was already swept or released")
        self._swept = True
        loss.grad[0, 0] += 1.0
        nodes = self.nodes
        leaves = []
        while nodes:
            v = nodes.pop()
            if v._backward is None:
                leaves.append(v)
                continue
            step, g = v._backward, v._grad
            v._backward = v._grad = None
            # No closure reads its own node, so the node may go first.
            del v
            # Untouched grads mean the node does not feed the loss.
            if g is not None:
                step(g)
            del step, g
        leaves.reverse()
        self.nodes = leaves

    def release(self):
        """Drop the recorded graph so node arrays free by refcount.

        Value and Tape reference each other (and backward closures hold the
        operands), so a finished tape otherwise lingers until the cyclic
        collector runs; at batch sizes that is gigabytes. After a backward
        sweep only the leaves and their gradients are left to drop. Values
        the caller still holds stay usable, but no further backward sweep
        is possible.
        """
        for v in self.nodes:
            v._backward = None
            v._grad = None
        self.nodes.clear()
        self._swept = True

    def __len__(self):
        return len(self.nodes)


def _same_tape(*values):
    tape = values[0].tape
    for v in values[1:]:
        if v.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} differ")


def _pass_grad(v, g):
    """Add g, an array of v's shape that no Value holds, into v's gradient;
    when v has none yet and g has v's dtype, g becomes it, with no zero fill
    and no copy."""
    if v._grad is None and g.dtype == v.dtype:
        v._grad = g
    else:
        v.grad += g


# ---------------------------------------------------------------------------
# Arithmetic.


def add(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    _same_shape(a, b, "add")

    def backward(g):
        a.grad += g
        b.grad += g

    return tape._record(a.data + b.data, "add", backward)


def sub(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    _same_shape(a, b, "sub")

    def backward(g):
        a.grad += g
        b.grad -= g

    return tape._record(a.data - b.data, "sub", backward)


def scale(a: Value, c: float) -> Value:
    c = float(c)

    def backward(g):
        a.grad += c * g

    return a.tape._record(c * a.data, "scale", backward)


def affine_rows(a: Value, M, shift=None) -> Value:
    """Rows mapped through a constant matrix: a @ M (+ shift).

    M is (cols_in, cols_out); shift broadcasts over rows. Neither is
    differentiated.
    """
    M = np.asarray(M, dtype=np.float64)
    if a.data.shape[1] != M.shape[0]:
        raise ShapeMismatch(f"affine_rows: {a.data.shape} x {M.shape}")
    out = a.data @ M
    if shift is not None:
        out = out + np.asarray(shift, dtype=np.float64).reshape(1, -1)

    def backward(g):
        a.grad += g @ M.T

    return a.tape._record(out, "affine_rows", backward)


def _blocks(M, h, opname):
    """(M, B): the constant (r, n) matrix M in h's dtype, and the number B
    of n-row blocks in h."""
    M = np.asarray(M, dtype=h.dtype)
    rows, n = h.shape[0], M.shape[1]
    if rows % n != 0:
        raise ShapeMismatch(f"{opname}: {rows} rows not divisible by {n}")
    return M, rows // n


def _block_product(M, x):
    """M (r, n) applied to every n-row block of the (b*n, C) array x:
    the (b*r, C) product."""
    (r, n), (rows, C) = M.shape, x.shape
    return np.matmul(M, x.reshape(rows // n, n, C)).reshape(rows // n * r, C)


def _sample_tiles(B, per):
    """(start, stop) sample bounds of the fewest tiles of at most per
    samples that cover B samples in order, split as numpy's array_split
    splits, so the first is the largest and each holds at least half a
    tile; one tile when B <= per."""
    count = max(1, -(-B // per))
    ends = [-(-B * i // count) for i in range(count + 1)]
    return list(zip(ends, ends[1:]))


def block_left_matmul(M, h: Value) -> Value:
    """Apply a constant (r, n) matrix to every n-row block of h.

    h is (B*n, C) for some whole B; the result is (B*r, C), in h's dtype.
    Used for graph kernels and pooling operators where the same small
    matrix acts on each sample of a batch.
    """
    M, _ = _blocks(M, h, "block_left_matmul")

    def backward(g):
        h.grad += _block_product(M.T, g)

    return h.tape._record(_block_product(M, h.data), "block_left_matmul",
                          backward)


# The ops whose result no closure holds, their own included: the graph-conv
# units. block_left_matmul_add takes only inputs made by them.
_UNIT_OPS = frozenset({"residual_graph_conv", "lift_residual_graph_conv"})


def block_left_matmul_add(M, h: Value, skip: Value) -> Value:
    """add(block_left_matmul(M, h), skip) as one node, with the same bits:
    the decoder's unpooling and its skip connection in one step.

    h and skip are results of graph-conv units (_UNIT_OPS), as the
    decoder's are, of one dtype; anything else raises ValueError before
    the node is recorded. No backward reads them and only their Values
    hold their arrays, so the node consumes both: the product is added
    into the skip's buffer tile by tile, and that buffer becomes the sum.
    A consumed Value keeps its shape and dtype, so its gradient works as
    before, but reading its data raises ValueError.

    The backward takes h's part first; then g, the node's own gradient,
    which the sweep has let go of, becomes the skip's gradient buffer if
    it has none.
    """
    tape = _same_tape(h, skip)
    M, B = _blocks(M, h, "block_left_matmul_add")
    (r, n), C = M.shape, h.shape[1]
    if skip.shape != (B * r, C):
        raise ShapeMismatch(f"block_left_matmul_add: skip {skip.shape}, "
                            f"expected {(B * r, C)}")
    for v in (h, skip):
        if v.op not in _UNIT_OPS:
            raise ValueError(f"block_left_matmul_add: the {v.op} value is "
                             f"not a graph-conv unit's result")
    if h.dtype != skip.dtype:
        raise ValueError(f"block_left_matmul_add: h is {h.dtype}, "
                         f"skip {skip.dtype}")
    out = skip.data
    for a, b in _sample_tiles(B, max(1, TILE_ROWS // r)):
        out[r * a:r * b] += _block_product(M, h.data[n * a:n * b])
    h._consume("block_left_matmul_add")
    skip._consume("block_left_matmul_add")

    def backward(g):
        _pass_grad(h, _block_product(M.T, g))
        _pass_grad(skip, g)

    return tape._record(out, "block_left_matmul_add", backward)


# Rows of whole samples in one tile of a residual unit's scratch, over its
# K kernels: a tile has about TILE_ROWS // K rows, so its (rows, K*C)
# scratch takes the bytes of TILE_ROWS rows of the (rows, C) result. A
# decoder join adds its product into the skip TILE_ROWS result rows at a
# time.
TILE_ROWS = 2048


class KernelStack:
    """The K constant (n, n) kernels of one graph convolution, checked
    once and interleaved into the three matrices a conv applies them by.

    mix_in (n*K, n), with mix_in[i*K + k, j] = N_k[i, j], maps a sample's
    (n, C) block x to the rows of [N_1 x | ... | N_K x]; mix_out (n, n*K),
    with mix_out[i, j*K + k] = N_k[i, j], maps the rows of a sample's
    [Y_1 | ... | Y_K] to sum_k N_k Y_k; mix_out_t is mix_out's transpose,
    C-contiguous. Each is a dict from dtype (float64, float32) to the
    matrix in that dtype. At least one kernel, each square, all of one
    size, or ShapeMismatch.
    """

    def __init__(self, kernels):
        kernels = [np.asarray(N, dtype=np.float64) for N in kernels]
        if not kernels:
            raise ShapeMismatch("KernelStack: 0 kernels")
        n = len(kernels[0]) if kernels[0].ndim else 0
        for N in kernels:
            if N.shape != (n, n):
                raise ShapeMismatch(f"KernelStack: kernel {N.shape}, expected "
                                    f"({n}, {n}): kernels are square, one size")
        self.n, self.K = n, len(kernels)
        mix_in = np.stack(kernels, axis=1).reshape(n * self.K, n)
        mix_out = np.stack(kernels, axis=2).reshape(n, n * self.K)
        dtypes = [np.dtype(np.float64), np.dtype(np.float32)]
        self.mix_in = {dt: mix_in.astype(dt) for dt in dtypes}
        self.mix_out = {dt: mix_out.astype(dt) for dt in dtypes}
        self.mix_out_t = {dt: np.ascontiguousarray(mix_out.T, dtype=dt)
                          for dt in dtypes}


class _ConvPlan:
    """The checked operands of one graph convolution sum_k N_k x W_k over a
    KernelStack, for an input x of the given (rows, C_in) shape, with its
    kernels in the tape's conv_dtype.

    The weight is one (C_in, K*C_out) panel [W_1 | ... | W_K], a block per
    kernel of the stack, in its order. Each of the two kinds of graph conv
    has one order of the product. The lift (_lift), a 3 -> C conv, mixes
    first: one batched matmul by mix_in builds the (rows, K*C_in) array
    [N_1 x | ... | N_K x] (mixed()), which its backward rebuilds the same
    way rather than keep, and one GEMM multiplies it by the stacked weights
    [W_1; ...; W_K], the panel's blocks rearranged (stacked()). A residual
    unit (_residual) multiplies first, in one pass over tiles of whole
    samples (tiles) in each direction: per tile, one GEMM by the panel
    (forward) or by its transpose [W_1^T; ...; W_K^T] (backward) works on
    tile-sized scratch, and one batched matmul by mix_out (forward) or
    mix_out_t (backward) mixes every kernel at once, so only the result and
    d/dh are full height. Its weight gradient is a sum over those tiles, so
    its rounding depends on the tile size; its result and d/dh do not.
    """

    def __init__(self, tape, shape, stack, W, opname):
        rows, C_in = shape
        n, K = stack.n, stack.K
        if rows % n:
            raise ShapeMismatch(f"{opname}: {rows} rows not divisible by {n}")
        C_out = W.shape[1] // K
        if W.shape != (C_in, K * C_out) or not C_out:
            raise ShapeMismatch(f"{opname}: weight {W.shape}, expected "
                                f"({C_in}, {K} * C_out) for {K} kernels")
        self.tape = tape
        self.dt = dt = tape.conv_dtype
        self.mix_in, self.mix_out = stack.mix_in[dt], stack.mix_out[dt]
        self.mix_out_t = stack.mix_out_t[dt]
        self.W = W
        self.B, self.n, self.K = rows // n, n, K
        self.rows, self.C_in, self.C_out = rows, C_in, C_out

    def panel(self):
        """The weight in conv_dtype: one cast per use, not kept, since the
        tape already holds the weight and a float32 copy would outlive the
        forward."""
        return self.W.data.astype(self.dt, copy=False)

    def stacked(self):
        """The panel's blocks stacked, [W_1; ...; W_K], (K*C_in, C_out),
        C-contiguous, in conv_dtype; made per use, as panel() is."""
        K, C_in, C_out = self.K, self.C_in, self.C_out
        return self.W.data.reshape(C_in, K, C_out).swapaxes(0, 1).astype(
            self.dt, order="C").reshape(K * C_in, C_out)

    def mixed(self, h):
        """[N_1 h | ... | N_K h], (rows, K*C_in), in conv_dtype, from the
        data of h, a Value in any dtype: the lift's mixed input."""
        x = h.data.astype(self.dt, copy=False).reshape(self.B, self.n,
                                                       self.C_in)
        return np.matmul(self.mix_in, x).reshape(self.rows,
                                                 self.K * self.C_in)

    def tiles(self):
        """Row slices of whole samples, about TILE_ROWS // K rows each,
        that cover the rows in order (_sample_tiles): a short tile could
        fall into BLAS's small-matrix kernels, which round differently from
        the full-height product. One slice when every row fits in one tile.
        """
        per = max(1, TILE_ROWS // self.K // self.n)
        return [slice(self.n * a, self.n * b)
                for a, b in _sample_tiles(self.B, per)]


def _unit_plan(tape, shape, stack, W, opname):
    """The _ConvPlan of a residual unit, whose weights keep the width."""
    plan = _ConvPlan(tape, shape, stack, W, opname)
    if plan.C_out != plan.C_in:
        raise ShapeMismatch(f"{opname}: weights map {plan.C_in} to "
                            f"{plan.C_out} channels")
    return plan


def _lift(plan, h):
    """relu(sum_k N_k h W_k), the mixed input (plan.mixed) times the
    stacked weights, rectified in place, in conv_dtype."""
    out = plan.mixed(h) @ plan.stacked()
    np.maximum(out, 0.0, out=out)
    return out


def _lift_backward(plan, h, g):
    """The lift's backward from g, the gradient on its product, already
    masked by the relu: rebuilds the mixed input from h, and adds d/dW
    into the weight's gradient and d/dh into h's."""
    B, n, K, C_in, C_out = plan.B, plan.n, plan.K, plan.C_in, plan.C_out
    dW = plan.mixed(h).T @ g          # [dW_1; ...; dW_K]
    grad = plan.W.grad.reshape(C_in, K, C_out)
    grad += dW.reshape(K, C_in, C_out).swapaxes(0, 1)
    dX = g @ plan.stacked().T         # [dX_1 | ... | dX_K]
    h.grad += np.matmul(plan.mix_in.T, dX.reshape(
        B, n * K, C_in)).reshape(plan.rows, C_in)


def _residual(plan, h):
    """h + sum_k N_k relu(h) W_k for h, a (rows, C) conv_dtype array, over
    tiles: per tile, relu(h) is built in the result rows the tile's sum
    then takes, multiplied by the panel in one GEMM, and the products are
    mixed and h added into the result."""
    dt, n, K, C = plan.dt, plan.n, plan.K, plan.C_in
    tiles = plan.tiles()
    out = np.empty_like(h)
    panel = plan.panel()
    Y = np.empty((tiles[0].stop, K * C), dtype=dt)
    for t in tiles:
        m = t.stop - t.start
        # The GEMM reads relu(h) before the mix overwrites its rows.
        x = np.maximum(h[t], 0.0, out=out[t])
        np.matmul(x, panel, out=Y[:m])
        np.matmul(plan.mix_out, Y[:m].reshape(-1, n * K, C),
                  out=out[t].reshape(-1, n, C))
        out[t] += h[t]
    return out


def _residual_backward(plan, h, g):
    """A residual unit's backward over tiles, from its input h, an array,
    and g, the gradient on its result, a buffer no Value holds: recomputes
    relu(h) and its mask per tile, builds d/dh, g plus the masked conv
    gradient, in g, and returns the weight gradient in conv_dtype. Its tile
    scratch is gone before the caller adds that into the weight's."""
    dt, n, K, C = plan.dt, plan.n, plan.K, plan.C_in
    tiles = plan.tiles()
    tile = tiles[0].stop
    # The panel's transpose as a view, F-contiguous: a C-contiguous copy
    # would round d/dh differently, off the bits the network's recorded
    # digests hold.
    w_t = plan.panel().T
    dY = np.empty((tile, K * C), dtype=dt)
    x_buf = np.empty((tile, C), dtype=dt)
    dW = np.zeros((C, K * C), dtype=dt)
    dW_t = np.empty_like(dW)
    for t in tiles:
        m = t.stop - t.start
        x = np.maximum(h[t], 0.0, out=x_buf[:m])
        dY_t = dY[:m]
        np.matmul(plan.mix_out_t, g[t].reshape(-1, n, C),
                  out=dY_t.reshape(-1, K * n, C))
        dW += np.matmul(x.T, dY_t, out=dW_t)
        # relu(h)'s tile buffer takes the tile's d/dx once dW has it.
        dx = np.matmul(dY_t, w_t, out=x)
        # The mask h > 0 as ones and zeros in dY's first m*C entries,
        # which the tile no longer reads: no bool array to cast.
        mask = dY.reshape(-1)[:m * C].reshape(m, C)
        dx *= np.greater(h[t], 0.0, out=mask)
        g[t] += dx
    return dW


def residual_graph_conv(h: Value, stack: KernelStack, W: Value) -> Value:
    """The pre-activation residual unit h + sum_k N_k relu(h) W_k, one node.

    h must already be in the tape's conv_dtype, as the network's trunk is,
    or ValueError; W is the (C_in, K*C_in) weight panel [W_1 | ... | W_K].
    The tape keeps neither the relu output, nor its mask, nor the conv
    output: per tile (see _ConvPlan), the forward builds relu(h) in the
    result rows the tile's sum then takes, multiplies it by the panel in
    one GEMM, mixes the products and adds h into the result, and the
    backward recomputes relu(h) and its mask. d/dh, g plus the masked conv
    gradient, is built in g, the unit's own gradient, which the sweep has
    let go of: g becomes h's gradient buffer when h has none yet, else is
    added to it. No closure holds the result, so a decoder join may consume
    it (block_left_matmul_add). The result and d/dh are in conv_dtype, the
    weight gradient in the weight's float64. NaN passes the relu, and its
    subgradient at 0 is 0.
    """
    plan = _unit_plan(_same_tape(h, W), h.shape, stack, W,
                      "residual_graph_conv")
    if h.dtype != plan.dt:
        raise ValueError(f"residual_graph_conv: input is {h.dtype}, "
                         f"but the tape's conv_dtype is {plan.dt}")
    out = _residual(plan, h.data)

    def backward(g):
        # dW first: `W.grad += ...` would zero-fill W.grad before the scratch.
        dW = _residual_backward(plan, h.data, g)
        W.grad += dW
        _pass_grad(h, g)

    return plan.tape._record(out, "residual_graph_conv", backward)


def lift_residual_graph_conv(h: Value, stack: KernelStack, W_lift: Value,
                             W_unit: Value) -> Value:
    """residual_graph_conv(relu(sum_k N_k h W_lift_k), stack, W_unit) as
    one node: the network's 3 -> C lift and the residual unit after it, on
    one graph.

    h is (B*n, C_in), in any dtype; W_lift is the lift's (C_in, K*C) panel
    [W_lift_1 | ... | W_lift_K] and W_unit the unit's (C, K*C) one. The
    lift mixes first (see _ConvPlan) and rectifies its product in place.
    The tape keeps h, not the lift's (B*n, C) result: the backward rebuilds
    that result from h, as the forward built it (a mix of h, one GEMM by
    the lift's stacked weights and the relu), runs the unit's backward on
    it, which turns g into the lift's gradient, masks that by the relu
    (whose subgradient at 0 is 0; NaN passes it), and then runs the lift's.
    No closure holds the result. The result is in the tape's conv_dtype,
    the weight gradients in the weights' float64.
    """
    tape = _same_tape(h, W_lift, W_unit)
    opname = "lift_residual_graph_conv"
    lift = _ConvPlan(tape, h.shape, stack, W_lift, opname)
    unit = _unit_plan(tape, (lift.rows, lift.C_out), stack, W_unit, opname)
    out = _residual(unit, _lift(lift, h))

    def backward(g):
        a = _lift(lift, h)
        dW = _residual_backward(unit, a, g)
        W_unit.grad += dW
        # The relu's mask, a > 0, as ones and zeros in a, which is not
        # read again.
        g *= np.greater(a, 0.0, out=a)
        _lift_backward(lift, h, g)

    return tape._record(out, opname, backward)


def residual_graph_conv_head(h: Value, stack: KernelStack, W: Value,
                             W_head: Value) -> Value:
    """residual_graph_conv(h, stack, W) @ W_head as one node, by
    associativity: h W_head + sum_k N_k relu(h) (W_k W_head), so neither
    the unit's (rows, C) result nor its (rows, K*C) products exist.

    h is in the tape's conv_dtype, or ValueError. Per tile (see _ConvPlan)
    h's rows are cast into a float64 buffer and multiplied by W_head and,
    rectified, by V = [W_1 W_head | ... | W_K W_head], whose products are
    mixed into the float64 (rows, D) result. The backward recomputes the
    tiles: Q = mix_out^T g, P = sum relu(h)^T Q, dW_k = P_k W_head^T,
    dW_head = h^T g + sum_k W_k^T P_k and d/dh = g W_head^T + [h > 0]
    (Q V^T), in float64 tiles, into a conv_dtype array that becomes h's
    gradient buffer when h has none. NaN passes the relu, and its
    subgradient at 0 is 0.
    """
    opname = "residual_graph_conv_head"
    plan = _unit_plan(_same_tape(h, W, W_head), h.shape, stack, W, opname)
    if h.dtype != plan.dt:
        raise ValueError(f"{opname}: input is {h.dtype}, but the tape's "
                         f"conv_dtype is {plan.dt}")
    n, K, C = plan.n, plan.K, plan.C_in
    if W_head.shape[0] != C:
        raise ShapeMismatch(f"{opname}: head {W_head.shape}, expected "
                            f"({C}, D)")
    D = W_head.shape[1]
    V = (W.data.reshape(C, K, C) @ W_head.data).reshape(C, K * D)
    mix_out, mix_out_t = (m[np.dtype(np.float64)]
                          for m in (stack.mix_out, stack.mix_out_t))
    tiles = plan.tiles()
    out = np.empty((plan.rows, D))
    x_buf = np.empty((tiles[0].stop, C))
    for t in tiles:
        x = x_buf[:t.stop - t.start]
        x[...] = h.data[t]
        np.matmul(x, W_head.data, out=out[t])
        np.maximum(x, 0.0, out=x)
        out[t].reshape(-1, n, D)[...] += np.matmul(
            mix_out, (x @ V).reshape(-1, n * K, D))

    def backward(g):
        dh = np.empty(h.shape, plan.dt)
        P = np.zeros((C, K * D))
        dW_head = np.zeros((C, D))
        bufs = np.empty((2, tiles[0].stop, C))
        for t in tiles:
            m = t.stop - t.start
            x, y = bufs[0, :m], bufs[1, :m]
            x[...] = h.data[t]
            dW_head += x.T @ g[t]
            np.maximum(x, 0.0, out=x)
            Q = np.matmul(mix_out_t, g[t].reshape(-1, n, D)).reshape(m, -1)
            P += x.T @ Q
            # The mask h > 0 as ones and zeros, in relu(h)'s buffer.
            np.greater(x, 0.0, out=x)
            x *= np.matmul(Q, V.T, out=y)
            x += np.matmul(g[t], W_head.data.T, out=y)
            dh[t] = x
        del bufs, x, y
        W.grad += (P.reshape(C, K, D) @ W_head.data.T).reshape(C, K * C)
        dW_head += np.tensordot(W.data.reshape(C, K, C), P.reshape(C, K, D),
                                axes=([0, 1], [0, 1]))
        W_head.grad += dW_head
        _pass_grad(h, dh)

    return plan.tape._record(out, opname, backward)


# ---------------------------------------------------------------------------
# Reductions.


def reduce_sum(a: Value) -> Value:
    def backward(g):
        a.grad += g[0, 0]

    return a.tape._record(np.array([[a.data.sum()]]), "sum", backward)


def norm_rows(a: Value) -> Value:
    """Euclidean norm of each row, (m, n) -> (m, 1); zero rows get grad 0."""
    n = np.sqrt(np.sum(a.data * a.data, axis=1, keepdims=True))
    safe = np.where(n > 0.0, n, 1.0)

    def backward(g):
        a.grad += np.where(n > 0.0, g / safe, 0.0) * a.data

    return a.tape._record(n, "norm_rows", backward)


# ---------------------------------------------------------------------------
# Layout.


def gather_rows(a: Value, index) -> Value:
    """Select rows by index, into a new array; repeated indices accumulate
    in the backward."""
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeMismatch(
            f"gather_rows: index out of range for {a.data.shape[0]} rows")

    def backward(g):
        np.add.at(a.grad, idx, g)

    return a.tape._record(a.data[idx], "gather_rows", backward)


# ---------------------------------------------------------------------------
# Geometry-flavoured ops.


def perspective_divide(p: Value) -> Value:
    """(m, 3) camera-frame points -> (m, 2) image coordinates x/z, y/z.

    Depths at or below the guard raise NonPositiveDepth tagged with the
    first offending row.
    """
    if p.data.shape[1] != 3:
        raise ShapeMismatch(f"perspective_divide: expected (m, 3), got {p.data.shape}")
    z = p.data[:, 2:3]
    bad = np.nonzero(z[:, 0] <= DEPTH_EPS)[0]
    if bad.size:
        r = int(bad[0])
        raise NonPositiveDepth(f"row {r} has depth {z[r, 0]:.6g}", joint=r)
    out = p.data[:, :2] / z

    def backward(g):
        p.grad[:, :2] += g / z
        p.grad[:, 2:3] -= np.sum(g * out, axis=1, keepdims=True) / z

    return p.tape._record(out, "perspective_divide", backward)


def row_cosine(a: Value, b: Value) -> Value:
    """Cosine of the angle between matching rows, (m, n) x 2 -> (m, 1).

    Rows with zero norm on either side produce cosine 1 with zero gradient,
    so degenerate bones neither hurt nor help an angular objective.
    """
    tape = _same_tape(a, b)
    _same_shape(a, b, "row_cosine")
    na = np.sqrt(np.sum(a.data * a.data, axis=1, keepdims=True))
    nb = np.sqrt(np.sum(b.data * b.data, axis=1, keepdims=True))
    ok = (na > 0.0) & (nb > 0.0)
    denom = np.where(ok, na * nb, 1.0)
    dot = np.sum(a.data * b.data, axis=1, keepdims=True)
    cos = np.where(ok, dot / denom, 1.0)

    def backward(g):
        ga = np.where(ok, g, 0.0)
        a.grad += ga * (b.data / denom - cos * a.data / np.where(ok, na * na, 1.0))
        b.grad += ga * (a.data / denom - cos * b.data / np.where(ok, nb * nb, 1.0))

    return tape._record(cos, "row_cosine", backward)
