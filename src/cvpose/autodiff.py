"""Reverse-mode automatic differentiation over dense 2D float64 matrices.

A Tape records every Value in creation order, which is already a valid
topological order, and the backward sweep walks it in reverse. Gradient
buffers are allocated lazily so forward-only tapes (evaluation) carry no
gradient memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDepth, NotScalar, ShapeMismatch

_DEPTH_EPS = 1e-6   # mm, same guard as the projection in geometry


class Value:
    """A matrix on a tape. data is (rows, cols) float64, grad matches."""

    __slots__ = ("data", "_grad", "tape", "op", "_backward")

    def __init__(self, data, tape, op, backward=None):
        self.data = data
        self._grad = None
        self.tape = tape
        self.op = op
        self._backward = backward

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(op={self.op!r}, shape={self.data.shape})"


class Tape:
    """Records Values; creation order doubles as topological order."""

    def __init__(self):
        self.nodes = []

    def _record(self, data, op, backward=None):
        v = Value(np.ascontiguousarray(data, dtype=np.float64), self, op, backward)
        self.nodes.append(v)
        return v

    def leaf(self, data, op="leaf"):
        """Wrap a 2D array as a differentiable input."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"leaf must be 2D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf holds non-finite entries")
        return self._record(arr.copy(), op)

    def scalar(self, x):
        """A 1x1 leaf."""
        return self.leaf(np.array([[float(x)]]))

    def backward(self, loss):
        """Seed d loss/d loss = 1 and sweep the tape in reverse."""
        if loss.tape is not self:
            raise ValueError("loss lives on another tape")
        if loss.data.shape != (1, 1):
            raise NotScalar(f"loss must be 1x1, got {loss.data.shape}")
        loss.grad[0, 0] += 1.0
        for v in reversed(self.nodes):
            # Untouched grads mean the node does not feed the loss.
            if v._backward is not None and v._grad is not None:
                v._backward(v._grad)

    def zero_grads(self):
        for v in self.nodes:
            v._grad = None

    def release(self):
        """Drop the recorded graph so node arrays free by refcount.

        Value and Tape reference each other (and backward closures hold the
        operands), so a finished tape otherwise lingers until the cyclic
        collector runs; at batch sizes that is gigabytes. Values the caller
        still holds stay usable, but no further backward sweep is possible.
        """
        for v in self.nodes:
            v._backward = None
            v._grad = None
        self.nodes.clear()

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


# ---------------------------------------------------------------------------
# Arithmetic.


def add(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    _same_shape(a, b, "add")

    def backward(g):
        a.grad += g
        b.grad += g

    return tape._record(a.data + b.data, "add", backward)


def add_n(values) -> Value:
    """Sum of equally shaped matrices, one node for the whole list."""
    values = list(values)
    if not values:
        raise ValueError("add_n needs at least one operand")
    tape = _same_tape(*values)
    for v in values[1:]:
        _same_shape(values[0], v, "add_n")
    out = values[0].data.copy()
    for v in values[1:]:
        out += v.data

    def backward(g):
        for v in values:
            v.grad += g

    return tape._record(out, "add_n", backward)


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


def matmul(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(
            f"matmul: inner sizes {a.data.shape} x {b.data.shape}")

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return tape._record(a.data @ b.data, "matmul", backward)


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


def block_left_matmul(M, h: Value) -> Value:
    """Apply a constant (r, n) matrix to every n-row block of h.

    h is (B*n, C) for some whole B; the result is (B*r, C). Used for graph
    kernels and pooling operators where the same small matrix acts on each
    sample of a batch.
    """
    M = np.asarray(M, dtype=np.float64)
    r, n = M.shape
    rows, C = h.data.shape
    if rows % n != 0:
        raise ShapeMismatch(f"block_left_matmul: {rows} rows not divisible by {n}")
    B = rows // n
    out = np.matmul(M, h.data.reshape(B, n, C)).reshape(B * r, C)

    def backward(g):
        h.grad += np.matmul(M.T, g.reshape(B, r, C)).reshape(B * n, C)

    return h.tape._record(out, "block_left_matmul", backward)


def relu(a: Value) -> Value:
    mask = a.data > 0.0

    def backward(g):
        a.grad += g * mask

    return a.tape._record(np.where(mask, a.data, 0.0), "relu", backward)


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


def reshape(a: Value, rows, cols) -> Value:
    if rows * cols != a.data.size:
        raise ShapeMismatch(
            f"reshape: {a.data.shape} has {a.data.size} entries, not {rows}x{cols}")
    shape = a.data.shape

    def backward(g):
        a.grad += g.reshape(shape)

    return a.tape._record(a.data.reshape(rows, cols), "reshape", backward)


def concat_blocks(a: Value, b: Value, rows_a: int, rows_b: int) -> Value:
    """Interleave per-sample row blocks of two batched matrices.

    a is (B*rows_a, C), b is (B*rows_b, C); the result is
    (B*(rows_a+rows_b), C) where sample s holds a's block then b's block.
    """
    tape = _same_tape(a, b)
    if a.data.shape[1] != b.data.shape[1]:
        raise ShapeMismatch(f"concat_blocks: widths {a.data.shape} vs {b.data.shape}")
    C = a.data.shape[1]
    if a.data.shape[0] % rows_a or b.data.shape[0] % rows_b:
        raise ShapeMismatch("concat_blocks: rows not divisible by block size")
    B = a.data.shape[0] // rows_a
    if b.data.shape[0] // rows_b != B:
        raise ShapeMismatch("concat_blocks: batch sizes differ")
    out = np.concatenate(
        [a.data.reshape(B, rows_a, C), b.data.reshape(B, rows_b, C)], axis=1
    ).reshape(B * (rows_a + rows_b), C)

    def backward(g):
        g3 = g.reshape(B, rows_a + rows_b, C)
        a.grad += g3[:, :rows_a].reshape(B * rows_a, C)
        b.grad += g3[:, rows_a:].reshape(B * rows_b, C)

    return tape._record(out, "concat_blocks", backward)


def slice_rows(a: Value, start: int, stop: int) -> Value:
    if not 0 <= start <= stop <= a.data.shape[0]:
        raise ShapeMismatch(
            f"slice_rows: [{start}:{stop}] out of {a.data.shape[0]} rows")

    def backward(g):
        a.grad[start:stop] += g

    return a.tape._record(a.data[start:stop].copy(), "slice_rows", backward)


def slice_blocks(a: Value, block_rows: int, start: int, stop: int) -> Value:
    """Slice rows [start:stop] out of every block of block_rows rows."""
    rows, C = a.data.shape
    if rows % block_rows:
        raise ShapeMismatch(f"slice_blocks: {rows} rows not divisible by {block_rows}")
    if not 0 <= start <= stop <= block_rows:
        raise ShapeMismatch(f"slice_blocks: [{start}:{stop}] out of {block_rows}")
    B = rows // block_rows
    width = stop - start
    out = a.data.reshape(B, block_rows, C)[:, start:stop].reshape(B * width, C)

    def backward(g):
        buf = a.grad.reshape(B, block_rows, C)
        buf[:, start:stop] += g.reshape(B, width, C)

    return a.tape._record(out.copy(), "slice_blocks", backward)


def gather_rows(a: Value, index) -> Value:
    """Select rows by index; repeated indices accumulate in the backward."""
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ShapeMismatch(
            f"gather_rows: index out of range for {a.data.shape[0]} rows")

    def backward(g):
        np.add.at(a.grad, idx, g)

    return a.tape._record(a.data[idx].copy(), "gather_rows", backward)


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
    bad = np.nonzero(z[:, 0] <= _DEPTH_EPS)[0]
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


# ---------------------------------------------------------------------------
# Finite-difference checking.


@dataclass
class GradCheckRow:
    param: int
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    rows: list
    max_rel_err: float
    tol: float

    @property
    def ok(self):
        return self.max_rel_err < self.tol

    def failures(self):
        return [r for r in self.rows if r.rel_err >= self.tol]


def grad_check(build, params, eps=1e-5, tol=1e-4, n_samples=10, rng=None):
    """Compare tape gradients against central differences.

    build(tape, leaves) must return a scalar Value from the given leaf
    Values. For each parameter up to n_samples coordinates are sampled and
    perturbed by +-eps. Discrepancies are reported, never raised; rel_err
    is |a - n| / max(|a|, |n|, 1e-6).
    """
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(0 if rng is None else rng)
    params = [np.asarray(p, dtype=np.float64) for p in params]

    tape = Tape()
    leaves = [tape.leaf(p) for p in params]
    loss = build(tape, leaves)
    if loss.data.shape != (1, 1):
        raise NotScalar(f"build returned shape {loss.data.shape}")
    tape.backward(loss)
    analytic = [lf.grad.copy() for lf in leaves]

    def loss_at(arrays):
        t = Tape()
        lv = [t.leaf(p) for p in arrays]
        return float(build(t, lv).data[0, 0])

    rows = []
    for pi, p in enumerate(params):
        count = min(n_samples, p.size)
        coords = rng.choice(p.size, size=count, replace=False)
        for flat in np.sort(coords):
            idx = np.unravel_index(int(flat), p.shape)
            bumped = [q.copy() for q in params]
            bumped[pi][idx] += eps
            hi = loss_at(bumped)
            bumped[pi][idx] -= 2 * eps
            lo = loss_at(bumped)
            numeric = (hi - lo) / (2.0 * eps)
            ana = float(analytic[pi][idx])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
            rows.append(GradCheckRow(pi, tuple(int(i) for i in idx), ana, numeric, rel))
    max_err = max((r.rel_err for r in rows), default=0.0)
    return GradCheckReport(rows=rows, max_rel_err=max_err, tol=tol)
