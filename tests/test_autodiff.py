"""Tape mechanics and finite-difference validation of every op."""

import weakref

import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose.errors import NonPositiveDepth, NotScalar, ShapeMismatch

from gradcheck import grad_check


def test_leaf_and_tape_basics():
    tape = ad.Tape()
    x = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    assert x.shape == (2, 2)
    assert x._grad is None          # lazy until touched
    assert np.array_equal(x.grad, np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        tape.leaf(np.zeros(3))
    with pytest.raises(ValueError):
        tape.leaf([[np.nan]])
    assert len(tape) == 1


def test_backward_requires_scalar_and_same_tape():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(NotScalar):
        tape.backward(x)
    other = ad.Tape()
    y = other.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.add(x, y)
    with pytest.raises(ValueError):
        tape.backward(other.leaf([[1.0]]))


def _head(x, W_head):
    """x @ W_head as the network's head computes it: the last residual unit
    and the head in one node, with one identity kernel on 1-row blocks
    and a zero unit weight, so the unit adds nothing."""
    C = x.shape[1]
    return ad.residual_graph_conv_head(x, ad.KernelStack([np.eye(1)]),
                                       x.tape.leaf(np.zeros((C, C))), W_head)


def test_simple_chain_gradient():
    # f = (2a + c) b for rows a, c and a column b: df/da = 2b^T,
    # df/dc = b^T, df/db = (2a + c)^T.
    tape = ad.Tape()
    a = tape.leaf([[1.0, -2.0]])
    c = tape.leaf([[3.0, 0.5]])
    b = tape.leaf([[3.0], [0.5]])
    f = ad.reduce_sum(_head(ad.add(ad.scale(a, 2.0), c), b))
    tape.backward(f)
    assert np.allclose(a.grad, 2.0 * b.data.T)
    assert np.allclose(c.grad, b.data.T)
    assert np.allclose(b.grad, (2.0 * a.data + c.data).T)


def test_grad_accumulates_on_reuse():
    # a feeds three uses, the head's input and weight and the scale:
    # a^2 + 3a.
    tape = ad.Tape()
    a = tape.leaf([[2.0]])
    f = ad.reduce_sum(ad.add(_head(a, a), ad.scale(a, 3.0)))
    tape.backward(f)
    assert a.grad[0, 0] == pytest.approx(7.0)


def _identity_lift(x):
    """relu(x) as the lift computes it: one identity kernel on 1-row blocks,
    one identity weight, and a residual unit after it whose zero weight
    adds nothing."""
    C = x.shape[1]
    return ad.lift_residual_graph_conv(x, ad.KernelStack([np.eye(1)]),
                                       x.tape.leaf(np.eye(C)),
                                       x.tape.leaf(np.zeros((C, C))))


def test_relu_subgradient_at_zero():
    tape = ad.Tape()
    x = tape.leaf([[-1.0, 0.0, 2.0]])
    y = ad.reduce_sum(_identity_lift(x))
    tape.backward(y)
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_relu_propagates_nan():
    # A NaN must reach the loss, where the non-finite check catches it,
    # not be rectified to zero on the way.
    tape = ad.Tape()
    # A leaf refuses a NaN, so x is a node with no closure.
    x = tape._record(np.array([[-1.0], [np.nan], [2.0], [-0.0]]), "x")
    y = _identity_lift(x)
    assert np.isnan(y.data[1, 0])
    assert np.array_equal(y.data[[0, 2, 3], 0], [0.0, 2.0, 0.0])
    assert not np.signbit(y.data[3, 0])


def test_norms_at_zero():
    tape = ad.Tape()
    x = tape.leaf([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    r = ad.norm_rows(x)
    assert np.allclose(r.data, [[0.0], [5.0]])
    s = ad.reduce_sum(r)
    tape.backward(s)
    assert np.array_equal(x.grad[0], [0.0, 0.0, 0.0])
    assert np.allclose(x.grad[1], [0.6, 0.8, 0.0])


def test_row_cosine_values_and_degenerate_rows():
    tape = ad.Tape()
    a = tape.leaf([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    b = tape.leaf([[0.0, 2.0, 0.0], [1.0, 2.0, 3.0], [1.0, 1.0, 0.0]])
    c = ad.row_cosine(a, b)
    assert np.allclose(c.data, [[0.0], [1.0], [1.0]])
    s = ad.reduce_sum(c)
    tape.backward(s)
    assert np.array_equal(a.grad[1], [0.0, 0.0, 0.0])
    assert np.array_equal(b.grad[1], [0.0, 0.0, 0.0])
    # Aligned rows: cosine is at its max, gradient vanishes.
    assert np.allclose(a.grad[2], 0.0, atol=1e-12)


def test_perspective_divide_forward_and_guard():
    tape = ad.Tape()
    p = tape.leaf([[2.0, 4.0, 2.0], [1.0, 1.0, 4.0]])
    uv = ad.perspective_divide(p)
    assert np.allclose(uv.data, [[1.0, 2.0], [0.25, 0.25]])
    tape = ad.Tape()
    bad = tape.leaf([[1.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
    with pytest.raises(NonPositiveDepth) as exc:
        ad.perspective_divide(bad)
    assert exc.value.joint == 1


def test_shape_errors():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        ad.add(a, b)
    with pytest.raises(ShapeMismatch):
        _head(a, a)
    with pytest.raises(ShapeMismatch):
        ad.block_left_matmul(np.ones((2, 4)), a)
    with pytest.raises(ShapeMismatch):
        ad.gather_rows(a, [0, 2])
    with pytest.raises(ShapeMismatch):
        ad.perspective_divide(b)


def test_block_left_matmul_matches_loop():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(2, 4))
    h = rng.normal(size=(3 * 4, 5))
    tape = ad.Tape()
    hv = tape.leaf(h)
    out = ad.block_left_matmul(M, hv)
    assert out.shape == (6, 5)
    for s in range(3):
        assert np.allclose(out.data[2 * s:2 * s + 2], M @ h[4 * s:4 * s + 4])


def _graph_conv_reference(h, kernels, weights, n):
    """sum_k N_k h W_k block by block, straight from the definition."""
    out = np.zeros((h.shape[0], weights[0].shape[1]))
    for s in range(h.shape[0] // n):
        blk = h[s * n:(s + 1) * n]
        for N, W in zip(kernels, weights):
            out[s * n:(s + 1) * n] += N @ blk @ W
    return out


def _graph_conv_reference_grads(h, kernels, weights, n, g):
    """d/dh and d/dW_k of sum(g * out), block by block from the definition."""
    dh = np.zeros_like(h)
    dws = [np.zeros_like(W) for W in weights]
    for s in range(h.shape[0] // n):
        rows = slice(s * n, (s + 1) * n)
        for k, (N, W) in enumerate(zip(kernels, weights)):
            dws[k] += (N @ h[rows]).T @ g[rows]
            dh[rows] += N.T @ g[rows] @ W.T
    return dh, dws


def _residual_reference(h, kernels, weights, n):
    """(out, d/dh, [d/dW_k]) of the residual unit h + sum_k N_k relu(h)
    W_k, from the definition, for the loss sum of out's row norms (a zero
    row adds 0)."""
    x = np.maximum(h, 0.0)
    out = h + _graph_conv_reference(x, kernels, weights, n)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    g = out / np.where(norms > 0.0, norms, 1.0)
    dx, dws = _graph_conv_reference_grads(x, kernels, weights, n, g)
    return out, g + dx * (h > 0.0), dws


def _lift_reference(h, kernels, weights, unit_weights, n):
    """(out, d/dh, [d/dW_k] + [d/dU_k]) of the lift a = relu(sum_k N_k h
    W_k) and the residual unit a + sum_k N_k relu(a) U_k after it, from the
    definition, for the loss sum of out's row norms."""
    a = np.maximum(_graph_conv_reference(h, kernels, weights, n), 0.0)
    out, da, dus = _residual_reference(a, kernels, unit_weights, n)
    dh, dws = _graph_conv_reference_grads(h, kernels, weights, n,
                                          da * (a > 0.0))
    return out, dh, dws + dus


def _unit_weights(rng, ws):
    """Weights of a residual unit after a lift with weights ws: one
    (C, C) block per kernel, C the lift's width."""
    C = ws[0].shape[1]
    return [rng.normal(size=(C, C)) for _ in ws]


def _relu(a):
    """relu as a node of its own: the reference composites' relu."""
    mask = a.data > 0.0

    def backward(g):
        a.grad += g * mask

    return a.tape._record(np.maximum(a.data, 0.0), "relu", backward)


def _graph_conv(h, stack, W, mix_first):
    """sum_k N_k h W_k as a node of its own, in the tape's conv_dtype and
    over all rows at once, with the panel W = [W_1 | ... | W_K]: the
    reference composites' graph conv.

    mix_first takes the lift's order of the product, (N_k h) W_k by
    [W_1; ...; W_K]; otherwise the residual unit's, N_k (h W_k) by
    [W_1 | ... | W_K]. The arithmetic is the fused node's, so a composite
    matches its fused unit bit for bit, but for the tiles over which a
    residual unit sums its weight gradients.
    """
    dt = h.tape.conv_dtype
    n, K = stack.n, stack.K
    (rows, C_in), C_out = h.shape, W.shape[1] // K
    B = rows // n
    x = h.data.astype(dt, copy=False)
    weights = np.split(W.data, K, axis=1)
    stacked = np.concatenate(weights, axis=0, dtype=dt)
    if mix_first:
        x = np.matmul(stack.mix_in[dt], x.reshape(B, n, C_in)).reshape(
            rows, K * C_in)
        out = x @ stacked
    else:
        Y = x @ np.concatenate(weights, axis=1, dtype=dt)
        out = np.matmul(stack.mix_out[dt], Y.reshape(B, n * K, C_out)
                        ).reshape(rows, C_out)

    def backward(g):
        if mix_first:
            dW = x.T @ g
            dX = (g @ stacked.T).reshape(B, n * K, C_in)
            h.grad += np.matmul(stack.mix_in[dt].T, dX).reshape(rows, C_in)
            W.grad += np.concatenate(np.split(dW, K, axis=0), axis=1)
            return
        dY = np.matmul(stack.mix_out_t[dt], g.reshape(B, n, C_out)).reshape(
            rows, K * C_out)
        dW = x.T @ dY
        h.grad += dY @ np.concatenate([w.T for w in weights], axis=0,
                                      dtype=dt)
        W.grad += dW

    return h.tape._record(out, "graph_conv", backward)


def _trunk_leaf(tape, h):
    """h as the trunk hands it to a residual unit, in the tape's
    conv_dtype: a node with no closure, whose gradient outlives the sweep
    as a leaf's does."""
    return tape._record(np.array(h, dtype=tape.conv_dtype), "h")


def test_graph_conv_matches_definition():
    # Both graph-conv nodes on a float64 tape: the lift (with the residual
    # unit after it) at a widening and a narrowing width, and the residual
    # unit.
    rng = np.random.default_rng(4)
    n, B = 4, 3
    N1, N2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    I = np.eye(n)
    h = rng.normal(size=(B * n, 5))
    cases = [
        ([I, N1, N2], [rng.normal(size=(5, 6)) for _ in range(3)]),
        ([I], [rng.normal(size=(5, 2))]),          # identity only
        ([N1, N2], [rng.normal(size=(5, 6)) for _ in range(2)]),  # no identity
        ([I, N1, N2], [rng.normal(size=(5, 5)) for _ in range(3)]),
        ([N1, N2], [rng.normal(size=(5, 5)) for _ in range(2)]),
    ]
    for kernels, ws in cases:
        us = _unit_weights(rng, ws)
        ops = [(ad.lift_residual_graph_conv, [ws, us],
                _lift_reference(h, kernels, ws, us, n))]
        if ws[0].shape[1] == 5:
            ops.append((ad.residual_graph_conv, [ws],
                        _residual_reference(h, kernels, ws, n)))
        for op, panels, reference in ops:
            tape = ad.Tape()
            out = op(tape.leaf(h), ad.KernelStack(kernels),
                     *(tape.leaf(np.hstack(w)) for w in panels))
            assert out.op == op.__name__ and len(tape) == 2 + len(panels)
            assert np.allclose(out.data, reference[0], rtol=1e-13,
                               atol=1e-13)


# float32 products of length L are off by about L units of float32
# epsilon (1.2e-7) of their largest term; 1e-5 of the largest entry leaves
# headroom over the sums of at most 3 kernels x 6 channels below.
F32_TOL = 1e-5


def _assert_matches_reference(tape, op, h, kernels, ws, n, tol, us=None):
    """op's value, d/dh and weight gradients on tape within tol of the
    largest entry of their references from the definition. The lift
    (lift_residual_graph_conv, whose unit has the weights us) takes h as a
    float64 leaf, the residual unit in the tape's conv_dtype."""
    lift = op is ad.lift_residual_graph_conv
    hv = tape.leaf(h) if lift else _trunk_leaf(tape, h)
    panels = [ws, us] if lift else [ws]
    Ws = [tape.leaf(np.hstack(w)) for w in panels]
    out = op(hv, ad.KernelStack(kernels), *Ws)
    assert out.data.dtype == tape.conv_dtype
    h64 = hv.data.astype(np.float64)
    want, dh, dws = (_lift_reference(h64, kernels, ws, us, n) if lift
                     else _residual_reference(h64, kernels, ws, n))
    tape.backward(ad.reduce_sum(ad.norm_rows(out)))
    grads = [g for W, w in zip(Ws, panels)
             for g in np.split(W.grad, len(w), axis=1)]
    for got, ref in [(out.data, want), (hv.grad, dh)] + list(zip(grads,
                                                                  dws)):
        err = np.abs(got - ref).max()
        assert err <= tol * np.abs(ref).max(), err
    assert {W.grad.dtype for W in Ws} == {np.dtype(np.float64)}
    return out


def test_graph_conv_float32_tape_matches_definition():
    rng = np.random.default_rng(4)
    n, B = 4, 3
    N1, N2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    I = np.eye(n)
    h6 = rng.normal(size=(B * n, 6))
    lift = ad.lift_residual_graph_conv
    cases = [
        (lift, [I, N1, N2], [rng.normal(size=(5, 6)) for _ in range(3)]),
        (lift, [I], [rng.normal(size=(5, 2))]),
        (lift, [N1, N2], [rng.normal(size=(5, 6)) for _ in range(2)]),
        (lift, [I, N1, N2], [rng.normal(size=(6, 5)) for _ in range(3)]),
        # The residual unit multiplies first: with non-symmetric kernels,
        # mixing by N_k^T in place of N_k would show.
        (ad.residual_graph_conv, [I, N1, N2], [rng.normal(size=(6, 6))
                                               for _ in range(3)]),
        (ad.residual_graph_conv, [N1, N2], [rng.normal(size=(5, 5))
                                            for _ in range(2)]),
    ]
    for op, kernels, ws in cases:
        h = h6[:, :ws[0].shape[0]]
        us = _unit_weights(rng, ws)
        out = _assert_matches_reference(ad.Tape(conv_dtype=np.float32), op,
                                        h, kernels, ws, n, F32_TOL, us)
        # Rounded in float32, so not the float64 result bit for bit.
        want = _assert_matches_reference(ad.Tape(), op, h, kernels, ws, n,
                                         1e-12, us)
        assert not np.array_equal(out.data, want.data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_widening_graph_conv_mixes_first_and_matches_definition(dtype):
    # The 3 -> C lift mixes the 3-channel input before one GEMM over the
    # stacked weights at every width, C <= 3 included; values and every
    # gradient of the lift and the residual unit after it match the
    # per-block definition, to rounding on a float64 tape.
    rng = np.random.default_rng(9)
    n, B, C_in = 4, 3, 3
    N1, N2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    h = rng.normal(size=(B * n, C_in))
    tol = 1e-12 if dtype == np.float64 else F32_TOL
    for C_out in (2, 3, 8):
        for kernels in ([np.eye(n), N1, N2], [N1, N2], [np.eye(n)]):
            ws = [rng.normal(size=(C_in, C_out)) for _ in kernels]
            _assert_matches_reference(ad.Tape(conv_dtype=dtype),
                                      ad.lift_residual_graph_conv, h,
                                      kernels, ws, n, tol,
                                      _unit_weights(rng, ws))


def test_tape_keeps_conv_dtype_values_and_grads_in_it():
    # A float32 tape stores float32 data as it is and anything else as
    # float64; a float64 tape stores everything as float64. Leaves are
    # float64 on both, and a gradient has its Value's dtype.
    f32 = np.ones((2, 2), dtype=np.float32)
    tape = ad.Tape(conv_dtype=np.float32)
    assert tape._record(f32, "x").data.dtype == np.float32
    assert tape._record(f32.astype(np.float64), "x").data.dtype == np.float64
    assert tape._record(np.ones((2, 2), dtype=int), "x").data.dtype == np.float64
    assert tape.leaf(f32).data.dtype == np.float64
    v = tape._record(f32, "x")
    assert v.grad.dtype == np.float32
    a = ad.residual_graph_conv(v, ad.KernelStack([np.eye(2)]),
                               tape.leaf(np.eye(2)))
    b = ad.block_left_matmul(np.eye(2), a)
    assert a.data.dtype == b.data.dtype == np.float32
    # The head hands a float32 input back in float64.
    c = _head(b, tape.leaf(np.ones((2, 1))))
    assert c.data.dtype == np.float64
    assert ad.Tape()._record(f32, "x").data.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128,
                                   "float128", "bogus", None])
def test_tape_rejects_conv_dtypes_other_than_float32_and_float64(dtype):
    with pytest.raises(ValueError, match="float32 or float64"):
        ad.Tape(conv_dtype=dtype)
    assert ad.Tape().conv_dtype == np.float64
    assert ad.Tape(conv_dtype=np.float32).conv_dtype == np.float32


def test_graph_conv_shape_errors():
    tape = ad.Tape()
    h = tape.leaf(np.ones((8, 3)))
    N = np.eye(4)
    one, two = ad.KernelStack([N]), ad.KernelStack([N, N])
    lift = ad.lift_residual_graph_conv
    W, U = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((1, 2)))
    with pytest.raises(ShapeMismatch, match="not divisible"):
        lift(h, ad.KernelStack([np.eye(3)]), W, U)
    # The lift's panel holds one (C_in, C_out) block per kernel, C_out >= 1.
    with pytest.raises(ShapeMismatch, match=r"weight \(3, 3\), expected "
                       r"\(3, 2 \* C_out\) for 2 kernels"):
        lift(h, two, tape.leaf(np.ones((3, 3))), U)
    with pytest.raises(ShapeMismatch, match=r"weight \(3, 0\)"):
        lift(h, one, tape.leaf(np.ones((3, 0))), U)
    with pytest.raises(ShapeMismatch, match=r"weight \(2, 2\)"):
        lift(h, one, tape.leaf(np.ones((2, 2))), U)
    assert lift(h, two, W, U).shape == (8, 1)
    with pytest.raises(ValueError, match="different tapes"):
        lift(h, one, ad.Tape().leaf(np.ones((3, 2))), U)
    # A stack is checked once, when it is built: at least one kernel, each
    # square, all of one size.
    for kernels, match in (([], "0 kernels"),
                           ([np.ones((4, 3))], r"kernel \(4, 3\)"),
                           ([np.ones(4)], r"kernel \(4,\)"),
                           ([N, np.eye(2)], r"kernel \(2, 2\), expected \(4, 4\)")):
        with pytest.raises(ShapeMismatch, match=match):
            ad.KernelStack(kernels)


def test_lift_residual_graph_conv_shape_errors():
    tape = ad.Tape()
    h = tape.leaf(np.ones((8, 3)))
    stack = ad.KernelStack([np.eye(4)])
    W = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ShapeMismatch, match="lift_residual_graph_conv: "
                       "weights map 2 to 3 channels"):
        ad.lift_residual_graph_conv(h, stack, W, tape.leaf(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch, match=r"lift_residual_graph_conv: "
                       r"weight \(3, 2\), expected \(2, 1 \* C_out\)"):
        ad.lift_residual_graph_conv(h, stack, W, W)
    with pytest.raises(ValueError, match="different tapes"):
        ad.lift_residual_graph_conv(h, stack, W,
                                    ad.Tape().leaf(np.ones((2, 2))))
    assert {v.op for v in tape.nodes} == {"leaf"}   # nothing recorded
    assert ad.lift_residual_graph_conv(
        h, stack, W, tape.leaf(np.ones((2, 2)))).shape == (8, 2)


def _residual_cases(rng, n, C):
    """(KernelStack, weights) pairs: mixed, identity-only and
    identity-free."""
    N1, N2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    I = np.eye(n)
    return [(ad.KernelStack([I, N1, N2]),
             [rng.normal(size=(C, C)) for _ in range(3)]),
            (ad.KernelStack([I]), [rng.normal(size=(C, C))]),
            (ad.KernelStack([N1, N2]),
             [rng.normal(size=(C, C)) for _ in range(2)])]


def _residual_composite(x, stack, W):
    """add(x, graph_conv(relu(x))) on three nodes."""
    return ad.add(x, _graph_conv(_relu(x), stack, W, mix_first=False))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_residual_graph_conv_is_the_composite_bit_for_bit(dtype):
    # add(h, graph_conv(relu(h))) on three nodes, the same arithmetic on one;
    # exact zeros of h (either sign) meet the relu's subgradient 0 on both.
    rng = np.random.default_rng(21)
    n, B, C = 4, 3, 5
    h = rng.normal(size=(B * n, C))
    h[rng.random(h.shape) < 0.2] = 0.0
    h[0, :2] = -0.0
    for stack, ws in _residual_cases(rng, n, C):
        grads = []
        for fused in (False, True):
            tape = ad.Tape(conv_dtype=dtype)
            hv = _trunk_leaf(tape, h)
            W = tape.leaf(np.hstack(ws))
            if fused:
                out = ad.residual_graph_conv(hv, stack, W)
                assert out.op == "residual_graph_conv"
                assert len(tape) == 3
            else:
                out = _residual_composite(hv, stack, W)
            tape.backward(ad.reduce_sum(ad.norm_rows(out)))
            grads.append([out.data, hv.grad, W.grad])
        for got, want in zip(grads[1], grads[0]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _mixing_loss(out):
    """A scalar whose gradient reaches every entry of out, its zeros
    included, unlike a sum of row norms."""
    M = np.random.default_rng(32).normal(size=(out.shape[1], 3))
    return ad.reduce_sum(ad.norm_rows(ad.affine_rows(out, M, np.ones(3))))


def _fused_and_composite(dtype, h, n, through_conv, fused, composite,
                         n_weights):
    """Values and gradients, each as [out, d/dh, d/dW_1, ...] (the weight
    panel's gradient split by kernel), of one fused op and of its
    multi-node composite.

    h is a conv_dtype node with no closure (_trunk_leaf); with
    through_conv it reaches the op through an identity graph conv, a node
    with a closure, as in the trunk."""
    rng = np.random.default_rng(31)
    C = h.shape[1]
    ws = [rng.normal(size=(C, C)) / C for _ in range(n_weights)]
    results = []
    for op in (fused, composite):
        tape = ad.Tape(conv_dtype=dtype)
        hv = _trunk_leaf(tape, h)
        x = (_graph_conv(hv, ad.KernelStack([np.eye(n)]),
                         tape.leaf(np.eye(C)), mix_first=False)
             if through_conv else hv)
        W = tape.leaf(np.hstack(ws))
        out = op(x, W)
        tape.backward(_mixing_loss(out))
        results.append([out.data, hv.grad,
                        *np.split(W.grad, n_weights, axis=1)])
    return results


# How far a weight gradient summed over the backward's tiles may sit from
# the one-tile sum, relative to its largest entry; measured at most
# 5.2e-16 (float64) and 2.8e-7 (float32).
TILED_WEIGHT_GRAD_TOL = {np.float64: 4e-15, np.float32: 2e-6}


# B=1100 samples of n=4 rows span three forward tiles of 367, 367 and 366
# samples with one kernel, the last one short, and more, smaller tiles
# with more kernels; B=1 is one tile of one sample.
@pytest.mark.parametrize("B", [1100, 1])
@pytest.mark.parametrize("through_conv", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_units_match_their_composites_bit_for_bit(B, through_conv,
                                                       dtype):
    n, C = 4, 32
    per_tile = ad.TILE_ROWS // n
    if B > 1:
        tiles = -(-B // per_tile)
        assert tiles >= 3 and B % tiles, "no ragged last tile"
    rng = np.random.default_rng(30)
    h = rng.normal(size=(B * n, C))
    h[rng.random(h.shape) < 0.2] = 0.0
    N1, N2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    mixed = ad.KernelStack([np.eye(n), N1, N2])
    cases = [
        # the tiled residual unit, three kernel layouts
        (lambda x, W, ks=ks: ad.residual_graph_conv(x, ks, W),
         lambda x, W, ks=ks: _residual_composite(x, ks, W), ks.K)
        for ks in (mixed, ad.KernelStack([np.eye(n)]),
                   ad.KernelStack([N1, N2]))]
    for fused, composite, n_weights in cases:
        got, want = _fused_and_composite(dtype, h, n, through_conv, fused,
                                         composite, n_weights)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
        # Values and input gradients do not depend on a residual unit's
        # tiles; its weight gradients are sums over them.
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g, w)
        for g, w in zip(got[2:], want[2:]):
            err = np.abs(g - w).max() / np.abs(w).max()
            assert err <= TILED_WEIGHT_GRAD_TOL[dtype], err
            assert B > 1 or np.array_equal(g, w)

    # The lift and the residual unit after it, one node, against the lift
    # as a graph conv that mixes first and a relu, then the residual unit:
    # the same tiles, so the same bits everywhere, weight gradients
    # included, though the node rebuilds the lift's result. The lift
    # widens or keeps the width.
    for c_out in (2 * C, C):
        ws = [np.hstack([rng.normal(size=(c_in, c_out)) / c_in
                         for _ in range(3)]) for c_in in (C, c_out)]
        grads = []
        for fused in (True, False):
            tape = ad.Tape(conv_dtype=dtype)
            hv = _trunk_leaf(tape, h)
            x = (_graph_conv(hv, ad.KernelStack([np.eye(n)]),
                             tape.leaf(np.eye(C)), mix_first=False)
                 if through_conv else hv)
            W_lift, W_unit = (tape.leaf(w) for w in ws)
            out = (ad.lift_residual_graph_conv(x, mixed, W_lift, W_unit)
                   if fused else ad.residual_graph_conv(
                       _relu(_graph_conv(x, mixed, W_lift, mix_first=True)),
                       mixed, W_unit))
            assert len(tape) == (3 + 2 * through_conv) + (1 if fused else 3)
            tape.backward(_mixing_loss(out))
            grads.append([out.data, hv.grad, W_lift.grad, W_unit.grad])
        for g, w in zip(*grads):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _unit_result(tape, data, n):
    """A residual unit's result, of data's shape, on n-row blocks."""
    C = data.shape[1]
    return ad.residual_graph_conv(_trunk_leaf(tape, data),
                                  ad.KernelStack([np.eye(n)]),
                                  tape.leaf(np.eye(C)))


def test_block_left_matmul_add_shape_errors():
    tape = ad.Tape()
    h = _unit_result(tape, np.ones((8, 3)), 4)
    with pytest.raises(ShapeMismatch, match="not divisible"):
        ad.block_left_matmul_add(np.ones((6, 3)), h,
                                 _unit_result(tape, np.ones((12, 3)), 6))
    with pytest.raises(ShapeMismatch, match="skip"):
        ad.block_left_matmul_add(np.ones((6, 4)), h,
                                 _unit_result(tape, np.ones((8, 3)), 4))


def _spy_gradient(v, seen):
    """Record, in seen, a copy of the gradient v's backward receives."""
    step = v._backward

    def backward(g):
        seen.append(g.copy())
        step(g)

    v._backward = backward


def _join_of_units(dtype, B, fused):
    """A decoder join of two residual units' results, as one node (fused)
    or as block_left_matmul and add: (tape, out, h, skip, grads), where
    grads() lists, after the sweep, what h's and skip's backwards received,
    x.grad, y.grad and the weights' gradients."""
    rng = np.random.default_rng(34)
    n, r, C = 4, 6, 8
    tape = ad.Tape(conv_dtype=dtype)
    x = _trunk_leaf(tape, rng.normal(size=(B * n, C)))
    y = _trunk_leaf(tape, rng.normal(size=(B * r, C)))
    Wh, Ws = (tape.leaf(rng.normal(size=(C, 2 * C)) / C) for _ in range(2))
    h = ad.residual_graph_conv(
        x, ad.KernelStack([np.eye(n), rng.normal(size=(n, n))]), Wh)
    skip = ad.residual_graph_conv(
        y, ad.KernelStack([np.eye(r), rng.normal(size=(r, r))]), Ws)
    seen_h, seen_skip = [], []
    _spy_gradient(h, seen_h)
    _spy_gradient(skip, seen_skip)
    M = rng.normal(size=(r, n))
    out = (ad.block_left_matmul_add(M, h, skip) if fused
           else ad.add(ad.block_left_matmul(M, h), skip))
    return tape, out, h, skip, lambda: [
        *seen_h, *seen_skip, x.grad, y.grad, Wh.grad, Ws.grad]


# B=1101 samples of r=6 result rows span four join tiles of at most
# TILE_ROWS // 6 = 341 samples (276, 275, 275 and 275); B=1 is one tile.
@pytest.mark.parametrize("B", [1101, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_join_consumes_its_units_inputs_with_the_composites_bits(dtype, B):
    # The join adds into the skip's buffer and lets go of h's data: both
    # Values keep their shape and dtype, their data cannot be read, and
    # their gradients are the unfused composite's, bit for bit.
    results = []
    for fused in (True, False):
        tape, out, h, skip, grads = _join_of_units(dtype, B, fused)
        if fused:
            for v, rows in ((h, 4 * B), (skip, 6 * B)):
                assert v.shape == (rows, 8) and v.dtype == dtype
                with pytest.raises(ValueError, match="the residual_graph_conv "
                                   "value was consumed by block_left_matmul"):
                    v.data
        value = out.data.copy()
        tape.backward(_mixing_loss(out))
        results.append([value, *grads()])
    assert len(results[0]) == len(results[1]) == 7
    for g, w in zip(*results):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_join_takes_over_the_skip_buffer_of_a_unit_only():
    # A unit's result becomes the sum in place. A leaf, as h or as the
    # skip, is refused before anything is recorded: the other input keeps
    # its data, and the caller's array behind the leaf stays byte for byte
    # as it was.
    rng = np.random.default_rng(35)
    M = rng.normal(size=(6, 4))
    tape = ad.Tape(conv_dtype=np.float32)
    h = _unit_result(tape, rng.normal(size=(8, 3)), 4)
    unit = _unit_result(tape, rng.normal(size=(12, 3)), 6)
    buffer = unit.data
    assert ad.block_left_matmul_add(M, h, unit).data is buffer
    caller = [rng.normal(size=(8, 3)), rng.normal(size=(12, 3))]
    before = [a.tobytes() for a in caller]
    h_leaf, skip_leaf = (tape.leaf(a) for a in caller)
    h = _unit_result(tape, rng.normal(size=(8, 3)), 4)
    unit = _unit_result(tape, rng.normal(size=(12, 3)), 6)
    recorded = len(tape)
    for pair in ((h_leaf, unit), (h, skip_leaf)):
        with pytest.raises(ValueError, match="block_left_matmul_add: the "
                           "leaf value is not a graph-conv unit's result"):
            ad.block_left_matmul_add(M, *pair)
    assert len(tape) == recorded
    assert [a.tobytes() for a in caller] == before
    assert h.data.shape == (8, 3) and unit.data.shape == (12, 3)


@pytest.mark.parametrize("product, skip_dtype", [
    (np.float32, np.float64), (np.float64, np.float32)])
def test_join_refuses_mixed_dtypes(product, skip_dtype):
    # Units on one tape share its conv_dtype, so two results of units in
    # two dtypes were recorded by other means. Adding a float64 product
    # into a float32 skip would round it, so the join refuses them before
    # anything is recorded, and both keep their data.
    tape = ad.Tape(conv_dtype=np.float32)
    h = tape._record(np.ones((8, 3), dtype=product), "residual_graph_conv")
    skip = tape._record(np.ones((12, 3), dtype=skip_dtype),
                        "lift_residual_graph_conv")
    assert (h.dtype, skip.dtype) == (product, skip_dtype)
    with pytest.raises(ValueError, match=f"block_left_matmul_add: h is "
                       f"{np.dtype(product)}, skip {np.dtype(skip_dtype)}"):
        ad.block_left_matmul_add(np.ones((6, 4)), h, skip)
    assert len(tape) == 2
    assert np.array_equal(h.data, np.ones((8, 3)))
    assert np.array_equal(skip.data, np.ones((12, 3)))


def test_residual_graph_conv_subgradient_and_nan():
    # Identity kernel, W = I: out = h + relu(h), so d sum(out)/dh = 1 + [h > 0]
    # and 1 exactly where h is 0.
    tape = ad.Tape()
    h = tape.leaf([[-1.0, 0.0, 2.0], [0.0, -0.0, 3.0]])
    out = ad.residual_graph_conv(h, ad.KernelStack([np.eye(2)]),
                                 tape.leaf(np.eye(3)))
    assert np.array_equal(out.data, [[-1.0, 0.0, 4.0], [0.0, 0.0, 6.0]])
    tape.backward(ad.reduce_sum(out))
    assert np.array_equal(h.grad, [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
    # A NaN in h is not rectified away: it reaches every channel of its
    # block through the conv, and no other block.
    rng = np.random.default_rng(22)
    N = rng.normal(size=(2, 2))
    tape = ad.Tape()
    data = rng.normal(size=(4, 3))
    data[1, 2] = np.nan
    h = tape._record(data, "h")   # a leaf refuses a NaN
    out = ad.residual_graph_conv(h, ad.KernelStack([np.eye(2), N]),
                                 tape.leaf(np.hstack([np.eye(3)] * 2)))
    assert np.isnan(out.data[:2]).all()
    assert np.isfinite(out.data[2:]).all()


def _grad_of_h_with_a_second_consumer(dtype, leaf_h, unit_first, fused):
    """[d/dx, every surviving gradient] for h feeding a residual unit and
    the skip add after an unpooling (block_left_matmul, then add).

    h is x itself, a conv_dtype node with no closure (_trunk_leaf), or an
    identity conv of x (a node with a closure, whose gradient reaches x
    unchanged). With unit_first the residual unit is recorded last, so
    the sweep reaches it before the skip add and h has no gradient buffer
    yet; otherwise the skip add has made one."""
    rng = np.random.default_rng(33)
    n, B, C = 4, 5, 6
    N = rng.normal(size=(n, n))
    stack = ad.KernelStack([np.eye(n), N])
    tape = ad.Tape(conv_dtype=dtype)
    x = _trunk_leaf(tape, rng.normal(size=(B * n, C)))
    y = tape.leaf(rng.normal(size=(B * n, C)))
    W = tape.leaf(np.hstack([rng.normal(size=(C, C)) for _ in range(2)]))
    h = x if leaf_h else _graph_conv(x, ad.KernelStack([np.eye(n)]),
                                     tape.leaf(np.eye(C)), mix_first=False)

    def unit():
        if fused:
            return ad.residual_graph_conv(h, stack, W)
        return _residual_composite(h, stack, W)

    if unit_first:
        skip = ad.add(ad.block_left_matmul(N, y), h)
        out = ad.add(unit(), skip)
    else:
        out = ad.add(ad.block_left_matmul(N, unit()), h)
    tape.backward(_mixing_loss(out))
    return x.grad, [v._grad for v in tape.nodes if v._grad is not None]


@pytest.mark.parametrize("unit_first", [True, False])
@pytest.mark.parametrize("leaf_h", [True, False])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_residual_unit_never_shares_the_gradient_it_hands_to_h(
        dtype, leaf_h, unit_first):
    # The residual unit builds d/dh in g, its own gradient, which the sweep
    # has let go of; g becomes h's gradient buffer when h has none, and is
    # added into it otherwise: h gets the sum of both consumers'
    # contributions, and no surviving gradient is aliased.
    got, grads = _grad_of_h_with_a_second_consumer(dtype, leaf_h,
                                                   unit_first, True)
    want, _ = _grad_of_h_with_a_second_consumer(dtype, leaf_h, unit_first,
                                                False)
    assert any(g is got for g in grads) and len(grads) >= 2
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_residual_graph_conv_shape_errors():
    tape = ad.Tape()
    h = tape.leaf(np.ones((8, 3)))
    with pytest.raises(ShapeMismatch, match="residual_graph_conv"):
        ad.residual_graph_conv(h, ad.KernelStack([np.eye(4)]),
                               tape.leaf(np.ones((3, 4))))
    with pytest.raises(ShapeMismatch, match="residual_graph_conv"):
        ad.residual_graph_conv(h, ad.KernelStack([np.eye(3)]),
                               tape.leaf(np.ones((3, 3))))


def test_residual_graph_conv_refuses_an_input_off_the_conv_dtype():
    # The trunk hands each residual unit a conv_dtype input. A float64
    # leaf on a float32 tape is refused, not cast, and nothing is recorded.
    tape = ad.Tape(conv_dtype=np.float32)
    h = tape.leaf(np.ones((8, 3)))
    W = tape.leaf(np.eye(3))
    with pytest.raises(ValueError, match="residual_graph_conv: input is "
                       "float64, but the tape's conv_dtype is float32"):
        ad.residual_graph_conv(h, ad.KernelStack([np.eye(4)]), W)
    assert len(tape) == 2


def test_gather_rows_accumulates():
    tape = ad.Tape()
    x = tape.leaf([[1.0], [2.0], [3.0]])
    g = ad.gather_rows(x, [0, 0, 2])
    s = ad.reduce_sum(g)
    tape.backward(s)
    assert np.array_equal(x.grad, [[2.0], [0.0], [1.0]])


# ---------------------------------------------------------------------------
# Finite differences over every op.


def _check(build, params, seed=0, tol=1e-4):
    report = grad_check(build, params, rng=seed, tol=tol)
    assert report.ok, (
        f"max_rel_err={report.max_rel_err:.3e}, "
        f"failures={[ (r.param, r.index) for r in report.failures() ][:5]}")
    return report


def test_grad_arith_ops():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))

    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.add(p[0], p[1]))), [a, b])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.sub(p[0], p[1]))), [a, b])
    _check(lambda t, p: ad.reduce_sum(_head(p[0], p[1])), [a, w])
    _check(lambda t, p: ad.reduce_sum(ad.scale(p[0], -1.7)), [a])


def test_grad_nonlinear_ops():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4)) + 0.1   # keep relu away from the kink
    _check(lambda t, p: ad.reduce_sum(_identity_lift(p[0])), [a])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(p[0])), [a])


def test_grad_layout_ops():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 3))
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
        ad.gather_rows(p[0], [1, 2, 4, 5]))), [a])
    _check(lambda t, p: ad.reduce_sum(ad.gather_rows(p[0], [0, 0, 3, 5])), [a])


def test_grad_block_and_affine_ops():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(3, 4))
    h = rng.normal(size=(2 * 4, 5))
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.block_left_matmul(M, p[0]))), [h])
    A = rng.normal(size=(5, 2))
    shift = rng.normal(size=2)
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.affine_rows(p[0], A, shift))),
           [h])


def test_grad_graph_conv():
    rng = np.random.default_rng(17)
    n, B = 4, 3
    N = [rng.normal(size=(n, n)) for _ in range(3)]
    I = np.eye(n)
    h = rng.normal(size=(B * n, 6))

    def check(kernels, c_in, c_out):
        x = h[:, :c_in]
        ws = [rng.normal(size=(c_in, c_out)) for _ in kernels]
        stack = ad.KernelStack(kernels)
        _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
            ad.lift_residual_graph_conv(p[0], stack, p[1], p[2]))),
            [x, np.hstack(ws), np.hstack(_unit_weights(rng, ws))])

    check([I, N[0], N[1], N[2]], 5, 6)      # identity plus mixing kernels
    check([I], 5, 6)                        # identity only
    check([I, N[0], N[1]], 3, 6)            # a C_in=3 -> C_out lift
    check([I, N[0], N[1]], 3, 2)            # and a narrowing one
    check([I, N[0], N[2]], 5, 6)            # one class masked
    check([I, N[0], N[1]], 6, 5)
    check([N[1], N[2]], 5, 5)
    # h also feeds a head and the lift's weight panel is a second head's
    # weight: both gradients accumulate onto what is already there.
    _check(lambda t, p: ad.add(
        ad.reduce_sum(ad.norm_rows(ad.add(
            _head(p[0], p[2]),
            ad.lift_residual_graph_conv(p[0], ad.KernelStack([I, N[0]]),
                                        p[1], p[4])))),
        ad.reduce_sum(ad.norm_rows(_head(p[3], p[1])))),
        [h[:, :5], rng.normal(size=(5, 12)), rng.normal(size=(5, 6)),
         rng.normal(size=(2, 5)), rng.normal(size=(6, 12))])


def test_grad_residual_graph_conv():
    rng = np.random.default_rng(18)
    n, B, C = 4, 3, 5
    for stack, ws in _residual_cases(rng, n, C):
        h = rng.normal(size=(B * n, C))
        _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
            ad.residual_graph_conv(p[0], stack, p[1]))), [h, np.hstack(ws)])
        # With exact zeros in h the kink is at a sampled coordinate, so h is
        # held constant there and only the weights are checked.
        h[rng.random(h.shape) < 0.3] = 0.0
        _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
            ad.residual_graph_conv(t.leaf(h), stack, p[0]))),
            [np.hstack(ws)])


def test_grad_geometry_ops():
    rng = np.random.default_rng(14)
    p = rng.normal(size=(6, 3))
    p[:, 2] = rng.uniform(2.0, 5.0, size=6)
    _check(lambda t, pr: ad.reduce_sum(ad.perspective_divide(pr[0])), [p])
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    _check(lambda t, pr: ad.reduce_sum(ad.row_cosine(pr[0], pr[1])), [a, b])


def test_grad_composite_expression():
    # A miniature of the network: kernels, weights, relu, residual units,
    # the head folded into the last one, norm.
    rng = np.random.default_rng(15)
    N = rng.normal(size=(4, 4))
    x = rng.normal(size=(2 * 4, 3))
    w1 = rng.normal(size=(3, 8))
    w2 = rng.normal(size=(8, 3))
    u = rng.normal(size=(8, 8)) / 8
    v = rng.normal(size=(8, 8)) / 8

    def build(t, p):
        stack = ad.KernelStack([N])
        h = ad.lift_residual_graph_conv(p[0], stack, p[1], p[3])
        delta = ad.residual_graph_conv_head(h, stack, p[4], p[2])
        return ad.reduce_sum(ad.norm_rows(ad.add(p[0], delta)))

    _check(build, [x, w1, w2, u, v], tol=1e-4)


def test_grad_check_reports_structure():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(3, 3))
    report = grad_check(lambda t, p: ad.reduce_sum(ad.norm_rows(p[0])),
                           [a], n_samples=5)
    assert len(report.rows) == 5
    assert report.ok and not report.failures()
    for row in report.rows:
        assert row.rel_err < 1e-6
        expected = a[row.index] / np.linalg.norm(a[row.index[0]])
        assert row.analytic == pytest.approx(expected, rel=1e-9)


def test_release_frees_graph_but_keeps_held_values():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = _relu(ad.add(a, a))
    loss = ad.reduce_sum(b)
    tape.backward(loss)
    grad = a.grad.copy()
    tape.release()
    assert len(tape) == 0
    # values the caller kept remain readable
    assert np.allclose(b.data, 2.0)
    assert np.allclose(grad, 2.0)
    # the graph is gone: node grads were dropped with it
    assert a._grad is None


def test_release_breaks_reference_cycles():
    tape = ad.Tape()
    a = tape.leaf(np.ones((4, 4)))
    out = ad.reduce_sum(_head(a, a))
    tape.backward(out)
    tape.release()
    # both cycle edges are cut: tape -> Value and closure -> operands
    assert tape.nodes == []
    assert out._backward is None and a._backward is None


def _unit(a, W):
    """The residual unit a + relu(a) W: one identity kernel on 1-row
    blocks."""
    return ad.residual_graph_conv(a, ad.KernelStack([np.eye(1)]), W)


def _swept_chain():
    """A small tape swept once; returns (tape, leaves, held interior Values)."""
    tape = ad.Tape()
    a = tape.leaf(np.ones((3, 2)))
    w = tape.leaf(np.full((2, 2), 0.5))
    mid = _unit(a, w)
    loss = ad.reduce_sum(ad.norm_rows(ad.add(mid, a)))
    tape.backward(loss)
    return tape, [a, w], [mid, loss]


def test_backward_keeps_leaves_and_their_gradients():
    tape, leaves, interior = _swept_chain()
    assert len(tape) == len(leaves) == 2
    assert tape.nodes[0] is leaves[0] and tape.nodes[1] is leaves[1]
    for leaf in leaves:
        assert leaf._grad is not None and np.abs(leaf.grad).max() > 0
    for v in interior:
        assert v._backward is None and v._grad is None
    # Values the caller holds keep their data.
    mid, loss = interior
    assert np.array_equal(mid.data, np.full((3, 2), 2.0))
    assert loss.data.shape == (1, 1) and loss.data[0, 0] > 0


def test_backward_frees_interior_values_nobody_holds():
    tape = ad.Tape()
    a = tape.leaf(np.ones((4, 4)))
    mid = _unit(a, a)
    gone, gone_data = weakref.ref(mid), weakref.ref(mid.data)
    loss = ad.reduce_sum(mid)
    del mid
    assert gone() is not None     # the tape holds it until the sweep
    tape.backward(loss)
    # Freed by refcount alone, without the cyclic collector.
    assert gone() is None and gone_data() is None
    # 1 + 4 through the unit's input, 4 through its weight.
    assert np.array_equal(a.grad, np.full((4, 4), 9.0))


def test_tape_sweeps_once():
    tape, leaves, (mid, loss) = _swept_chain()
    grad = leaves[0].grad.copy()
    with pytest.raises(ValueError, match="already swept"):
        tape.backward(loss)
    assert np.array_equal(leaves[0].grad, grad)
    tape = ad.Tape()
    x = tape.leaf([[2.0]])
    loss = ad.reduce_sum(x)
    tape.release()
    with pytest.raises(ValueError, match="already swept or released"):
        tape.backward(loss)


def test_forward_only_tape_keeps_nothing_and_refuses_a_sweep():
    tape = ad.Tape(record=False)
    a = tape.leaf(np.ones((4, 4)))
    mid = _unit(a, a)
    loss = ad.reduce_sum(ad.norm_rows(mid))
    assert len(tape) == 0
    assert np.array_equal(mid.data, np.full((4, 4), 5.0))
    assert loss.data[0, 0] == 40.0
    assert all(v._backward is None for v in (a, mid, loss))
    # Nothing holds a Value but its caller: no tape, no closure.
    gone, gone_data = weakref.ref(mid), weakref.ref(mid.data)
    del mid
    assert gone() is None and gone_data() is None
    with pytest.raises(ValueError, match=r"forward-only tape \(record=False\) "
                                         r"keeps no graph to sweep"):
        tape.backward(loss)
    assert a._grad is None


def _matmul(a, b):
    """a @ b as a node of its own, with numpy's promotion: the composed
    reference's head."""
    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return a.tape._record(a.data @ b.data, "matmul", backward)


# TILE_ROWS = 24 splits n = 4 rows per sample into tiles of 2, 6 and 3
# samples over the three, one and two kernels of _residual_cases: B=7
# spans 4, 2 and 3 tiles, the last one short; B=1 is one tile.
@pytest.mark.parametrize("B", [7, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_head_unit_matches_the_unit_then_the_head(monkeypatch, dtype, B):
    # residual_graph_conv_head against residual_graph_conv and then a
    # matmul by the head on two nodes: the value and every gradient within
    # 1e-12 of the largest entry on a float64 tape, and within F32_TOL on
    # float32, where the composite rounds the unit's result to float32 and
    # the fold multiplies in float64. Exact zeros of h meet the relu's
    # subgradient 0 on both.
    monkeypatch.setattr(ad, "TILE_ROWS", 24)
    rng = np.random.default_rng(23)
    n, C = 4, 5
    tol = 1e-12 if dtype == np.float64 else F32_TOL
    for stack, ws in _residual_cases(rng, n, C):
        h = rng.normal(size=(B * n, C))
        h[rng.random(h.shape) < 0.2] = 0.0
        head = rng.normal(size=(C, 3))
        results = []
        for fused in (True, False):
            tape = ad.Tape(conv_dtype=dtype)
            hv = _trunk_leaf(tape, h)
            W, Wh = tape.leaf(np.hstack(ws)), tape.leaf(head)
            if fused:
                out = ad.residual_graph_conv_head(hv, stack, W, Wh)
                assert out.op == "residual_graph_conv_head" and len(tape) == 4
            else:
                out = _matmul(ad.residual_graph_conv(hv, stack, W), Wh)
            tape.backward(_mixing_loss(out))
            results.append([out.data, hv.grad, W.grad, Wh.grad])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert results[0][0].dtype == np.float64
        assert results[0][1].dtype == dtype


def test_grad_residual_graph_conv_head(monkeypatch):
    # The input, panel and head gradients by finite differences, over the
    # ragged tiles of the test above.
    monkeypatch.setattr(ad, "TILE_ROWS", 24)
    rng = np.random.default_rng(24)
    n, B, C = 4, 7, 5
    for stack, ws in _residual_cases(rng, n, C):
        tape = ad.Tape()
        plan = ad._ConvPlan(tape, (B * n, C), stack,
                            tape.leaf(np.hstack(ws)), "check")
        assert len(plan.tiles()) > 1
        _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
            ad.residual_graph_conv_head(p[0], stack, p[1], p[2]))),
            [rng.normal(size=(B * n, C)), np.hstack(ws),
             rng.normal(size=(C, 3))])


def test_residual_graph_conv_head_refuses_bad_operands():
    # A head whose rows are not the unit's width, a panel that does not
    # keep the width, and an input off the conv_dtype are refused before
    # anything is recorded.
    tape = ad.Tape(conv_dtype=np.float32)
    h = _trunk_leaf(tape, np.ones((8, 3)))
    stack = ad.KernelStack([np.eye(4)])
    W, head = tape.leaf(np.eye(3)), tape.leaf(np.ones((3, 3)))
    with pytest.raises(ShapeMismatch, match=r"residual_graph_conv_head: "
                       r"head \(2, 3\), expected \(3, D\)"):
        ad.residual_graph_conv_head(h, stack, W, tape.leaf(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch, match="residual_graph_conv_head"):
        ad.residual_graph_conv_head(h, stack, tape.leaf(np.ones((3, 4))),
                                    head)
    with pytest.raises(ValueError, match="residual_graph_conv_head: input "
                       "is float64, but the tape's conv_dtype is float32"):
        ad.residual_graph_conv_head(tape.leaf(np.ones((8, 3))), stack, W,
                                    head)
    assert [v.op for v in tape.nodes if v.op != "leaf"] == ["h"]
