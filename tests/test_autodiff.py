"""Tape mechanics and finite-difference validation of every op."""

import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose.errors import NonPositiveDepth, NotScalar, ShapeMismatch


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


def test_simple_chain_gradient():
    # f = (2a + b^T) b for a row a and a column b: df/da = 2b^T,
    # df/db = 2a^T + 2b.
    tape = ad.Tape()
    a = tape.leaf([[1.0, -2.0]])
    b = tape.leaf([[3.0], [0.5]])
    f = ad.reduce_sum(ad.matmul(ad.add(ad.scale(a, 2.0), ad.reshape(b, 1, 2)), b))
    tape.backward(f)
    assert np.allclose(a.grad, 2.0 * b.data.T)
    assert np.allclose(b.grad, 2.0 * a.data.T + 2.0 * b.data)


def test_grad_accumulates_on_reuse():
    tape = ad.Tape()
    a = tape.leaf([[2.0]])
    f = ad.reduce_sum(ad.matmul(a, a))   # a^2
    tape.backward(f)
    assert a.grad[0, 0] == pytest.approx(4.0)
    tape.zero_grads()
    assert a._grad is None


def test_relu_subgradient_at_zero():
    tape = ad.Tape()
    x = tape.leaf([[-1.0, 0.0, 2.0]])
    y = ad.reduce_sum(ad.relu(x))
    tape.backward(y)
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


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
        ad.matmul(a, a)
    with pytest.raises(ShapeMismatch):
        ad.reshape(a, 4, 2)
    with pytest.raises(ShapeMismatch):
        ad.slice_rows(a, 0, 5)
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


def test_concat_and_slice_blocks_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2 * 3, 4))   # B=2 blocks of 3 rows
    b = rng.normal(size=(2 * 2, 4))   # B=2 blocks of 2 rows
    tape = ad.Tape()
    av, bv = tape.leaf(a), tape.leaf(b)
    cat = ad.concat_blocks(av, bv, 3, 2)
    assert cat.shape == (10, 4)
    assert np.array_equal(cat.data[0:3], a[0:3])
    assert np.array_equal(cat.data[3:5], b[0:2])
    assert np.array_equal(cat.data[5:8], a[3:6])
    back_a = ad.slice_blocks(cat, 5, 0, 3)
    back_b = ad.slice_blocks(cat, 5, 3, 5)
    assert np.array_equal(back_a.data, a)
    assert np.array_equal(back_b.data, b)


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
    report = ad.grad_check(build, params, rng=seed, tol=tol)
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
    _check(lambda t, p: ad.reduce_sum(ad.matmul(p[0], p[1])), [a, w])
    _check(lambda t, p: ad.reduce_sum(ad.scale(p[0], -1.7)), [a])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(
        ad.add_n([p[0], p[1], ad.sub(p[0], p[1])]))), [a, b])


def test_grad_nonlinear_ops():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4)) + 0.1   # keep relu away from the kink
    _check(lambda t, p: ad.reduce_sum(ad.relu(p[0])), [a])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(p[0])), [a])


def test_grad_layout_ops():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(4, 3))
    _check(lambda t, p: ad.reduce_sum(ad.slice_rows(p[0], 1, 5)), [a])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.reshape(p[0], 9, 2))), [a])
    _check(lambda t, p: ad.reduce_sum(ad.gather_rows(p[0], [0, 0, 3, 5])), [a])
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.concat_blocks(p[0], p[1], 3, 2))),
           [a, b])
    _check(lambda t, p: ad.reduce_sum(ad.slice_blocks(p[0], 3, 1, 3)), [a])


def test_grad_block_and_affine_ops():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(3, 4))
    h = rng.normal(size=(2 * 4, 5))
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.block_left_matmul(M, p[0]))), [h])
    A = rng.normal(size=(5, 2))
    shift = rng.normal(size=2)
    _check(lambda t, p: ad.reduce_sum(ad.norm_rows(ad.affine_rows(p[0], A, shift))),
           [h])


def test_grad_geometry_ops():
    rng = np.random.default_rng(14)
    p = rng.normal(size=(6, 3))
    p[:, 2] = rng.uniform(2.0, 5.0, size=6)
    _check(lambda t, pr: ad.reduce_sum(ad.perspective_divide(pr[0])), [p])
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    _check(lambda t, pr: ad.reduce_sum(ad.row_cosine(pr[0], pr[1])), [a, b])


def test_grad_composite_expression():
    # A miniature of the network: kernels, weights, relu, residual, norm.
    rng = np.random.default_rng(15)
    N = rng.normal(size=(4, 4))
    x = rng.normal(size=(2 * 4, 3))
    w1 = rng.normal(size=(3, 8))
    w2 = rng.normal(size=(8, 3))

    def build(t, p):
        h = ad.relu(ad.matmul(ad.block_left_matmul(N, p[0]), p[1]))
        delta = ad.matmul(h, p[2])
        return ad.reduce_sum(ad.norm_rows(ad.add(p[0], delta)))

    _check(build, [x, w1, w2], tol=1e-4)


def test_grad_check_reports_structure():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(3, 3))
    report = ad.grad_check(lambda t, p: ad.reduce_sum(ad.norm_rows(p[0])),
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
    b = ad.relu(ad.add(a, a))
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
    out = ad.reduce_sum(ad.matmul(a, a))
    tape.backward(out)
    tape.release()
    # both cycle edges are cut: tape -> Value and closure -> operands
    assert tape.nodes == []
    assert out._backward is None and a._backward is None
