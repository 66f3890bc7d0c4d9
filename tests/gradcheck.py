"""Finite-difference gradient checks for cvpose's autodiff tapes.

Only tests call these, so they live beside the tests rather than in the
cvpose package, which holds only what its commands and the benchmark run
(tests/test_files.py guards that). Import as `from gradcheck import
grad_check`: pytest puts this directory on sys.path for the test modules
in it.

The tapes are opened as `ad.Tape()`, looked up on the module at call time,
so a test that swaps the Tape class sees the float64 recording tapes a
check opens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cvpose import autodiff as ad
from cvpose.errors import NotScalar


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
    perturbed by +-h with h = eps * max(1, |x|): the step scales with the
    coordinate, so on large inputs (mm near 3000) the difference is not
    mostly round-off. Discrepancies are reported, never raised; rel_err
    is |a - n| / max(|a|, |n|, 1e-6).
    """
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(0 if rng is None else rng)
    params = [np.asarray(p, dtype=np.float64) for p in params]

    tape = ad.Tape()
    leaves = [tape.leaf(p) for p in params]
    loss = build(tape, leaves)
    if loss.data.shape != (1, 1):
        raise NotScalar(f"build returned shape {loss.data.shape}")
    tape.backward(loss)
    analytic = [lf.grad.copy() for lf in leaves]

    def loss_at(arrays):
        t = ad.Tape()
        lv = [t.leaf(p) for p in arrays]
        return float(build(t, lv).data[0, 0])

    rows = []
    for pi, p in enumerate(params):
        count = min(n_samples, p.size)
        coords = rng.choice(p.size, size=count, replace=False)
        for flat in np.sort(coords):
            idx = np.unravel_index(int(flat), p.shape)
            h = eps * max(1.0, abs(float(p[idx])))
            bumped = [q.copy() for q in params]
            bumped[pi][idx] += h
            hi = loss_at(bumped)
            bumped[pi][idx] -= 2 * h
            lo = loss_at(bumped)
            numeric = (hi - lo) / (2.0 * h)
            ana = float(analytic[pi][idx])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
            rows.append(GradCheckRow(pi, tuple(int(i) for i in idx), ana, numeric, rel))
    max_err = max((r.rel_err for r in rows), default=0.0)
    return GradCheckReport(rows=rows, max_rel_err=max_err, tol=tol)
