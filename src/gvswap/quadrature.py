"""Adaptive composite Simpson quadrature with an accumulated error estimate."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

#: open intervals refined per integrand call; the stack holds at most about
#: max_depth * _BATCH intervals
_BATCH = 64


def adaptive_simpson(f, a: float, b: float, tol: float = None, max_depth: int = 40):
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Intervals are bisected until the local Richardson error estimate falls
    below the locally apportioned tolerance; the returned error estimate is
    the accumulated sum of the accepted local estimates.  Open intervals are
    taken depth-first from a stack, up to _BATCH at a time, and the new
    quarter-points of a batch go to f in one call.  Whether an interval is
    bisected depends on its own nodes only, so the node set is the one a
    one-interval-at-a-time traversal visits.

    Parameters
    ----------
    f : callable
        Vectorized real integrand: maps a 1-D array of n nodes in [a, b] to
        the array of its finite values there, of shape (n,), or of shape
        (m, n) for m integrands on one node set.  An interval of a vector
        integrand is bisected while any row's local estimate exceeds the
        tolerance.
    a, b : float
        Integration bounds, a <= b.
    tol : float, optional
        Absolute tolerance, per row; defaults to 1e-10 * (b - a).
    max_depth : int
        Bisection depth limit.

    Returns
    -------
    (value, error_estimate)
        Floats for a 1-D integrand, arrays of shape (m,) for a vector one;
        (0.0, 0.0) without a call of f when a == b.

    Raises
    ------
    NumericalError
        If max_depth is exceeded before the tolerance is met; the exception
        carries the best value and the achieved error estimate, per row for
        a vector integrand.
    """
    if b < a:
        raise NumericalError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if tol is None:
        tol = 1e-10 * (b - a)

    # the root's quarter-points go with its ends into the first call
    m = 0.5 * (a + b)
    first = np.asarray(f(np.array([a, 0.5 * (a + m), m, 0.5 * (m + b), b])))
    rows = len(first) if first.ndim == 2 else 1
    fa, flm, fm, frm, fb = first.reshape(rows, 5).T
    quarters = np.stack([flm, frm], axis=1)

    total = np.zeros(rows)
    err_total = np.zeros(rows)
    depth_exceeded = False

    # stack rows: a, b, tolerance, depth, then f(a), f(mid), f(b) and the
    # Simpson estimate, one column per integrand row each
    width = 4 + 4 * rows
    stack = np.concatenate([[a, b, tol, 0.0], fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb)])[None]
    while len(stack):
        batch, stack = stack[-_BATCH:], stack[:-_BATCH]
        n = len(batch)
        a0, b0, tol0, depth = batch[:, :4].T
        f0, f1, f2, s0 = batch[:, 4:].T.reshape(4, rows, n)
        m0 = 0.5 * (a0 + b0)
        if quarters is None:
            quarters = f(np.concatenate([0.5 * (a0 + m0), 0.5 * (m0 + b0)]))
        quarters = np.reshape(quarters, (rows, 2 * n))
        flm, frm = quarters[:, :n], quarters[:, n:]
        quarters = None
        s_left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        s_right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        err = (s_left + s_right - s0) / 15.0
        met = (np.abs(err) <= tol0).all(axis=0)
        done = met | (depth >= max_depth)
        depth_exceeded |= not met[done].all()
        total += (s_left + s_right + err)[:, done].sum(axis=1)
        err_total += np.abs(err[:, done]).sum(axis=1)
        half, deeper = 0.5 * tol0, depth + 1.0
        children = np.array([np.concatenate([[a0, m0, half, deeper], f0, flm, f1, s_left]),
                             np.concatenate([[m0, b0, half, deeper], f1, frm, f2, s_right])])
        stack = np.concatenate([stack, children.transpose(0, 2, 1)[:, ~done].reshape(-1, width)])

    if first.ndim == 1:
        total, err_total = float(total[0]), float(err_total[0])
    if depth_exceeded:
        raise NumericalError(
            f"adaptive Simpson exceeded max depth {max_depth} "
            f"(achieved error ~{np.max(err_total):.3e})",
            best_value=total,
            error_estimate=err_total,
        )
    return total, err_total
