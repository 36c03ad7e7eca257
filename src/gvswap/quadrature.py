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
        Vectorized real integrand: maps a 1-D array of nodes in [a, b] to the
        array of its finite values there.
    a, b : float
        Integration bounds, a <= b.
    tol : float, optional
        Absolute tolerance; defaults to 1e-10 * (b - a).
    max_depth : int
        Bisection depth limit.

    Returns
    -------
    (value, error_estimate)

    Raises
    ------
    NumericalError
        If max_depth is exceeded before the tolerance is met; the exception
        carries the best value and the achieved error estimate.
    """
    if b < a:
        raise NumericalError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if tol is None:
        tol = 1e-10 * (b - a)

    # the root's quarter-points go with its ends into the first call
    m = 0.5 * (a + b)
    fa, flm, fm, frm, fb = f(np.array([a, 0.5 * (a + m), m, 0.5 * (m + b), b]))
    quarters = np.array([flm, frm])

    total = 0.0
    err_total = 0.0
    depth_exceeded = False

    # stack rows: a, b, f(a), f(mid), f(b), Simpson estimate, tolerance, depth
    stack = np.array([[a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0.0]])
    while len(stack):
        batch, stack = stack[-_BATCH:], stack[:-_BATCH]
        a0, b0, f0, f1, f2, s0, tol0, depth = batch.T
        m0 = 0.5 * (a0 + b0)
        if quarters is None:
            quarters = f(np.concatenate([0.5 * (a0 + m0), 0.5 * (m0 + b0)]))
        flm, frm = quarters[: len(batch)], quarters[len(batch) :]
        quarters = None
        s_left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        s_right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        err = (s_left + s_right - s0) / 15.0
        met = np.abs(err) <= tol0
        done = met | (depth >= max_depth)
        depth_exceeded |= not met[done].all()
        total += (s_left + s_right + err)[done].sum()
        err_total += np.abs(err[done]).sum()
        half, deeper = 0.5 * tol0, depth + 1.0
        children = np.array([[a0, m0, f0, flm, f1, s_left, half, deeper],
                             [m0, b0, f1, frm, f2, s_right, half, deeper]])
        stack = np.concatenate([stack, children.transpose(0, 2, 1)[:, ~done].reshape(-1, 8)])

    total, err_total = float(total), float(err_total)
    if depth_exceeded:
        raise NumericalError(
            f"adaptive Simpson exceeded max depth {max_depth} (achieved error ~{err_total:.3e})",
            best_value=total,
            error_estimate=err_total,
        )
    return total, err_total
