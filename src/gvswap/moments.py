"""Moments of exponential integrals of subordinators.

The building block is Y(t) = int_0^{lam t} e^s dV_s for a subordinator V,
whose cumulants follow from integrating the cumulant transform:

    kappa_n(Y(t)) = kappa_n(V_1) (e^(n lam t) - 1) / n.

Raw moments come from cumulants via the standard recursion

    m_n = sum_{j=0}^{n-1} C(n-1, j) c_{j+1} m_{n-1-j},

and a deterministic shift is folded into the first cumulant.  Everything
works with the time-scaled variable e^(-lam t) Y(t), whose cumulants
kappa_n (1 - e^(-n lam t)) / n stay bounded for any horizon.
"""

from __future__ import annotations

import numpy as np


def raw_moments_from_cumulants(cumulants: np.ndarray) -> np.ndarray:
    """Raw moments m_0..m_N from cumulants c_1..c_N.

    Orders run along the first axis; any further axes (one per driver or per
    time node, say) are carried along elementwise, and a column of a batch
    equals the same cumulants passed alone.  The recursion runs on
    u_n = m_n / n!, for which it reads n u_n = sum_j c_{j+1} / j! u_{n-1-j}.
    """
    c = np.asarray(cumulants, dtype=float)
    n_max = len(c)
    factorials = np.cumprod(np.arange(1.0, n_max + 1.0))
    d = c.reshape(n_max, -1) / np.concatenate(([1.0], factorials[:-1]))[:, None]
    u = np.empty((n_max + 1, d.shape[1]))
    u[0] = 1.0
    for n in range(1, n_max + 1):
        # cumsum adds in index order; sum() pairs a lone column's terms differently
        u[n] = np.cumsum(d[:n] * u[n - 1 :: -1], axis=0)[-1] / n
    u[1:] *= factorials[:, None]
    return u.reshape((n_max + 1,) + c.shape[1:])


def scaled_exp_integral_cumulants(cumulants: np.ndarray, lam: float, t) -> np.ndarray:
    """Cumulants of e^(-lam t) Y(t) given the driver's unit-time cumulants
    (orders along the first axis, optionally one column per driver); shape
    cumulants.shape + shape(t)."""
    c = np.asarray(cumulants, dtype=float)
    t = np.asarray(t, dtype=float)
    n = np.arange(1, len(c) + 1).reshape((-1,) + (1,) * (c.ndim - 1 + t.ndim))
    return c.reshape(c.shape + (1,) * t.ndim) * (-np.expm1(-n * lam * t)) / n


def scaled_moment_table(cumulants: np.ndarray, shift, lam: float, t, max_order: int) -> np.ndarray:
    """Moments of e^(-lam t) (shift + Y(t)) up to max_order; shape
    (max_order + 1,) + cumulants.shape[1:] + shape(t).

    The table's n-th entry is E[(e^(-lam t) (shift + Y))^n]; entries stay at
    the scale of instantaneous variances, avoiding overflow at long horizons.
    A 2-D cumulant array holds one driver per column, each with its own entry
    of shift.
    """
    cumulants = np.asarray(cumulants, dtype=float)
    if max_order == 0:
        return np.ones((1,) + cumulants.shape[1:] + np.shape(t))
    c = scaled_exp_integral_cumulants(cumulants[:max_order], lam, t)
    c[0] += np.multiply.outer(shift, np.exp(-lam * np.asarray(t, dtype=float)))
    return raw_moments_from_cumulants(c)
