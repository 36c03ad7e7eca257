"""Moments of exponential integrals of subordinators.

The building block is Y(t) = int_0^{lam t} e^s dV_s for a subordinator V,
whose cumulants follow from integrating the cumulant transform:

    kappa_n(Y(t)) = kappa_n(V_1) (e^(n lam t) - 1) / n.

Raw moments come from cumulants via the standard recursion

    m_n = sum_{j=0}^{n-1} C(n-1, j) c_{j+1} m_{n-1-j},

and a deterministic shift is folded into the first cumulant.  Everything
internal works with the time-scaled variable e^(-lam t) Y(t), whose cumulants
kappa_n (1 - e^(-n lam t)) / n stay bounded for any horizon; public helpers
rescale on the way out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .subordinators import SubordinatorSpec


def raw_moments_from_cumulants(cumulants: np.ndarray) -> np.ndarray:
    """Raw moments m_0..m_N from cumulants c_1..c_N."""
    c = np.asarray(cumulants, dtype=float)
    n_max = len(c)
    m = np.empty(n_max + 1)
    m[0] = 1.0
    for n in range(1, n_max + 1):
        acc = 0.0
        for j in range(n):
            acc += math.comb(n - 1, j) * c[j] * m[n - 1 - j]
        m[n] = acc
    return m


def scaled_exp_integral_cumulants(cumulants: np.ndarray, lam: float, t: float) -> np.ndarray:
    """Cumulants of e^(-lam t) Y(t) given the driver's unit-time cumulants."""
    c = np.asarray(cumulants, dtype=float)
    n = np.arange(1, len(c) + 1)
    return c * (-np.expm1(-n * lam * t)) / n


def scaled_moment_table(
    cumulants: np.ndarray, shift: float, lam: float, t: float, max_order: int
) -> np.ndarray:
    """Moments of e^(-lam t) (shift + Y(t)) up to max_order.

    The table's n-th entry is E[(e^(-lam t) (shift + Y))^n]; entries stay at
    the scale of instantaneous variances, avoiding overflow at long horizons.
    """
    if max_order == 0:
        return np.ones(1)
    c = scaled_exp_integral_cumulants(np.asarray(cumulants)[:max_order], lam, t)
    c[0] += shift * math.exp(-lam * t)
    return raw_moments_from_cumulants(c)


def _check_order(order: int, lo: int = 1, hi: int = 4) -> int:
    if not isinstance(order, (int, np.integer)) or not lo <= order <= hi:
        raise ParameterError(f"moment order must be an integer in {lo}..{hi}, got {order!r}")
    return int(order)


def shifted_moment(shift: float, spec: SubordinatorSpec, lam: float, t: float, order: int) -> float:
    """E[(shift + Y(t))^order] by the binomial shift of the Y moments, order in 1..4."""
    order = _check_order(order)
    if lam <= 0:
        raise ParameterError(f"mean-reversion rate must be positive, got {lam}")
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    scaled = scaled_moment_table(spec.cumulant_sequence(order), shift, lam, t, order)
    return float(scaled[order] * math.exp(order * lam * t))

