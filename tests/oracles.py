"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own computational paths:
finite differences against generating functions, brute-force path simulation,
rational arithmetic, and closed forms derived separately.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# finite-difference differentiation of generating functions
# ---------------------------------------------------------------------------

# central stencils of order h^4: offsets and weights per derivative order
_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6)),
}


def derivative_at_zero(f, order: int, h: float) -> float:
    """order-th derivative of f at 0 by an O(h^4) central stencil."""
    offsets, weights = _STENCILS[order]
    acc = 0.0
    for o, w in zip(offsets, weights):
        acc += w * f(o * h)
    return acc / h**order


def simpson_fixed(f, a: float, b: float, n: int = 2000) -> float:
    """Plain composite Simpson on a fixed grid (independent of the package)."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def moments_from_mgf(mgf, orders, h: float):
    """Raw moments E[X^k] as derivatives of the MGF at zero."""
    return [derivative_at_zero(mgf, k, h) for k in orders]


def shifted_exp_integral_mgf(alpha, cgf, lam, t):
    """MGF of alpha + int_0^{lam t} e^s dV_s built from the driver's CGF
    by direct quadrature of theta -> int cgf(theta e^s) ds."""

    def mgf(theta: float) -> float:
        if theta == 0.0:
            return 1.0
        integral = simpson_fixed(lambda s: cgf(theta * math.exp(s)), 0.0, lam * t, 800)
        return math.exp(theta * alpha + integral)

    return mgf


# ---------------------------------------------------------------------------
# scalar depth-first adaptive Simpson
# ---------------------------------------------------------------------------

def adaptive_simpson_depth_first(f, a: float, b: float, tol: float = None, max_depth: int = 40):
    """The package's adaptive Simpson rule, one interval and one scalar node
    at a time: (value, error estimate), or NumericalError past max_depth."""
    from gvswap import NumericalError

    if b < a:
        raise NumericalError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if tol is None:
        tol = 1e-10 * (b - a)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(fa, fm, fb, b - a)

    total = 0.0
    err_total = 0.0
    depth_exceeded = False

    # iterative stack of (a, b, fa, fm, fb, whole, tol, depth)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, b0, f0, f1, f2, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        s_left = simpson(f0, flm, f1, m0 - a0)
        s_right = simpson(f1, frm, f2, b0 - m0)
        err = (s_left + s_right - s0) / 15.0
        if abs(err) <= tol0 or depth >= max_depth:
            if abs(err) > tol0:
                depth_exceeded = True
            total += s_left + s_right + err
            err_total += abs(err)
        else:
            stack.append((a0, m0, f0, flm, f1, s_left, 0.5 * tol0, depth + 1))
            stack.append((m0, b0, f1, frm, f2, s_right, 0.5 * tol0, depth + 1))

    if depth_exceeded:
        raise NumericalError(
            f"adaptive Simpson exceeded max depth {max_depth} (achieved error ~{err_total:.3e})",
            best_value=total,
            error_estimate=err_total,
        )
    return total, err_total


# ---------------------------------------------------------------------------
# path-simulation of the exponential integral
# ---------------------------------------------------------------------------

def sample_exp_integral(sample_increments, lam: float, t: float, n_cells: int,
                        n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of int_0^{lam t} e^s dV_s by left-endpoint aggregation on a grid."""
    upper = lam * t
    ds = upper / n_cells
    s_left = np.exp(np.arange(n_cells) * ds)
    out = np.zeros(n_samples)
    for j in range(n_cells):
        out += s_left[j] * sample_increments(ds, rng, n_samples)
    return out


def mean_with_stderr(samples: np.ndarray) -> tuple[float, float]:
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples)))


# ---------------------------------------------------------------------------
# exact rational square-root binomial coefficients
# ---------------------------------------------------------------------------

def exact_sqrt_binomial(k: int) -> Fraction:
    """binom(1/2, k) = prod_{j=0}^{k-1} (1/2 - j) / k! in exact arithmetic."""
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(1, 2) - j
    return num / math.factorial(k)


# ---------------------------------------------------------------------------
# spreadsheet-style statistics (pure Python, no numpy)
# ---------------------------------------------------------------------------

def plain_stats(values) -> dict:
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(var)
    ordered = sorted(values)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    return {
        "n": n,
        "mean": mean,
        "std_error": sd / math.sqrt(n),
        "ci95_half_width": 1.96 * sd / math.sqrt(n),
        "min": ordered[0],
        "max": ordered[-1],
        "range": ordered[-1] - ordered[0],
        "median": median,
        "std_dev": sd,
    }


# ---------------------------------------------------------------------------
# closed-form orthogonal factorization for mu = (0, mu2, mu3)
# ---------------------------------------------------------------------------

def symbolic_basis_mu1_zero(mu2: float, mu3: float):
    """Closed-form QR of [mu 1] when the first expected return is zero.

    Returns (P, R); P's columns are the normalized mu, the orthonormalized
    ones direction, and the unit normal.
    """
    u = math.sqrt(mu2**2 + mu3**2)
    w = math.sqrt(2 * (mu2**2 + mu3**2 - mu2 * mu3) * (mu2**2 + mu3**2))
    z = math.sqrt(2 * (mu2**2 + mu3**2 - mu2 * mu3))
    p = np.array(
        [
            [0.0, (mu2**2 + mu3**2) / w, (mu2 - mu3) / z],
            [mu2 / u, (mu3**2 - mu2 * mu3) / w, mu3 / z],
            [mu3 / u, (mu2**2 - mu3 * mu2) / w, -mu2 / z],
        ]
    )
    r = np.array(
        [
            [u, (mu2 + mu3) / u],
            [0.0, math.sqrt(2 * (mu2**2 + mu3**2 - mu2 * mu3) / (mu2**2 + mu3**2))],
        ]
    )
    return p, r
