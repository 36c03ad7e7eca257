"""Time integrals of functions of u = e^(-lam t) by one Gauss-Kronrod 7/15 rule.

The package's integrands depend on the time t only through u = e^(-lam t)
and have a finite stationary value g(inf) at u = 0.  Splitting it off,

    int_0^T g dt = g(inf) T + (1/lam) int_{e^(-lam T)}^1 (g(u) - g(inf)) / u du,

leaves an integrand that is analytic on the closed u-interval, where a Gauss
rule converges exponentially (Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Review 50, 2008).  The 15-point Kronrod rule reuses
the 7 Gauss-Legendre nodes, so |K15 - G7| is an error estimate from the same
evaluation (Piessens et al., QUADPACK, 1983).  The rule is open: no node sits
at u = e^(-lam T), which is 1.7e-44 at lam = 0.4, T = 252, and where
(g(u) - g(inf)) / u would be pure cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

#: largest accepted |K15 - G7| relative to |K15|, per integrand row
RTOL = 1e-6

# the 15-point Kronrod rule on [-1, 1]: abscissae of the nonnegative half in
# descending order, their Kronrod weights and their 7-point Gauss weights;
# x[1], x[3], x[5] and x[7] are the Gauss-Legendre nodes
_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
      0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


#: the 15 Kronrod nodes, ascending, and the rows (K15, G7) of weights on
#: them; the Gauss weights vanish at the Kronrod-only nodes
NODES = np.concatenate([-np.array(_X), _X[-2::-1]])
WEIGHTS = np.array([w + w[-2::-1] for w in (_WK, _WG)])


def gauss_kronrod_u(f, lam: float, horizon: float):
    """int_0^T f(t) dt, T = horizon, for every row of f, by the 7/15 rule in
    u = e^(-lam t), from one call of f.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of 16 times to an array of shape (m, 16): m
        integrands on one node set.  The first time is inf, for the
        stationary value; the others are the Kronrod nodes u_k on
        [e^(-lam T), 1], at t_k = -ln(u_k) / lam.
    lam, horizon : float
        Positive decay rate and nonnegative horizon T; T = 0 gives zeros.

    Returns
    -------
    (value, error_estimate)
        Arrays of shape (m,): the K15 value and |K15 - G7|, both in units of
        the t-integral.

    Raises
    ------
    NumericalError
        If a row's |K15 - G7| exceeds RTOL |K15|, or is not finite; the
        exception carries the K15 values and the error estimates.  Also for
        lam <= 0 or a negative horizon.
    """
    if not (lam > 0.0 and horizon >= 0.0):
        raise NumericalError(f"need lam > 0 and horizon >= 0, got lam={lam}, horizon={horizon}")
    half = -0.5 * math.expm1(-lam * horizon)  # half the width of the u-interval
    u = math.exp(-lam * horizon) + half * (1.0 + NODES)
    values = np.asarray(f(np.concatenate([[np.inf], -np.log(u) / lam])))
    stationary = values[:, 0]
    # summed per row, so a row's value does not depend on the other rows
    sums = ((values[:, None, 1:] - stationary[:, None, None]) / u * WEIGHTS).sum(axis=-1)
    k15, g7 = (stationary[:, None] * horizon + (half / lam) * sums).T
    error = np.abs(k15 - g7)
    if not np.all(error <= RTOL * np.abs(k15)):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.max(error / np.abs(k15))
        raise NumericalError(
            f"Gauss-Kronrod quadrature error {worst:.3e} relative exceeds {RTOL:g}",
            best_value=k15,
            error_estimate=error,
        )
    return k15, error
