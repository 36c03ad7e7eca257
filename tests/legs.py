"""Factorized leg products of the covariance series: the exact reference for
the product moments of `covariance._PairSeriesEngine` above order 2.

Each leg is shift + Y(driver), with the driver taken from the model's
correlated triple, and the product moments of a pair factor over independent
legs.  The engine regroups the same sums with nonnegative coefficients; this
factorized form cancels catastrophically when the shifts are large against
the product scale, so it serves only as a test reference where it is well
conditioned.
"""

import math

import numpy as np

from gvswap import ParameterError, SingularConfigurationError
from gvswap.covariance import _pair_index
from gvswap.moments import scaled_moment_table


def pair_legs(params, pair):
    """Shift and driver of the two independent legs for pairs (0,1) and (2,0).

    Leg one is the base-driver variable shift sigma0_sq[0] + Y(Z1); leg two
    carries the remaining independent component with shift
    (sigma0_sq[j] - r sigma0_sq[0]) / sqrt(1 - r^2).
    """
    i, j = _pair_index(pair)
    if (i, j) == (1, 2):
        raise ParameterError("pair (1, 2) uses the three-component decomposition; see pair_legs_12")
    tr = params.triple
    other = j if i == 0 else i  # the non-base asset of the pair
    r = tr.r2 if other == 1 else tr.r3
    comp = tr.z_star if other == 1 else tr.z_star_star
    one_minus = 1.0 - r * r
    if one_minus <= 0.0:
        raise SingularConfigurationError(
            f"pair {(i, j)} second leg undefined at r={r}: normalization sqrt({one_minus}) vanishes"
        )
    shift1 = params.assets[0].sigma0_sq
    shift2 = (params.assets[other].sigma0_sq - r * shift1) / math.sqrt(one_minus)
    return r, (shift1, tr.z1), (shift2, comp)


def pair_legs_12(params):
    """The three independent legs of the (1,2) pair decomposition.

    Writing s2 = F + sqrt(1-r2^2) G* and s3 = (r3/r2) F + c + sqrt(1-r3^2) G**
    with F = sigma0_sq[1] + r2 Y(Z1), G* = Y(Z*), G** = Y(Z**) and
    c = sigma0_sq[2] - (r3/r2) sigma0_sq[1], the product moments factor over
    (F, Gbar**, G*) where Gbar** = G** + c / sqrt(1-r3^2).
    """
    tr = params.triple
    if tr.r2 <= 0.0:
        raise SingularConfigurationError("pair (1, 2) decomposition requires r2 > 0")
    if tr.r3 >= 1.0:
        raise SingularConfigurationError("pair (1, 2) decomposition requires r3 < 1")
    s2_0 = params.assets[1].sigma0_sq
    s3_0 = params.assets[2].sigma0_sq
    c = s3_0 - (tr.r3 / tr.r2) * s2_0
    return (
        (s2_0, None),  # F: shift sigma0_sq[1], cumulants r2^n kappa_n(Z1), built by caller
        (c / math.sqrt(1.0 - tr.r3**2), tr.z_star_star),
        (0.0, tr.z_star),
    )


def series_leg_product(params, pair, p: int, u: int, t: float) -> float:
    """Product of the two leg moments of orders p+u and p-u for pairs (0,1), (2,0)."""
    if not 0 <= u <= p:
        raise ParameterError(f"need 0 <= u <= p, got p={p}, u={u}")
    _, (sh1, d1), (sh2, d2) = pair_legs(params, pair)
    lam = params.lam
    m1 = scaled_moment_table(d1.cumulant_sequence(max(p + u, 1)), sh1, lam, t, p + u)
    m2 = scaled_moment_table(d2.cumulant_sequence(max(p - u, 1)), sh2, lam, t, p - u)
    return float(m1[p + u] * math.exp((p + u) * lam * t) * m2[p - u] * math.exp((p - u) * lam * t))


def series_leg_product_12(params, p: int, u: int, v: int, w: int, t: float) -> float:
    """The three-factor moment product of the (1,2) pair expansion.

    Equals r2^(u+v) E[(sigma0_sq[1]/r2 + Y(Z1))^(u+v)]
    E[(Gbar**)^(p-u+w)] E[(G*)^(p-v-w)] with the exponent constraints
    0 <= v <= u <= p, 0 <= w <= u-v.
    """
    if not (0 <= v <= u <= p and 0 <= w <= u - v):
        raise ParameterError(f"invalid exponent combination p={p}, u={u}, v={v}, w={w}")
    if p - v - w < 0 or p - u + w < 0:
        raise ParameterError(f"invalid exponent combination p={p}, u={u}, v={v}, w={w}")
    (shF, _), (shG, dG), (shS, dS) = pair_legs_12(params)
    tr = params.triple
    lam = params.lam
    # F = sigma0_sq[1] + r2 Y(Z1): absorb r2^(u+v) into the driver cumulants
    cF = tr.z1.cumulant_sequence(max(u + v, 1)) * tr.r2 ** np.arange(1, max(u + v, 1) + 1)
    mF = scaled_moment_table(cF, shF, lam, t, u + v)
    mG = scaled_moment_table(dG.cumulant_sequence(max(p - u + w, 1)), shG, lam, t, p - u + w)
    mS = scaled_moment_table(dS.cumulant_sequence(max(p - v - w, 1)), shS, lam, t, p - v - w)
    scale = math.exp(((u + v) + (p - u + w) + (p - v - w)) * lam * t)
    return float(mF[u + v] * mG[p - u + w] * mS[p - v - w] * scale)
