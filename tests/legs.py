"""References for the product moments of `covariance._PairSeriesEngine`.

`shifted_moment` is the moment of one leg, E[(shift + Y(t))^order], in
unscaled units.

Factorized leg products: each leg is shift + Y(driver), with the driver taken
from the model's correlated triple, and the product moments of a pair factor
over independent legs.  The engine regroups the same sums with nonnegative
coefficients; this factorized form cancels catastrophically when the shifts
are large against the product scale, so it serves only as a test reference
where it is well conditioned.

`multinomial_product_moments` is the engine's former assembly: both variances
expanded over full multinomials, one scalar time at a time.  It has the same
nonnegative terms as the engine, so it agrees to rounding everywhere.

`_PairApproxEngine` is the delta route's former engine: the mean and variance
of the product sigma_i^2 sigma_j^2 from the moments of its monomials in the
three independent exponential integrals, with no product-moment assembly.
"""

import math

import numpy as np

from gvswap import GvswapError, ParameterError
from gvswap.covariance import _pair_index
from gvswap.moments import scaled_moment_table
from gvswap.params import ModelParams
from gvswap.subordinators import SubordinatorSpec


class SingularConfigurationError(GvswapError, ValueError):
    """A leg decomposition is undefined for this parameter configuration
    (r2 = 0 or r3 = 1 for pair (1, 2))."""


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


def multinomial_product_moments(params, pair, kmax: int, t: float) -> np.ndarray:
    """M_p = E[(sigma_i^2 sigma_j^2)_t^p], p = 0..kmax, in time-scaled units,
    summed over the two multinomials

        M_p = sum  mult(p; qa, qb, qc) mult(p; qd, qe, qf)
              sh_i^qa a_i^qb b_i^qc sh_j^qd a_j^qe b_j^qf
              E[Y1^(qb+qe)] E[Yc_i^qc] E[Yc_j^qf]

    with sigma_k^2 = e^(-lam t) (sigma_k0^2 + a_k Y1 + b_k Yc_k).
    """
    tr = params.triple
    lam = params.lam
    K = kmax

    def leg_mix(asset):
        if asset == 0:
            return 1.0, 0.0, None
        if asset == 1:
            return tr.r2, math.sqrt(1.0 - tr.r2**2), tr.z_star
        return tr.r3, math.sqrt(1.0 - tr.r3**2), tr.z_star_star

    i, j = _pair_index(pair)
    a_i, b_i, comp_i = leg_mix(i)
    a_j, b_j, comp_j = leg_mix(j)
    decay = math.exp(-lam * t)
    sh_i = params.assets[i].sigma0_sq * decay
    sh_j = params.assets[j].sigma0_sq * decay
    e_base = scaled_moment_table(tr.z1.cumulant_sequence(max(2 * K, 1)), 0.0, lam, t, 2 * K)
    ones = np.zeros(K + 1)
    ones[0] = 1.0

    def table(comp):
        if comp is None:
            return ones
        return scaled_moment_table(comp.cumulant_sequence(max(K, 1)), 0.0, lam, t, K)

    e_ci, e_cj = table(comp_i), table(comp_j)
    M = np.empty(K + 1)
    for p in range(K + 1):
        total = 0.0
        for qa in range(p + 1):
            for qb in range(p - qa + 1):
                qc = p - qa - qb
                if qc > 0 and b_i == 0.0:
                    continue
                left = math.comb(p, qa) * math.comb(p - qa, qb) * a_i**qb * b_i**qc
                for qd in range(p + 1):
                    for qe in range(p - qd + 1):
                        qf = p - qd - qe
                        if qf > 0 and b_j == 0.0:
                            continue
                        right = math.comb(p, qd) * math.comb(p - qd, qe) * a_j**qe * b_j**qf
                        total += (left * right * sh_i**qa * sh_j**qd
                                  * e_base[qb + qe] * e_ci[qc] * e_cj[qf])
        M[p] = total
    return M


#: exponents of (Y1, Yi, Yj) in the monomials Y1, Yi, Yj, Y1^2, Y1 Yi, Y1 Yj,
#: Yi Yj of the product sigma_i^2 sigma_j^2
_MONOMIALS = np.array([[1, 0, 0, 2, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1]])


class _PairApproxEngine:
    """Mean and variance of the scaled product P = sigma_i^2 sigma_j^2.

    With sigma_k^2 = x_k + a_k Y1 + b_k Yk (x_k = e^(-lam t) sigma_k0^2, Y1
    and Yk the time-scaled exponential integrals of Z1 and of asset k's own
    component, b = 0 for the base asset), P = x_i x_j + sum_f k_f F_f over
    the monomials F of _MONOMIALS in the independent Y1, Yi, Yj.  Then
    E P = x_i x_j + sum_f k_f E F_f and Var P = sum_fg k_f k_g Cov(F_f, F_g),
    where E[F_f F_g] factors over the three legs; leg moments up to order
    four suffice.
    """

    def __init__(self, params: ModelParams, pair):
        tr = params.triple
        self.lam = params.lam
        (x_i, a_i, b_i, comp_i), (x_j, a_j, b_j, comp_j) = (
            (params.assets[k].sigma0_sq,) + tr._mix(k + 1) for k in _pair_index(pair)
        )
        self.cumulants = np.stack([d.cumulant_sequence(4) for d in (tr.z1, comp_i, comp_j)], axis=1)
        self.c0 = x_i * x_j
        # k = k_fixed + e^(-lam t) k_decay, in the order of _MONOMIALS
        self.k_fixed = np.array([0.0, 0.0, 0.0, a_i * a_j, a_j * b_i, a_i * b_j, b_i * b_j])[:, None]
        self.k_decay = np.array([x_i * a_j + x_j * a_i, x_j * b_i, x_i * b_j, 0.0, 0.0, 0.0, 0.0])[:, None]
        legs = np.arange(3)
        self.single = (_MONOMIALS, legs[:, None])
        self.double = (_MONOMIALS[:, :, None] + _MONOMIALS[:, None, :], legs[:, None, None])

    def mean_and_variance(self, t) -> tuple:
        """(E P, Var P) at one time or an array of times."""
        times = np.asarray(t, dtype=float).reshape(-1)
        decay = np.exp(-self.lam * times)
        table = scaled_moment_table(self.cumulants, 0.0, self.lam, times, 4)
        mean_f = table[self.single].prod(axis=0)
        cov = table[self.double].prod(axis=0) - mean_f[:, None] * mean_f[None, :]
        k = self.k_fixed + self.k_decay * decay
        # sums in a fixed order at every node, independent of the other nodes
        mean = self.c0 * decay * decay + np.cumsum(k * mean_f, axis=0)[-1]
        var = np.cumsum((k[:, None] * k[None, :] * cov).reshape(-1, len(times)), axis=0)[-1]
        return mean.reshape(np.shape(t)), var.reshape(np.shape(t))
