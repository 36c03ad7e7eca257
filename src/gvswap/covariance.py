"""Expected return-covariance matrix of the three-asset system, two ways.

Both routes compute, for each asset pair (i, j),

    E[Cov(S_i, S_j)] = gamma_ij / T * int_0^T E[sigma_i(t) sigma_j(t)] dt
                       + rho_i rho_j lam kappa_2(Z1),

where the last term is the expected sum of squared common jumps.  The routes
differ in how E[sigma_i sigma_j] = E[sqrt(sigma_i^2 sigma_j^2)] is evaluated:

* series: a truncated binomial expansion of the square root around a center
  C(t)^2,  sqrt(P) = C * sum_k binom(1/2, k) (P/C^2 - 1)^k,  with the product
  moments E[P^p] assembled from the independent-leg decomposition of the two
  variance processes.  By default the center is the exact first moment
  E[P](t) per quadrature node ("adaptive"), which keeps the expansion
  argument mean-zero for every t and makes the deterministic limit exact at
  order zero.  The "fixed" center uses the bounding levels beta of the
  parameter set, matching the bounded-volatility form of the expansion; its
  truncation error grows when the two initial variances are far apart.
* approx: the two-term delta expansion
  sqrt(P) ~ sqrt(E P) - Var P / (8 (E P)^(3/2)), with E[P] and Var[P] in
  closed form from the moments of the three independent exponential
  integrals.

Diagonal entries are in closed form: the time average of E[sigma_i^2] is
elementary (Barndorff-Nielsen & Shephard, JRSS B 63, 2001), so no expansion or
quadrature is involved.

The expansion argument requires the centered product to stay inside the unit
ball for convergence; with unbounded subordinators this holds only with high
probability, so the series is treated as an asymptotic approximation and the
magnitude of the last retained term is reported as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, SingularConfigurationError
from .moments import scaled_moment_table
from .params import PAIR_ORDER, ModelParams
from .quadrature import adaptive_simpson

#: below this scaled product-moment scale (sigma^4 units) the series collapses
#: to its leading sqrt term; contributions there are negligible and the high
#: moment powers would underflow.
_TINY_PRODUCT = 1e-30


def sqrt_series_coefficients(kmax: int) -> np.ndarray:
    """Binomial-series coefficients binom(1/2, k) for k = 0..kmax.

    Computed by the recurrence c_0 = 1, c_k = c_{k-1} (3/2 - k) / k, which
    reproduces 1, 1/2, -1/8, 1/16, ...
    """
    c = np.empty(kmax + 1)
    c[0] = 1.0
    for k in range(1, kmax + 1):
        c[k] = c[k - 1] * (1.5 - k) / k
    return c


def _collapsed_weights(kmax: int) -> np.ndarray:
    """w_p = sum_{k>=p} binom(1/2,k) C(k,p) (-1)^(k-p), so that
    sum_k c_k E[x^k] = sum_p w_p E[(1+x)^p]."""
    c = sqrt_series_coefficients(kmax)
    w = np.zeros(kmax + 1)
    for p in range(kmax + 1):
        w[p] = sum(c[k] * math.comb(k, p) * (-1) ** (k - p) for k in range(p, kmax + 1))
    return w


def _pair_index(pair) -> tuple[int, int]:
    s = tuple(pair)
    if sorted(s) == [0, 1]:
        return (0, 1)
    if sorted(s) == [1, 2]:
        return (1, 2)
    if sorted(s) == [0, 2]:
        return (2, 0)
    raise ParameterError(f"pair must name two distinct assets among 0, 1, 2; got {pair!r}")


def _jump_term(params: ModelParams, i: int, j: int, convention: str) -> float:
    """Expected squared-jump contribution rho_i rho_j lam kappa_2(Z1).

    convention="printed" divides by the horizon, matching an alternative
    statement of the diagonal entries; "consistent" (default) matches the
    expectation of the realized quadratic covariation and is pinned by the
    simulation oracle.
    """
    base = params.assets[i].rho * params.assets[j].rho * params.lam * params.triple.z1._cumulant_any(2)
    if convention == "consistent":
        return base
    if convention == "printed":
        return base / params.horizon
    raise ParameterError(f"unknown jump-term convention {convention!r}")


# ---------------------------------------------------------------------------
# product moments E[(sigma_i^2 sigma_j^2)^p]
# ---------------------------------------------------------------------------

class _PairSeriesEngine:
    """Per-pair evaluator of the scaled product moments M_p, p = 0..kmax.

    Each variance is written over the independent integrals as

        sigma_i^2(t) = e^(-lam t) (sigma_i0^2 + a_i Y1 + b_i Yc_i),

    with (a, b) = (1, 0) for the base asset, (r2, sqrt(1-r2^2)) and
    (r3, sqrt(1-r3^2)) for the mixed ones, and the product moments expand
    over the two multinomials,

        M_p = sum  mult(p; qa, qb, qc) mult(p; qd, qe, qf)
              sh_i^qa a_i^qb b_i^qc sh_j^qd a_j^qe b_j^qf
              E[Y1^(qb+qe)] E[Yc_i^qc] E[Yc_j^qf].

    Every coefficient is nonnegative, so the assembly is stable for any
    parameter values.  (The equivalent factorization that isolates the
    independent legs behind shifted variables cancels catastrophically when
    the shifts are large against the product scale.)
    """

    def __init__(self, params: ModelParams, pair, kmax: int):
        self.params = params
        self.pair = _pair_index(pair)
        self.kmax = kmax
        self.lam = params.lam
        tr = params.triple
        K = kmax

        def leg_mix(asset: int):
            if asset == 0:
                return 1.0, 0.0, None
            if asset == 1:
                return tr.r2, math.sqrt(1.0 - tr.r2**2), tr.z_star
            return tr.r3, math.sqrt(1.0 - tr.r3**2), tr.z_star_star

        i, j = self.pair
        a_i, b_i, comp_i = leg_mix(i)
        a_j, b_j, comp_j = leg_mix(j)
        self.shifts = (params.assets[i].sigma0_sq, params.assets[j].sigma0_sq)
        self.cum_base = tr.z1.cumulant_sequence(max(2 * K, 1))
        self.cum_i = comp_i.cumulant_sequence(max(K, 1)) if comp_i is not None else None
        self.cum_j = comp_j.cumulant_sequence(max(K, 1)) if comp_j is not None else None

        per_p = []
        for p in range(K + 1):
            coefs, e_sh_i, e_sh_j, i_base, i_ci, i_cj = [], [], [], [], [], []
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
                            coefs.append(left * right)
                            e_sh_i.append(qa)
                            e_sh_j.append(qd)
                            i_base.append(qb + qe)
                            i_ci.append(qc)
                            i_cj.append(qf)
            per_p.append(
                (
                    np.array(coefs),
                    np.array(e_sh_i),
                    np.array(e_sh_j),
                    np.array(i_base),
                    np.array(i_ci),
                    np.array(i_cj),
                )
            )
        self.per_p = per_p

    def product_moments(self, t: float) -> np.ndarray:
        """M_p = E[(sigma_i^2 sigma_j^2)_t^p] for p = 0..kmax (time-scaled units)."""
        K, lam = self.kmax, self.lam
        decay = math.exp(-lam * t)
        sh_i = self.shifts[0] * decay
        sh_j = self.shifts[1] * decay
        e_base = scaled_moment_table(self.cum_base, 0.0, lam, t, 2 * K)
        ones = np.zeros(K + 1)
        ones[0] = 1.0
        e_ci = scaled_moment_table(self.cum_i, 0.0, lam, t, K) if self.cum_i is not None else ones
        e_cj = scaled_moment_table(self.cum_j, 0.0, lam, t, K) if self.cum_j is not None else ones
        pow_i = sh_i ** np.arange(K + 1)
        pow_j = sh_j ** np.arange(K + 1)
        M = np.empty(K + 1)
        for p in range(K + 1):
            coefs, e_sh_i, e_sh_j, i_base, i_ci, i_cj = self.per_p[p]
            M[p] = float(
                coefs
                @ (pow_i[e_sh_i] * pow_j[e_sh_j] * e_base[i_base] * e_ci[i_ci] * e_cj[i_cj])
            )
        return M


def _series_point(engine: _PairSeriesEngine, weights: np.ndarray, t: float, center_sq) -> float:
    """E[sigma_i sigma_j](t) from the truncated expansion."""
    M = engine.product_moments(t)
    m2 = M[1]
    if m2 < _TINY_PRODUCT:
        return math.sqrt(max(m2, 0.0))
    c2 = m2 if center_sq is None else center_sq
    Mn = M / c2 ** np.arange(engine.kmax + 1)
    return math.sqrt(c2) * float(weights @ Mn)


def _series_tail(engine: _PairSeriesEngine, coeffs: np.ndarray, t: float, center_sq) -> tuple[float, float]:
    """(value of the last retained term, value of the full sum) at time t."""
    M = engine.product_moments(t)
    m2 = M[1]
    if m2 < _TINY_PRODUCT:
        return 0.0, math.sqrt(max(m2, 0.0))
    c2 = m2 if center_sq is None else center_sq
    Mn = M / c2 ** np.arange(engine.kmax + 1)
    kmax = engine.kmax
    total = 0.0
    last = 0.0
    for k in range(kmax + 1):
        exk = sum(math.comb(k, p) * (-1) ** (k - p) * Mn[p] for p in range(k + 1))
        term = coeffs[k] * exk
        total += term
        if k == kmax:
            last = term
    return math.sqrt(c2) * last, math.sqrt(c2) * total


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def expected_var_leg(
    i: int, params: ModelParams, jump_convention: str = "consistent"
) -> tuple[float, dict]:
    """Expected realized variance of asset i (0-based):
    (1/T) int_0^T E[sigma_i^2(t)] dt plus the squared-jump term.

    E[sigma_i^2(t)] = k1 + (sigma_i0^2 - k1) e^(-lam t) with k1 the driver's
    mean, so the time average is k1 + (sigma_i0^2 - k1)(1 - e^(-lam T))/(lam T).
    """
    if i not in (0, 1, 2):
        raise ParameterError(f"asset index must be 0, 1 or 2, got {i}")
    lam_T = params.lam * params.horizon
    k1 = float(params.asset_cumulant_sequence(i, 1)[0])
    value = k1 + (params.assets[i].sigma0_sq - k1) * (-math.expm1(-lam_T)) / lam_T
    jump = _jump_term(params, i, i, jump_convention)
    return value + jump, {"jump_term": jump}


def expected_cov_series(
    pair,
    params: ModelParams,
    *,
    center: str = "adaptive",
    jump_convention: str = "consistent",
) -> tuple[float, dict]:
    """Off-diagonal expected covariance by the truncated binomial series,
    to order params.kmax.

    Parameters
    ----------
    center : "adaptive" or "fixed"
        Expansion center: the exact product mean per node, or the constant
        bounding level beta of the parameter set.
    """
    i, j = _pair_index(pair)
    if center not in ("adaptive", "fixed"):
        raise ParameterError(f"unknown center {center!r}")
    if (i, j) == (1, 2):
        # documented precondition of this pair's decomposition (the engine's
        # positive regrouping is actually regular there, but the published
        # leg products are not)
        if params.triple.r2 <= 0.0:
            raise SingularConfigurationError("pair (1, 2) series requires r2 > 0")
        if params.triple.r3 >= 1.0:
            raise SingularConfigurationError("pair (1, 2) series requires r3 < 1")
    kmax = params.kmax
    T = params.horizon
    gamma_ij = float(params.gamma[i, j])

    engine = _PairSeriesEngine(params, (i, j), kmax)
    weights = _collapsed_weights(kmax)
    coeffs = sqrt_series_coefficients(kmax)

    center_sq = None
    if center == "fixed":
        beta = params.beta_for((i, j))
        center_sq = beta**4
        # convergence requires the t=0 argument inside the unit ball
        m0 = engine.product_moments(0.0)[1]
        if abs(m0 / center_sq - 1.0) >= 1.0:
            raise ParameterError(
                f"series argument at t=0 is {m0 / center_sq - 1.0:+.3f} for beta={beta}; "
                "|argument| must be < 1"
            )

    def integrand(t: float) -> float:
        return _series_point(engine, weights, t, center_sq)

    value, err = adaptive_simpson(integrand, 0.0, T)
    jump = _jump_term(params, i, j, jump_convention)

    probes = [0.0, 0.25 * T, 0.5 * T, 0.75 * T, T]
    tail = 0.0
    for tp in probes:
        last, total = _series_tail(engine, coeffs, tp, center_sq)
        if total != 0.0:
            tail = max(tail, abs(last) / abs(total))
    diag = {
        "quad_error": abs(gamma_ij) * err / T,
        "series_tail": float(tail),
        "kmax": kmax,
        "jump_term": jump,
    }
    if center == "fixed":
        diag["argument_t0"] = engine.product_moments(0.0)[1] / center_sq - 1.0
    return gamma_ij * value / T + jump, diag


# ---------------------------------------------------------------------------
# delta-expansion route
# ---------------------------------------------------------------------------

def _product_mean_and_variance(params: ModelParams, pair, t: float) -> tuple[float, float]:
    """Mean and variance of the scaled product sigma_i^2 sigma_j^2 at time t.

    The product is a quadratic form in the independent exponential integrals
    Y1 = Y(Z1), Y2 = Y(Z*), Y3 = Y(Z**); its variance expands over the full
    covariance table of {Y1, Y2, Y3, Y1^2, Y1Y3, Y1Y2, Y2Y3}, which needs leg
    moments up to order four only.
    """
    i, j = _pair_index(pair)
    tr, lam = params.triple, params.lam
    decay = math.exp(-lam * t)
    mY1 = scaled_moment_table(tr.z1.cumulant_sequence(4), 0.0, lam, t, 4)
    mY2 = scaled_moment_table(tr.z_star.cumulant_sequence(4), 0.0, lam, t, 4)
    mY3 = scaled_moment_table(tr.z_star_star.cumulant_sequence(4), 0.0, lam, t, 4)
    E1, E1s, E1c, E1q = mY1[1], mY1[2], mY1[3], mY1[4]
    E2, E2s = mY2[1], mY2[2]
    E3, E3s = mY3[1], mY3[2]
    V1 = E1s - E1 * E1
    V2 = E2s - E2 * E2
    V3 = E3s - E3 * E3
    var_Y1sq = E1q - E1s * E1s
    cov_Y1_Y1sq = E1c - E1 * E1s
    cov_Y1sq_Y1Yc = {2: E2 * (E1c - E1s * E1), 3: E3 * (E1c - E1s * E1)}
    var_Y1Yc = {2: E1s * E2s - E1 * E1 * E2 * E2, 3: E1s * E3s - E1 * E1 * E3 * E3}

    if (i, j) != (1, 2):
        other = j if i == 0 else i
        r = tr.r2 if other == 1 else tr.r3
        which = 2 if other == 1 else 3
        s = math.sqrt(1.0 - r * r)
        Ec, Ecs = (E2, E2s) if which == 2 else (E3, E3s)
        Vc = Ecs - Ec * Ec
        sh_base = params.assets[0].sigma0_sq * decay
        sh_other = params.assets[other].sigma0_sq * decay
        # product = c0 + b1 Y1 + b2 Yc + b3 Y1^2 + b4 Y1 Yc
        c0 = sh_base * sh_other
        b1 = sh_other + r * sh_base
        b2 = s * sh_base
        b3 = r
        b4 = s
        mean = c0 + b1 * E1 + b2 * Ec + b3 * E1s + b4 * E1 * Ec
        var = (
            b1 * b1 * V1
            + b2 * b2 * Vc
            + b3 * b3 * var_Y1sq
            + b4 * b4 * var_Y1Yc[which]
            + 2 * b1 * b3 * cov_Y1_Y1sq
            + 2 * b1 * b4 * V1 * Ec
            + 2 * b2 * b4 * Vc * E1
            + 2 * b3 * b4 * cov_Y1sq_Y1Yc[which]
        )
        return mean, var

    # pair (1, 2): both variances mix the base driver
    r2, r3 = tr.r2, tr.r3
    s2 = math.sqrt(1.0 - r2 * r2)
    s3 = math.sqrt(1.0 - r3 * r3)
    shA = params.assets[1].sigma0_sq * decay
    shB = params.assets[2].sigma0_sq * decay
    # product = c0 + a1 Y1 + a2 Y3 + a3 Y2 + a4 Y1^2 + a5 Y1Y3 + a6 Y1Y2 + a7 Y2Y3
    c0 = shA * shB
    a1 = shA * r3 + shB * r2
    a2 = shA * s3
    a3 = shB * s2
    a4 = r2 * r3
    a5 = r2 * s3
    a6 = r3 * s2
    a7 = s2 * s3
    mean = c0 + a1 * E1 + a2 * E3 + a3 * E2 + a4 * E1s + a5 * E1 * E3 + a6 * E1 * E2 + a7 * E2 * E3
    var_Y2Y3 = E2s * E3s - E2 * E2 * E3 * E3
    var = (
        a1 * a1 * V1
        + a2 * a2 * V3
        + a3 * a3 * V2
        + a4 * a4 * var_Y1sq
        + a5 * a5 * var_Y1Yc[3]
        + a6 * a6 * var_Y1Yc[2]
        + a7 * a7 * var_Y2Y3
        + 2 * a1 * a4 * cov_Y1_Y1sq
        + 2 * a1 * a5 * V1 * E3
        + 2 * a1 * a6 * V1 * E2
        + 2 * a2 * a5 * V3 * E1
        + 2 * a2 * a7 * V3 * E2
        + 2 * a3 * a6 * V2 * E1
        + 2 * a3 * a7 * V2 * E3
        + 2 * a4 * a5 * cov_Y1sq_Y1Yc[3]
        + 2 * a4 * a6 * cov_Y1sq_Y1Yc[2]
        + 2 * a5 * a6 * E2 * E3 * V1
        + 2 * a5 * a7 * E1 * E2 * V3
        + 2 * a6 * a7 * E1 * E3 * V2
    )
    return mean, var


def expected_cov_approx(
    pair,
    params: ModelParams,
    jump_convention: str = "consistent",
) -> tuple[float, dict]:
    """Off-diagonal expected covariance by the two-term delta expansion
    sqrt(E P) - Var P / (8 (E P)^(3/2)) of the product P = sigma_i^2 sigma_j^2."""
    i, j = _pair_index(pair)
    T = params.horizon
    gamma_ij = float(params.gamma[i, j])

    def integrand(t: float) -> float:
        m, v = _product_mean_and_variance(params, (i, j), t)
        if m < 0.0 or (m == 0.0 and v > 0.0):
            raise NumericalError(f"nonpositive product mean {m} at t={t}")
        if m < _TINY_PRODUCT:
            return math.sqrt(max(m, 0.0))
        return math.sqrt(m) - v / (8.0 * m**1.5)

    value, err = adaptive_simpson(integrand, 0.0, T)
    jump = _jump_term(params, i, j, jump_convention)
    return gamma_ij * value / T + jump, {
        "quad_error": abs(gamma_ij) * err / T,
        "jump_term": jump,
    }


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

@dataclass
class ExpectedCovMatrix:
    """3x3 expected covariance matrix of log returns per unit time."""

    entries: np.ndarray
    method: str
    diagnostics: dict

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ParameterError(f"entries must be 3x3, got shape {e.shape}")
        if not np.allclose(e, e.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(e).max())):
            raise ParameterError("expected covariance matrix must be symmetric")
        if np.any(np.diag(e) < 0.0):
            raise ParameterError("expected covariance matrix must have nonnegative diagonal")
        self.entries = e

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def to_json_dict(self) -> dict:
        return {
            "entries": [float(x) for x in self.entries.reshape(-1)],
            "method": self.method,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExpectedCovMatrix":
        entries = np.array(d["entries"], dtype=float).reshape(3, 3)
        return cls(entries=entries, method=d.get("method", "fixture"), diagnostics=d.get("diagnostics", {}))


def expected_cov_matrix(params: ModelParams, method: str = "series") -> ExpectedCovMatrix:
    """Assemble the full matrix: diagonal from the closed-form variance legs,
    off-diagonals from the requested route ("series" or "approx")."""
    if method not in ("series", "approx"):
        raise ParameterError(f"unknown method {method!r}; use 'series' or 'approx'")
    entries = np.zeros((3, 3))
    diagnostics = {}
    for i in range(3):
        entries[i, i], diagnostics[f"{i}{i}"] = expected_var_leg(i, params)
    route = expected_cov_series if method == "series" else expected_cov_approx
    for i, j in PAIR_ORDER:
        value, diag = route((i, j), params)
        entries[i, j] = entries[j, i] = value
        diagnostics[f"{min(i, j)}{max(i, j)}"] = diag
    return ExpectedCovMatrix(entries=entries, method=method, diagnostics=diagnostics)
