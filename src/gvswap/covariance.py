"""Expected return-covariance matrix of the three-asset system.

Each off-diagonal entry, for an asset pair (i, j), is

    E[Cov(S_i, S_j)] = gamma_ij / T * int_0^T E[sigma_i(t) sigma_j(t)] dt
                       + rho_i rho_j lam kappa_2(Z1),

where the last term is the expected sum of squared common jumps.  Both routes
evaluate E[sigma_i sigma_j] = E[sqrt(P)], P = sigma_i^2 sigma_j^2, by a
truncated binomial expansion of the square root about the exact product mean
m(t) = E[P](t) at each quadrature node,

    sqrt(P) = sqrt(m) * sum_k binom(1/2, k) (P/m - 1)^k,

with the product moments E[P^p] assembled by one engine from the
independent-leg decomposition of the two variance processes.  The centered
argument has mean zero for every t, and the deterministic limit is exact at
order zero.  The routes differ only in the order:

* series: order params.kmax.
* approx: order 2, the two-term delta expansion
  sqrt(P) ~ sqrt(E P) - Var P / (8 (E P)^(3/2)), since binom(1/2, 2) = -1/8.

Neither route checks the other; the Monte Carlo oracle in mc.py does.

The engine works in units of the power of 4 nearest the model's variance
level, so its moments are of order 1 at any variance scale; the scaling by a
power of 4 is exact, down to the square root, and each entry is scaled back
once.  The time integral is one Gauss-Kronrod 7/15 rule in u = e^(-lam t)
(quadrature.py): the three off-diagonals of a matrix are one integrand call
on its 16 nodes (t = inf and the 15 Kronrod nodes), over one moment table.
The call records its centered moments and node values; the sign check, the
node count and the series tail are read from that record after the rule
returns.  A pair whose Kronrod error estimate exceeds the rule's relative
target, or whose expansion is negative at a node, raises NumericalError.

Diagonal entries are in closed form: the time average of E[sigma_i^2] is
elementary (Barndorff-Nielsen & Shephard, JRSS B 63, 2001), so no expansion or
quadrature is involved; expected_diagonal computes them alone for the trace swap.

The expansion argument requires the centered product to stay inside the unit
ball for convergence; with unbounded subordinators this holds only with high
probability, so the series is treated as an asymptotic approximation and the
magnitude of the last retained term, over the quadrature nodes, is reported
as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError
from .moments import scaled_moment_table
from .params import PAIR_ORDER, ModelParams
from .quadrature import gauss_kronrod_u as adaptive_simpson  # the name bench/tracing.py wraps


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


def _pair_index(pair) -> tuple[int, int]:
    s = tuple(pair)
    if sorted(s) == [0, 1]:
        return (0, 1)
    if sorted(s) == [1, 2]:
        return (1, 2)
    if sorted(s) == [0, 2]:
        return (2, 0)
    raise ParameterError(f"pair must name two distinct assets among 0, 1, 2; got {pair!r}")


def _jump_term(params: ModelParams, i: int, j: int) -> float:
    """Expected squared-jump contribution rho_i rho_j lam kappa_2(Z1), the jump
    part of the realized quadratic covariation (pinned by the simulation oracle)."""
    return params.assets[i].rho * params.assets[j].rho * params.lam * params.triple.z1.cumulant(2)


def _variance_unit(params: ModelParams) -> float:
    """The power of 4 nearest the model's variance level, the largest initial
    variance or driver mean; 1 when all of them are 0."""
    level = max(*params.sigma0_sq, *(params.triple.derived_cumulant(i, 1) for i in (1, 2, 3)))
    return 4.0 ** round(math.log(level, 4)) if level > 0.0 else 1.0


# ---------------------------------------------------------------------------
# product moments E[(sigma_i^2 sigma_j^2)^p]
# ---------------------------------------------------------------------------

class _PairSeriesEngine:
    """Evaluator of the scaled product moments M_p, p = 0..kmax, of a tuple of
    asset pairs on one moment table, with variances in units of `unit`.

    Each variance is written over the independent integrals as

        sigma_i^2(t) = X_i + a_i Y,  X_i = e^(-lam t) (sigma_i0^2 + b_i Yc_i),
        Y = e^(-lam t) Y1,

    with (a, b) = (1, 0) for the base asset, (r2, sqrt(1-r2^2)) and
    (r3, sqrt(1-r3^2)) for the mixed ones.  X_i, X_j and Y are independent,
    so binomial expansion of both factors gives

        M_p = sum_{q,r=0..p} C(p,q) C(p,r) a_i^q a_j^r
              G_i[p-q] G_j[p-r] E[Y^(q+r)],   G_i[n] = E[X_i^n],

    where the moments of Y and of each X_i are columns of one moment table,
    one column for Y and one per distinct asset of the pairs, and E[Y^(q+r)]
    is a Hankel gather of the Y column.  The table is built from the drivers
    scaled by 1 / unit and the shifts sigma_i0^2 / unit, so M_p comes in units
    of unit^(2p).  Every term is nonnegative, so the assembly is stable for
    any parameter values.  (The factorization that
    isolates the legs behind shifted variables, kept in tests/legs.py,
    cancels catastrophically when the shifts are large against the product
    scale.)  Times come as arrays; the work is O(kmax^3) per node and pair,
    against O(kmax^5) for the expansion over both multinomials.

    It also holds its order's series constants, for the centered argument x:
    c_k = binom(1/2, k), the signed binomials with E[x^k] = sum_p C(k, p)
    (-1)^(k-p) E[(1 + x)^p], and the collapsed weights w_p with
    sum_k c_k E[x^k] = sum_p w_p E[(1 + x)^p].
    """

    def __init__(self, params: ModelParams, pairs, kmax: int, unit: float):
        self.kmax = kmax
        self.lam = params.lam
        self.pairs = tuple(_pair_index(pair) for pair in pairs)
        assets = list(dict.fromkeys(asset for pair in self.pairs for asset in pair))
        tr = params.triple
        K = kmax
        orders = np.arange(1, 2 * K + 1)
        p, q = np.indices((K + 1, K + 1))
        binom = np.array([[math.comb(n, k) for k in range(K + 1)] for n in range(K + 1)])
        # table columns: Y, then one X per asset (cumulants b^n kappa_n(Zc), shift sigma0^2)
        columns, self.shifts, weights = [tr.z1.cumulant_sequence(2 * K, unit)], [0.0], []
        for asset in assets:
            a, b, comp = tr._mix(asset + 1)
            columns.append(b**orders * comp.cumulant_sequence(2 * K, unit))
            self.shifts.append(params.assets[asset].sigma0_sq / unit)
            weights.append(binom * a**q)  # C(p, q) a^q, zero for q > p
        self.cumulants = np.stack(columns, axis=1)
        self.weights = np.stack(weights)
        # each pair's two assets as indices into the X columns
        self.left, self.right = (np.array([assets.index(pair[k]) for pair in self.pairs]) for k in (0, 1))
        self.lag = np.maximum(p - q, 0)  # G[p - q]
        self.hankel = p + q              # E[Y^(q + r)]
        self.coefficients = sqrt_series_coefficients(K)
        self.signed = binom * (-1.0) ** (p - q)  # C(k, p) (-1)^(k-p), zero for p > k
        # w_p = sum_k c_k C(k, p) (-1)^(k-p), summed in order k = 0..kmax
        self.collapsed = np.cumsum(self.coefficients[:, None] * self.signed, axis=0)[-1]

    def product_moments(self, t) -> np.ndarray:
        """M_p = E[(sigma_i^2 sigma_j^2)_t^p] for p = 0..kmax (in units of
        unit^(2p)) of every pair, at one time or an array of times; shape
        (pairs, kmax + 1) + shape(t)."""
        K = self.kmax
        times = np.asarray(t, dtype=float).reshape(-1)
        table = scaled_moment_table(self.cumulants, self.shifts, self.lam, times, 2 * K).T
        # C(p, q) a^q G[p - q] per node, asset, p and q
        u = self.weights * table[:, 1:, self.lag]
        # M_p = sum_q u_i[p, q] sum_r u_j[p, r] E[Y^(q+r)]
        M = (u[:, self.left] * (u[:, self.right] @ table[:, 0, self.hankel][:, None])).sum(axis=-1)
        return M.transpose(1, 2, 0).reshape((len(self.pairs), K + 1) + np.shape(t))


def _centered_moments(engine: _PairSeriesEngine, t: np.ndarray):
    """(M_p / M_1^p for p = 0..kmax, sqrt(M_1)) of every pair at an array of
    times; the first has shape (pairs, kmax + 1, nodes), the second (pairs,
    nodes).  A zero M_1, which only zero drivers reach (at t = inf, or with a
    zero initial variance), leaves the moments unscaled, and its root 0 zeroes
    the value and the tail."""
    M = engine.product_moments(t)
    m1 = M[:, 1]
    return M / np.where(m1 == 0.0, 1.0, m1)[:, None] ** np.arange(engine.kmax + 1)[:, None], np.sqrt(m1)


def _series_point(engine: _PairSeriesEngine, centered) -> np.ndarray:
    """E[sigma_i sigma_j] of every pair from the truncated expansion, given
    _centered_moments at an array of times; shape (pairs, nodes)."""
    Mn, root = centered
    # summed in order p = 0..kmax at every node, so a node's value does not
    # depend on the other nodes of the call (a matrix-vector product's would)
    return root * np.cumsum(engine.collapsed[:, None] * Mn, axis=1)[:, -1]


def _series_tail(engine: _PairSeriesEngine, centered) -> np.ndarray:
    """Largest |last retained term| / |full sum| over the nodes of
    _centered_moments, per pair."""
    Mn, root = centered
    terms = engine.coefficients[:, None] * (engine.signed @ Mn)
    last, total = np.abs(root * terms[:, -1]), np.abs(root * terms.sum(axis=1))
    return np.divide(last, total, out=np.zeros_like(last), where=total != 0.0).max(axis=1)


def _integrate_pairs(params: ModelParams, pairs, method: str) -> list:
    """(entry, diagnostics) of each pair (i, j) by the route `method`:
    gamma_ij / T int_0^T E[sigma_i sigma_j] dt plus the jump term, with
    E[sigma_i sigma_j] expanded about M_1 to order params.kmax ("series") or
    2 ("approx").  All pairs share one engine, in units of _variance_unit,
    and one integrand call on the rule's nodes, and so one moment table.  The
    sign check, the node count and the series tail are read from that call's
    record, its centered moments and node values, after the rule returns.  A
    pair whose expansion is negative at a node raises NumericalError."""
    series = method == "series"
    unit, T = _variance_unit(params), params.horizon
    engine = _PairSeriesEngine(params, pairs, params.kmax if series else 2, unit)
    calls = []  # (centered moments, node values) of each integrand call

    def integrand(t: np.ndarray) -> np.ndarray:
        centered = _centered_moments(engine, t)
        calls.append((centered, _series_point(engine, centered)))
        return calls[-1][1]

    values, errs = adaptive_simpson(integrand, params.lam, T)
    (centered, nodes), = calls
    tails = _series_tail(engine, centered) if series else None
    entries = []
    for k, (i, j) in enumerate(engine.pairs):
        if (low := nodes[k].min() * unit) < 0.0:
            raise NumericalError(f"{method} route: E[sigma_{i} sigma_{j}] reads {low:.3e} < 0 at a node")
        gamma_ij = float(params.gamma[i, j])
        diag = {"quad_error": abs(gamma_ij) * float(errs[k]) * unit / T, "evals": nodes.shape[1]}
        if series:
            diag.update(series_tail=float(tails[k]), kmax=engine.kmax)
        diag["jump_term"] = jump = _jump_term(params, i, j)
        entries.append((gamma_ij * float(values[k]) * unit / T + jump, diag))
    return entries


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def expected_var_leg(i: int, params: ModelParams) -> tuple[float, dict]:
    """Expected realized variance of asset i (0-based):
    (1/T) int_0^T E[sigma_i^2(t)] dt plus the squared-jump term.

    E[sigma_i^2(t)] = k1 + (sigma_i0^2 - k1) e^(-lam t) with k1 the driver's
    mean, so the time average is k1 + (sigma_i0^2 - k1)(1 - e^(-lam T))/(lam T).
    """
    if i not in (0, 1, 2):
        raise ParameterError(f"asset index must be 0, 1 or 2, got {i}")
    lam_T = params.lam * params.horizon
    k1 = params.triple.derived_cumulant(i + 1, 1)
    value = k1 + (params.assets[i].sigma0_sq - k1) * (-math.expm1(-lam_T)) / lam_T
    jump = _jump_term(params, i, i)
    return value + jump, {"jump_term": jump}


def expected_cov_series(pair, params: ModelParams) -> tuple[float, dict]:
    """Off-diagonal expected covariance by the truncated binomial series,
    to order params.kmax, about the exact product mean at each node."""
    (value, diag), = _integrate_pairs(params, [pair], "series")
    return value, diag


def expected_cov_approx(pair, params: ModelParams) -> tuple[float, dict]:
    """Off-diagonal expected covariance by the two-term delta expansion
    sqrt(E P) - Var P / (8 (E P)^(3/2)) of the product P = sigma_i^2 sigma_j^2:
    the series about the exact mean E P cut at order 2, since the centered
    argument has mean zero and binom(1/2, 2) = -1/8."""
    (value, diag), = _integrate_pairs(params, [pair], "approx")
    return value, diag


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
        if not np.allclose(e, e.T, rtol=0.0, atol=1e-12 * np.abs(e).max()):
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


class ExpectedDiagonal(NamedTuple):
    """Diagonal of the expected covariance matrix and its entries' diagnostics."""

    diagonal: np.ndarray
    method: str
    diagnostics: dict

    @property
    def trace(self) -> float:
        return float(self.diagonal.sum())


def expected_diagonal(params: ModelParams, method: str) -> ExpectedDiagonal:
    """The closed-form diagonal, labelled with the route ("series" or "approx")
    that would compute the off-diagonals; none is computed."""
    if method not in ("series", "approx"):
        raise ParameterError(f"unknown method {method!r}; use 'series' or 'approx'")
    diagonal, diagnostics = np.zeros(3), {}
    for i in range(3):
        diagonal[i], diagnostics[f"{i}{i}"] = expected_var_leg(i, params)
    return ExpectedDiagonal(diagonal, method, diagnostics)


def expected_cov_matrix(params: ModelParams, method: str = "series") -> ExpectedCovMatrix:
    """Assemble the full matrix: diagonal from expected_diagonal,
    off-diagonals from the requested route ("series" or "approx"), the three
    of them on one engine and one quadrature call."""
    diagonal, _, diagnostics = expected_diagonal(params, method)
    entries = np.diag(diagonal)
    for (i, j), (value, diag) in zip(PAIR_ORDER, _integrate_pairs(params, PAIR_ORDER, method)):
        entries[i, j] = entries[j, i] = value
        diagnostics[f"{min(i, j)}{max(i, j)}"] = diag
    return ExpectedCovMatrix(entries=entries, method=method, diagnostics=diagnostics)
