"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own computational paths:
finite differences against generating functions, brute-force path simulation
(including the full per-path system with log prices and antithetic twins),
rational arithmetic, and closed forms derived separately.  The exception is
mc_price, the package's simulation priced as a swap, which only tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gvswap.covariance import expected_cov_matrix
from gvswap.mc import PathBundle, SimulationConfig, _mean_and_stderr, simulate
from gvswap.params import ModelParams
from gvswap.pricing import PricingResult, SwapContract, SwapKind
from gvswap.weights import feasible_weights, qr_constraint_basis

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
# time integrals of the off-diagonal integrands
# ---------------------------------------------------------------------------

def gauss_legendre_u(g, lam: float, horizon: float, n: int = 64) -> np.ndarray:
    """int_0^T g dt by an n-point Gauss-Legendre rule in u = e^(-lam t),
    after splitting off g(inf):

        g(inf) T + (1/lam) int_{e^(-lam T)}^1 (g(u) - g(inf)) / u du.

    g maps an array of times to an array whose last axis runs over them."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = -0.5 * math.expm1(-lam * horizon)
    u = math.exp(-lam * horizon) + half * (1.0 + x)
    stationary = np.asarray(g(np.array([np.inf])))[..., 0]
    values = np.asarray(g(-np.log(u) / lam))
    return stationary * horizon + (half / lam) * (((values - stationary[..., None]) / u) * w).sum(axis=-1)


def route_integrand(params: ModelParams, pair, method: str):
    """E[sigma_i sigma_j] of one pair at an array of times, expanded to the
    route's order ("series": params.kmax, "approx": 2) by the package's
    product-moment engine: the integrand, without the package's quadrature."""
    from gvswap.covariance import _centered_moments, _PairSeriesEngine, _series_point, _variance_unit

    order, unit = params.kmax if method == "series" else 2, _variance_unit(params)
    engine = _PairSeriesEngine(params, [pair], order, unit)
    return lambda t: unit * _series_point(engine, _centered_moments(engine, t))[0]


def reference_offdiagonals(params: ModelParams, method: str, integral=gauss_legendre_u) -> dict:
    """{(i, j): entry} for the pairs (0,1), (1,2), (2,0) from integral(g,
    lam, T) of each route integrand g, plus the jump term."""
    from gvswap.covariance import _jump_term

    out = {}
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        value = integral(route_integrand(params, (i, j), method), params.lam, params.horizon)
        out[i, j] = params.gamma[i, j] * float(value) / params.horizon + _jump_term(params, i, j)
    return out


def adaptive_simpson_depth_first(f, a: float, b: float, tol: float = None, max_depth: int = 40):
    """Adaptive Simpson bisection in t, one interval and one node at a time:
    (value, error estimate), or NumericalError past max_depth.  It was the
    package's rule before the Gauss-Kronrod rule in u, and stays as a
    reference that works in t.

    f maps one node to a float, or to an array of m values for m integrands
    on one node set; an interval is then bisected while any of them misses
    the tolerance, and value and error estimate are arrays of m entries."""
    from gvswap import NumericalError

    if b < a:
        raise NumericalError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if tol is None:
        tol = 1e-10 * (b - a)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def g(x):
        return np.asarray(f(x), dtype=float)

    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = simpson(fa, fm, fb, b - a)

    total = np.zeros_like(fa)
    err_total = np.zeros_like(fa)
    depth_exceeded = False

    # iterative stack of (a, b, fa, fm, fb, whole, tol, depth)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, b0, f0, f1, f2, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = g(lm), g(rm)
        s_left = simpson(f0, flm, f1, m0 - a0)
        s_right = simpson(f1, frm, f2, b0 - m0)
        err = (s_left + s_right - s0) / 15.0
        met = bool(np.all(np.abs(err) <= tol0))
        if met or depth >= max_depth:
            if not met:
                depth_exceeded = True
            total = total + s_left + s_right + err
            err_total = err_total + np.abs(err)
        else:
            stack.append((a0, m0, f0, flm, f1, s_left, 0.5 * tol0, depth + 1))
            stack.append((m0, b0, f1, frm, f2, s_right, 0.5 * tol0, depth + 1))

    if total.ndim == 0:
        total, err_total = float(total), float(err_total)
    if depth_exceeded:
        raise NumericalError(
            f"adaptive Simpson exceeded max depth {max_depth} (achieved error ~{np.max(err_total):.3e})",
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
# per-path simulation of the full system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceConfig:
    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False
    keep_paths: bool = False

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ValueError("antithetic sampling requires an even number of paths")


@dataclass
class ReferenceBundle:
    realized: np.ndarray          # (n_paths, 3, 3) realized covariation / T
    x_terminal: np.ndarray        # (n_paths, 3) terminal log prices (X_0 = 0)
    sigma_sq_terminal: np.ndarray  # (n_paths, 3)
    jump_square_sum: np.ndarray   # (n_paths,) sum of squared base increments
    trajectories: dict | None = None


_SCAN_SEGMENT = 512
_MAX_SCAN_EXPONENT = 300.0


def _reference_variance_path(sigma0_sq: float, increments: np.ndarray, decay_step: np.ndarray,
                             grow: np.ndarray, weight: float, offset: float) -> np.ndarray:
    """sigma^2 at grid points 0..n from the recursion s_{k+1} = d s_k + w dZ_k,
    one asset and one path at a time, segment-wise through cumulative sums."""
    n = len(increments)
    seg = len(grow)
    start_scale = math.exp(-offset)
    out = np.empty(n + 1)
    out[0] = sigma0_sq
    for start in range(0, n, seg):
        stop = min(start + seg, n)
        m = stop - start
        c = np.cumsum(grow[:m] * increments[start:stop])
        out[start + 1: stop + 1] = decay_step[:m] * (out[start] * start_scale + weight * c)
    return out


def simulate_reference(params, config: ReferenceConfig) -> ReferenceBundle:
    """The full system one path at a time: variances, Cholesky-correlated
    Brownian shocks and log prices, with optional trajectories and antithetic
    twins.  Each path (or twin pair) draws its driver increments and then its
    normals from the (seed, path) Philox stream the package uses."""
    from gvswap import DomainError, ParameterError

    tr = params.triple
    lam, T = params.lam, params.horizon
    n_steps = config.n_steps
    dt = T / n_steps
    lam_dt = lam * dt
    weight = -math.expm1(-lam_dt) / lam_dt
    rho = params.rho
    gamma = params.gamma
    rate = params.rate

    chol = np.linalg.cholesky(gamma + 1e-12 * np.eye(3))

    # risk-neutral drift constants: r - lam * cgf_i(rho_i), asset's own driver
    drift_const = np.empty(3)
    for i in range(3):
        try:
            drift_const[i] = rate - lam * params.triple.derived_cgf(i + 1, rho[i])
        except DomainError as exc:
            raise ParameterError(
                f"leverage rho={rho[i]} of asset {i} lies outside the driver's CGF domain"
            ) from exc

    seg = max(1, min(_SCAN_SEGMENT, n_steps, int(_MAX_SCAN_EXPONENT / lam_dt)))
    offset = lam_dt if lam_dt > _MAX_SCAN_EXPONENT else 0.0
    exponents = lam_dt * np.arange(1, seg + 1)
    grow = np.exp(exponents - offset)
    decay_step = np.exp(offset - exponents)
    sqrt_dt = math.sqrt(dt)
    sigma0 = params.sigma0_sq

    n_paths = config.n_paths
    realized = np.empty((n_paths, 3, 3))
    x_terminal = np.empty((n_paths, 3))
    sigma_sq_terminal = np.empty((n_paths, 3))
    jump_square_sum = np.empty(n_paths)
    trajectories = None
    if config.keep_paths:
        trajectories = {
            "sigma_sq": np.empty((n_paths, n_steps + 1, 3)),
            "log_price": np.empty((n_paths, n_steps + 1, 3)),
            "increments": np.empty((n_paths, n_steps, 3)),
        }

    pair_draw = config.antithetic
    n_units = n_paths // 2 if pair_draw else n_paths

    for unit in range(n_units):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(unit,))
        rng = np.random.Generator(np.random.Philox(ss))
        dz1 = np.asarray(tr.z1.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dzs = np.asarray(tr.z_star.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dzss = np.asarray(tr.z_star_star.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dz2, dz3 = tr.correlated_increments(dz1, dzs, dzss)
        normals = rng.standard_normal((3, n_steps))

        s_sq = np.empty((3, n_steps + 1))
        for i, dzi in enumerate((dz1, dz2, dz3)):
            s_sq[i] = _reference_variance_path(sigma0[i], dzi, decay_step, grow, weight, offset)
        s_left = np.sqrt(s_sq[:, :-1])
        jumps_sq = float(dz1 @ dz1)

        # realized covariation matrix / T (identical for both antithetic twins)
        rc = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                integral = float(s_left[i] @ s_left[j]) * dt
                rc[i, j] = rc[j, i] = (gamma[i, j] * integral + rho[i] * rho[j] * jumps_sq) / T

        drift_sum = drift_const * T - 0.5 * s_sq[:, :-1].sum(axis=1) * dt
        jump_x = rho * float(dz1.sum())

        members = ((2 * unit, 1.0), (2 * unit + 1, -1.0)) if pair_draw else ((unit, 1.0),)
        for p, flip in members:
            shocks = chol @ (flip * normals)
            diffusion = (s_left * shocks).sum(axis=1) * sqrt_dt
            x_term = drift_sum + diffusion + jump_x
            realized[p] = rc
            x_terminal[p] = x_term
            sigma_sq_terminal[p] = s_sq[:, -1]
            jump_square_sum[p] = jumps_sq
            if config.keep_paths:
                trajectories["sigma_sq"][p] = s_sq.T
                steps_x = drift_const * dt - 0.5 * s_sq[:, :-1].T * dt \
                    + s_left.T * shocks.T * sqrt_dt + np.outer(dz1, rho)
                xp = np.vstack([np.zeros(3), np.cumsum(steps_x, axis=0)])
                trajectories["log_price"][p] = xp
                trajectories["increments"][p] = np.column_stack([dz1, dzs, dzss])

    return ReferenceBundle(
        realized=realized,
        x_terminal=x_terminal,
        sigma_sq_terminal=sigma_sq_terminal,
        jump_square_sum=jump_square_sum,
        trajectories=trajectories,
    )


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


# ---------------------------------------------------------------------------
# Monte Carlo swap price
# ---------------------------------------------------------------------------

def mc_price(params: ModelParams, contract: SwapContract, config: SimulationConfig,
             cov_method: str = "approx", bundle: PathBundle = None) -> PricingResult:
    """Monte Carlo swap price with a standard error.

    Trace contracts average the per-path trace payoff.  Max-eigenvalue
    contracts fix the weights from the analytic expected-covariance route
    (cov_method) and average the per-path quadratic form at those weights,
    matching the analytic pricing convention.
    """
    if bundle is None:
        bundle = simulate(params, config)
    discount = contract.discount
    if contract.kind is SwapKind.TRACE:
        per_path = bundle.realized.trace(axis1=1, axis2=2)
        label = "mc/trace"
        extra = {}
    else:
        cov = expected_cov_matrix(params, method=cov_method)
        basis = qr_constraint_basis(params.mu, contract.target_return)
        fw = feasible_weights(basis, cov.entries)
        per_path = np.einsum("i,pij,j->p", fw.w, bundle.realized, fw.w)
        label = f"mc/eigenvalue[{cov_method}]"
        extra = {"weights": [float(x) for x in fw.w]}
    mean, stderr = _mean_and_stderr(per_path)
    metric = float(mean)
    return PricingResult(
        price=discount * (metric - contract.strike),
        expected_metric=metric,
        discount=discount,
        method=label,
        diagnostics={
            "stderr_metric": float(stderr),
            "stderr_price": discount * float(stderr),
            "n_paths": config.n_paths,
            "n_steps": config.n_steps,
            "seed": config.seed,
            **extra,
        },
    )
