"""Seeded Monte Carlo oracle for the three-asset system.

Simulates the coupled variance and log-price dynamics on a uniform grid over
[0, T] and accumulates, per path, the realized quadratic covariation matrix

    [X_i, X_j]_T = int_0^T gamma_ij sigma_i sigma_j dt
                   + rho_i rho_j * (sum of squared common-driver jumps),

whose sample mean over paths estimates T * E[Cov(S_i, S_j)].  The squared
common jumps are approximated by squared subordinator increments per step.

Discretization.  The variance recursion uses the exact decay e^(-lam dt) and
aggregates each step's subordinator increment with the weight
(1 - e^(-lam dt)) / (lam dt), which makes E[sigma^2] exact at every grid
point; remaining grid bias (within-step aggregation of jump positions and the
left-endpoint time integral) vanishes as n_steps grows and is quantified by
step halving.

Reproducibility.  Every path draws from its own counter-based stream keyed by
(seed, path index), so results are bitwise independent of scheduling and of
how paths are partitioned into batches; path p of a 10-path run equals path p
of a 1000-path run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import ExpectedCovMatrix, expected_cov_matrix
from .errors import DomainError, ParameterError
from .params import ModelParams
from .pricing import PricingResult, SwapContract, SwapKind
from .weights import feasible_weights, qr_constraint_basis

_SCAN_SEGMENT = 512  # bounds the exponent range of the variance scan
_MAX_SCAN_EXPONENT = 300.0  # largest lam * dt * k in a segment; exp(709) overflows


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False
    keep_paths: bool = False

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ParameterError("n_paths and n_steps must be >= 1")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ParameterError("antithetic sampling requires an even number of paths")

    def to_json_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "antithetic": self.antithetic,
        }


@dataclass
class PathBundle:
    """Per-path outputs; trajectories only under keep_paths (memory)."""

    realized: np.ndarray          # (n_paths, 3, 3) realized covariation / T
    x_terminal: np.ndarray        # (n_paths, 3) terminal log prices (X_0 = 0)
    sigma_sq_terminal: np.ndarray  # (n_paths, 3)
    jump_square_sum: np.ndarray   # (n_paths,) sum of squared base increments
    config: SimulationConfig
    trajectories: dict | None = None


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def _variance_path(sigma0_sq: float, increments: np.ndarray, decay_step: np.ndarray,
                   grow: np.ndarray, weight: float, offset: float) -> np.ndarray:
    """sigma^2 at grid points 0..n from the recursion s_{k+1} = d s_k + w dZ_k.

    Unrolling gives s_{start+l} = d^l (s_start + w sum_{j<l} d^{-(j+1)} dZ_j);
    evaluated segment-wise through cumulative sums so the exponentials stay in
    range for any lam * T.  The exponents of grow and decay_step are shifted
    by -offset and +offset (offset = lam * dt when a single step exceeds
    _MAX_SCAN_EXPONENT, else 0), and s_start is scaled by e^(-offset) to match.
    """
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


def simulate(params: ModelParams, config: SimulationConfig) -> PathBundle:
    """Simulate the system and accumulate per-path realized covariations."""
    tr = params.triple
    lam, T = params.lam, params.horizon
    n_steps = config.n_steps
    dt = T / n_steps
    lam_dt = lam * dt
    weight = -math.expm1(-lam_dt) / lam_dt
    rho = params.rho
    gamma = params.gamma
    rate = params.rate

    # Cholesky factor of the Brownian correlation (with a small jitter)
    try:
        chol = np.linalg.cholesky(gamma + 1e-12 * np.eye(3))
    except np.linalg.LinAlgError as exc:
        raise ParameterError("brownian correlation matrix is not positive semidefinite") from exc

    # risk-neutral drift constants: r - lam * cgf_i(rho_i), asset's own driver
    drift_const = np.empty(3)
    for i in range(3):
        try:
            drift_const[i] = rate - lam * params.asset_cgf(i, rho[i])
        except DomainError as exc:
            raise ParameterError(
                f"leverage rho={rho[i]} of asset {i} lies outside the driver's CGF domain"
            ) from exc

    seg = max(1, min(_SCAN_SEGMENT, n_steps, int(_MAX_SCAN_EXPONENT / lam_dt)))
    # a step too long for the cap is one segment; its exponents are taken
    # relative to its end, so none is positive
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
        rng = _path_rng(config.seed, unit)
        dz1 = np.asarray(tr.z1.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dzs = np.asarray(tr.z_star.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dzss = np.asarray(tr.z_star_star.sample_increments(lam_dt, rng, n_steps), dtype=float)
        dz2, dz3 = tr.correlated_increments(dz1, dzs, dzss)
        normals = rng.standard_normal((3, n_steps))

        s_sq = np.empty((3, n_steps + 1))
        for i, dzi in enumerate((dz1, dz2, dz3)):
            s_sq[i] = _variance_path(sigma0[i], dzi, decay_step, grow, weight, offset)
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

    return PathBundle(
        realized=realized,
        x_terminal=x_terminal,
        sigma_sq_terminal=sigma_sq_terminal,
        jump_square_sum=jump_square_sum,
        config=config,
        trajectories=trajectories,
    )


def _mean_and_stderr(samples: np.ndarray, antithetic: bool):
    """Sample mean and standard error; antithetic twins count as one unit."""
    if antithetic:
        samples = 0.5 * (samples[0::2] + samples[1::2])
    n = len(samples)
    mean = samples.mean(axis=0)
    if n > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.full_like(np.asarray(mean, dtype=float), np.inf)
    return mean, stderr


def mc_expected_cov(params: ModelParams, config: SimulationConfig,
                    bundle: PathBundle = None) -> ExpectedCovMatrix:
    """Sample mean of the per-path realized covariation matrices."""
    if bundle is None:
        bundle = simulate(params, config)
    mean, stderr = _mean_and_stderr(bundle.realized, config.antithetic)
    return ExpectedCovMatrix(
        entries=mean,
        method="mc",
        diagnostics={
            "stderr": [[float(x) for x in row] for row in stderr],
            "n_paths": config.n_paths,
            "n_steps": config.n_steps,
            "seed": config.seed,
        },
    )


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
    mean, stderr = _mean_and_stderr(per_path, config.antithetic)
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
