"""Closed forms that check gvswap's outputs, computed apart from the program.

Everything here reads the plain parameter dictionary that `gvswap calibrate`
writes (the same JSON the benchmark hands to the CLI) and uses only the
standard library and numpy; nothing is imported from gvswap.

Model recap (time in days): sigma_i^2 follows
d sigma_i^2 = -lam sigma_i^2 dt + dZ_i(lam t), with Z_1 the base driver and
Z_i = r_i Z_1 + sqrt(1 - r_i^2) Z_i' for i = 2, 3.  The stationary mean of
sigma_i^2 is k1_i = kappa_1(Z_i), and every realized covariance entry carries
the squared common jumps rho_i rho_j lam kappa_2(Z_1).
"""

from __future__ import annotations

import math

import numpy as np


def driver_cumulant(driver: dict, n: int) -> float:
    """n-th cumulant of a unit-time driver law given as {"family", "a", "b"}.

    gamma(a, b): a (n-1)! / b^n.  ig(a, b): a (2n-3)!! / b^(2n-1).  zero: 0.
    """
    family = driver["family"]
    if family == "zero":
        return 0.0
    a, b = float(driver["a"]), float(driver["b"])
    if family == "gamma":
        return a * math.factorial(n - 1) / b**n
    if family == "ig":
        odd = math.prod(range(2 * n - 3, 0, -2)) if n > 1 else 1
        return a * odd / b ** (2 * n - 1)
    raise ValueError(f"unknown driver family {family!r}")


def asset_cumulant(params: dict, i: int, n: int) -> float:
    """n-th cumulant of asset i's variance driver (0-based asset index)."""
    base = driver_cumulant(params["z1"], n)
    if i == 0:
        return base
    r = float(params["r2"] if i == 1 else params["r3"])
    own = driver_cumulant(params["z_star"] if i == 1 else params["z_star_star"], n)
    return r**n * base + (1.0 - r * r) ** (n / 2) * own


def averaging_factor(lam: float, horizon: float) -> float:
    """(1 - e^(-lam T)) / (lam T): the time average of e^(-lam t) over [0, T]."""
    x = lam * horizon
    return -math.expm1(-x) / x


def _sigma0_sq(params: dict) -> np.ndarray:
    return np.array([float(a["sigma0_sq"]) for a in params["assets"]])


def _rho(params: dict) -> np.ndarray:
    return np.array([float(a["rho"]) for a in params["assets"]])


def jump_matrix(params: dict) -> np.ndarray:
    """rho_i rho_j lam kappa_2(Z_1): expected squared common jumps per day."""
    rho = _rho(params)
    return np.outer(rho, rho) * float(params["lambda"]) * driver_cumulant(params["z1"], 2)


def time_averaged_variances(params: dict) -> np.ndarray:
    """(1/T) int_0^T E[sigma_i^2(t)] dt = k1 + (sigma0^2 - k1)(1 - e^(-lam T))/(lam T)."""
    factor = averaging_factor(float(params["lambda"]), float(params["horizon"]))
    k1 = np.array([asset_cumulant(params, i, 1) for i in range(3)])
    return k1 + (_sigma0_sq(params) - k1) * factor


def expected_diagonal(params: dict) -> np.ndarray:
    """Exact diagonal of the expected covariance matrix, jump term included."""
    return time_averaged_variances(params) + np.diag(jump_matrix(params))


def deterministic_matrix(params: dict) -> np.ndarray:
    """Exact matrix when every driver is zero:
    gamma_ij sigma_i0 sigma_j0 (1 - e^(-lam T)) / (lam T)."""
    sigma0 = np.sqrt(_sigma0_sq(params))
    factor = averaging_factor(float(params["lambda"]), float(params["horizon"]))
    return np.array(params["gamma"], dtype=float) * np.outer(sigma0, sigma0) * factor


def offdiagonal_bounds(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on every entry of the expected covariance matrix.

    Omega_ij - jump_ij = gamma_ij (1/T) int E[sigma_i sigma_j] dt, and
    0 <= (1/T) int E[sigma_i sigma_j] <= sqrt(V_i V_j) with V the time-averaged
    variances (Cauchy-Schwarz in the expectation, then in time).  The sign of
    gamma_ij picks which end the jump term sits at.  On the diagonal both
    bounds equal the exact value.
    """
    v = time_averaged_variances(params)
    reach = np.array(params["gamma"], dtype=float) * np.sqrt(np.outer(v, v))
    jump = jump_matrix(params)
    return jump + np.minimum(reach, 0.0), jump + np.maximum(reach, 0.0)


def mc_grid_diagonal(params: dict, n_steps: int) -> np.ndarray:
    """Exact expectation of the Monte Carlo oracle's diagonal estimator.

    On the grid t_k = k dt the oracle's recursion
    s_{k+1} = d s_k + (1 - d)/(lam dt) dZ_k with d = e^(-lam dt) keeps
    E[s_k] = k1 + (s0 - k1) d^k, so the left-endpoint sum has mean
    dt [n k1 + (s0 - k1)(1 - d^n)/(1 - d)]; the squared base increments add
    rho_i^2 n (lam dt kappa_2 + (lam dt kappa_1)^2).  Both are divided by T.
    """
    lam, horizon = float(params["lambda"]), float(params["horizon"])
    dt = horizon / n_steps
    geometric = -math.expm1(-lam * dt * n_steps) / -math.expm1(-lam * dt)
    k1 = np.array([asset_cumulant(params, i, 1) for i in range(3)])
    integral = dt * (n_steps * k1 + (_sigma0_sq(params) - k1) * geometric)
    step = lam * dt
    z1_k1 = driver_cumulant(params["z1"], 1)
    z1_k2 = driver_cumulant(params["z1"], 2)
    jumps = _rho(params) ** 2 * n_steps * (step * z1_k2 + (step * z1_k1) ** 2)
    return (integral + jumps) / horizon


def feasible_weights(mu, target: float) -> tuple[np.ndarray, np.ndarray]:
    """The two unit-norm, fully invested weight vectors with mu'w = target.

    The minimum-norm solution w0 of [mu 1]' w = (target, 1) is orthogonal to
    the null vector n = mu x 1, so the feasible unit vectors are
    w0 +- sqrt(1 - |w0|^2) n / |n|.  Raises ValueError when |w0| > 1.
    """
    mu = np.asarray(mu, dtype=float)
    a = np.vstack([mu, np.ones(3)])
    w0 = np.linalg.lstsq(a, np.array([float(target), 1.0]), rcond=None)[0]
    slack = 1.0 - float(w0 @ w0)
    if slack < 0.0:
        raise ValueError(f"target {target} not attainable: |w0|^2 = {1.0 - slack}")
    normal = np.cross(mu, np.ones(3))
    normal /= np.linalg.norm(normal)
    reach = math.sqrt(slack) * normal
    return w0 + reach, w0 - reach
