"""Seeded Monte Carlo oracle for the expected covariance matrix.

Simulates the three coupled variance processes on a uniform grid over [0, T]
and accumulates, per path, the realized quadratic covariation matrix

    [X_i, X_j]_T = int_0^T gamma_ij sigma_i sigma_j dt
                   + rho_i rho_j * (sum of squared common-driver jumps),

whose sample mean over paths estimates T * E[Cov(S_i, S_j)].  The squared
common jumps are approximated by squared subordinator increments per step.
The covariation needs only the variances and the driver increments, so no
log price, Brownian shock or antithetic twin is simulated.

Discretization.  The variance recursion uses the exact decay e^(-lam dt) and
aggregates each step's subordinator increment with the weight
(1 - e^(-lam dt)) / (lam dt), which makes E[sigma^2] exact at every grid
point; remaining grid bias (within-step aggregation of jump positions and the
left-endpoint time integral) vanishes as n_steps grows and is quantified by
step halving.

Reproducibility.  Every path draws from its own counter-based stream keyed by
(seed, path index), so results are bitwise independent of scheduling, of how
paths are partitioned into blocks and of how many worker processes run them;
path p of a 10-path run equals path p of a 1000-path run.

Sharding.  On Linux the paths are split into contiguous ranges at block
boundaries, one per CPU the process may run on (never more than there are
blocks).  The caller runs the first range and a forked child runs each other
one; every worker writes its rows in place into one anonymous shared mapping,
and every child is reaped before `simulate` returns.  Where the platform
cannot report the CPUs (or there is one block), the same range function runs
in-process, serially.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from .covariance import ExpectedCovMatrix
from .errors import DomainError, ParameterError
from .params import ModelParams

_SCAN_SEGMENT = 512  # bounds the exponent range of the variance scan
_MAX_SCAN_EXPONENT = 300.0  # largest lam * dt * k in a segment; exp(709) overflows
#: paths whose variance scans run together; 4 and 8 ran slower than 2 on a
#: 2-vCPU machine and raise peak memory
_BLOCK = 2


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ParameterError("n_paths and n_steps must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")


@dataclass
class PathBundle:
    """Per-path outputs."""

    realized: np.ndarray          # (n_paths, 3, 3) realized covariation / T
    sigma_sq_terminal: np.ndarray  # (n_paths, 3)
    jump_square_sum: np.ndarray   # (n_paths,) sum of squared base increments
    config: SimulationConfig


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def _cores() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def simulate(params: ModelParams, config: SimulationConfig) -> PathBundle:
    """Simulate the variances and accumulate per-path realized covariations."""
    rho = params.rho
    # the model's risk-neutral drift needs cgf_i(rho_i) finite, though no price is simulated
    for i in range(3):
        try:
            params.triple.derived_cgf(i + 1, rho[i])
        except DomainError as exc:
            raise ParameterError(
                f"leverage rho={rho[i]} of asset {i} lies outside the driver's CGF domain"
            ) from exc

    n_paths = config.n_paths
    # realized (9), sigma_sq_terminal (3) and jump_square_sum (1) per path, in
    # one mapping that forked workers share with the caller
    rows = np.frombuffer(mmap.mmap(-1, 13 * n_paths * 8), dtype=np.float64)
    bundle = PathBundle(
        realized=rows[:9 * n_paths].reshape(n_paths, 3, 3),
        sigma_sq_terminal=rows[9 * n_paths: 12 * n_paths].reshape(n_paths, 3),
        jump_square_sum=rows[12 * n_paths:],
        config=config,
    )
    n_blocks = -(-n_paths // _BLOCK)
    workers = min(_cores(), n_blocks)
    cuts = [min(n_paths, _BLOCK * (n_blocks * w // workers)) for w in range(workers + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    children = []
    try:
        for paths in ranges[1:]:
            # a child that flushes must not write the caller's pending output again
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _run_child(params, paths, bundle)
            children.append(pid)
        _simulate_paths(params, ranges[0], bundle)
    finally:
        failed = [pid for pid in children
                  if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(children)} simulation workers failed; see stderr")
    return bundle


def _run_child(params: ModelParams, paths: range, bundle: PathBundle):
    """Simulate one path range in a forked child and end the child.

    Never returns: an exception unwinding into the caller's frames would run
    the caller's code a second time, in the child.
    """
    code = 1
    try:
        _simulate_paths(params, paths, bundle)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # the traceback an uncaught exception prints
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _simulate_paths(params: ModelParams, paths: range, bundle: PathBundle) -> None:
    """Fill the bundle's rows for paths [paths.start, paths.stop), a block at a time."""
    tr = params.triple
    lam, T = params.lam, params.horizon
    config = bundle.config
    n_steps = config.n_steps
    dt = T / n_steps
    lam_dt = lam * dt
    weight = -math.expm1(-lam_dt) / lam_dt
    rho = params.rho
    gamma = params.gamma
    drivers = (tr.z1, tr.z_star, tr.z_star_star)
    realized = bundle.realized
    sigma_sq_terminal = bundle.sigma_sq_terminal
    jump_square_sum = bundle.jump_square_sum

    # s_{k+1} = d s_k + w dZ_k unrolls within a segment starting at k0 to
    # s_{k0+l} = d^l (s_k0 + w sum_{j<l} d^{-(j+1)} dZ_{k0+j}), one cumulative
    # sum per segment; segments keep the exponentials in range for any lam * T
    seg = max(1, min(_SCAN_SEGMENT, n_steps, int(_MAX_SCAN_EXPONENT / lam_dt)))
    # a step too long for the cap is one segment; its exponents are taken
    # relative to its end, so none is positive, and s_k0 is scaled to match
    offset = lam_dt if lam_dt > _MAX_SCAN_EXPONENT else 0.0
    exponents = lam_dt * np.arange(1, seg + 1)
    grow = np.exp(exponents - offset)
    decay_step = np.exp(offset - exponents)
    start_scale = math.exp(-offset)

    for first in range(paths.start, paths.stop, _BLOCK):
        block = range(first, min(first + _BLOCK, paths.stop))
        # dz[b, d]: increments of driver d (Z1, Z*, Z**) on path first + b,
        # then of asset d's driver (Z1, Z2, Z3) after the mix
        dz = np.empty((len(block), 3, n_steps))
        for b, p in enumerate(block):
            rng = _path_rng(config.seed, p)
            for d, spec in enumerate(drivers):
                dz[b, d] = spec.sample_increments(lam_dt, rng, n_steps)
        dz[:, 1], dz[:, 2] = tr.correlated_increments(dz[:, 0], dz[:, 1], dz[:, 2])

        s_sq = np.empty((len(block), 3, n_steps + 1))
        s_sq[:, :, 0] = params.sigma0_sq
        for start in range(0, n_steps, seg):
            stop = min(start + seg, n_steps)
            m = stop - start
            c = np.cumsum(grow[:m] * dz[:, :, start:stop], axis=-1)
            s_sq[:, :, start + 1: stop + 1] = decay_step[:m] * (
                s_sq[:, :, start, None] * start_scale + weight * c)
        s_left = np.sqrt(s_sq[:, :, :-1])
        sigma_sq_terminal[first: block.stop] = s_sq[:, :, -1]

        for b, p in enumerate(block):
            jumps_sq = float(dz[b, 0] @ dz[b, 0])
            jump_square_sum[p] = jumps_sq
            for i in range(3):
                for j in range(i, 3):
                    integral = float(s_left[b, i] @ s_left[b, j]) * dt
                    realized[p, i, j] = realized[p, j, i] = \
                        (gamma[i, j] * integral + rho[i] * rho[j] * jumps_sq) / T


def _mean_and_stderr(samples: np.ndarray):
    """Sample mean and standard error over paths."""
    n = len(samples)
    mean = samples.mean(axis=0)
    if n > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.full_like(np.asarray(mean, dtype=float), np.inf)
    return mean, stderr


def mc_expected_cov(params: ModelParams, config: SimulationConfig) -> ExpectedCovMatrix:
    """Sample mean of the per-path realized covariation matrices."""
    mean, stderr = _mean_and_stderr(simulate(params, config).realized)
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
