"""Hand-computable cases for the benchmark's reference closed forms.

Run from the repository root: python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference


def params(**overrides):
    """A small parameter dictionary with round numbers."""
    gamma_driver = {"family": "gamma", "a": 2.0, "b": 4.0}   # mean 1/2, variance 1/8
    base = {
        "assets": [
            {"mu": 1.0, "sigma0_sq": 1.0, "rho": 1.0},
            {"mu": -1.0, "sigma0_sq": 4.0, "rho": 0.5},
            {"mu": 0.0, "sigma0_sq": 9.0, "rho": 0.0},
        ],
        "lambda": math.log(2.0),
        "horizon": 1.0,
        "gamma": [[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]],
        "r2": 0.6,
        "r3": 0.0,
        "z1": gamma_driver,
        "z_star": gamma_driver,
        "z_star_star": {"family": "zero"},
    }
    base.update(overrides)
    return base


def test_driver_cumulants():
    assert reference.driver_cumulant({"family": "gamma", "a": 2.0, "b": 4.0}, 1) == 0.5
    assert reference.driver_cumulant({"family": "gamma", "a": 2.0, "b": 4.0}, 3) == 2.0 * 2 / 64
    ig = {"family": "ig", "a": 3.0, "b": 2.0}   # mean a/b, variance a/b^3, kappa_3 = 3a/b^5
    assert reference.driver_cumulant(ig, 1) == 1.5
    assert reference.driver_cumulant(ig, 2) == 3.0 / 8.0
    assert reference.driver_cumulant(ig, 3) == 9.0 / 32.0
    assert reference.driver_cumulant({"family": "zero"}, 2) == 0.0


def test_mixed_driver_cumulants():
    p = params()
    # asset 2: r = 0.6, sqrt(1 - r^2) = 0.8; both components have mean 1/2
    assert reference.asset_cumulant(p, 1, 1) == pytest.approx(0.6 * 0.5 + 0.8 * 0.5)
    assert reference.asset_cumulant(p, 1, 2) == pytest.approx(0.36 / 8 + 0.64 / 8)
    # asset 3: r = 0 leaves only its own (zero) component
    assert reference.asset_cumulant(p, 2, 1) == 0.0


def test_averaging_factor():
    # lam T = ln 2: (1 - 1/2) / ln 2
    assert reference.averaging_factor(math.log(2.0), 1.0) == pytest.approx(0.5 / math.log(2.0))
    assert reference.averaging_factor(1e-12, 1.0) == pytest.approx(1.0)


def test_diagonal_closed_form():
    p = params()
    f = 0.5 / math.log(2.0)
    jump = math.log(2.0) * 0.125            # lam kappa_2(Z1)
    expected = [
        0.5 + (1.0 - 0.5) * f + 1.0 * jump,
        0.7 + (4.0 - 0.7) * f + 0.25 * jump,
        0.0 + 9.0 * f,
    ]
    assert reference.expected_diagonal(p) == pytest.approx(expected)


def test_stationary_start_is_flat():
    p = params(assets=[{"mu": 0.0, "sigma0_sq": 0.5, "rho": 0.0}] * 3)
    p["assets"][1] = {"mu": 0.0, "sigma0_sq": 0.7, "rho": 0.0}
    v = reference.time_averaged_variances(p)
    assert v[:2] == pytest.approx([0.5, 0.7], rel=1e-15)


def test_deterministic_matrix():
    zero = {"family": "zero"}
    p = params(z1=zero, z_star=zero)
    f = 0.5 / math.log(2.0)
    omega = reference.deterministic_matrix(p)
    # sigma0 = (1, 2, 3)
    assert omega == pytest.approx(f * np.array([[1.0, 1.0, -1.5], [1.0, 4.0, 0.0], [-1.5, 0.0, 9.0]]))
    assert np.diag(omega) == pytest.approx(reference.expected_diagonal(p))


def test_bounds_are_tight_in_the_deterministic_limit():
    zero = {"family": "zero"}
    p = params(z1=zero, z_star=zero)
    lo, hi = reference.offdiagonal_bounds(p)
    omega = reference.deterministic_matrix(p)
    # gamma_01 > 0: the matrix sits on the upper bound; gamma_02 < 0: on the lower
    assert omega[0, 1] == pytest.approx(hi[0, 1]) and lo[0, 1] == 0.0
    assert omega[0, 2] == pytest.approx(lo[0, 2]) and hi[0, 2] == 0.0
    assert lo[1, 2] == hi[1, 2] == 0.0


def test_bounds_carry_the_jump_term():
    p = params()
    lo, hi = reference.offdiagonal_bounds(p)
    jump = 1.0 * 0.5 * math.log(2.0) * 0.125
    v = reference.time_averaged_variances(p)
    assert lo[0, 1] == pytest.approx(jump)
    assert hi[0, 1] == pytest.approx(jump + 0.5 * math.sqrt(v[0] * v[1]))


def test_grid_expectation_one_step():
    # one step: the left-endpoint sum is s0 dt, and E[dZ1^2] = lam k2 + (lam k1)^2
    p = params()
    lam = math.log(2.0)
    jumps = lam * 0.125 + (lam * 0.5) ** 2
    expected = [1.0 + jumps, 4.0 + 0.25 * jumps, 9.0]
    assert reference.mc_grid_diagonal(p, 1) == pytest.approx(expected)


def test_grid_expectation_matches_the_recursion():
    p = params(horizon=3.0)
    lam, n = math.log(2.0), 7
    dt = 3.0 / n
    d = math.exp(-lam * dt)
    k1 = np.array([reference.asset_cumulant(p, i, 1) for i in range(3)])
    s = np.array([1.0, 4.0, 9.0])
    total = np.zeros(3)
    for _ in range(n):
        total += s * dt
        s = d * s + (1.0 - d) * k1
    jumps = np.array([1.0, 0.25, 0.0]) * n * (lam * dt * 0.125 + (lam * dt * 0.5) ** 2)
    assert reference.mc_grid_diagonal(p, n) == pytest.approx((total + jumps) / 3.0, rel=1e-13)


def test_grid_expectation_tends_to_the_continuous_diagonal():
    p = params(horizon=5.0)
    grid = reference.mc_grid_diagonal(p, 200_000)
    continuous = reference.time_averaged_variances(p)
    # the jump term is identical in the limit (the (lam dt k1)^2 part vanishes)
    jumps = np.diag(reference.jump_matrix(p))
    assert grid == pytest.approx(continuous + jumps, rel=1e-4)


def test_feasible_weights():
    # mu = (1, -1, 0), target 0: w1 = w2 and 2 w1 + w3 = 1 on the unit sphere
    plus, minus = reference.feasible_weights([1.0, -1.0, 0.0], 0.0)
    found = sorted([plus.tolist(), minus.tolist()])
    assert found[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
    assert found[1] == pytest.approx([2 / 3, 2 / 3, -1 / 3])


def test_infeasible_target():
    with pytest.raises(ValueError):
        reference.feasible_weights([1.0, -1.0, 0.0], 5.0)
