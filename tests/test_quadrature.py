import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvswap import NumericalError, expected_cov_approx, expected_cov_matrix, expected_cov_series
from gvswap.quadrature import NODES, RTOL, WEIGHTS, gauss_kronrod_u

from .oracles import adaptive_simpson_depth_first, reference_offdiagonals


def _rows(*funcs):
    """A vector integrand: one row per function of the time array."""
    return lambda t: np.stack([g(t) for g in funcs])


def _powers_of_u(lam, coeffs):
    """sum_k c_k u^k, u = e^(-lam t), as a function of t."""
    return lambda t: sum(c * np.exp(-lam * t) ** k for k, c in enumerate(coeffs))


def _integral_of_powers(lam, horizon, coeffs):
    """int_0^T sum_k c_k e^(-k lam t) dt in closed form."""
    return coeffs[0] * horizon + sum(c * -math.expm1(-k * lam * horizon) / (k * lam) for k, c in enumerate(coeffs) if k)


# ---------------------------------------------------------------------------
# the rule's constants
# ---------------------------------------------------------------------------

class TestRuleConstants:
    @pytest.mark.parametrize("row, degree", [(0, 22), (1, 13)], ids=["K15", "G7"])
    def test_exact_on_monomials(self, row, degree):
        # a mistyped node or weight breaks exactness at some degree
        for k in range(degree + 1):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(WEIGHTS[row] @ NODES**k - want) <= 1e-15

    def test_gauss_nodes_and_weights_are_legendre(self):
        x, w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(NODES[1::2], x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(WEIGHTS[1, 1::2], w, rtol=0.0, atol=1e-15)
        assert np.all(WEIGHTS[1, ::2] == 0.0)

    def test_nodes_open_and_symmetric(self):
        assert np.all(np.diff(NODES) > 0.0) and -1.0 < NODES[0] and NODES[-1] < 1.0
        np.testing.assert_array_equal(NODES, -NODES[::-1])
        np.testing.assert_array_equal(WEIGHTS, WEIGHTS[:, ::-1])


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------

def test_one_call_on_sixteen_times():
    seen = []

    def f(t):
        seen.append(t.copy())
        return _rows(np.ones_like)(t)

    gauss_kronrod_u(f, 0.4, 252.0)
    (t,) = seen
    assert t.shape == (16,) and t[0] == np.inf
    # the Kronrod nodes mapped onto [e^(-lam T), 1]
    np.testing.assert_allclose(np.exp(-0.4 * t[1:]), math.exp(-100.8) + 0.5 * (1.0 + NODES), rtol=1e-14, atol=0.0)


def test_constant_exact():
    value, err = gauss_kronrod_u(_rows(np.ones_like), 0.4, 252.0)
    assert value[0] == pytest.approx(252.0, rel=1e-15) and err[0] == 0.0


def test_exponential_closed_form():
    value, _ = gauss_kronrod_u(_rows(lambda t: np.exp(-0.4 * t)), 0.4, 252.0)
    want = (1.0 - math.exp(-0.4 * 252.0)) / 0.4
    assert value[0] == pytest.approx(want, rel=1e-14)


def test_exponential_default_tolerance():
    # exp(u), not a polynomial in u, and its Taylor series integrated termwise
    value, err = gauss_kronrod_u(_rows(lambda t: np.exp(np.exp(-0.4 * t))), 0.4, 21.0)
    want = _integral_of_powers(0.4, 21.0, [1.0 / math.factorial(k) for k in range(30)])
    assert abs(value[0] - want) <= max(err[0], 1e-14 * want)
    assert err[0] <= RTOL * value[0]


@pytest.mark.parametrize("lam, horizon", [(0.4, 252.0), (0.4, 21.0), (0.1, 504.0), (3.0, 1.0), (0.4, 1e-3)])
def test_powers_of_u_closed_form(lam, horizon):
    # e^(-k lam t) is u^k, and u^k / u is exact for G7 up to k = 14
    ks = (1, 2, 10, 14)
    value, err = gauss_kronrod_u(_rows(*(_powers_of_u(lam, [0.0] * k + [1.0]) for k in ks)), lam, horizon)
    for k, got in zip(ks, value):
        assert got == pytest.approx(-math.expm1(-k * lam * horizon) / (k * lam), rel=1e-14)
    assert np.all(err <= 1e-14 * value)


@given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_cubic_exactness(coeffs):
    # a cubic in u
    lam, horizon = 0.4, 21.0
    value, _ = gauss_kronrod_u(_rows(_powers_of_u(lam, coeffs)), lam, horizon)
    scale = sum(abs(c) for c in coeffs) * horizon
    assert value[0] == pytest.approx(_integral_of_powers(lam, horizon, coeffs), abs=1e-13 * scale)


def test_empty_interval():
    value, err = gauss_kronrod_u(_rows(lambda t: np.full_like(t, 5.0)), 0.4, 0.0)
    assert value[0] == 0.0 and err[0] == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(NumericalError):
        gauss_kronrod_u(_rows(np.ones_like), 0.4, -1.0)
    with pytest.raises(NumericalError):
        gauss_kronrod_u(_rows(np.ones_like), 0.0, 1.0)


def test_error_estimate_bounds_the_error():
    # 1 / (1 + a u) has a pole at u = -1/a, nearer the interval as a grows;
    # from a = 10 on the estimate exceeds RTOL and the rule raises
    lam, horizon = 0.4, 21.0
    for a in (0.5, 2.0, 10.0, 50.0):
        f = _rows(lambda t: 1.0 / (1.0 + a * np.exp(-lam * t)))
        want = horizon + math.log((1.0 + a * math.exp(-lam * horizon)) / (1.0 + a)) / lam
        try:
            value, err = gauss_kronrod_u(f, lam, horizon)
        except NumericalError as exc:
            value, err = exc.best_value, exc.error_estimate
        assert abs(value[0] - want) <= max(err[0], 1e-14 * want)


def test_unresolved_integrand_carries_best_value():
    # e^(-t / 1e-3) is u^2500 at lam = 0.4: a boundary layer at u = 1
    f = _rows(np.ones_like, lambda t: np.exp(-t / 1e-3))
    with pytest.raises(NumericalError, match="quadrature error") as excinfo:
        gauss_kronrod_u(f, 0.4, 21.0)
    best, err = excinfo.value.best_value, excinfo.value.error_estimate
    assert best.shape == err.shape == (2,)
    # the resolved row keeps its value; the other one carries its estimate
    assert best[0] == pytest.approx(21.0, rel=1e-15) and err[0] == 0.0
    assert err[1] > RTOL * abs(best[1])


def test_non_finite_value_raises():
    with pytest.raises(NumericalError):
        gauss_kronrod_u(_rows(lambda t: np.where(t < 1.0, np.nan, 1.0)), 0.4, 21.0)


def test_zero_integrand_passes():
    value, err = gauss_kronrod_u(_rows(np.zeros_like), 0.4, 252.0)
    assert value[0] == 0.0 and err[0] == 0.0


# ---------------------------------------------------------------------------
# the rule, all nodes in one batched call, against the scalar depth-first
# adaptive Simpson reference, which works in t
# ---------------------------------------------------------------------------

def _depth_first(f, horizon, rows):
    """int_0^T of each row of the vector integrand f by the scalar reference
    at tolerance 1e-15 T, one node per call."""
    value, _ = adaptive_simpson_depth_first(lambda t: f(np.array([t]))[:, 0], 0.0, horizon, tol=1e-15 * horizon)
    return np.reshape(value, rows)


def _simpson_in_t(g, lam, horizon):
    """int_0^T g dt of a one-pair integrand by the depth-first reference."""
    return _depth_first(lambda t: g(t)[None], horizon, 1)[0]


class TestBatchedMatchesDepthFirst:
    def test_cubic(self):
        f = _rows(_powers_of_u(0.4, [1.0, 3.0, -1.0, 2.0]))
        value, _ = gauss_kronrod_u(f, 0.4, 2.0)
        np.testing.assert_allclose(value, _depth_first(f, 2.0, 1), rtol=1e-12, atol=0.0)

    def test_exponential(self):
        f = _rows(lambda t: np.exp(-0.4 * t))
        value, _ = gauss_kronrod_u(f, 0.4, 252.0)
        np.testing.assert_allclose(value, _depth_first(f, 252.0, 1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    @pytest.mark.parametrize("route", [expected_cov_series, expected_cov_approx])
    def test_covariance_integrands(self, base_params, route, pair):
        method = "series" if route is expected_cov_series else "approx"
        value, diag = route(pair, base_params)
        assert diag["evals"] == 16
        want = reference_offdiagonals(base_params, method, _simpson_in_t)[pair]
        assert value == pytest.approx(want, rel=1e-12)
        # the reported error bounds the distance to a 64-point rule in u
        reference = reference_offdiagonals(base_params, method)[pair]
        assert abs(value - reference) <= max(diag["quad_error"], 1e-13 * abs(reference))


# ---------------------------------------------------------------------------
# vector integrands: one node set for several rows
# ---------------------------------------------------------------------------

def _three_rows():
    return _rows(lambda t: np.exp(-0.4 * t), lambda t: 1.0 / (1.0 + 2.0 * np.exp(-0.4 * t)),
                 lambda t: 1e-12 * np.exp(-0.8 * t))


class TestVectorMatchesDepthFirst:
    def test_rows_of_different_difficulty(self):
        value, err = gauss_kronrod_u(_three_rows(), 0.4, 10.0)
        assert value.shape == err.shape == (3,)
        np.testing.assert_allclose(value, _depth_first(_three_rows(), 10.0, 3), rtol=1e-12, atol=0.0)

    def test_node_set_is_the_union_of_the_rows(self):
        # every row is evaluated on the same 16 times, alone or together
        def nodes(f):
            seen = []
            gauss_kronrod_u(lambda t: seen.append(t) or f(t), 0.4, 10.0)
            return seen[0]

        shared = nodes(_three_rows())
        for k in range(3):
            np.testing.assert_array_equal(nodes(lambda t: _three_rows()(t)[k:k + 1]), shared)

    def test_one_row_is_the_scalar_rule(self):
        # a row's value and error estimate do not depend on the other rows
        together = gauss_kronrod_u(_three_rows(), 0.4, 10.0)
        for k in range(3):
            alone = gauss_kronrod_u(lambda t: _three_rows()(t)[k:k + 1], 0.4, 10.0)
            assert (alone[0][0], alone[1][0]) == (together[0][k], together[1][k])

    def test_unresolved_row_fails_the_call(self):
        # a resolved row and an unresolved one: the call raises, and both
        # carry their best values
        f = _rows(lambda t: np.exp(-0.4 * t), lambda t: np.exp(-t / 1e-3))
        with pytest.raises(NumericalError) as excinfo:
            gauss_kronrod_u(f, 0.4, 1.0)
        best = excinfo.value.best_value
        assert best.shape == (2,)
        assert best[0] == pytest.approx(-math.expm1(-0.4) / 0.4, rel=1e-14)

    @pytest.mark.parametrize("method", ["series", "approx"])
    def test_matrix_integrand(self, base_params, method):
        matrix = expected_cov_matrix(base_params, method)
        want = reference_offdiagonals(base_params, method, _simpson_in_t)
        for pair, value in want.items():
            assert matrix.entries[pair] == pytest.approx(value, rel=1e-12)
        assert {matrix.diagnostics[k]["evals"] for k in ("01", "12", "02")} == {16}
