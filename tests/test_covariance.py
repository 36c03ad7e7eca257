import math
from fractions import Fraction

import numpy as np
import pytest

from gvswap import (
    Family,
    NumericalError,
    ParameterError,
    SubordinatorSpec,
    expected_cov_approx,
    expected_cov_matrix,
    expected_cov_series,
    expected_var_leg,
    refcase,
)
from gvswap.covariance import _PairSeriesEngine, _variance_unit, sqrt_series_coefficients
from gvswap.params import PAIR_ORDER

from .conftest import make_params
from .legs import _PairApproxEngine
from .oracles import exact_sqrt_binomial, reference_offdiagonals


def deterministic_entry(params, i, j):
    """gamma_ij sigma_i0 sigma_j0 (1 - e^(-lam T)) / (lam T) for zero drivers."""
    lam, T = params.lam, params.horizon
    g = 1.0 if i == j else float(params.gamma[i, j])
    s = math.sqrt(params.assets[i].sigma0_sq * params.assets[j].sigma0_sq)
    return g * s * (1.0 - math.exp(-lam * T)) / (lam * T)


class TestSeriesCoefficients:
    def test_first_values(self):
        c = sqrt_series_coefficients(4)
        assert np.allclose(c, [1.0, 0.5, -0.125, 0.0625, -0.0390625])

    def test_exact_binomials_through_order_ten(self):
        c = sqrt_series_coefficients(10)
        for k in range(11):
            assert c[k] == float(exact_sqrt_binomial(k))

    @pytest.mark.parametrize("kmax", range(1, 13))
    def test_engine_constants_collapse_the_series(self, base_params, kmax):
        # as polynomials in x: x^k = sum_p signed[k, p] (1 + x)^p, and
        # sum_p w_p (1 + x)^p = sum_k binom(1/2, k) x^k, compared coefficient
        # by coefficient in exact arithmetic
        engine = _PairSeriesEngine(base_params, PAIR_ORDER, kmax, _variance_unit(base_params))
        orders = range(kmax + 1)

        def expand(row):  # x^j coefficients of sum_p row[p] (1 + x)^p
            return [sum(Fraction(row[p]) * math.comb(p, j) for p in orders) for j in orders]

        for k in orders:
            assert expand(engine.signed[k]) == [int(j == k) for j in orders]
        for j, (got, c) in enumerate(zip(expand(engine.collapsed), map(exact_sqrt_binomial, orders))):
            assert abs(got - c) <= Fraction(1, 10**15) * abs(c), j
            assert abs(Fraction(engine.coefficients[j]) - c) <= Fraction(1, 10**15) * abs(c), j


class TestVarianceLegs:
    def test_zero_drivers_closed_form(self, zero_params):
        for i in range(3):
            value, diag = expected_var_leg(i, zero_params)
            assert value == pytest.approx(deterministic_entry(zero_params, i, i), abs=1e-10)
            assert diag["jump_term"] == 0.0

    def test_zero_initial_variance_zero_driver(self):
        params = make_params(spec=SubordinatorSpec(Family.ZERO), sigma0_sq=[0.0, 0.0, 0.0])
        for i in range(3):
            value, _ = expected_var_leg(i, params)
            assert value == 0.0

    def test_closed_form_gamma(self, base_params):
        # (1/T) int E[sigma^2] dt has an elementary antiderivative
        p = base_params
        lam, T = p.lam, p.horizon
        for i in range(3):
            s0 = p.assets[i].sigma0_sq
            k1 = p.triple.derived_cumulant(i + 1, 1)
            decay_integral = (1.0 - math.exp(-lam * T)) / lam
            want = (s0 * decay_integral + k1 * (T - decay_integral)) / T
            want += p.assets[i].rho ** 2 * p.lam * p.triple.z1.cumulant(2)
            got, _ = expected_var_leg(i, p)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("c", [1e-16, 1e-14, 1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_units_invariance(self, family, c):
        # exact rescaling of the model by c, as the benchmark's ParamClass.scale
        # does: variances and driver laws scale by c, leverages by c^(-1/2);
        # every entry of the matrix then scales by c, on both routes
        def build(scale):
            if family is Family.GAMMA:
                spec = SubordinatorSpec(family, 100.0, 2.0e6 / scale)
            else:
                spec = SubordinatorSpec(family, 0.0335 * math.sqrt(scale), 670.0 / math.sqrt(scale))
            return make_params(
                spec=spec,
                sigma0_sq=[4.0 * 5e-5 * scale, 5e-5 * scale, 0.25 * 5e-5 * scale],
                rho=tuple(-r / math.sqrt(scale) for r in (0.8, 0.5, 0.6)),
            )

        unit, scaled = build(1.0), build(c)
        for i in range(3):
            want, _ = expected_var_leg(i, unit)
            got, _ = expected_var_leg(i, scaled)
            assert got == pytest.approx(c * want, rel=1e-12)
        for method in ("series", "approx"):
            want = expected_cov_matrix(unit, method).entries
            got = expected_cov_matrix(scaled, method).entries
            np.testing.assert_allclose(got, c * want, rtol=1e-12, atol=0.0)

    def test_bad_index(self, base_params):
        with pytest.raises(ParameterError):
            expected_var_leg(3, base_params)


class TestDegenerateClosedForms:
    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    def test_series_reduces_to_deterministic(self, zero_params, pair):
        value, _ = expected_cov_series(pair, zero_params)
        assert value == pytest.approx(deterministic_entry(zero_params, *pair), abs=1e-10)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    def test_approx_reduces_to_deterministic(self, zero_params, pair):
        value, _ = expected_cov_approx(pair, zero_params)
        assert value == pytest.approx(deterministic_entry(zero_params, *pair), abs=1e-10)

    def test_routes_equal_in_deterministic_limit(self, zero_params):
        for pair in [(0, 1), (1, 2), (2, 0)]:
            s, _ = expected_cov_series(pair, zero_params)
            a, _ = expected_cov_approx(pair, zero_params)
            assert s == pytest.approx(a, abs=1e-12)


class TestSeriesRoute:
    def test_cross_route_agreement(self, base_params):
        for pair in [(0, 1), (1, 2), (2, 0)]:
            s, ds = expected_cov_series(pair, base_params)
            a, da = expected_cov_approx(pair, base_params)
            tol = max(0.02 * abs(a), 2 * (ds["quad_error"] + da["quad_error"]))
            assert abs(s - a) <= tol

    def test_symmetry_in_pair_order(self, base_params):
        for i, j in [(0, 1), (1, 2), (2, 0)]:
            v1, _ = expected_cov_series((i, j), base_params)
            v2, _ = expected_cov_series((j, i), base_params)
            assert v1 == v2

    def test_no_correlation_no_leverage_vanishes(self):
        params = make_params(gamma=np.eye(3))
        for pair in [(0, 1), (1, 2), (2, 0)]:
            value, _ = expected_cov_series(pair, params)
            assert value == 0.0
            value, _ = expected_cov_approx(pair, params)
            assert value == 0.0

    def test_monotone_in_brownian_correlation(self, base_params):
        values = []
        for g in (-0.5, 0.0, 0.5):
            gamma = np.eye(3)
            gamma[0, 1] = gamma[1, 0] = g
            params = make_params(rho=tuple(a.rho for a in base_params.assets), gamma=gamma)
            v, _ = expected_cov_series((0, 1), params)
            values.append(v)
        assert values[0] < values[1] < values[2]

    def test_tail_diagnostic_small_at_default_order(self, base_params):
        _, diag = expected_cov_series((0, 1), base_params)
        assert diag["series_tail"] < 1e-6

    def test_singular_configuration_pair12(self):
        # the leg products of tests/legs.py are singular at r2 = 0 and r3 = 1;
        # the engine is regular there: the (1, 2) entry at r2 = 0 is its limit
        at_zero, _ = expected_cov_series((1, 2), make_params(r2=0.0))
        near_zero, _ = expected_cov_series((1, 2), make_params(r2=1e-9))
        assert at_zero == pytest.approx(near_zero, rel=1e-9)
        # and it agrees with the delta route to that route's truncation bias
        for kwargs in ({"r2": 0.0}, {"r3": 1.0}, {"r2": 0.0, "r3": 1.0}):
            params = make_params(**kwargs)
            series, _ = expected_cov_series((1, 2), params)
            approx, _ = expected_cov_approx((1, 2), params)
            assert series == pytest.approx(approx, rel=1e-5)
        params = make_params(r2=0.0)
        ok_pairs = [(0, 1), (2, 0)]
        for pair in ok_pairs:  # the two-leg pairs stay well defined at r2 = 0
            expected_cov_series(pair, params)


class TestEngineEquivalence:
    """The stable multinomial regrouping must equal the factorized leg-product
    sums wherever the latter are well conditioned."""

    def test_two_leg_pairs_match_leg_products(self, base_params):
        import math as _math

        from gvswap.covariance import _PairSeriesEngine

        from .legs import series_leg_product

        p_max = 4
        for pair, r in (((0, 1), base_params.triple.r2), ((2, 0), base_params.triple.r3)):
            engine = _PairSeriesEngine(base_params, [pair], p_max, 1.0)
            s = _math.sqrt(1 - r * r)
            for t in (0.5, 2.0, 10.0):
                M = engine.product_moments(t)[0]
                lam = base_params.lam
                for p in range(p_max + 1):
                    total = sum(
                        _math.comb(p, u)
                        * r**u
                        * s ** (p - u)
                        * series_leg_product(base_params, pair, p, u, t)
                        for u in range(p + 1)
                    )
                    scaled = total * _math.exp(-2 * p * lam * t)
                    assert scaled == pytest.approx(M[p], rel=1e-9)

    def test_three_leg_pair_matches_leg_products(self, base_params):
        import math as _math

        from gvswap.covariance import _PairSeriesEngine

        from .legs import series_leg_product_12

        tr = base_params.triple
        ratio = tr.r3 / tr.r2
        s2 = _math.sqrt(1 - tr.r2**2)
        s3 = _math.sqrt(1 - tr.r3**2)
        p_max = 3
        engine = _PairSeriesEngine(base_params, [(1, 2)], p_max, 1.0)
        lam = base_params.lam
        for t in (0.5, 2.0):
            M = engine.product_moments(t)[0]
            for p in range(p_max + 1):
                total = 0.0
                for u in range(p + 1):
                    for v in range(u + 1):
                        for w in range(u - v + 1):
                            total += (
                                _math.comb(p, u)
                                * _math.comb(u, v)
                                * _math.comb(u - v, w)
                                * ratio ** (u - w)
                                * s2 ** (p - v - w)
                                * s3 ** (p - u + w)
                                * series_leg_product_12(base_params, p, u, v, w, t)
                            )
                scaled = total * _math.exp(-2 * p * lam * t)
                assert scaled == pytest.approx(M[p], rel=1e-7)


    @pytest.mark.parametrize(
        "spec, r2",
        [
            (None, None),
            (SubordinatorSpec(Family.INVERSE_GAUSSIAN, 0.0335, 670.0), None),
            (SubordinatorSpec(Family.ZERO), None),
            (None, 0.0),
        ],
        ids=["gamma", "ig", "zero", "r2=0"],
    )
    def test_factorized_engine_matches_multinomial_sums(self, spec, r2):
        from gvswap.covariance import _PairSeriesEngine

        from .legs import multinomial_product_moments

        overrides = {k: v for k, v in (("spec", spec), ("r2", r2)) if v is not None}
        params = make_params(**overrides)
        times = np.array([0.0, 0.5, 10.0, 252.0])
        for pair in [(0, 1), (1, 2), (2, 0)]:
            engine = _PairSeriesEngine(params, [pair], 8, 1.0)
            batch = engine.product_moments(times)[0]
            for k, t in enumerate(times):
                want = multinomial_product_moments(params, pair, 8, t)
                np.testing.assert_allclose(batch[:, k], want, rtol=1e-13, atol=0.0)
                # one node-vector call equals the stacked scalar calls
                assert np.array_equal(batch[:, k], engine.product_moments(t)[0])
        # a matrix's engine, one 4-column table for all pairs, equals the pairs' own
        shared = _PairSeriesEngine(params, [(0, 1), (1, 2), (2, 0)], 8, 1.0).product_moments(times)
        for k, pair in enumerate([(0, 1), (1, 2), (2, 0)]):
            assert np.array_equal(shared[k], _PairSeriesEngine(params, [pair], 8, 1.0).product_moments(times)[0])


class TestApproxRoute:
    def test_integrand_at_zero_is_initial_vol_product(self, base_params):
        m, v = _PairApproxEngine(base_params, (0, 1)).mean_and_variance(0.0)
        s0 = base_params.sigma0_sq
        assert m == pytest.approx(s0[0] * s0[1], rel=1e-14)
        assert v == pytest.approx(0.0, abs=1e-30)

    def test_product_mean_matches_series_first_moment(self, base_params):
        # the reference engine shares no code with the product-moment
        # engine for E[sigma_i^2 sigma_j^2]
        from gvswap.covariance import _PairSeriesEngine

        for pair in [(0, 1), (1, 2), (2, 0)]:
            engine = _PairSeriesEngine(base_params, [pair], 2, 1.0)
            for t in (0.5, 5.0, 50.0, 252.0):
                m_engine = engine.product_moments(t)[0, 1]
                m_direct, _ = _PairApproxEngine(base_params, pair).mean_and_variance(t)
                assert m_direct == pytest.approx(m_engine, rel=1e-11)

    def test_product_variance_matches_series_second_moment(self, base_params):
        from gvswap.covariance import _PairSeriesEngine

        for pair in [(0, 1), (1, 2), (2, 0)]:
            engine = _PairSeriesEngine(base_params, [pair], 2, 1.0)
            for t in (0.5, 5.0, 50.0, 252.0):
                m = engine.product_moments(t)[0]
                var_engine = m[2] - m[1] ** 2
                _, var_direct = _PairApproxEngine(base_params, pair).mean_and_variance(t)
                assert var_direct == pytest.approx(var_engine, rel=1e-9)

    def test_works_at_r2_zero(self):
        params = make_params(r2=0.0)
        value, _ = expected_cov_approx((1, 2), params)
        assert np.isfinite(value)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"spec": SubordinatorSpec(Family.INVERSE_GAUSSIAN, 0.0335, 670.0)},
            {"spec": SubordinatorSpec(Family.ZERO), "sigma0_sq": [float(s) ** 2 for s in refcase.SIGMA0]},
            {"r2": 0.0},
            {"spec": SubordinatorSpec(Family.GAMMA, 1.0, 2.0e4)},
        ],
        ids=["gamma", "ig", "zero", "r2-zero", "gamma-shape-1"],
    )
    def test_integrand_is_delta_expansion(self, monkeypatch, overrides, pair):
        # the order-2 series about the exact mean is sqrt(m) - v / (8 m^1.5)
        import gvswap.covariance as covariance

        params = make_params(**overrides)
        real, seen = covariance.adaptive_simpson, []

        def capture(f, *args):
            def record(t):
                values = f(t)
                seen.append((t, values[0]))
                return values

            return real(record, *args)

        monkeypatch.setattr(covariance, "adaptive_simpson", capture)
        expected_cov_approx(pair, params)
        (t, got), = seen
        got = got * covariance._variance_unit(params)  # the engine works in that unit
        m, v = _PairApproxEngine(params, pair).mean_and_variance(t)
        # zero drivers have m = 0 at t = inf, where the route returns sqrt(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(m > 0.0, np.sqrt(m) - v / (8.0 * m**1.5), np.sqrt(m))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("route", [
    expected_cov_series,
    expected_cov_approx,
    lambda pair, params: expected_cov_matrix(params, "series"),
    lambda pair, params: expected_cov_matrix(params, "approx"),
], ids=["expected_cov_series", "expected_cov_approx", "matrix-series", "matrix-approx"])
@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_negative_product_mean_raises(monkeypatch, base_params, route):
    from gvswap.covariance import _PairSeriesEngine

    real = _PairSeriesEngine.product_moments

    def negated_mean(self, t):
        M = real(self, t)
        M[:, 1] = -M[:, 1]
        return M

    monkeypatch.setattr(_PairSeriesEngine, "product_moments", negated_mean)
    # sqrt of the negative mean is NaN, which fails the quadrature rule's check
    with pytest.raises(NumericalError, match="quadrature error nan"):
        route((0, 1), base_params)


@pytest.fixture(scope="module")
def ig_params():
    # kappa_1 = a/b = 5e-5 at a fluctuation scale comparable to the gamma
    # base fixture
    spec = SubordinatorSpec(Family.INVERSE_GAUSSIAN, 0.0335, 670.0)
    return make_params(spec=spec, rho=(0.0, 0.0, 0.0))


class TestInverseGaussianDrivers:
    """Pipeline-level coverage of the second driver family."""

    def test_cross_route_agreement(self, ig_params):
        for pair in [(0, 1), (1, 2), (2, 0)]:
            s, _ = expected_cov_series(pair, ig_params)
            a, _ = expected_cov_approx(pair, ig_params)
            assert s == pytest.approx(a, rel=0.02)

    def test_simulation_smoke(self, ig_params):
        from gvswap import SimulationConfig, mc_expected_cov

        config = SimulationConfig(n_paths=2000, n_steps=504, seed=53)
        mc = mc_expected_cov(ig_params, config)
        stderr = np.array(mc.diagnostics["stderr"])
        analytic = expected_cov_matrix(ig_params, "approx")
        z = np.abs(analytic.entries - mc.entries) / stderr
        assert z.max() < 5.0


class TestMatrixAssembly:
    def test_zero_driver_matrix_diagonal(self):
        params = make_params(
            spec=SubordinatorSpec(Family.ZERO),
            gamma=np.eye(3),
            sigma0_sq=[1e-4, 2e-4, 3e-4],
        )
        m = expected_cov_matrix(params, "series")
        want = np.diag([deterministic_entry(params, i, i) for i in range(3)])
        assert np.allclose(m.entries, want, atol=1e-12)

    def test_series_vs_approx_entrywise(self, base_params):
        ms = expected_cov_matrix(base_params, "series")
        ma = expected_cov_matrix(base_params, "approx")
        rel = np.abs(ms.entries - ma.entries) / np.abs(ma.entries)
        assert rel.max() < 0.02

    def test_symmetric_and_diagnostics_populated(self, base_params):
        m = expected_cov_matrix(base_params, "approx")
        assert np.array_equal(m.entries, m.entries.T)
        assert set(m.diagnostics) == {"00", "11", "22", "01", "12", "02"}

    def test_json_round_trip(self, base_params):
        from gvswap import ExpectedCovMatrix

        m = expected_cov_matrix(base_params, "approx")
        d = m.to_json_dict()
        assert len(d["entries"]) == 9
        back = ExpectedCovMatrix.from_json_dict(d)
        assert np.allclose(back.entries, m.entries)
        assert back.method == "approx"

    def test_unknown_method_rejected(self, base_params):
        with pytest.raises(ParameterError):
            expected_cov_matrix(base_params, "mc")

    def test_asymmetric_entries_rejected(self):
        from gvswap import ExpectedCovMatrix

        bad = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ParameterError):
            ExpectedCovMatrix(entries=bad, method="fixture", diagnostics={})


def _high_gamma_params():
    """Gamma shape 25 with every variance at 4x its long-run level."""
    spec = SubordinatorSpec(Family.GAMMA, 25.0, 25.0 / 5e-5)
    levels = [make_params(spec=spec).triple.derived_cumulant(i + 1, 1) for i in range(3)]
    return make_params(spec=spec, sigma0_sq=[4.0 * level for level in levels])


class TestOneQuadratureRunPerMatrix:
    """The three off-diagonals of a matrix share one call of the quadrature
    rule, one integrand call on its 16 nodes and one moment table."""

    @pytest.mark.parametrize("method", ["series", "approx"])
    @pytest.mark.parametrize("case", ["base", "high-gamma"])
    def test_counts(self, monkeypatch, base_params, case, method):
        import gvswap.covariance as covariance

        params = base_params if case == "base" else _high_gamma_params()
        calls = {"quadrature": 0, "integrand": 0, "tables": 0, "nodes": 0}
        rule, table = covariance.adaptive_simpson, covariance.scaled_moment_table

        def counted_rule(f, *args, **kwargs):
            calls["quadrature"] += 1

            def counted_f(t):
                calls["integrand"] += 1
                calls["nodes"] += t.size
                return f(t)

            return rule(counted_f, *args, **kwargs)

        def counted_table(*args, **kwargs):
            calls["tables"] += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(covariance, "adaptive_simpson", counted_rule)
        monkeypatch.setattr(covariance, "scaled_moment_table", counted_table)
        matrix = expected_cov_matrix(params, method)
        # the series tail reads the same table as the value
        assert calls == {"quadrature": 1, "integrand": 1, "tables": 1, "nodes": 16}
        for key in ("01", "12", "02"):
            assert matrix.diagnostics[key]["evals"] == 16

    def test_pairs_alone_take_the_matrix_nodes(self):
        params = _high_gamma_params()
        matrix = expected_cov_matrix(params, "series")
        for pair in [(0, 1), (1, 2), (2, 0)]:
            value, diag = expected_cov_series(pair, params)
            assert diag["evals"] == 16
            assert value == pytest.approx(matrix.entries[pair], rel=1e-15)


def _rescaled_params(c):
    """The gamma fixture of test_units_invariance at variance scale c."""
    spec = SubordinatorSpec(Family.GAMMA, 100.0, 2.0e6 / c)
    return make_params(
        spec=spec,
        sigma0_sq=[4.0 * 5e-5 * c, 5e-5 * c, 0.25 * 5e-5 * c],
        rho=tuple(-r / math.sqrt(c) for r in (0.8, 0.5, 0.6)),
    )


class TestMatrixAccuracy:
    @pytest.mark.parametrize("method", ["series", "approx"])
    @pytest.mark.parametrize("case", ["base", "ig", "zero", "rescaled-1e-4", "high-gamma"])
    def test_no_less_accurate_than_the_pairs_alone(self, request, case, method):
        # the matrix and the pairs alone integrate on the same 16 nodes; both
        # agree with a 64-point Gauss-Legendre rule in u
        params = {
            "base": lambda: request.getfixturevalue("base_params"),
            "ig": lambda: request.getfixturevalue("ig_params"),
            "zero": lambda: request.getfixturevalue("zero_params"),
            "rescaled-1e-4": lambda: _rescaled_params(1e-4),
            "high-gamma": _high_gamma_params,
        }[case]()
        route = expected_cov_series if method == "series" else expected_cov_approx
        reference = reference_offdiagonals(params, method)
        matrix = expected_cov_matrix(params, method).entries
        pair_error = max(abs(route(pair, params)[0] / want - 1.0) for pair, want in reference.items())
        matrix_error = max(abs(matrix[pair] / want - 1.0) for pair, want in reference.items())
        assert max(pair_error, matrix_error) <= 1e-11

    @pytest.mark.parametrize("route, want, before", [
        (expected_cov_series,
         (-1.184402840627545e-06, -5.578112688841663e-06, -1.627626024771321e-06),
         (-1.1844028971460707e-06, -5.5781129052131894e-06, -1.627626066002854e-06)),
        (expected_cov_approx,
         (-1.184395150218671e-06, -5.578097109033867e-06, -1.6276117233810807e-06),
         (-1.1843952100717732e-06, -5.578097332082723e-06, -1.6276117709419547e-06)),
    ], ids=["series", "approx"])
    def test_pair_routes_keep_their_values(self, base_params, route, want, before):
        # values of the per-pair routes on the base fixture under the 7/15
        # rule in u; the adaptive Simpson rule in t before it gave `before`,
        # within its 1e-10 T absolute tolerance
        got = tuple(route(pair, base_params)[0] for pair in [(0, 1), (1, 2), (2, 0)])
        assert got == want
        np.testing.assert_allclose(got, before, rtol=1e-7, atol=0.0)
