import math

import numpy as np
import pytest

from gvswap import (
    Family,
    ParameterError,
    SubordinatorSpec,
)
from gvswap.moments import raw_moments_from_cumulants, scaled_moment_table

from .conftest import make_params
from .legs import SingularConfigurationError, series_leg_product, series_leg_product_12, shifted_moment
from .oracles import (
    mean_with_stderr,
    moments_from_mgf,
    sample_exp_integral,
    shifted_exp_integral_mgf,
)

GAMMA_11 = SubordinatorSpec(Family.GAMMA, 1.0, 1.0)
ZERO = SubordinatorSpec(Family.ZERO)


class TestRawMomentConversion:
    def test_standard_normal_moments(self):
        # cumulants (0, 1, 0, 0, 0, 0) -> moments 1, 0, 1, 0, 3, 0, 15 (wait: order 6)
        m = raw_moments_from_cumulants([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.allclose(m, [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0])

    def test_poisson_moments(self):
        # Poisson(mu): all cumulants mu; E X = mu, E X^2 = mu + mu^2, Bell numbers at mu=1
        m = raw_moments_from_cumulants([1.0] * 5)
        assert np.allclose(m, [1.0, 1.0, 2.0, 5.0, 15.0, 52.0])

    def test_exponential_moments(self):
        # Gamma(1,1) cumulants (n-1)! -> moments n!
        cums = [math.factorial(n - 1) for n in range(1, 7)]
        m = raw_moments_from_cumulants(cums)
        assert np.allclose(m, [math.factorial(n) for n in range(7)])


class TestExpIntegralMoment:
    def test_zero_time_vanishes(self):
        assert shifted_moment(0.0, GAMMA_11, 0.4, 0.0, 3) == 0.0

    def test_first_moment_closed_form(self):
        # E[Y] = kappa_1 (e^(lam t) - 1)
        got = shifted_moment(0.0, GAMMA_11, 0.4, 1.0, 1)
        assert got == pytest.approx(math.exp(0.4) - 1.0, rel=1e-14)

    def test_order_validation(self):
        for bad in (0, 5, 1.5):
            with pytest.raises(ParameterError):
                shifted_moment(0.0, GAMMA_11, 0.4, 1.0, bad)

    def test_nondecreasing_in_time(self):
        for order in range(1, 5):
            values = [shifted_moment(0.0, GAMMA_11, 0.4, t, order) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_jensen_inequalities(self):
        for spec in (GAMMA_11, SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 1.0)):
            for lam, t in ((0.2, 1.0), (0.4, 2.0), (0.8, 0.5)):
                m1 = shifted_moment(0.0, spec, lam, t, 1)
                m2 = shifted_moment(0.0, spec, lam, t, 2)
                m4 = shifted_moment(0.0, spec, lam, t, 4)
                assert m2 >= m1 * m1 - 1e-15
                assert m4 >= m2 * m2 - 1e-15

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_path_simulation_oracle(self, order):
        lam, t = 0.4, 1.0
        rng = np.random.default_rng(1234)
        draws = sample_exp_integral(
            lambda ds, r, n: GAMMA_11.sample_increments(ds, r, n), lam, t, 2000, 60_000, rng
        )
        est, se = mean_with_stderr(draws**order)
        got = shifted_moment(0.0, GAMMA_11, lam, t, order)
        # left-endpoint grid bias ~ order * kappa-scale * ds; widen by it
        bias_allowance = got * order * (lam * t / 2000) * 2
        assert abs(got - est) < 4 * se + bias_allowance


class TestShiftedMoment:
    def test_deterministic_square(self):
        assert shifted_moment(0.05, ZERO, 0.4, 3.0, 2) == pytest.approx(0.0025, rel=1e-14)

    def test_binomial_shift_identity(self):
        alpha, lam, t = 1.0, 0.4, 1.0
        y1 = shifted_moment(0.0, GAMMA_11, lam, t, 1)
        y2 = shifted_moment(0.0, GAMMA_11, lam, t, 2)
        expected = 1.0 + 2.0 * y1 + y2
        assert shifted_moment(alpha, GAMMA_11, lam, t, 2) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "spec,alpha,lam,t",
        [
            (GAMMA_11, 1.0, 0.4, 1.0),
            (GAMMA_11, 0.3, 0.2, 2.0),
            (SubordinatorSpec(Family.GAMMA, 2.0, 3.0), 0.5, 0.5, 1.5),
            (SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 2.0), 0.2, 0.4, 1.0),
        ],
    )
    def test_generating_function_cross_check(self, spec, alpha, lam, t):
        # independent route: quadrature of the driver's CGF, then numerical
        # differentiation of the resulting moment generating function
        mgf = shifted_exp_integral_mgf(alpha, lambda th: spec.cgf(th), lam, t)
        scale = alpha + spec.cumulant(1) * (math.exp(lam * t) - 1.0) + 1e-12
        h = 0.01 / scale
        oracle = moments_from_mgf(mgf, range(1, 5), h)
        for order, want in zip(range(1, 5), oracle):
            got = shifted_moment(alpha, spec, lam, t, order)
            assert got == pytest.approx(want, rel=1e-4)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            shifted_moment(0.0, GAMMA_11, 0.4, -1.0, 2)


class TestScaledMomentTable:
    def test_matches_public_moments(self):
        lam, t, alpha = 0.4, 1.5, 0.7
        table = scaled_moment_table(GAMMA_11.cumulant_sequence(4), alpha, lam, t, 4)
        for order in range(1, 5):
            unscaled = table[order] * math.exp(order * lam * t)
            assert unscaled == pytest.approx(
                shifted_moment(alpha, GAMMA_11, lam, t, order), rel=1e-12
            )

    def test_bounded_at_long_horizon(self):
        table = scaled_moment_table(GAMMA_11.cumulant_sequence(16), 1.0, 0.4, 252.0, 16)
        assert np.all(np.isfinite(table))
        # converges to the stationary moments, which dominate kappa_n / n
        assert table[1] == pytest.approx(1.0, rel=1e-10)  # kappa_1(1 - 0)/1 with shift decayed


class TestSeriesLegProducts:
    def test_zeroth_orders_are_one(self, base_params):
        assert series_leg_product(base_params, (0, 1), 0, 0, 1.0) == pytest.approx(1.0)
        assert series_leg_product_12(base_params, 0, 0, 0, 0, 1.0) == pytest.approx(1.0)

    def test_exponent_bookkeeping_p1_u1(self, base_params):
        # second leg power p - u = 0 leaves only the first leg's square
        t = 2.0
        got = series_leg_product(base_params, (0, 1), 1, 1, t)
        sh = base_params.assets[0].sigma0_sq
        want = shifted_moment(sh, base_params.triple.z1, base_params.lam, t, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_invalid_exponents_rejected(self, base_params):
        with pytest.raises(ParameterError):
            series_leg_product(base_params, (0, 1), 1, 2, 1.0)
        with pytest.raises(ParameterError):
            series_leg_product_12(base_params, 2, 1, 0, 2, 1.0)
        with pytest.raises(ParameterError):
            series_leg_product(base_params, (0, 0), 1, 0, 1.0)

    def test_zero_drivers_give_deterministic_powers(self):
        params = make_params(
            spec=SubordinatorSpec(Family.ZERO),
            sigma0_sq=[4e-4, 9e-4, 1e-4],
        )
        lam, t = params.lam, 3.0
        decay = math.exp(-lam * t)
        s0 = params.assets[0].sigma0_sq
        s1 = params.assets[1].sigma0_sq
        r2 = params.triple.r2
        shift2 = (s1 - r2 * s0) / math.sqrt(1 - r2**2)
        got = series_leg_product(params, (0, 1), 2, 1, t)
        want = s0**3 * shift2**1
        assert got == pytest.approx(want, rel=1e-12)

    def test_sampling_oracle_p2_u1(self, base_params_no_leverage):
        # E[B1^3] E[B2^1] against direct simulation of both legs
        params = base_params_no_leverage
        lam, t = params.lam, 1.0
        tr = params.triple
        rng = np.random.default_rng(77)
        n = 120_000
        y1 = sample_exp_integral(
            lambda ds, r, m: tr.z1.sample_increments(ds, r, m), lam, t, 1200, n, rng
        )
        ystar = sample_exp_integral(
            lambda ds, r, m: tr.z_star.sample_increments(ds, r, m), lam, t, 1200, n, rng
        )
        s0 = params.assets[0].sigma0_sq
        shift2 = (params.assets[1].sigma0_sq - tr.r2 * s0) / math.sqrt(1 - tr.r2**2)
        leg1 = (s0 + y1) ** 3
        leg2 = shift2 + ystar
        est1, se1 = mean_with_stderr(leg1)
        est2, se2 = mean_with_stderr(leg2)
        got = series_leg_product(params, (0, 1), 2, 1, t)
        est = est1 * est2
        se = abs(est1) * se2 + abs(est2) * se1 + (est1 * est2) * 5e-3  # grid-bias allowance
        assert abs(got - est) < 4 * se

    def test_pair12_sampling_oracle(self, base_params_no_leverage):
        params = base_params_no_leverage
        lam, t = params.lam, 1.0
        tr = params.triple
        rng = np.random.default_rng(78)
        n = 120_000
        p, u, v, w = 2, 1, 0, 1
        y1 = sample_exp_integral(
            lambda ds, r, m: tr.z1.sample_increments(ds, r, m), lam, t, 1200, n, rng
        )
        ystar = sample_exp_integral(
            lambda ds, r, m: tr.z_star.sample_increments(ds, r, m), lam, t, 1200, n, rng
        )
        ystarstar = sample_exp_integral(
            lambda ds, r, m: tr.z_star_star.sample_increments(ds, r, m), lam, t, 1200, n, rng
        )
        s1 = params.assets[1].sigma0_sq
        s2 = params.assets[2].sigma0_sq
        c = s2 - (tr.r3 / tr.r2) * s1
        f = (s1 + tr.r2 * y1) ** (u + v)
        gbar = (c / math.sqrt(1 - tr.r3**2) + ystarstar) ** (p - u + w)
        gstar = ystar ** (p - v - w)
        est = f.mean() * gbar.mean() * gstar.mean()
        got = series_leg_product_12(params, p, u, v, w, t)
        assert got == pytest.approx(est, rel=0.02)

    def test_singular_configurations(self):
        params_r2_zero = make_params(r2=0.0)
        with pytest.raises(SingularConfigurationError):
            series_leg_product_12(params_r2_zero, 1, 0, 0, 0, 1.0)
        params_r3_one = make_params(r3=1.0)
        with pytest.raises(SingularConfigurationError):
            series_leg_product_12(params_r3_one, 1, 0, 0, 0, 1.0)

    def test_pair12_zero_drivers_deterministic_shifts(self):
        params = make_params(
            spec=SubordinatorSpec(Family.ZERO), sigma0_sq=[4e-4, 9e-4, 1e-4]
        )
        tr = params.triple
        s1 = params.assets[1].sigma0_sq
        s2 = params.assets[2].sigma0_sq
        p, u, v, w = 2, 1, 0, 1
        shift_f = s1 / tr.r2
        shift_g = (s2 - (tr.r3 / tr.r2) * s1) / math.sqrt(1 - tr.r3**2)
        want = tr.r2 ** (u + v) * shift_f ** (u + v) * shift_g ** (p - u + w) * 0.0 ** (p - v - w)
        got = series_leg_product_12(params, p, u, v, w, 2.0)
        assert got == pytest.approx(want, rel=1e-12)
        # all-exponents-zero always gives one
        assert series_leg_product_12(params, 0, 0, 0, 0, 2.0) == 1.0
