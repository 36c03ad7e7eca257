import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvswap import (
    CorrelatedTriple,
    DegenerateLawError,
    DomainError,
    Family,
    ParameterError,
    SubordinatorSpec,
)

from .oracles import derivative_at_zero

GAMMA_11 = SubordinatorSpec(Family.GAMMA, 1.0, 1.0)
ZERO = SubordinatorSpec(Family.ZERO)


class TestCumulants:
    def test_gamma_unit_exponential_mean(self):
        assert GAMMA_11.cumulant(1) == 1.0

    def test_gamma_second_cumulant_matches_cgf_curvature(self):
        spec = SubordinatorSpec(Family.GAMMA, 2.0, 4.0)
        # independent check: second derivative of the CGF at zero
        oracle = derivative_at_zero(lambda th: spec.cgf(th), 2, 1e-2)
        assert spec.cumulant(2) == pytest.approx(0.125, abs=1e-12)
        assert spec.cumulant(2) == pytest.approx(oracle, abs=1e-9)

    def test_zero_family_all_cumulants_vanish(self):
        for n in range(1, 5):
            assert ZERO.cumulant(n) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [SubordinatorSpec(Family.GAMMA, 2.0, 3.0), SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.5, 2.0), ZERO],
        ids=["gamma", "ig", "zero"],
    )
    @pytest.mark.parametrize("c, power_of_4", [(4.0**-20, True), (4.0**20, True), (1e-7, False), (3.0, False)])
    def test_scaled_law_scales_every_cumulant(self, spec, c, power_of_4):
        # c Z has kappa_n(c Z) = c^n kappa_n(Z); by a power of 4 the scaling is exact
        scaled = spec.scaled(c)
        assert scaled.family is spec.family
        for n in range(1, 17):
            want = c**n * spec.cumulant(n)
            if power_of_4:
                assert scaled.cumulant(n) == want
            else:
                assert scaled.cumulant(n) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "spec",
        [
            SubordinatorSpec(Family.GAMMA, 2.0, 3.0),
            SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.5, 2.0),
        ],
    )
    def test_cgf_derivatives_pin_all_four_cumulants(self, spec):
        scale = spec.cumulant(1)
        for n in range(1, 5):
            h = 0.02 / scale if n < 3 else 0.03 / scale
            oracle = derivative_at_zero(lambda th: spec.cgf(th), n, h)
            assert spec.cumulant(n) == pytest.approx(oracle, rel=1e-5, abs=1e-12)

    def test_cumulants_nonnegative(self):
        for spec in (GAMMA_11, SubordinatorSpec(Family.INVERSE_GAUSSIAN, 0.7, 1.3), ZERO):
            for n in range(1, 5):
                assert spec.cumulant(n) >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SubordinatorSpec(Family.GAMMA, -1.0, 1.0)
        with pytest.raises(ParameterError):
            SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 0.0)
        with pytest.raises(ParameterError):
            SubordinatorSpec(Family.ZERO, 1.0, 1.0)


class TestCgf:
    def test_normalization_at_zero(self):
        assert GAMMA_11.cgf(0.0) == 0.0
        assert ZERO.cgf(5.0) == 0.0

    def test_gamma_log_ratio(self):
        spec = SubordinatorSpec(Family.GAMMA, 1.0, 2.0)
        assert spec.cgf(1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_gamma_value_matches_sampled_mgf(self):
        spec = SubordinatorSpec(Family.GAMMA, 1.0, 2.0)
        rng = np.random.default_rng(41)
        draws = spec.sample_increments(1.0, rng, 1_000_000)
        sample = np.exp(1.0 * draws)
        est = math.log(sample.mean())
        stderr = sample.std(ddof=1) / math.sqrt(len(sample)) / sample.mean()
        assert abs(est - spec.cgf(1.0)) < 4 * stderr

    def test_domain_error_names_bound(self):
        spec = SubordinatorSpec(Family.GAMMA, 1.0, 2.0)
        with pytest.raises(DomainError, match="2"):
            spec.cgf(2.0)
        ig = SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 2.0)
        with pytest.raises(DomainError):
            ig.cgf(2.1)

    def test_central_difference_curvature_grid(self):
        # |d2/dtheta2 cgf at 0 - kappa_2| < 1e-6 with step 1e-4
        for spec in (GAMMA_11, SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 1.5)):
            h = 1e-4
            num = (spec.cgf(h) - 2.0 * spec.cgf(0.0) + spec.cgf(-h)) / h**2
            assert abs(num - spec.cumulant(2)) < 1e-6


class TestSampling:
    def test_zero_family_samples_zero(self):
        rng = np.random.default_rng(0)
        assert ZERO.sample_increments(1.0, rng) == 0.0
        assert np.all(ZERO.sample_increments(0.5, rng, 7) == 0.0)

    @pytest.mark.parametrize(
        "spec,dt",
        [
            (GAMMA_11, 1.0),
            (SubordinatorSpec(Family.GAMMA, 2.0, 1.0), 0.5),
            (SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 1.0), 1.0),
            (SubordinatorSpec(Family.INVERSE_GAUSSIAN, 2.0, 1.5), 0.25),
        ],
    )
    def test_increment_mean_and_variance(self, spec, dt):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        draws = spec.sample_increments(dt, rng, n)
        assert np.all(draws >= 0.0)
        mean_se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - spec.cumulant(1) * dt) < 4 * mean_se
        var = draws.var(ddof=1)
        var_se = np.abs(draws - draws.mean()).var(ddof=1) ** 0.5  # rough scale
        var_se = ((draws - draws.mean()) ** 2).std(ddof=1) / math.sqrt(n)
        assert abs(var - spec.cumulant(2) * dt) < 4 * var_se

    def test_nonpositive_dt_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            GAMMA_11.sample_increments(0.0, rng)


class TestCorrelatedTriple:
    def test_full_correlation_passes_base_through(self):
        tr = CorrelatedTriple(1.0, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        dz2, _ = tr.correlated_increments(2.0, 5.0, 1.0)
        assert dz2 == pytest.approx(2.0)

    def test_independence_passes_component_through(self):
        tr = CorrelatedTriple(0.0, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        dz2, _ = tr.correlated_increments(2.0, 5.0, 1.0)
        assert dz2 == pytest.approx(5.0)

    def test_sampled_covariance_identity(self):
        # Cov(Z1_1, Z2_1) = r2 Var(Z1_1)
        r2 = 0.2319
        tr = CorrelatedTriple(r2, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        rng = np.random.default_rng(99)
        n = 1_000_000
        dz1 = GAMMA_11.sample_increments(1.0, rng, n)
        dzs = GAMMA_11.sample_increments(1.0, rng, n)
        dzss = GAMMA_11.sample_increments(1.0, rng, n)
        dz2, _ = tr.correlated_increments(dz1, dzs, dzss)
        prod = (dz1 - dz1.mean()) * (dz2 - dz2.mean())
        cov = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(cov - r2 * dz1.var(ddof=1)) < 3 * se

    @given(
        r2=st.floats(0.0, 1.0),
        r3=st.floats(0.0, 1.0),
        dz=st.tuples(
            st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_outputs_nonnegative_and_linear(self, r2, r3, dz):
        tr = CorrelatedTriple(r2, r3, GAMMA_11, GAMMA_11, GAMMA_11)
        dz2, dz3 = tr.correlated_increments(*dz)
        assert dz2 >= 0.0 and dz3 >= 0.0
        dz2_scaled, dz3_scaled = tr.correlated_increments(*(2.0 * x for x in dz))
        assert dz2_scaled == pytest.approx(2.0 * dz2, rel=1e-12)
        assert dz3_scaled == pytest.approx(2.0 * dz3, rel=1e-12)

    def test_mixing_levels_validated(self):
        with pytest.raises(ParameterError):
            CorrelatedTriple(1.2, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        with pytest.raises(ParameterError):
            CorrelatedTriple(0.5, -0.1, GAMMA_11, GAMMA_11, GAMMA_11)

    def test_derived_cumulants_combine_components(self):
        tr = CorrelatedTriple(0.3, 0.7, GAMMA_11, SubordinatorSpec(Family.GAMMA, 2.0, 3.0), ZERO)
        for n in range(1, 5):
            expected = 0.3**n * GAMMA_11.cumulant(n) + (1 - 0.09) ** (n / 2) * SubordinatorSpec(
                Family.GAMMA, 2.0, 3.0
            ).cumulant(n)
            assert tr.derived_cumulant(2, n) == pytest.approx(expected, rel=1e-14)
            assert tr.derived_cumulant(3, n) == pytest.approx(
                0.7**n * GAMMA_11.cumulant(n), rel=1e-14
            )

    def test_derived_cgf_consistent_with_derived_cumulants(self):
        tr = CorrelatedTriple(
            0.4, 0.6, GAMMA_11, SubordinatorSpec(Family.GAMMA, 2.0, 3.0),
            SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.0, 2.0),
        )
        for which in (2, 3):
            assert tr.derived_cgf(which, 0.0) == 0.0
            for n in (1, 2):
                h = 0.01
                got = derivative_at_zero(lambda th: tr.derived_cgf(which, th), n, h)
                assert got == pytest.approx(tr.derived_cumulant(which, n), rel=1e-7)

    def test_derived_cgf_base_passthrough(self):
        tr = CorrelatedTriple(0.4, 0.6, GAMMA_11, GAMMA_11, GAMMA_11)
        assert tr.derived_cgf(1, 0.3) == GAMMA_11.cgf(0.3)


class TestStationaryVolCorrelations:
    def test_identical_processes_fully_correlated(self):
        tr = CorrelatedTriple(1.0, 1.0, GAMMA_11, ZERO, ZERO)
        assert tr.stationary_vol_correlations() == pytest.approx((1.0, 1.0, 1.0))

    def test_independent_base_decorrelates(self):
        tr = CorrelatedTriple(0.0, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        rho12, _, rho23 = tr.stationary_vol_correlations()
        assert rho12 == 0.0
        assert rho23 == 0.0

    def test_values_in_unit_interval(self):
        tr = CorrelatedTriple(0.5, 0.5, GAMMA_11, GAMMA_11, GAMMA_11)
        for rho in tr.stationary_vol_correlations():
            assert 0.0 <= rho <= 1.0

    @given(
        r2=st.floats(0.05, 1.0),
        r3=st.floats(0.05, 1.0),
        bump=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_mixing_levels(self, r2, r3, bump):
        def corr(r2_, r3_):
            tr = CorrelatedTriple(r2_, r3_, GAMMA_11, GAMMA_11, GAMMA_11)
            return tr.stationary_vol_correlations()

        base = corr(r2, r3)
        up2 = corr(min(r2 + bump, 1.0), r3)
        up3 = corr(r2, min(r3 + bump, 1.0))
        assert up2[0] >= base[0] - 1e-12
        assert up2[2] >= base[2] - 1e-12
        assert up3[1] >= base[1] - 1e-12
        assert up3[2] >= base[2] - 1e-12

    def test_degenerate_derived_law_rejected(self):
        tr = CorrelatedTriple(0.0, 0.5, GAMMA_11, ZERO, GAMMA_11)
        with pytest.raises(DegenerateLawError):
            tr.stationary_vol_correlations()


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [GAMMA_11, SubordinatorSpec(Family.INVERSE_GAUSSIAN, 1.5, 2.5), ZERO],
    )
    def test_round_trip(self, spec):
        assert SubordinatorSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_json_shape(self):
        d = GAMMA_11.to_json_dict()
        assert d == {"family": "gamma", "a": 1.0, "b": 1.0}
        assert ZERO.to_json_dict() == {"family": "zero"}
