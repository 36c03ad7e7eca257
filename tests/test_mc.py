import math
import os

import numpy as np
import pytest

from gvswap import (
    Family,
    ParameterError,
    SimulationConfig,
    SubordinatorSpec,
    SwapContract,
    SwapKind,
    expected_cov_matrix,
    mc,
    mc_expected_cov,
    refcase,
    simulate,
)

from .conftest import make_params
from .oracles import ReferenceConfig, mc_price, simulate_reference


def zero_model(sigma0_sq=(0.0, 0.0, 0.0), rho=(0.0, 0.0, 0.0)):
    return make_params(
        spec=SubordinatorSpec(Family.ZERO), sigma0_sq=list(sigma0_sq), rho=rho
    )


class TestZeroModel:
    def test_all_zero_initial_variance(self):
        params = zero_model()
        bundle = simulate(params, SimulationConfig(n_paths=4, n_steps=64, seed=1))
        assert np.all(bundle.realized == 0.0)
        assert np.all(bundle.sigma_sq_terminal == 0.0)

    def test_deterministic_decay_matches_grid_sum(self):
        params = zero_model(sigma0_sq=(1e-4, 2e-4, 3e-4))
        n_steps = 128
        config = SimulationConfig(n_paths=2, n_steps=n_steps, seed=1)
        bundle = simulate(params, config)
        lam, T = params.lam, params.horizon
        dt = T / n_steps
        ts = dt * np.arange(n_steps)
        for i in range(3):
            want = params.assets[i].sigma0_sq * np.exp(-lam * ts).sum() * dt / T
            assert bundle.realized[0, i, i] == pytest.approx(want, rel=1e-12)
        # all paths identical: no randomness enters the accumulators
        assert np.array_equal(bundle.realized[0], bundle.realized[1])

    def test_grid_sum_approaches_closed_form(self):
        params = zero_model(sigma0_sq=(1e-4, 2e-4, 3e-4))
        lam, T = params.lam, params.horizon
        closed = np.array(
            [a.sigma0_sq * (1 - math.exp(-lam * T)) / (lam * T) for a in params.assets]
        )
        errors = []
        for n_steps in (252, 504):
            bundle = simulate(params, SimulationConfig(n_paths=1, n_steps=n_steps, seed=1))
            errors.append(np.abs(np.diag(bundle.realized[0]) - closed).max())
        assert errors[1] < 0.6 * errors[0]  # first-order grid bias halves


class TestReproducibility:
    def test_bitwise_deterministic(self, base_params):
        config = SimulationConfig(n_paths=8, n_steps=128, seed=42)
        b1 = simulate(base_params, config)
        b2 = simulate(base_params, config)
        assert np.array_equal(b1.realized, b2.realized)
        assert np.array_equal(b1.sigma_sq_terminal, b2.sigma_sq_terminal)
        assert np.array_equal(b1.jump_square_sum, b2.jump_square_sum)

    def test_partition_independent(self, base_params):
        c_small = SimulationConfig(n_paths=3, n_steps=64, seed=9)
        c_large = SimulationConfig(n_paths=7, n_steps=64, seed=9)
        b_small = simulate(base_params, c_small)
        b_large = simulate(base_params, c_large)
        assert np.array_equal(b_small.realized, b_large.realized[:3])
        assert np.array_equal(b_small.sigma_sq_terminal, b_large.sigma_sq_terminal[:3])
        assert np.array_equal(b_small.jump_square_sum, b_large.jump_square_sum[:3])

    def test_seed_changes_results(self, base_params):
        b1 = simulate(base_params, SimulationConfig(n_paths=4, n_steps=64, seed=1))
        b2 = simulate(base_params, SimulationConfig(n_paths=4, n_steps=64, seed=2))
        assert not np.array_equal(b1.realized, b2.realized)


class TestPathProperties:
    def test_variance_nonnegative_everywhere(self, base_params):
        config = ReferenceConfig(n_paths=16, n_steps=256, seed=5, keep_paths=True)
        bundle = simulate_reference(base_params, config)
        assert np.all(bundle.trajectories["sigma_sq"] >= 0.0)
        assert np.all(bundle.realized[:, [0, 1, 2], [0, 1, 2]] >= 0.0)

    def test_increments_stored_under_keep_paths(self, base_params):
        config = ReferenceConfig(n_paths=2, n_steps=32, seed=5, keep_paths=True)
        bundle = simulate_reference(base_params, config)
        assert bundle.trajectories["increments"].shape == (2, 32, 3)
        assert np.all(bundle.trajectories["increments"] >= 0.0)
        assert bundle.trajectories["log_price"].shape == (2, 33, 3)

    def test_martingale_sanity_no_leverage_no_jumps(self):
        # with rho = 0 and zero drivers: E[X_T] = (r - sigma^2(t)/2 averaged) T
        params = zero_model(sigma0_sq=(1e-4, 2e-4, 3e-4))
        n_steps = 252
        config = ReferenceConfig(n_paths=4000, n_steps=n_steps, seed=11)
        bundle = simulate_reference(params, config)
        lam, T = params.lam, params.horizon
        dt = T / n_steps
        ts = dt * np.arange(n_steps)
        for i in range(3):
            sig_grid = params.assets[i].sigma0_sq * np.exp(-lam * ts)
            want = params.rate * T - 0.5 * sig_grid.sum() * dt
            got = bundle.x_terminal[:, i]
            se = got.std(ddof=1) / math.sqrt(config.n_paths)
            assert abs(got.mean() - want) < 3 * se

    def test_leverage_outside_cgf_domain_rejected(self):
        tight = SubordinatorSpec(Family.GAMMA, 1.0, 0.5)
        params = make_params(spec=tight, rho=(0.8, 0.0, 0.0), sigma0_sq=[1e-4] * 3)
        with pytest.raises(ParameterError, match="rho"):
            simulate(params, SimulationConfig(n_paths=1, n_steps=8, seed=0))


def assert_matches_reference(params, config):
    got = simulate(params, config)
    want = simulate_reference(
        params, ReferenceConfig(n_paths=config.n_paths, n_steps=config.n_steps, seed=config.seed)
    )
    assert np.array_equal(got.realized, want.realized)
    assert np.array_equal(got.sigma_sq_terminal, want.sigma_sq_terminal)
    assert np.array_equal(got.jump_square_sum, want.jump_square_sum)


class TestBlockMatchesReference:
    """The block scan reproduces the per-path reference bitwise."""

    @pytest.mark.parametrize(
        "overrides, n_paths, n_steps",
        [
            ({"rho": refcase.RHO}, 7, 300),
            ({"rho": refcase.RHO}, 2 * mc._BLOCK + 1, 64),
            ({"rho": refcase.RHO}, 3, 1100),
            ({"rho": refcase.RHO, "lam": 3.0}, 3, 1),
            ({"rho": refcase.RHO, "lam": 3.0}, 3, 252),
            ({"spec": SubordinatorSpec(Family.ZERO), "sigma0_sq": [1e-4, 2e-4, 3e-4]}, 3, 64),
            ({"spec": SubordinatorSpec(Family.INVERSE_GAUSSIAN, 0.0335, 670.0)}, 5, 300),
            ({"r2": 0.0}, 5, 300),
        ],
        ids=["base", "partial-block", "segments", "one-long-step", "fast-reversion",
             "zero", "ig", "r2=0"],
    )
    def test_bitwise_equal(self, overrides, n_paths, n_steps):
        assert_matches_reference(
            make_params(**overrides), SimulationConfig(n_paths=n_paths, n_steps=n_steps, seed=13)
        )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the processes simulate forks."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sharding forks workers")
class TestSharding:
    """Path ranges on forked workers give the serial numbers bitwise, and no
    worker outlives simulate, whichever range fails."""

    # 11 paths are 6 blocks: ranges of 4, 4 and 3 paths on 3 workers
    config = SimulationConfig(n_paths=11, n_steps=300, seed=13)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_bitwise_equal_for_any_worker_count(self, monkeypatch, forks, cores):
        assert self.config.n_paths % (mc._BLOCK * cores) != 0
        monkeypatch.setattr(mc, "_cores", lambda: cores)
        assert_matches_reference(make_params(rho=refcase.RHO), self.config)
        assert len(forks) == cores - 1
        assert_no_child_left()

    def test_failing_worker_raises(self, monkeypatch, capfd):
        monkeypatch.setattr(mc, "_cores", lambda: 2)
        parent = os.getpid()
        sample = SubordinatorSpec.sample_increments

        def sample_in_parent_only(self, *args):
            if os.getpid() != parent:
                raise FloatingPointError("worker draw failed")
            return sample(self, *args)

        monkeypatch.setattr(SubordinatorSpec, "sample_increments", sample_in_parent_only)
        with pytest.raises(RuntimeError, match="1 of 1 simulation workers failed"):
            simulate(make_params(), self.config)
        assert_no_child_left()
        assert "FloatingPointError: worker draw failed" in capfd.readouterr().err

    def test_failing_parent_range_reaps_children(self, monkeypatch, forks):
        monkeypatch.setattr(mc, "_cores", lambda: 3)
        parent = os.getpid()
        sample = SubordinatorSpec.sample_increments

        def sample_in_children_only(self, *args):
            if os.getpid() == parent:
                raise FloatingPointError("parent draw failed")
            return sample(self, *args)

        monkeypatch.setattr(SubordinatorSpec, "sample_increments", sample_in_children_only)
        with pytest.raises(FloatingPointError, match="parent draw failed"):
            simulate(make_params(), self.config)
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("n_paths", [1, mc._BLOCK])
    def test_no_fork_below_two_blocks(self, monkeypatch, forks, n_paths):
        monkeypatch.setattr(mc, "_cores", lambda: 3)
        assert_matches_reference(make_params(), SimulationConfig(n_paths, 64, seed=13))
        assert forks == []


class TestMcExpectedCov:
    def test_matches_analytic_smoke(self, base_params):
        config = SimulationConfig(n_paths=3000, n_steps=504, seed=17)
        mc = mc_expected_cov(base_params, config)
        stderr = np.array(mc.diagnostics["stderr"])
        analytic = expected_cov_matrix(base_params, "approx")
        z = np.abs(analytic.entries - mc.entries) / stderr
        assert z.max() < 5.0  # loose smoke bound; the acceptance suite pins 3

    def test_json_summary_fields(self, base_params):
        config = SimulationConfig(n_paths=10, n_steps=16, seed=2)
        mc = mc_expected_cov(base_params, config)
        d = mc.to_json_dict()
        assert d["method"] == "mc"
        assert len(d["entries"]) == 9
        for key in ("stderr", "n_paths", "n_steps", "seed"):
            assert key in d["diagnostics"]


class TestMcPrice:
    def test_zero_model_zero_strike(self):
        params = zero_model()
        contract = SwapContract(SwapKind.TRACE, 0.0, params.horizon, 0.0)
        res = mc_price(params, contract, SimulationConfig(n_paths=4, n_steps=16, seed=1))
        assert res.price == 0.0
        assert res.diagnostics["stderr_metric"] == 0.0

    def test_strike_shift_exact(self, base_params):
        config = SimulationConfig(n_paths=64, n_steps=64, seed=4)
        c1 = SwapContract(SwapKind.TRACE, 0.01, base_params.horizon, base_params.rate)
        c2 = SwapContract(SwapKind.TRACE, 0.015, base_params.horizon, base_params.rate)
        r1 = mc_price(base_params, c1, config)
        r2 = mc_price(base_params, c2, config)
        assert r2.price - r1.price == pytest.approx(-r1.discount * 0.005, rel=1e-12)

    def test_trace_price_matches_analytic(self, base_params):
        config = SimulationConfig(n_paths=4000, n_steps=504, seed=23)
        contract = SwapContract(SwapKind.TRACE, 0.0001, base_params.horizon, base_params.rate)
        mc_res = mc_price(base_params, contract, config)
        from gvswap import price_trace

        analytic = price_trace(expected_cov_matrix(base_params, "approx"), contract)
        assert abs(mc_res.price - analytic.price) < 3 * mc_res.diagnostics["stderr_price"]

    def test_eigenvalue_price_reports_weights(self, base_params):
        config = SimulationConfig(n_paths=200, n_steps=64, seed=29)
        contract = SwapContract(
            SwapKind.MAX_EIGENVALUE, 0.0001, base_params.horizon, base_params.rate,
            target_return=0.0,
        )
        res = mc_price(base_params, contract, config)
        w = np.array(res.diagnostics["weights"])
        assert abs(w @ w - 1.0) < 1e-10
        assert res.method.startswith("mc/eigenvalue")

    def test_tuned_trace_level_reproduced(self):
        # drivers tuned so the analytic expected trace is 0.01451; the
        # simulated price must agree within 3 standard errors
        from gvswap import price_trace, refcase

        r2, r3 = refcase.R2, refcase.R3
        rho = tuple(refcase.RHO)
        weight_sum = 1.0 + (r2 + math.sqrt(1 - r2**2)) + (r3 + math.sqrt(1 - r3**2))
        a = 100.0
        k1 = 0.01451 / weight_sum
        for _ in range(3):  # tiny fixed-point for the jump contribution
            k2 = k1 * k1 / a
            k1 = (0.01451 - 0.4 * k2 * float(np.sum(np.square(rho)))) / weight_sum
        spec = SubordinatorSpec(Family.GAMMA, a, a / k1)
        params = make_params(spec=spec, rho=rho)
        contract = SwapContract(SwapKind.TRACE, 0.01, params.horizon, params.rate)

        analytic = price_trace(expected_cov_matrix(params, "approx"), contract)
        assert analytic.expected_metric == pytest.approx(0.01451, rel=1e-6)

        config = SimulationConfig(n_paths=3000, n_steps=504, seed=37)
        mc_res = mc_price(params, contract, config)
        assert abs(mc_res.price - analytic.price) < 3 * mc_res.diagnostics["stderr_price"]


@pytest.mark.slow
class TestGridBias:
    def test_step_doubling_shift_below_one_stderr(self, base_params):
        """Coupled step-halving: the coarse grid is rebuilt from pair-summed
        fine increments drawn from the same per-path streams, so the measured
        shift is the discretization bias itself, free of sampling noise."""
        import numpy.random as npr

        p = base_params
        tr = p.triple
        lam, T = p.lam, p.horizon
        rho = p.rho
        gamma = np.array(p.gamma)
        n_paths = 4000
        n_fine = 5040
        dt_f = T / n_fine
        dt_c = 2 * dt_f
        seed = 20240901

        def realized(increments_by_driver, dt):
            """Realized covariation per path from per-step driver increments."""
            dz1, dzs, dzss = increments_by_driver
            dz2, dz3 = tr.correlated_increments(dz1, dzs, dzss)
            lam_dt = lam * dt
            decay = math.exp(-lam_dt)
            w = -math.expm1(-lam_dt) / lam_dt
            n_steps = dz1.shape[1]
            out = np.zeros((dz1.shape[0], 3, 3))
            s = np.tile(p.sigma0_sq, (dz1.shape[0], 1))
            acc = np.zeros((dz1.shape[0], 3, 3))
            for k in range(n_steps):
                sig = np.sqrt(s)
                cross = np.einsum("pi,pj->pij", sig, sig)
                acc += cross
                step = np.stack([dz1[:, k], dz2[:, k], dz3[:, k]], axis=1)
                s = decay * s + w * step
            jumps = np.einsum("pk,pk->p", dz1, dz1)
            for i in range(3):
                for j in range(3):
                    out[:, i, j] = (
                        gamma[i, j] * acc[:, i, j] * dt + rho[i] * rho[j] * jumps
                    ) / T
            return out

        fine = np.empty((n_paths, n_fine, 3))
        for path in range(n_paths):
            rng = np.random.Generator(
                npr.Philox(npr.SeedSequence(entropy=seed, spawn_key=(path,)))
            )
            for d, spec in enumerate((tr.z1, tr.z_star, tr.z_star_star)):
                fine[path, :, d] = spec.sample_increments(lam * dt_f, rng, n_fine)

        rc_fine = realized(tuple(fine[:, :, d] for d in range(3)), dt_f)
        coarse = fine.reshape(n_paths, n_fine // 2, 2, 3).sum(axis=2)
        rc_coarse = realized(tuple(coarse[:, :, d] for d in range(3)), dt_c)

        shift = (rc_fine - rc_coarse).mean(axis=0)
        stderr = rc_fine.std(axis=0, ddof=1) / math.sqrt(n_paths)
        assert np.abs(shift / stderr).max() < 1.0, (shift, stderr)
