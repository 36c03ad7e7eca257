import json
import math
import warnings

import numpy as np
import pytest

from gvswap import (
    EstimationError,
    Family,
    descriptive_stats,
    estimate_params,
    load_prices,
    refcase,
)
from gvswap.market import ReturnSeries

from .conftest import FIXTURES, make_params
from .oracles import ReferenceConfig, plain_stats, simulate_reference


def write_csv(path, rows, header="date,asset1,asset2,asset3"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadPrices:
    def test_two_rows_single_return(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["2024-01-01,100,50,20", "2024-01-02,110,55,18"],
        )
        s1, s2, s3 = load_prices(path)
        assert s1.returns == pytest.approx([0.10])
        assert s2.returns == pytest.approx([0.10])
        assert s3.returns == pytest.approx([-0.10])

    def test_constant_prices_zero_returns(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            [f"2024-01-{d:02d},100,100,100" for d in range(1, 11)],
        )
        series = load_prices(path)
        for s in series:
            assert np.all(s.returns == 0.0)
            assert descriptive_stats(s).std_dev == 0.0

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["2024-01-03,102,50,20", "2024-01-01,100,50,20", "2024-01-02,101,50,20"],
        )
        s1, _, _ = load_prices(path)
        assert s1.prices == pytest.approx([100, 101, 102])

    def test_missing_values_dropped(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["2024-01-01,100,50,20", "2024-01-02,,50,20", "2024-01-03,110,55,22"],
        )
        s1, _, _ = load_prices(path)
        assert len(s1.prices) == 2
        assert s1.returns == pytest.approx([0.10])

    def test_nonpositive_price_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv", ["2024-01-01,100,50,20", "2024-01-02,-1,50,20"]
        )
        with pytest.raises(EstimationError, match="nonpositive"):
            load_prices(path)

    def test_unparseable_row_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv", ["2024-01-01,100,50,20", "2024-01-02,abc,50,20"]
        )
        with pytest.raises(EstimationError, match="unparseable"):
            load_prices(path)

    def test_too_few_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["2024-01-01,100,50,20"])
        with pytest.raises(EstimationError, match="fewer than 2"):
            load_prices(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv", ["2024-01-01,1,2,3"], header="time,a,b,c"
        )
        with pytest.raises(EstimationError, match="header"):
            load_prices(path)

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv", ["2024-01-01,1,2,3", "2024-01-01,1,2,3"]
        )
        with pytest.raises(EstimationError, match="duplicate"):
            load_prices(path)


class TestDescriptiveStats:
    def test_symmetric_two_point(self):
        series = ReturnSeries.from_prices("a", ("d1", "d2", "d3"), [100.0, 99.0, 99.99])
        stats = descriptive_stats(series)
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.median == pytest.approx(0.0, abs=1e-12)
        assert stats.value_range == pytest.approx(0.02, rel=1e-10)

    def test_constant_returns(self):
        prices = [100.0 * 1.01**k for k in range(6)]
        series = ReturnSeries.from_prices("a", range(6), prices)
        stats = descriptive_stats(series)
        assert stats.std_dev == pytest.approx(0.0, abs=1e-12)
        assert stats.value_range == pytest.approx(0.0, abs=1e-12)

    def test_single_return_rejected(self):
        series = ReturnSeries.from_prices("a", ("d1", "d2"), [100.0, 101.0])
        with pytest.raises(EstimationError):
            descriptive_stats(series)

    def test_bundled_fixture_matches_committed_oracle(self):
        series = load_prices(FIXTURES / "prices_252.csv")
        committed = json.loads((FIXTURES / "prices_252_stats.json").read_text())
        for s in series:
            want = committed[s.asset_id]
            got = descriptive_stats(s)
            assert got.n == want["n"]
            for key, attr in [
                ("mean", "mean"), ("std_error", "std_error"),
                ("ci95_half_width", "ci95_half_width"), ("min", "minimum"),
                ("max", "maximum"), ("range", "value_range"),
                ("median", "median"), ("std_dev", "std_dev"),
            ]:
                assert getattr(got, attr) == pytest.approx(want[key], abs=1e-12)

    def test_fixture_oracle_recomputed_in_place(self):
        # defense in depth: recompute the committed numbers from scratch here
        series = load_prices(FIXTURES / "prices_252.csv")
        committed = json.loads((FIXTURES / "prices_252_stats.json").read_text())
        for s in series:
            fresh = plain_stats(s.returns)
            for key, val in fresh.items():
                assert committed[s.asset_id][key] == pytest.approx(val, abs=1e-13)


class TestEstimateParams:
    def test_iid_gaussian_uncorrelated(self, tmp_path):
        rng = np.random.default_rng(5150)
        n = 4000
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (n, 3)), axis=0))
        rows = [
            f"{d},{p[0]:.8f},{p[1]:.8f},{p[2]:.8f}"
            for d, p in zip(_date_strings(n), prices)
        ]
        path = write_csv(tmp_path / "p.csv", rows)
        params = estimate_params(load_prices(path))
        off = params.gamma[np.triu_indices(3, 1)]
        assert np.abs(off).max() < 3.0 / math.sqrt(n)

    def test_closed_loop_brownian_correlations(self):
        # returns generated by the simulator recover the correlation matrix
        params_true = make_params(
            rho=(0.0, 0.0, 0.0),
            gamma=np.array([[1.0, 0.45, 0.1], [0.45, 1.0, 0.25], [0.1, 0.25, 1.0]]),
            horizon=10000.0,
        )
        config = ReferenceConfig(n_paths=1, n_steps=10000, seed=314, keep_paths=True)
        bundle = simulate_reference(params_true, config)
        x = bundle.trajectories["log_price"][0]
        prices = 100.0 * np.exp(x)
        series = tuple(
            ReturnSeries.from_prices(f"asset{i+1}", range(len(prices)), prices[:, i])
            for i in range(3)
        )
        params_est = estimate_params(series)
        assert np.abs(params_est.gamma - params_true.gamma).max() < 0.1

    def test_reference_overrides_round_trip(self):
        series = load_prices(FIXTURES / "prices_252.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = estimate_params(series, refcase.PARAM_OVERRIDES)
        assert np.allclose(params.mu, refcase.MU)
        assert np.allclose(params.sigma0_sq, np.asarray(refcase.SIGMA0) ** 2)
        assert np.allclose(params.rho, refcase.RHO)
        assert np.allclose(params.gamma, refcase.GAMMA)
        assert params.triple.r2 == refcase.R2
        assert params.triple.r3 == refcase.R3
        assert params.lam == refcase.LAMBDA
        assert params.rate == refcase.RATE
        assert params.triple.z1.family is Family.GAMMA

    def test_estimates_clamped(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 500
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (n, 3)), axis=0))
        rows = [
            f"{d},{p[0]:.8f},{p[1]:.8f},{p[2]:.8f}"
            for d, p in zip(_date_strings(n), prices)
        ]
        params = estimate_params(load_prices(write_csv(tmp_path / "p.csv", rows)))
        assert 0.0 <= params.triple.r2 <= 1.0
        assert 0.0 <= params.triple.r3 <= 1.0
        assert params.lam > 0.0

    def test_degenerate_series_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            [f"{d},100,100,100" for d in _date_strings(10)],
        )
        with pytest.raises(EstimationError, match="degenerate"):
            estimate_params(load_prices(path))

    def test_column_permutation_consistency(self, tmp_path):
        series = load_prices(FIXTURES / "prices_252.csv")
        params = estimate_params(series)
        permuted = (series[1], series[2], series[0])
        params_p = estimate_params(permuted)
        perm = [1, 2, 0]
        assert np.allclose(
            params_p.gamma, params.gamma[np.ix_(perm, perm)], atol=1e-12
        )
        for i in range(3):
            assert params_p.assets[i].mu == pytest.approx(params.assets[perm[i]].mu)
            assert params_p.assets[i].sigma0_sq == pytest.approx(
                params.assets[perm[i]].sigma0_sq
            )

    def test_price_scale_invariance(self):
        series = load_prices(FIXTURES / "prices_252.csv")
        scaled = tuple(
            ReturnSeries.from_prices(s.asset_id, s.dates, s.prices * (4.0 if i == 1 else 1.0))
            for i, s in enumerate(series)
        )
        p1 = estimate_params(series)
        p2 = estimate_params(scaled)
        assert np.array_equal(
            np.array([a.mu for a in p1.assets]), np.array([a.mu for a in p2.assets])
        )
        assert np.array_equal(p1.gamma, p2.gamma)


def _date_strings(n):
    import datetime as dt

    d = dt.date(2000, 1, 3)
    out = []
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d.isoformat())
        d += dt.timedelta(days=1)
    return out
