import json
import warnings

import numpy as np
import pytest

from gvswap import (
    AssetParams,
    CorrelatedTriple,
    Family,
    ModelParams,
    ParameterError,
    SubordinatorSpec,
)

GAMMA_11 = SubordinatorSpec(Family.GAMMA, 1.0, 1.0)


def triple():
    return CorrelatedTriple(0.3, 0.6, GAMMA_11, GAMMA_11, GAMMA_11)


def assets(rho=0.0):
    return tuple(AssetParams(0.01 * i, 1e-4 * (i + 1), rho) for i in range(3))


def build(**kwargs):
    base = dict(assets=assets(), lam=0.4, gamma=np.eye(3), triple=triple())
    base.update(kwargs)
    return ModelParams(**base)


class TestValidation:
    def test_negative_rate_of_mean_reversion_rejected(self):
        with pytest.raises(ParameterError):
            build(lam=0.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ParameterError):
            build(horizon=0.0)

    def test_kmax_rejected(self):
        with pytest.raises(ParameterError):
            build(kmax=0)

    def test_negative_initial_variance_rejected(self):
        with pytest.raises(ParameterError):
            AssetParams(0.0, -1e-4, 0.0)

    def test_gamma_must_be_symmetric(self):
        g = np.eye(3)
        g[0, 1] = 0.5
        with pytest.raises(ParameterError, match="symmetric"):
            build(gamma=g)

    def test_gamma_must_have_unit_diagonal(self):
        g = np.eye(3) * 1.1
        with pytest.raises(ParameterError, match="diagonal"):
            build(gamma=g)

    def test_gamma_must_be_psd(self):
        g = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(ParameterError, match="PSD"):
            build(gamma=g)

    def test_positive_leverage_warns(self):
        with pytest.warns(UserWarning, match="positive leverage"):
            build(assets=assets(rho=0.5))

    def test_nonpositive_leverage_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build(assets=assets(rho=-0.5))
            build(assets=assets(rho=0.0))


class TestSerialization:
    def test_round_trip(self):
        params = build(rate=1e-4, horizon=100.0, kmax=6)
        back = ModelParams.from_json_dict(params.to_json_dict())
        assert back.to_json_dict() == params.to_json_dict()
        assert np.array_equal(back.gamma, params.gamma)

    def test_json_keys(self):
        d = build().to_json_dict()
        assert set(d) == {
            "assets", "lambda", "gamma", "r2", "r3", "z1", "z_star",
            "z_star_star", "rate", "horizon", "kmax",
        }
        assert json.dumps(d)  # serializable as-is
