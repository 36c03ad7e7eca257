"""Model parameter container for the three-asset stochastic volatility system.

Time unit is trading days throughout: the mean-reversion rate, drifts,
variances and the risk-free rate are all per day, and the horizon is in days.
The JSON form reads only the keys it knows, so the "beta" bounding levels
that older parameter files carry are ignored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .subordinators import CorrelatedTriple

#: canonical order of the three asset pairs: (0,1), (1,2), (2,0)
PAIR_ORDER = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class AssetParams:
    """Per-asset parameters: drift, initial variance and jump leverage (per day)."""

    mu: float
    sigma0_sq: float
    rho: float

    def __post_init__(self):
        if self.sigma0_sq < 0:
            raise ParameterError(f"initial variance must be nonnegative, got {self.sigma0_sq}")


def _as_corr_matrix(gamma) -> np.ndarray:
    g = np.array(gamma, dtype=float)
    if g.shape != (3, 3):
        raise ParameterError(f"brownian correlation matrix must be 3x3, got shape {g.shape}")
    if not np.allclose(g, g.T, atol=1e-12):
        raise ParameterError("brownian correlation matrix must be symmetric")
    if not np.allclose(np.diag(g), 1.0, atol=1e-12):
        raise ParameterError("brownian correlation matrix must have unit diagonal")
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() < -1e-10:
        raise ParameterError(f"brownian correlation matrix not PSD: min eigenvalue {eigs.min():.3e}")
    return g


@dataclass(frozen=True)
class ModelParams:
    """Full three-asset model parameter set.

    Parameters
    ----------
    assets : three AssetParams
    lam : float
        Variance mean-reversion rate per day, > 0.
    gamma : (3, 3) array
        Brownian correlation matrix (symmetric, unit diagonal, PSD).
    triple : CorrelatedTriple
        The base subordinator, the two independent components and the mixing
        levels r2, r3.
    rate : float
        Risk-free rate per day.
    horizon : float
        Pricing horizon T in days.
    kmax : int
        Series truncation order.
    """

    assets: tuple[AssetParams, AssetParams, AssetParams]
    lam: float
    gamma: np.ndarray
    triple: CorrelatedTriple
    rate: float = 0.0
    horizon: float = 252.0
    kmax: int = 8

    def __post_init__(self):
        if len(self.assets) != 3:
            raise ParameterError("exactly three assets are supported")
        object.__setattr__(self, "assets", tuple(self.assets))
        if self.lam <= 0:
            raise ParameterError(f"mean-reversion rate must be positive, got {self.lam}")
        if self.horizon <= 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.kmax < 1:
            raise ParameterError(f"kmax must be >= 1, got {self.kmax}")
        object.__setattr__(self, "gamma", _as_corr_matrix(self.gamma))
        for a in self.assets:
            if a.rho > 0:
                warnings.warn(
                    f"positive leverage rho={a.rho}: the model is usually stated with rho <= 0",
                    stacklevel=3,
                )

    # -- per-asset driver views ---------------------------------------------
    def asset_cumulant_sequence(self, i: int, max_order: int) -> np.ndarray:
        """Cumulants of asset i's variance driver (0-based asset index)."""
        return self.triple.derived_cumulant_sequence(i + 1, max_order)

    def asset_cgf(self, i: int, theta: float) -> float:
        return self.triple.derived_cgf(i + 1, theta)

    @property
    def mu(self) -> np.ndarray:
        return np.array([a.mu for a in self.assets])

    @property
    def sigma0_sq(self) -> np.ndarray:
        return np.array([a.sigma0_sq for a in self.assets])

    @property
    def rho(self) -> np.ndarray:
        return np.array([a.rho for a in self.assets])

    # -- serialization --------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "assets": [
                {"mu": a.mu, "sigma0_sq": a.sigma0_sq, "rho": a.rho} for a in self.assets
            ],
            "lambda": self.lam,
            "gamma": [[float(x) for x in row] for row in self.gamma],
            **self.triple.to_json_dict(),
            "rate": self.rate,
            "horizon": self.horizon,
            "kmax": self.kmax,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelParams":
        assets = tuple(
            AssetParams(float(a["mu"]), float(a["sigma0_sq"]), float(a["rho"]))
            for a in d["assets"]
        )
        return cls(
            assets=assets,
            lam=float(d["lambda"]),
            gamma=d["gamma"],
            triple=CorrelatedTriple.from_json_dict(d),
            rate=float(d.get("rate", 0.0)),
            horizon=float(d.get("horizon", 252.0)),
            kmax=int(d.get("kmax", 8)),
        )
