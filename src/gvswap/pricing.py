"""Swap prices on the expected covariance matrix.

Both contracts are forwards on a covariance metric: the discounted difference
between the expected metric and the strike,

    price = e^(-r T) (E[metric] - K).

The trace swap's metric is the trace of the realized covariance matrix; the
max-variance ("eigenvalue") swap's metric is the constrained maximum of
w' Omega w over unit-norm, fully invested portfolios hitting a target return.
The payoff is linear, so negative prices are valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .covariance import ExpectedCovMatrix, ExpectedDiagonal
from .errors import ParameterError
from .weights import FeasibleWeights, feasible_weights, qr_constraint_basis


class SwapKind(str, Enum):
    TRACE = "trace"
    MAX_EIGENVALUE = "max-eigenvalue"


@dataclass(frozen=True)
class SwapContract:
    kind: SwapKind
    strike: float
    horizon: float          # days
    rate: float             # per day
    target_return: float | None = None   # max-eigenvalue contracts only

    def __post_init__(self):
        object.__setattr__(self, "kind", SwapKind(self.kind))
        if self.horizon <= 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.strike < 0:
            raise ParameterError(f"strike must be nonnegative, got {self.strike}")
        if self.kind is SwapKind.MAX_EIGENVALUE and self.target_return is None:
            raise ParameterError("max-eigenvalue contracts require a target return")

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * self.horizon)

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind.value,
            "strike": self.strike,
            "horizon": self.horizon,
            "rate": self.rate,
        }
        if self.target_return is not None:
            d["target_return"] = self.target_return
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SwapContract":
        return cls(
            kind=SwapKind(d["kind"]),
            strike=float(d["strike"]),
            horizon=float(d["horizon"]),
            rate=float(d["rate"]),
            target_return=float(d["target_return"]) if "target_return" in d else None,
        )


@dataclass
class PricingResult:
    price: float
    expected_metric: float
    discount: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "price": self.price,
            "expected_metric": self.expected_metric,
            "discount": self.discount,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


def price_trace(cov: ExpectedCovMatrix | ExpectedDiagonal, contract: SwapContract) -> PricingResult:
    """Price the trace swap, e^(-rT) (tr E[Omega] - K), from the diagonal of
    E[Omega]: a full matrix or covariance.expected_diagonal alone."""
    if contract.kind is not SwapKind.TRACE:
        raise ParameterError(f"price_trace requires a trace contract, got {contract.kind.value}")
    metric = cov.trace
    discount = contract.discount
    return PricingResult(
        price=discount * (metric - contract.strike),
        expected_metric=metric,
        discount=discount,
        method=cov.method,
        diagnostics={"entry_diagnostics": cov.diagnostics},
    )


def price_eigenvalue(
    cov: ExpectedCovMatrix,
    mu,
    contract: SwapContract,
    fixed_basis: np.ndarray = None,
    fixed_coords: np.ndarray = None,
) -> PricingResult:
    """Price the constrained max-variance swap.

    By default the weights come from a fresh orthogonal factorization of the
    constraint matrix with explicit two-sign maximization.  Passing
    fixed_basis (3x3) and fixed_coords (3,) bypasses that construction and
    evaluates the quadratic form at the supplied basis and coordinates; this
    reproduction path exists to pin published reference numbers whose printed
    basis is not orthogonal, and is labeled in the result's method tag.
    """
    if contract.kind is not SwapKind.MAX_EIGENVALUE:
        raise ParameterError(
            f"price_eigenvalue requires a max-eigenvalue contract, got {contract.kind.value}"
        )
    discount = contract.discount
    if (fixed_basis is None) != (fixed_coords is None):
        raise ParameterError("fixed_basis and fixed_coords must be supplied together")
    if fixed_basis is not None:
        p = np.asarray(fixed_basis, dtype=float)
        f = np.asarray(fixed_coords, dtype=float)
        w = p @ f
        metric = float(w @ cov.entries @ w)
        return PricingResult(
            price=discount * (metric - contract.strike),
            expected_metric=metric,
            discount=discount,
            method=f"{cov.method}/fixed-basis",
            diagnostics={
                "weights": [float(x) for x in w],
                "basis_orthogonality_error": float(np.abs(p.T @ p - np.eye(3)).max()),
            },
        )
    basis = qr_constraint_basis(mu, contract.target_return)
    fw: FeasibleWeights = feasible_weights(basis, cov.entries)
    residual = float(np.abs(np.column_stack([basis.mu, np.ones(3)]).T @ fw.w - basis.b).max())
    return PricingResult(
        price=discount * (fw.objective - contract.strike),
        expected_metric=fw.objective,
        discount=discount,
        method=f"{cov.method}/qr",
        diagnostics={
            "weights": [float(x) for x in fw.w],
            "q": [float(x) for x in fw.q],
            "rmag": fw.rmag,
            "sign": float(np.sign(fw.f[2])) if fw.rmag > 0 else 0.0,
            "constraint_residual": residual,
            "unit_norm_error": abs(float(fw.w @ fw.w) - 1.0),
        },
    )
