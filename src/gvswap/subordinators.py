"""Levy subordinator families and the correlated three-driver construction.

The variance of each asset follows an Ornstein-Uhlenbeck process driven by an
increasing Levy process (a subordinator).  Three supported unit-time laws:

* ``gamma(a, b)``: density ``b^a x^(a-1) e^(-b x) / Gamma(a)`` with cumulants
  ``kappa_n = a (n-1)! / b^n``.
* ``ig(a, b)``: inverse Gaussian, density
  ``a e^(a b) x^(-3/2) exp(-(a^2 / x + b^2 x) / 2) / sqrt(2 pi)`` with
  cumulants ``kappa_n = a (2n-3)!! / b^(2n-1)``.  This is the (delta, gamma)
  convention with delta = a, gamma = b; the CGF-differentiation tests pin it.
* ``zero``: the process identically zero (useful for deterministic limits).

Two further drivers are built from a base one by nonnegative mixing,

    dZ2 = r2 dZ1 + sqrt(1 - r2^2) dZ*,
    dZ3 = r3 dZ1 + sqrt(1 - r3^2) dZ**,

which keeps them subordinators for 0 <= r2, r3 <= 1 and makes their cumulants
linear combinations of the component cumulants.

All operations are pure given an explicit random generator; generators must
not be shared between concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateLawError, DomainError, ParameterError


class Family(str, Enum):
    GAMMA = "gamma"
    INVERSE_GAUSSIAN = "ig"
    ZERO = "zero"


def _double_factorial_odd(n: int) -> float:
    """(2n-3)!! for n >= 1, with the empty products equal to 1."""
    out = 1.0
    k = 2 * n - 3
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class SubordinatorSpec:
    """Parametric family of an increasing Levy process (unit-time law).

    Parameters
    ----------
    family : Family
        One of gamma, ig (inverse Gaussian) or zero.
    a, b : float, optional
        Family parameters, both > 0; unused for the zero family.
    """

    family: Family
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if fam is Family.ZERO:
            if self.a is not None or self.b is not None:
                raise ParameterError("zero family takes no parameters")
            return
        if self.a is None or self.b is None or self.a <= 0 or self.b <= 0:
            raise ParameterError(f"{fam.value} family requires a > 0 and b > 0")

    # -- cumulants ---------------------------------------------------------
    def cumulant(self, n: int) -> float:
        """n-th cumulant of the unit-time law, any order n >= 1."""
        if self.family is Family.ZERO:
            return 0.0
        if self.family is Family.GAMMA:
            return self.a * math.factorial(n - 1) / self.b**n
        return self.a * _double_factorial_odd(n) / self.b ** (2 * n - 1)

    def cumulant_sequence(self, max_order: int) -> np.ndarray:
        """Array of cumulants kappa_1..kappa_max_order."""
        return np.array([self.cumulant(n) for n in range(1, max_order + 1)])

    def scaled(self, c: float) -> "SubordinatorSpec":
        """The unit-time law of c Z, c > 0, whose cumulants are c^n kappa_n."""
        if self.family is Family.ZERO:
            return self
        root = math.sqrt(c)
        a, b = (self.a, self.b / c) if self.family is Family.GAMMA else (self.a * root, self.b / root)
        return SubordinatorSpec(self.family, a, b)

    # -- cumulant generating function --------------------------------------
    def cgf_bound(self) -> float:
        """Supremum of the domain of finiteness of the CGF."""
        if self.family is Family.ZERO:
            return math.inf
        if self.family is Family.GAMMA:
            return self.b
        return 0.5 * self.b**2

    def cgf(self, theta: float) -> float:
        """log E[exp(theta Z_1)]; finite for theta below the family bound."""
        if self.family is Family.ZERO:
            return 0.0
        bound = self.cgf_bound()
        if theta >= bound:
            raise DomainError(
                f"cgf undefined at theta={theta}: {self.family.value} family requires theta < {bound}"
            )
        if self.family is Family.GAMMA:
            return self.a * math.log(self.b / (self.b - theta))
        return self.a * (self.b - math.sqrt(self.b**2 - 2.0 * theta))

    # -- sampling -----------------------------------------------------------
    def sample_increments(self, dt: float, rng: np.random.Generator, size=None) -> np.ndarray | float:
        """Draw increments of Z over a time step dt (time-scaled law)."""
        if dt <= 0:
            raise ParameterError(f"dt must be positive, got {dt}")
        if self.family is Family.ZERO:
            return 0.0 if size is None else np.zeros(size)
        if self.family is Family.GAMMA:
            return rng.gamma(self.a * dt, 1.0 / self.b, size)
        # IG(a dt, b): numpy's Wald(mean, scale) with mean = a dt / b, scale = (a dt)^2
        adt = self.a * dt
        return rng.wald(adt / self.b, adt * adt, size)

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        if self.family is Family.ZERO:
            return {"family": "zero"}
        return {"family": self.family.value, "a": self.a, "b": self.b}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubordinatorSpec":
        fam = Family(d["family"])
        if fam is Family.ZERO:
            return cls(Family.ZERO)
        return cls(fam, float(d["a"]), float(d["b"]))


@dataclass(frozen=True)
class CorrelatedTriple:
    """Three subordinators (Z1, Z2, Z3) with Z2, Z3 mixed from Z1 and two
    independent components.

    Z2 and Z3 are never materialized: their increments come from
    :meth:`correlated_increments` and their cumulants from
    :meth:`derived_cumulant`,

        kappa_n(Z2) = r2^n kappa_n(Z1) + (1 - r2^2)^(n/2) kappa_n(Z*),

    and analogously for Z3 with r3 and Z**.
    """

    r2: float
    r3: float
    z1: SubordinatorSpec
    z_star: SubordinatorSpec
    z_star_star: SubordinatorSpec

    def __post_init__(self):
        if not 0.0 <= self.r2 <= 1.0 or not 0.0 <= self.r3 <= 1.0:
            raise ParameterError(f"mixing levels must lie in [0, 1], got r2={self.r2}, r3={self.r3}")

    def _mix(self, which: int) -> tuple[float, float, SubordinatorSpec]:
        """(r, sqrt(1 - r^2), own component) of driver `which`; (1, 0, Z1) for
        the base driver, whose own component is unused."""
        if which == 1:
            return 1.0, 0.0, self.z1
        if which == 2:
            return self.r2, math.sqrt(1.0 - self.r2**2), self.z_star
        if which == 3:
            return self.r3, math.sqrt(1.0 - self.r3**2), self.z_star_star
        raise ParameterError(f"driver index must be 1, 2 or 3, got {which}")

    def derived_cumulant(self, which: int, n: int) -> float:
        """kappa_n of Z1, Z2 or Z3 (which = 1, 2, 3): r^n kappa_n(Z1) + s^n kappa_n(own)."""
        r, s, comp = self._mix(which)
        return r**n * self.z1.cumulant(n) + s**n * comp.cumulant(n)

    def derived_cgf(self, which: int, theta: float) -> float:
        """CGF of the mixed driver: kappa_{Z1}(r theta) + kappa_comp(s theta)."""
        if which == 1:
            return self.z1.cgf(theta)
        r, s, comp = self._mix(which)
        return self.z1.cgf(r * theta) + comp.cgf(s * theta)

    def correlated_increments(self, dz1, dz_star, dz_star_star):
        """Mix raw increments into (dz2, dz3); exactly linear and nonnegative."""
        s2 = math.sqrt(1.0 - self.r2**2)
        s3 = math.sqrt(1.0 - self.r3**2)
        dz2 = self.r2 * np.asarray(dz1) + s2 * np.asarray(dz_star)
        dz3 = self.r3 * np.asarray(dz1) + s3 * np.asarray(dz_star_star)
        return dz2, dz3

    def stationary_vol_correlations(self) -> tuple[float, float, float]:
        """Correlations of the three squared-volatility OU processes.

        The shared mean-reversion rate cancels, leaving time-independent values

            rho12 = r2 sqrt(k2(Z1)/k2(Z2)),
            rho13 = r3 sqrt(k2(Z1)/k2(Z3)),
            rho23 = r2 r3 k2(Z1) / sqrt(k2(Z2) k2(Z3)).
        """
        k2_1 = self.z1.cumulant(2)
        k2_2 = self.derived_cumulant(2, 2)
        k2_3 = self.derived_cumulant(3, 2)
        if k2_2 <= 0.0 or k2_3 <= 0.0:
            raise DegenerateLawError(
                "volatility correlations undefined: a derived driver has zero variance"
            )
        rho12 = self.r2 * math.sqrt(k2_1 / k2_2)
        rho13 = self.r3 * math.sqrt(k2_1 / k2_3)
        rho23 = self.r2 * self.r3 * k2_1 / math.sqrt(k2_2 * k2_3)
        return rho12, rho13, rho23

    def to_json_dict(self) -> dict:
        return {
            "r2": self.r2,
            "r3": self.r3,
            "z1": self.z1.to_json_dict(),
            "z_star": self.z_star.to_json_dict(),
            "z_star_star": self.z_star_star.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CorrelatedTriple":
        return cls(
            r2=float(d["r2"]),
            r3=float(d["r3"]),
            z1=SubordinatorSpec.from_json_dict(d["z1"]),
            z_star=SubordinatorSpec.from_json_dict(d["z_star"]),
            z_star_star=SubordinatorSpec.from_json_dict(d["z_star_star"]),
        )

