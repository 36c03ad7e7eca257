"""Price-series ingestion, return statistics and parameter estimation.

Estimation here is deliberately simple and fully overridable: sample moments
for drifts, variances and Brownian correlations; squared-return correlations
as proxies for the driver mixing levels; and the lag-one autocorrelation of
squared returns for the mean-reversion rate.  Anything the data cannot
identify (leverages, the risk-free rate, the driver family) comes from
overrides, with documented defaults.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .params import ModelParams

ASSET_COLUMNS = ("asset1", "asset2", "asset3")


@dataclass(frozen=True)
class ReturnSeries:
    """Aligned daily price series and its simple returns."""

    asset_id: str
    dates: tuple
    prices: np.ndarray
    returns: np.ndarray

    @classmethod
    def from_prices(cls, asset_id: str, dates, prices) -> "ReturnSeries":
        prices = np.asarray(prices, dtype=float)
        if len(prices) < 2:
            raise EstimationError(f"{asset_id}: need at least two prices, got {len(prices)}")
        if np.any(prices <= 0):
            raise EstimationError(f"{asset_id}: prices must be positive")
        returns = prices[1:] / prices[:-1] - 1.0
        return cls(asset_id=asset_id, dates=tuple(dates), prices=prices, returns=returns)


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    mean: float
    std_error: float
    ci95_half_width: float
    minimum: float
    maximum: float
    value_range: float
    median: float
    std_dev: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "std_error": self.std_error,
            "ci95_half_width": self.ci95_half_width,
            "min": self.minimum,
            "max": self.maximum,
            "range": self.value_range,
            "median": self.median,
            "std_dev": self.std_dev,
        }


def load_prices(csv_path) -> tuple[ReturnSeries, ReturnSeries, ReturnSeries]:
    """Load a CSV with header date,asset1,asset2,asset3 into aligned series.

    Rows with any missing value are dropped; unparseable rows and nonpositive
    or non-finite prices are errors.  Rows are sorted by date.
    """
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EstimationError(f"{csv_path}: empty file") from None
        expected = ["date", *ASSET_COLUMNS]
        if [h.strip().lower() for h in header] != expected:
            raise EstimationError(
                f"{csv_path}: header must be {','.join(expected)}, got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise EstimationError(f"{csv_path}:{lineno}: expected 4 columns, got {len(row)}")
            if any(cell.strip() == "" for cell in row):
                continue  # missing value: drop the row
            try:
                date = _dt.date.fromisoformat(row[0].strip())
                prices = [float(cell) for cell in row[1:]]
            except ValueError as exc:
                raise EstimationError(f"{csv_path}:{lineno}: unparseable row ({exc})") from None
            if not all(0.0 < p < math.inf for p in prices):
                raise EstimationError(f"{csv_path}:{lineno}: nonpositive or non-finite price")
            rows.append((date, prices))
    if len(rows) < 2:
        raise EstimationError(f"{csv_path}: fewer than 2 usable rows")
    if len({d for d, _ in rows}) != len(rows):
        raise EstimationError(f"{csv_path}: duplicate dates")
    rows.sort(key=lambda r: r[0])
    dates = [d for d, _ in rows]
    matrix = np.array([p for _, p in rows])
    return tuple(
        ReturnSeries.from_prices(ASSET_COLUMNS[i], dates, matrix[:, i]) for i in range(3)
    )


def descriptive_stats(series: ReturnSeries) -> DescriptiveStats:
    """Standard unbiased sample statistics of the return series."""
    r = series.returns
    n = len(r)
    if n < 2:
        raise EstimationError(f"{series.asset_id}: need at least two returns, got {n}")
    sd = float(np.std(r, ddof=1))
    return DescriptiveStats(
        n=n,
        mean=float(np.mean(r)),
        std_error=sd / math.sqrt(n),
        ci95_half_width=1.96 * sd / math.sqrt(n),
        minimum=float(np.min(r)),
        maximum=float(np.max(r)),
        value_range=float(np.max(r) - np.min(r)),
        median=float(np.median(r)),
        std_dev=sd,
    )


def _lag1_autocorr(x: np.ndarray) -> float:
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        return 0.0
    return float(x[1:] @ x[:-1]) / denom


_DEFAULT_SUBORDINATOR = {"family": "gamma", "a": 1.0, "b": 1.0}


def estimate_params(series, overrides: dict = None) -> ModelParams:
    """Estimate ModelParams from three aligned return series.

    Estimators (all per day, overridable field by field through the
    ModelParams JSON keys):

    * mu_i: sample mean return; sigma0_sq_i: unbiased sample variance.
    * gamma: sample correlation matrix of returns.
    * r2, r3: correlations of squared returns against asset 1's, taken as
      direct proxies for the driver mixing levels (exact when the component
      drivers share the base driver's variance), clamped to [0, 1].
    * lambda: -log of the pooled lag-1 autocorrelation of squared returns.
    * rho_i, rate, driver specs: overrides only; defaults rho=0, rate=0,
      gamma(1, 1) drivers.
    """
    overrides = dict(overrides or {})
    s1, s2, s3 = series
    rets = np.column_stack([s.returns for s in (s1, s2, s3)])
    n = rets.shape[0]
    if n < 3:
        raise EstimationError(f"need at least 3 aligned returns, got {n}")

    variances = rets.var(axis=0, ddof=1)
    needs_variance = "gamma" not in overrides or any(
        "sigma0_sq" not in a and "sigma0" not in a
        for a in overrides.get("assets", [{}] * 3)
    )
    if needs_variance and np.any(variances == 0.0):
        degenerate = [ASSET_COLUMNS[i] for i in range(3) if variances[i] == 0.0]
        raise EstimationError(f"degenerate (zero-variance) series: {', '.join(degenerate)}")

    gamma = np.corrcoef(rets, rowvar=False)

    sq = rets**2
    sq_sd = sq.std(axis=0, ddof=1)
    if np.any(sq_sd == 0.0):
        r2_hat = r3_hat = 0.0
    else:
        sq_corr = np.corrcoef(sq, rowvar=False)
        r2_hat = float(min(max(sq_corr[0, 1], 0.0), 1.0))
        r3_hat = float(min(max(sq_corr[0, 2], 0.0), 1.0))

    acf = np.mean([_lag1_autocorr(sq[:, i]) for i in range(3)])
    acf = min(max(acf, 1e-4), 1.0 - 1e-6)
    lam_hat = -math.log(acf)

    estimated = {
        "assets": [
            {"mu": float(rets[:, i].mean()), "sigma0_sq": float(variances[i]), "rho": 0.0}
            for i in range(3)
        ],
        "lambda": lam_hat,
        "gamma": [[float(x) for x in row] for row in gamma],
        "r2": r2_hat,
        "r3": r3_hat,
        "z1": dict(_DEFAULT_SUBORDINATOR),
        "z_star": dict(_DEFAULT_SUBORDINATOR),
        "z_star_star": dict(_DEFAULT_SUBORDINATOR),
        "rate": 0.0,
        "horizon": 252.0,
        "kmax": 8,
    }

    # convenience override: per-asset sigma0 (volatility) instead of sigma0_sq
    if "assets" in overrides:
        merged_assets = []
        for base, ov in zip(estimated["assets"], overrides.pop("assets")):
            item = dict(base)
            ov = dict(ov)
            if "sigma0" in ov:
                item["sigma0_sq"] = float(ov.pop("sigma0")) ** 2
            item.update(ov)
            merged_assets.append(item)
        estimated["assets"] = merged_assets
    estimated.update(overrides)
    return ModelParams.from_json_dict(estimated)
