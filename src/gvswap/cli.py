"""Command-line surface: calibrate, price and verify.

Exit codes: 0 success, 2 input error, 3 estimation error, 4 infeasible
contract, 5 verification failure, 6 numerical failure.  All numeric output is
printed with 17 significant digits so reports diff cleanly; identical inputs
and seed reproduce identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .covariance import ExpectedCovMatrix, expected_cov_matrix, expected_diagonal
from .errors import (
    EstimationError,
    GvswapError,
    InfeasibleTargetError,
    NumericalError,
    ParameterError,
)
from .market import estimate_params, load_prices
from .mc import SimulationConfig, mc_expected_cov
from .params import ModelParams
from .pricing import SwapContract, SwapKind, price_eigenvalue, price_trace
from .reporting import Stopwatch, dumps_17

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ESTIMATION = 3
EXIT_INFEASIBLE = 4
EXIT_VERIFICATION = 5
EXIT_NUMERICAL = 6

#: verify fails when an analytic entry lies more than this many MC standard
#: errors from the simulated one
Z_THRESHOLD = 4.0

SEED_ENV_VAR = "GVSWAP_SEED"

#: (error types, exit code, message prefix) of every error a command reports
#: on one line; the first row that matches wins, so subclasses come first
_EXIT_CODES = (
    ((FileNotFoundError, IsADirectoryError), EXIT_INPUT, ""),
    ((InfeasibleTargetError,), EXIT_INFEASIBLE, ""),
    ((EstimationError,), EXIT_ESTIMATION, ""),
    ((NumericalError,), EXIT_NUMERICAL, ""),
    # float arithmetic out of range at extreme parameter scales
    ((OverflowError,), EXIT_NUMERICAL, "numerical overflow: "),
    ((GvswapError, ValueError), EXIT_INPUT, ""),
)


def _read_json(path: str) -> dict:
    """The JSON content of path.  NaN, Infinity and a literal past the float
    range, such as 1e400, are input errors naming the file."""
    def number(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise ParameterError(f"{path}: non-finite number {text}")
        return value

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=number, parse_constant=number)
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON ({exc})") from None


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_json(path: str, parse):
    """parse(JSON content of path); a missing key or a value of the wrong
    type is an input error that names the file."""
    data = _read_json(path)
    try:
        return parse(data)
    except KeyError as exc:
        raise ParameterError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise ParameterError(f"{path}: malformed content ({exc})") from None


def _load_params(path: str) -> ModelParams:
    return _parse_json(path, ModelParams.from_json_dict)


def _report(command, watch, params, results, diagnostics=None, seed=None) -> str:
    """The run report of a command as 17-digit JSON text."""
    return dumps_17({
        "command": command,
        "params": params,
        "results": results,
        "diagnostics": diagnostics or {},
        "seed": seed,
        "version": __version__,
        "wall_time_s": watch.elapsed,
    })


def cmd_calibrate(args) -> int:
    with Stopwatch() as watch:
        overrides = _read_json(args.overrides) if args.overrides else None
        if overrides is not None and not isinstance(overrides, dict):
            raise ParameterError(f"{args.overrides}: overrides must be a JSON object")
        series = load_prices(args.prices)
        params = estimate_params(series, overrides)
    _write_or_print(dumps_17(params.to_json_dict()), args.out)
    if args.out:
        inputs = {"prices": args.prices, "overrides": args.overrides}
        sys.stdout.write(_report("calibrate", watch, inputs, {"out": args.out}))
    return EXIT_OK


def cmd_price(args) -> int:
    """A trace swap reads only the closed-form diagonal: under series or approx
    no off-diagonal is computed and --method only labels the report.  Both
    routes integrate over the params horizon, which must be the contract's;
    the contract's rate discounts."""
    with Stopwatch() as watch:
        contract = _parse_json(args.contract, SwapContract.from_json_dict)
        params = _load_params(args.params) if args.params else None
        if args.method == "fixture-omega":
            if not args.omega:
                raise ParameterError("--method fixture-omega requires --omega FILE")
            cov = _parse_json(args.omega, ExpectedCovMatrix.from_json_dict)
        elif params is None:
            raise ParameterError(f"--method {args.method} requires --params FILE")
        elif params.horizon != contract.horizon:
            raise ParameterError(f"{args.params}: horizon {params.horizon!r} days differs "
                                 f"from the contract's {contract.horizon!r}")
        elif contract.kind is SwapKind.TRACE:
            cov = expected_diagonal(params, args.method)
        else:
            cov = expected_cov_matrix(params, method=args.method)
        if contract.kind is SwapKind.TRACE:
            result = price_trace(cov, contract)
        elif args.fixed_basis:
            basis, coords = _parse_json(
                args.fixed_basis,
                lambda d: (np.array(d["basis"], dtype=float), np.array(d["coords"], dtype=float)),
            )
            result = price_eigenvalue(cov, None, contract, fixed_basis=basis, fixed_coords=coords)
        else:
            if args.mu:
                mu = np.array([float(x) for x in args.mu.split(",")])
            elif params is not None:
                mu = params.mu
            else:
                raise ParameterError(
                    "max-eigenvalue pricing needs expected returns: supply --params or --mu"
                )
            result = price_eigenvalue(cov, mu, contract)
    inputs = {
        "contract": contract.to_json_dict(),
        "method": args.method,
        "params_file": args.params,
        "omega_file": args.omega,
    }
    diagnostics = {"covariance_method": cov.method}
    _write_or_print(_report("price", watch, inputs, result.to_json_dict(), diagnostics), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _load_params(args.params)
    seed = args.seed if args.seed is not None else int(os.environ.get(SEED_ENV_VAR, "20240901"))
    if args.paths < 2:
        raise ParameterError("a standard error needs at least 2 paths")
    config = SimulationConfig(n_paths=args.paths, n_steps=args.steps, seed=seed)
    with Stopwatch() as watch:
        mc = mc_expected_cov(params, config)
        stderr = np.array(mc.diagnostics["stderr"])
        # a deterministic model leaves only rounding noise in the sample
        # spread; below this floor the comparison is grid bias, not noise,
        # and the z-score is reported as zero
        noise_floor = 1e-12 * np.abs(mc.entries)
        routes = {}
        zmax = 0.0
        for method in ("series", "approx"):
            analytic = expected_cov_matrix(params, method=method)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (analytic.entries - mc.entries) / stderr
            z = np.where(np.isfinite(z) & (stderr > noise_floor), z, 0.0)
            zmax = max(zmax, float(np.abs(z).max()))
            routes[method] = {
                "entries": [float(x) for x in analytic.entries.reshape(-1)],
                "z_scores": [float(x) for x in z.reshape(-1)],
                "diagnostics": analytic.diagnostics,
            }
    results = {"mc": mc.to_json_dict(), "routes": routes, "max_abs_z": zmax}
    report = _report("verify", watch, params.to_json_dict(), results, {"threshold": Z_THRESHOLD}, seed)
    _write_or_print(report, args.out)
    return EXIT_OK if zmax <= Z_THRESHOLD else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvswap",
        description="Generalized variance swap pricing under a three-asset "
        "stochastic volatility model with correlated subordinator drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="estimate model parameters from a price CSV")
    cal.add_argument("--prices", required=True, help="CSV with header date,asset1,asset2,asset3")
    cal.add_argument("--overrides", help="JSON file of parameter overrides")
    cal.add_argument("--out", help="write the params JSON here (default: stdout)")
    cal.set_defaults(func=cmd_calibrate)

    pri = sub.add_parser("price", help="price a swap contract")
    pri.add_argument("--params", help="model params JSON (from calibrate)")
    pri.add_argument("--contract", required=True, help="contract JSON")
    pri.add_argument(
        "--method",
        choices=("series", "approx", "fixture-omega"),
        default="approx",
        help="expected-covariance route, or a fixed matrix via --omega",
    )
    pri.add_argument("--omega", help="expected covariance matrix JSON (fixture-omega)")
    pri.add_argument("--mu", help="comma-separated expected returns (eigenvalue contracts)")
    pri.add_argument(
        "--fixed-basis",
        help="JSON {basis: 3x3, coords: 3} evaluating the quadratic form at a "
        "fixed factorization (reproduction of published numbers)",
    )
    pri.add_argument("--out", help="write the report here (default: stdout)")
    pri.set_defaults(func=cmd_price)

    ver = sub.add_parser("verify", help="compare both analytic routes against simulation")
    ver.add_argument("--params", required=True, help="model params JSON")
    ver.add_argument("--paths", type=int, default=10000)
    ver.add_argument("--steps", type=int, default=2520)
    ver.add_argument("--seed", type=int, help=f"default: ${SEED_ENV_VAR} or 20240901")
    ver.add_argument("--out", help="write the report here (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise  # an unlisted error is a bug: let its traceback show


if __name__ == "__main__":
    sys.exit(main())
