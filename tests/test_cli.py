import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gvswap
from gvswap import (
    ModelParams,
    NumericalError,
    SimulationConfig,
    SwapContract,
    estimate_params,
    expected_cov_matrix,
    load_prices,
    price_trace,
    refcase,
    simulate,
)
from gvswap.cli import (
    EXIT_ESTIMATION,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
)
from gvswap.reporting import dumps_17

from .conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_form_trace(params: dict) -> float:
    """tr E[Omega] of a params file with gamma drivers: per asset, the time
    average k1 + (sigma0^2 - k1)(1 - e^(-lam T))/(lam T) of its variance plus
    the squared common jumps rho^2 lam kappa_2(Z1)."""
    def cumulant(driver, n):
        return driver["a"] * math.factorial(n - 1) / driver["b"] ** n

    lam, horizon = params["lambda"], params["horizon"]
    factor = -math.expm1(-lam * horizon) / (lam * horizon)
    # asset i's driver is r Z1 + sqrt(1 - r^2) Z_own; the base asset's is Z1
    mixes = ((1.0, "z1"), (params["r2"], "z_star"), (params["r3"], "z_star_star"))
    total = 0.0
    for asset, (r, own) in zip(params["assets"], mixes):
        k1 = r * cumulant(params["z1"], 1) + math.sqrt(1.0 - r * r) * cumulant(params[own], 1)
        total += k1 + (asset["sigma0_sq"] - k1) * factor
        total += asset["rho"] ** 2 * lam * cumulant(params["z1"], 2)
    return total


class TestCalibrate:
    def test_fixture_with_reference_overrides(self, capsys, tmp_path):
        out = tmp_path / "params.json"
        code, _, _ = run(
            capsys,
            "calibrate",
            "--prices", FIXTURES / "prices_252.csv",
            "--overrides", FIXTURES / "overrides_reference.json",
            "--out", out,
        )
        assert code == EXIT_OK
        params = ModelParams.from_json_dict(json.loads(out.read_text()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = estimate_params(
                load_prices(FIXTURES / "prices_252.csv"), refcase.PARAM_OVERRIDES
            )
        assert params.to_json_dict() == want.to_json_dict()
        assert np.allclose(params.mu, refcase.MU)
        assert params.lam == refcase.LAMBDA

    @pytest.mark.parametrize("method, least_error", [("series", 0.1), ("approx", 1e-4)])
    def test_calibrated_gamma_one_price_exits_6(self, capsys, tmp_path, method, least_error):
        # the reference overrides give gamma(1, 1) drivers: the series diverges
        # (integrand values about 1e9), and the delta route's integrand has a
        # boundary layer about 1e-5 days wide at t = 0; the quadrature reports
        # its own error and the price fails fast instead of running on or
        # pricing from an unresolved integral
        out = tmp_path / "params.json"
        code, _, _ = run(
            capsys, "calibrate", "--prices", FIXTURES / "prices_252.csv",
            "--overrides", FIXTURES / "overrides_reference.json", "--out", out,
        )
        assert code == EXIT_OK
        code, report, err = run(
            capsys, "price", "--params", out, "--method", method,
            "--contract", FIXTURES / "contract_eigenvalue.json",
        )
        assert code == EXIT_NUMERICAL and report == ""
        match = re.search(r"quadrature error (\S+) relative exceeds 1e-06", err)
        assert match and float(match.group(1)) > least_error

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "calibrate", "--prices", tmp_path / "nope.csv")
        assert code == EXIT_INPUT
        assert "nope.csv" in err

    @pytest.mark.parametrize("content", [[3], "x", 3])
    def test_non_object_overrides_exit_2(self, capsys, tmp_path, content):
        bad = tmp_path / "overrides.json"
        bad.write_text(json.dumps(content))
        code, out, err = run(
            capsys, "calibrate", "--prices", FIXTURES / "prices_252.csv", "--overrides", bad
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overrides.json" in err and "Traceback" not in err

    def test_constant_prices_exit_3(self, capsys, tmp_path):
        csv = tmp_path / "const.csv"
        rows = "\n".join(f"2024-01-{d:02d},100,100,100" for d in range(1, 20))
        csv.write_text("date,asset1,asset2,asset3\n" + rows + "\n")
        code, _, err = run(capsys, "calibrate", "--prices", csv)
        assert code == EXIT_ESTIMATION
        assert "degenerate" in err


class TestPrice:
    def test_fixture_omega_trace_reference_price(self, capsys):
        code, out, _ = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", FIXTURES / "contract_trace.json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["price"] == pytest.approx(refcase.PRICE_TRACE, abs=1e-5)

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_fixture_omega_asymmetric_exit_2_at_any_scale(self, capsys, tmp_path, scale):
        # entry (1, 0) is 4.5 times entry (0, 1): asymmetric in any units
        entries = scale * np.array([[3e-13, 2e-13, 0.0], [9e-13, 3e-13, 0.0], [0.0, 0.0, 3e-13]])
        omega = tmp_path / "omega.json"
        omega.write_text(json.dumps({"entries": entries.reshape(-1).tolist(), "method": "fixture"}))
        code, _, err = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", omega,
            "--contract", FIXTURES / "contract_trace.json",
        )
        assert code == EXIT_INPUT
        assert "symmetric" in err

    def test_fixture_omega_eigenvalue_reproduction(self, capsys):
        code, out, _ = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", FIXTURES / "contract_eigenvalue.json",
            "--fixed-basis", FIXTURES / "printed_basis_reference.json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["price"] == pytest.approx(refcase.PRICE_EIGENVALUE, abs=5e-5)
        assert report["results"]["expected_metric"] == pytest.approx(
            refcase.EIGENVALUE_METRIC, abs=2e-4
        )

    def test_fixture_omega_eigenvalue_corrected(self, capsys):
        code, out, _ = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", FIXTURES / "contract_eigenvalue.json",
            f"--mu={refcase.MU[0]},{refcase.MU[1]},{refcase.MU[2]}",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["expected_metric"] == pytest.approx(0.0072049534, abs=1e-8)

    def test_at_the_money_zero(self, capsys, tmp_path):
        contract = dict(json.loads((FIXTURES / "contract_trace.json").read_text()))
        contract["strike"] = float(np.trace(refcase.OMEGA))
        path = tmp_path / "atm.json"
        path.write_text(dumps_17(contract))
        code, out, _ = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", path,
        )
        assert code == EXIT_OK
        assert json.loads(out)["results"]["price"] == 0.0

    def test_infeasible_target_exit_4(self, capsys, tmp_path):
        contract = dict(json.loads((FIXTURES / "contract_eigenvalue.json").read_text()))
        contract["target_return"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(dumps_17(contract))
        code, _, err = run(
            capsys,
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", path,
            f"--mu={refcase.MU[0]},{refcase.MU[1]},{refcase.MU[2]}",
        )
        assert code == EXIT_INFEASIBLE
        assert "attainable" in err

    def test_analytic_route_with_params_file(self, capsys):
        code, out, _ = run(
            capsys,
            "price",
            "--params", FIXTURES / "base_params.json",
            "--method", "approx",
            "--contract", FIXTURES / "contract_trace.json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["method"] == "approx"
        assert report["results"]["expected_metric"] > 0.0

    def test_numerical_failure_exit_6(self, capsys, monkeypatch):
        import gvswap.cli as cli

        def fail(*args, **kwargs):
            raise NumericalError("quadrature did not converge")

        monkeypatch.setattr(cli, "expected_cov_matrix", fail)
        code, _, err = run(
            capsys,
            "price",
            "--params", FIXTURES / "base_params.json",
            "--method", "approx",
            "--contract", FIXTURES / "contract_eigenvalue.json",
        )
        assert code == EXIT_NUMERICAL
        assert "converge" in err

    def test_trace_contract_never_reaches_the_matrix(self, capsys, monkeypatch):
        # trace counterpart of test_numerical_failure_exit_6: the trace reads
        # the closed-form diagonal, so a failing matrix route is never called
        import gvswap.cli as cli

        def fail(*args, **kwargs):
            raise NumericalError("quadrature did not converge")

        monkeypatch.setattr(cli, "expected_cov_matrix", fail)
        code, out, _ = run(
            capsys,
            "price",
            "--params", FIXTURES / "base_params.json",
            "--method", "approx",
            "--contract", FIXTURES / "contract_trace.json",
        )
        assert code == EXIT_OK
        params = json.loads((FIXTURES / "base_params.json").read_text())
        metric = json.loads(out)["results"]["expected_metric"]
        assert metric == pytest.approx(closed_form_trace(params), rel=1e-12)

    def test_overflow_exit_6(self, capsys, tmp_path):
        # gamma drivers with b = 5e29 have mean 5e-29, about 1e-24 of sigma0^2:
        # in the engine's unit, the power of 4 nearest sigma0^2, their rate is
        # still 3.1e25, and its 16th power (order 2 kmax) overflows
        params = json.loads((FIXTURES / "base_params.json").read_text())
        for key in ("z1", "z_star", "z_star_star"):
            params[key] = {"family": "gamma", "a": 25, "b": 5e29}
        path = tmp_path / "extreme.json"
        path.write_text(dumps_17(params))
        commands = (
            ("price", "--method", "series", "--contract", FIXTURES / "contract_eigenvalue.json"),
            ("verify", "--paths", 10, "--steps", 20, "--seed", 7),
        )
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, _, err = run(capsys, command[0], "--params", path, *command[1:])
            assert code == EXIT_NUMERICAL
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_series_integrand_exit_6(self, capsys, tmp_path):
        # at gamma shape 1 the series diverges: E[sigma_0 sigma_1] reads -16.7
        # at a quadrature node, and the matrix's eigenvalues come out near
        # -5.8 and 5.8; the approx route stays positive and prices
        params = json.loads((FIXTURES / "base_params.json").read_text())
        for key in ("z1", "z_star", "z_star_star"):
            params[key] = {"family": "gamma", "a": 1, "b": 2e4}
        path = tmp_path / "shape_one.json"
        path.write_text(dumps_17(params))
        argv = ("price", "--params", path, "--contract", FIXTURES / "contract_eigenvalue.json", "--method")
        code, out, err = run(capsys, *argv, "series")
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("error: series route: E[sigma_0 sigma_1] reads -1.")
        assert err.count("\n") == 1
        code, out, _ = run(capsys, *argv, "approx")
        assert code == EXIT_OK
        assert json.loads(out)["results"]["expected_metric"] > 0.0

    def test_trace_at_overflowing_driver_rate(self, capsys, tmp_path):
        # trace counterpart of test_overflow_exit_6: the closed-form diagonal
        # never raises b to a power, so b = 5e29 prices
        params = json.loads((FIXTURES / "base_params.json").read_text())
        for key in ("z1", "z_star", "z_star_star"):
            params[key] = {"family": "gamma", "a": 25, "b": 5e29}
        path = tmp_path / "extreme.json"
        path.write_text(dumps_17(params))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(
                capsys, "price", "--params", path, "--method", "series",
                "--contract", FIXTURES / "contract_trace.json",
            )
        assert code == EXIT_OK
        metric = json.loads(out)["results"]["expected_metric"]
        assert metric == pytest.approx(closed_form_trace(params), rel=1e-12)

    def test_trace_series_at_r2_zero(self, capsys, tmp_path):
        # the trace reads only the closed-form diagonal; the eigenvalue swap
        # also reads pair (1, 2), whose series engine is regular at r2 = 0
        params = json.loads((FIXTURES / "base_params.json").read_text())
        params["r2"] = 0.0
        path = tmp_path / "r2zero.json"
        path.write_text(dumps_17(params))
        argv = ("price", "--params", path, "--method", "series", "--contract")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(capsys, *argv, FIXTURES / "contract_trace.json")
            assert code == EXIT_OK
            metric = json.loads(out)["results"]["expected_metric"]
            assert metric == pytest.approx(closed_form_trace(params), rel=1e-12)
            code, _, _ = run(capsys, *argv, FIXTURES / "contract_eigenvalue.json")
        assert code == EXIT_OK

    def test_beta_key_ignored(self, capsys, tmp_path):
        # older parameter files carry "beta" bounding levels; these are far
        # below the initial variances, and nothing reads them
        params = json.loads((FIXTURES / "base_params.json").read_text())
        params.pop("beta")
        reports = []
        for extra in ({}, {"beta": [1e-6, 1e-6, 1e-6]}):
            path = tmp_path / "params.json"
            path.write_text(dumps_17({**params, **extra}))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, out, _ = run(capsys, "price", "--params", path, "--method", "series",
                                   "--contract", FIXTURES / "contract_eigenvalue.json")
            assert code == EXIT_OK
            reports.append(re.sub(r'"wall_time_s": [^,\n]*', "", out))
        assert reports[0] == reports[1]

    def test_reports_reproducible(self, capsys):
        args = (
            "price",
            "--method", "fixture-omega",
            "--omega", FIXTURES / "omega_reference.json",
            "--contract", FIXTURES / "contract_trace.json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2


class TestTracePath:
    """A trace swap under series or approx prices from the closed-form
    diagonal alone: no off-diagonal route, no quadrature, no matrix."""

    @pytest.mark.parametrize("method", ["series", "approx"])
    def test_no_off_diagonal_route(self, capsys, monkeypatch, method):
        import gvswap.cli as cli
        import gvswap.covariance as covariance

        def fail(*args, **kwargs):
            raise AssertionError("a trace op reached an off-diagonal computation")

        for owner, name in (
            (covariance, "expected_cov_series"),
            (covariance, "expected_cov_approx"),
            (covariance, "adaptive_simpson"),
            (cli, "expected_cov_matrix"),
        ):
            monkeypatch.setattr(owner, name, fail)
        code, out, _ = run(
            capsys, "price", "--params", FIXTURES / "base_params.json", "--method", method,
            "--contract", FIXTURES / "contract_trace.json",
        )
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["method"] == method
        assert list(results["diagnostics"]["entry_diagnostics"]) == ["00", "11", "22"]

    @pytest.mark.parametrize("method", ["series", "approx"])
    @pytest.mark.parametrize("case", ["gamma", "ig", "zero", "gamma-1e-4"])
    def test_bitwise_trace_of_full_matrix(self, capsys, tmp_path, method, case):
        params = json.loads((FIXTURES / "base_params.json").read_text())
        scale = 1e-4 if case.endswith("1e-4") else 1.0
        # the exact rescaling of the model: variances and driver laws by c,
        # leverages by c^(-1/2)
        driver = {
            "gamma": {"family": "gamma", "a": 100, "b": 2.0e6 / scale},
            "ig": {"family": "ig", "a": 0.0335, "b": 670.0},
            "zero": {"family": "zero"},
        }[case.split("-")[0]]
        for key in ("z1", "z_star", "z_star_star"):
            params[key] = driver
        for asset in params["assets"]:
            asset["sigma0_sq"] *= scale
            asset["rho"] /= math.sqrt(scale)
        path = tmp_path / "params.json"
        path.write_text(dumps_17(params))
        contract = FIXTURES / "contract_trace.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(
                capsys, "price", "--params", path, "--method", method, "--contract", contract
            )
            model = ModelParams.from_json_dict(params)
        assert code == EXIT_OK
        want = price_trace(
            expected_cov_matrix(model, method),
            SwapContract.from_json_dict(json.loads(contract.read_text())),
        )
        results = json.loads(out)["results"]
        assert results["expected_metric"] == want.expected_metric
        assert results["price"] == want.price


class TestMalformedInput:
    """A JSON file of the wrong shape is an input error naming the file."""

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("params", {"assets": []}),
            ("params", [1, 2]),
            ("verify-params", {"assets": []}),
            ("verify-params", [1, 2]),
            ("contract", {"strike": 0.01, "horizon": 252.0, "rate": 0.0}),
            ("omega", {"method": "fixture"}),
            ("omega", [1, 2]),
            ("fixed-basis", {"basis": np.eye(3).tolist()}),
        ],
    )
    def test_exit_2_one_error_line(self, capsys, tmp_path, kind, content):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(content))
        omega = FIXTURES / "omega_reference.json"
        argv = {
            "params": ("price", "--params", bad, "--method", "approx",
                       "--contract", FIXTURES / "contract_trace.json"),
            "verify-params": ("verify", "--params", bad, "--paths", 4, "--steps", 4),
            "contract": ("price", "--method", "fixture-omega", "--omega", omega, "--contract", bad),
            "omega": ("price", "--method", "fixture-omega", "--omega", bad,
                      "--contract", FIXTURES / "contract_trace.json"),
            "fixed-basis": ("price", "--method", "fixture-omega", "--omega", omega,
                            "--contract", FIXTURES / "contract_eigenvalue.json", "--fixed-basis", bad),
        }[kind]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "malformed.json" in err and "Traceback" not in err


class TestVerify:
    def test_zero_driver_params_all_z_zero(self, capsys, tmp_path):
        params = json.loads((FIXTURES / "base_params.json").read_text())
        for key in ("z1", "z_star", "z_star_star"):
            params[key] = {"family": "zero"}
        for asset in params["assets"]:
            asset["rho"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(dumps_17(params))
        code, out, _ = run(
            capsys, "verify", "--params", path, "--paths", 50, "--steps", 8192, "--seed", 1
        )
        # deterministic model: agreement limited only by grid bias
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["max_abs_z"] == 0.0  # stderr = 0 handled as z = 0

    def test_base_fixture_small_run(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--params", FIXTURES / "base_params.json",
            "--paths", 400,
            "--steps", 504,
            "--seed", 7,
        )
        report = json.loads(out)
        assert code in (EXIT_OK, EXIT_VERIFICATION)
        assert set(report["results"]["routes"]) == {"series", "approx"}
        assert len(report["results"]["mc"]["entries"]) == 9

    def test_fast_mean_reversion_no_overflow(self, capsys, tmp_path):
        # lam * dt * 252 = 756 would overflow exp() in an unsplit variance scan
        params = json.loads((FIXTURES / "base_params.json").read_text())
        params["lambda"] = 3.0
        path = tmp_path / "fast.json"
        path.write_text(dumps_17(params))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ModelParams.from_json_dict(params)
        bundle = simulate(model, SimulationConfig(n_paths=20, n_steps=252, seed=7))
        assert np.all(np.isfinite(bundle.realized))
        assert np.all(np.isfinite(bundle.sigma_sq_terminal))
        code, _, _ = run(
            capsys, "verify", "--params", path, "--paths", 20, "--steps", 252, "--seed", 7
        )
        assert code in (EXIT_OK, EXIT_VERIFICATION)

    def test_single_step_fast_mean_reversion_no_overflow(self, capsys, tmp_path):
        # one step of lam * dt = 756 would overflow exp() in the scan itself
        params = json.loads((FIXTURES / "base_params.json").read_text())
        params["lambda"] = 3.0
        path = tmp_path / "fast.json"
        path.write_text(dumps_17(params))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ModelParams.from_json_dict(params)
        bundle = simulate(model, SimulationConfig(n_paths=2, n_steps=1, seed=1))
        assert np.all(np.isfinite(bundle.sigma_sq_terminal))
        assert np.all(np.isfinite(bundle.realized))
        for seed in (1, 7):
            code, _, _ = run(
                capsys, "verify", "--params", path, "--paths", 20, "--steps", 1, "--seed", seed
            )
            assert code in (EXIT_OK, EXIT_VERIFICATION)

    def test_tampered_params_exit_2(self, capsys, tmp_path):
        params = json.loads((FIXTURES / "base_params.json").read_text())
        params["lambda"] = -0.4
        path = tmp_path / "bad.json"
        path.write_text(dumps_17(params))
        code, _, err = run(capsys, "verify", "--params", path, "--paths", 4, "--steps", 4)
        assert code == EXIT_INPUT
        assert "positive" in err

    def test_one_path_exit_2(self, capsys):
        # one path has no sample spread: every z-score would be masked to 0
        code, out, err = run(
            capsys, "verify", "--params", FIXTURES / "base_params.json",
            "--paths", 1, "--steps", 50, "--seed", 3,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "at least 2 paths" in err

    def test_negative_seed_exit_2_without_worker_traceback(self, capfd):
        # capfd, not capsys: forked workers write to the shared descriptor
        code, _, err = run(
            capfd, "verify", "--params", FIXTURES / "base_params.json",
            "--paths", 40, "--steps", 8, "--seed", -1,
        )
        assert code == EXIT_INPUT
        assert "seed" in err and "Traceback" not in err

    def test_seed_env_var_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("GVSWAP_SEED", "12345")
        code, out, _ = run(
            capsys,
            "verify",
            "--params", FIXTURES / "base_params.json",
            "--paths", 16,
            "--steps", 64,
        )
        assert json.loads(out)["seed"] == 12345


class TestReportFormat:
    def test_seventeen_digit_floats(self):
        text = dumps_17({"x": 1.0 / 3.0, "y": [0.1]})
        assert "0.33333333333333331" in text
        assert "0.10000000000000001" in text

    def test_round_trip_via_json(self):
        payload = {"a": 1.5, "b": [1, 2.25, {"c": "s"}], "d": None, "e": True}
        assert json.loads(dumps_17(payload)) == payload


class TestDependencies:
    def test_package_imports_no_scipy(self):
        # the package depends on numpy alone (pyproject.toml)
        src = os.path.dirname(os.path.dirname(os.path.abspath(gvswap.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, gvswap.cli, gvswap.refcase; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
