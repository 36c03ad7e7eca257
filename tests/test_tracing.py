"""The benchmark's tracer resolves every target and reads price and verify ops.

The tracer looks each target up by name in its owner's namespace and divides
by the counts of traced calls, so a renamed or uncalled target fails here
before it fails a benchmark run.
"""

from pathlib import Path

import gvswap.cli as cli

from .conftest import FIXTURES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_price_ops_give_metrics(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    # a trace op runs price_trace on the closed-form diagonal; only the
    # eigenvalue op builds a matrix and calls the quadrature
    for method in ("approx", "series"):
        for contract in ("contract_trace.json", "contract_eigenvalue.json"):
            with tracer:
                code = cli.main([
                    "price",
                    "--params", str(FIXTURES / "base_params.json"),
                    "--method", method,
                    "--contract", str(FIXTURES / contract),
                ])
            assert code == cli.EXIT_OK
    capsys.readouterr()
    metrics = tracer.metrics(1, 0.0)
    assert metrics["quadrature.evals"]["value"] > 0


def test_traced_verify_op_gives_metrics(monkeypatch, capsys):
    # the simulation targets (mc.simulate, the driver draws and their mixing)
    # are reached only by verify ops
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        code = cli.main([
            "verify",
            "--params", str(FIXTURES / "base_params.json"),
            "--paths", "20",
            "--steps", "20",
            "--seed", "11",
        ])
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION)
    capsys.readouterr()
    metrics = tracer.metrics(1, 0.0)
    for name in ("mc.paths", "subordinators.sample_calls", "subordinators.mix_ms",
                 "reporting.report_bytes"):
        assert metrics[name]["value"] > 0, name
