"""The benchmark's tracer resolves every target and reads a price op.

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
