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
    for method in ("approx", "series"):
        with tracer:
            code = cli.main([
                "price",
                "--params", str(FIXTURES / "base_params.json"),
                "--method", method,
                "--contract", str(FIXTURES / "contract_trace.json"),
            ])
        assert code == cli.EXIT_OK
    capsys.readouterr()
    metrics = tracer.metrics(1, 0.0)
    assert metrics["quadrature.evals"]["value"] > 0
