"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces gvswap's public functions in the namespace that calls
them (so `cli.expected_cov_matrix`, not `covariance.expected_cov_matrix`)
with wrappers that record a span: name, start, end and the enclosing span.
Spans stay in memory; after each op they are folded into per-layer totals,
and the per-layer metrics are written once, at the end of the run.  The
wrappers are installed only around the timed call of a traced op, so checks
and untraced ops run the unmodified program.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import gvswap.cli as cli
import gvswap.covariance as covariance
import gvswap.mc as mc
import gvswap.pricing as pricing
from gvswap.subordinators import CorrelatedTriple, SubordinatorSpec

#: (owner, attribute, span name); the owner is the namespace the caller reads
TARGETS = (
    (cli, "main", "cli"),
    (cli, "_load_params", "params"),
    (cli, "expected_cov_matrix", "covariance.matrix"),
    (cli, "price_trace", "pricing"),
    (cli, "price_eigenvalue", "pricing"),
    (cli, "dumps_17", "reporting"),
    (cli, "mc_expected_cov", "mc.expected_cov"),
    (covariance, "expected_var_leg", "covariance.diag"),
    (covariance, "expected_cov_series", "covariance.offdiag"),
    (covariance, "expected_cov_approx", "covariance.offdiag"),
    (covariance, "adaptive_simpson", "quadrature"),
    (covariance, "scaled_moment_table", "moments"),
    (pricing, "qr_constraint_basis", "weights"),
    (pricing, "feasible_weights", "weights"),
    (mc, "simulate", "mc.simulate"),
    (SubordinatorSpec, "sample_increments", "subordinators.sample"),
    (CorrelatedTriple, "correlated_increments", "subordinators.mix"),
)

#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.self_ms": "ms",
    "quadrature.us_per_eval": "us",
    "moments.tables": "count",
    "moments.ms": "ms",
    "covariance.matrix_ms": "ms",
    "covariance.diag_ms": "ms",
    "covariance.offdiag_ms": "ms",
    "cli.self_ms": "ms",
    "reporting.dumps_ms": "ms",
    "reporting.report_bytes": "bytes",
    "params.load_ms": "ms",
    "weights.us": "us",
    "pricing.us": "us",
    "mc.simulate_ms": "ms",
    "mc.us_per_path": "us",
    "mc.self_ms": "ms",
    "mc.reduce_ms": "ms",
    "mc.paths": "count",
    "subordinators.sample_ms": "ms",
    "subordinators.sample_calls": "count",
    "subordinators.mix_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        self._wrappers = [self._wrap(owner, attr, name) for owner, attr, name in TARGETS]
        self.total = defaultdict(float)   # seconds inside each span name
        self.child = defaultdict(float)   # seconds of child spans, by parent name
        self.calls = Counter()
        self.ops = 0
        self.paths = 0
        self.report_bytes = []   # per op, in the order the ops ran

    # -- recording -----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _wrap(self, owner, attr, name):
        original = owner.__dict__[attr]
        if name == "quadrature":
            # one span per integrand evaluation as well
            def simpson(f, *args, **kwargs):
                return original(self._span("quadrature.eval", f), *args, **kwargs)

            return self._span(name, simpson)
        if name == "reporting":
            def dumps(*args, **kwargs):
                text = original(*args, **kwargs)
                # the wall time's digit count varies from run to run
                self._op_bytes += sum(len(line.encode()) for line in text.splitlines(True)
                                      if '"wall_time_s"' not in line)
                return text

            return self._span(name, dumps)
        if name == "mc.simulate":
            def simulate(params, config):
                self.paths += config.n_paths
                return original(params, config)

            return self._span(name, simulate)
        return self._span(name, original)

    # -- switching -------------------------------------------------------------
    def __enter__(self):
        self._op_bytes = 0
        for (owner, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._fold()
        return False

    def _fold(self):
        """Add the op's spans to the per-layer totals and drop them."""
        spans = self.spans
        for name, start, end, parent in spans:
            self.total[name] += end - start
            self.calls[name] += 1
            if parent >= 0:
                self.child[spans[parent][0]] += end - start
        spans.clear()
        self.ops += 1
        self.report_bytes.append(self._op_bytes)

    # -- results ---------------------------------------------------------------
    def metrics(self, first_round_ops: int, overhead_ms: float) -> dict:
        ops = self.ops
        matrices = self.calls["covariance.matrix"]
        evals = self.calls["quadrature.eval"]

        def self_s(name):
            return self.total[name] - self.child[name]

        def per_op_ms(seconds):
            return 1e3 * seconds / ops

        values = {
            "quadrature.calls": self.calls["quadrature"] / matrices,
            "quadrature.evals": evals / matrices,
            "quadrature.self_ms": per_op_ms(self_s("quadrature")),
            "quadrature.us_per_eval": 1e6 * self.total["quadrature.eval"] / evals,
            "moments.tables": self.calls["moments"] / matrices,
            "moments.ms": per_op_ms(self.total["moments"]),
            "covariance.matrix_ms": per_op_ms(self.total["covariance.matrix"]),
            "covariance.diag_ms": per_op_ms(self.total["covariance.diag"]),
            "covariance.offdiag_ms": per_op_ms(self.total["covariance.offdiag"]),
            "cli.self_ms": per_op_ms(self_s("cli")),
            "reporting.dumps_ms": per_op_ms(self.total["reporting"]),
            # 17-digit floats drop trailing zeros, so the byte count depends on
            # the values; the first traced round's inputs are fixed by the seed
            "reporting.report_bytes": sum(self.report_bytes[:first_round_ops]) / first_round_ops,
            "params.load_ms": per_op_ms(self.total["params"]),
            "weights.us": 1e6 * self.total["weights"] / ops,
            "pricing.us": 1e6 * self_s("pricing") / ops,
            "mc.simulate_ms": per_op_ms(self.total["mc.simulate"]),
            "mc.us_per_path": 1e6 * self.total["mc.simulate"] / self.paths if self.paths else 0.0,
            "mc.self_ms": per_op_ms(self_s("mc.simulate")),
            "mc.reduce_ms": per_op_ms(self_s("mc.expected_cov")),
            "mc.paths": self.paths / ops,
            "subordinators.sample_ms": per_op_ms(self.total["subordinators.sample"]),
            "subordinators.sample_calls": self.calls["subordinators.sample"] / ops,
            "subordinators.mix_ms": per_op_ms(self.total["subordinators.mix"]),
            "trace.overhead_ms": overhead_ms,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
