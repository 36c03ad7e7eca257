"""gvswap benchmark: closed-loop CLI workloads, end-to-end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload price-series --seed 1 --seconds 38 --trace 0

One client calls `gvswap.cli.main(argv)` in this process, op after op, for
--seconds seconds of wall time, always completing the round it is in; every
op's report is checked against bench/reference.py.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate between untraced and traced, and the metrics are the per-layer ones
(see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: relative to ROOT, so that the file paths a report echoes have the same
#: length in every run
WORKDIR = os.path.join("bench", "work")

WORKLOADS = ("price-series", "price-approx", "verify")
#: fresh processes that repeat the set-up during an untraced run; setup_s is
#: the median over them and the measuring process
SETUP_PROBES = 4
#: percentile reported as op_tail_ms; each leaves at least ten ops beyond it
#: at the op counts one run reaches (see README for why not a higher one)
TAIL_PERCENTILE = {"price-series": 95, "price-approx": 95, "verify": 90}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(args, workdir):
    """Import gvswap, write the first round's inputs and run one warm-up op.

    Returns (workload, first round's ops, seconds taken).  Timing starts
    before gvswap (and with it numpy) is imported.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    warnings.filterwarnings("ignore", "positive leverage")
    import gvswap.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gvswap imported from {cli.__file__}, not from {SRC}")
    import workloads

    workload = workloads.build(args.workload, cli, workdir, args.seed)
    first = workload.round_ops(1)
    warmup = workload.warmup_op()
    code = workload.run(warmup)
    elapsed = time.perf_counter() - start
    problems = workload.check(warmup, code)
    if problems and not workload.known_fault(warmup, problems):
        raise SystemExit(f"warm-up op failed its check: {problems}")
    workload.discard([warmup])
    return workload, first, elapsed


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Timed ops and the failure tally of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.times = {False: [], True: []}   # op seconds, keyed by traced
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_report = None   # lines of the first timed op's report

    def round(self, ops, tracer=None):
        workload = self.workload
        for op in ops:
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                code = workload.run(op)
                elapsed = time.perf_counter() - start
            self.times[tracer is not None].append(elapsed)
            self.attempted += 1
            if self.first_report is None:
                self.first_report = report_lines(op.out)
            problems = workload.check(op, code)
            if problems:
                if workload.known_fault(op, problems):
                    self.failed += 1
                else:
                    self.correct = False
                    print(f"op {op.argv}: {problems}", file=sys.stderr)
        workload.discard(ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gvswap", "cli.py")):
        print(f"error: no gvswap sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid():07d}")
    try:
        if args.setup_probe:
            print(setup(args, workdir)[2])
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    workload, ops, own_setup = setup(args, workdir)
    setups = [own_setup]
    probes = 0 if args.trace else SETUP_PROBES
    run = Run(workload)
    tracer = None
    if args.trace:
        import tracing   # imports gvswap, so only after setup() put src on the path

        tracer = tracing.Tracer()
    first_round_ops = len(ops)
    measured = 0.0   # wall time of the loop, set-up probes excluded
    round_index = 1
    while True:
        # probes are spread over the run so that set-up and ops see the same
        # spells of a noisy machine
        if len(setups) <= probes and measured >= (len(setups) - 1) * args.seconds / probes:
            setups.append(probe_setup(args))
        start = time.perf_counter()
        # traced runs alternate: odd rounds untraced, even rounds traced
        run.round(ops, tracer if args.trace and round_index % 2 == 0 else None)
        round_index += 1
        done = measured + time.perf_counter() - start >= args.seconds
        if done and len(setups) > probes and (not args.trace or round_index > 2):
            break
        ops = workload.round_ops(round_index)
        measured += time.perf_counter() - start

    if args.workload == "verify":
        reproduce_first_op(workload, run)

    if args.trace:
        overhead = 1e3 * (statistics.median(run.times[True]) - statistics.median(run.times[False]))
        metrics = tracer.metrics(first_round_ops, overhead)
    else:
        times = run.times[False]
        tail = TAIL_PERCENTILE[args.workload]
        if len(times) * (100 - tail) / 100 < 10:
            print(f"warning: p{tail} of {len(times)} ops has fewer than ten ops beyond it",
                  file=sys.stderr)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "op_tail_ms": {
                "value": 1e3 * statistics.quantiles(times, n=100, method="inclusive")[tail - 1],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def report_lines(path: str) -> list[str]:
    """A report's lines, less the one that carries its wall time."""
    with open(path) as fh:
        return [line for line in fh if '"wall_time_s"' not in line]


def reproduce_first_op(workload, run):
    """Re-run the first timed op (untimed) on the same inputs: its report must
    match byte for byte apart from wall_time_s."""
    op = workload.round_ops(1)[0]
    workload.run(op)
    again = report_lines(op.out)
    workload.discard([op])
    if again != run.first_report:
        run.correct = False
        print("verify: re-running the first op changed its report", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
