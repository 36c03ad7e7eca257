"""Compare the CLI reports of two git refs, value for value.

Run from the repository root, for example:

    python3 scripts/compare_reports.py HEAD~1 HEAD

Both refs are unpacked with `git archive` (the helper of
scripts/bench_pairs.py).  The inputs are written once, so both refs read the
same files:

* `price` on a trace and a max-eigenvalue contract, under `series` and
  `approx`, for every parameter class of bench/workloads.py (imported, never
  written to), each jittered at --seeds seeds;
* `verify` on tests/fixtures/base_params.json at a small budget.

Each ref runs its ops in one child process that puts the ref's src/ first on
sys.path and calls gvswap.cli.main(argv).  The exit codes, the error lines and
the reports without `wall_time_s` must match.  The script prints each class's
largest relative move and exits 1 on any difference.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import checkout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import workloads  # noqa: E402

CLASSES = workloads.SERIES_CLASSES + workloads.HEAVY_CLASSES + (workloads.BASE_CLASS,)
VERIFY_ARGS = ["--paths", "200", "--steps", "252", "--seed", "7"]

#: runs a JSON list of (label, argv) in one process: {label: [exit code, stderr]}
RUNNER = """
import contextlib, io, json, sys, warnings
sys.path.insert(0, sys.argv[1])
from gvswap.cli import main
warnings.simplefilter("ignore")
out = {}
for label, argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out[label] = [main(argv), err.getvalue()]
json.dump(out, sys.stdout)
"""


def write_inputs(into: str, seeds: int) -> list:
    """(label, class name, argv without --out) of every op, inputs on disk."""
    ops = []
    for seed in range(seeds):
        for position, cls in enumerate(CLASSES):
            rng = np.random.default_rng([seed, position])
            params = workloads.make_params(cls, rng)
            p_path = os.path.join(into, f"{cls.name}-{seed}-params.json")
            workloads._write_json(p_path, params)
            for kind in ("trace", "max-eigenvalue"):
                c_path = os.path.join(into, f"{cls.name}-{seed}-{kind}.json")
                workloads._write_json(c_path, workloads.make_contract(kind, params, rng))
                for method in ("series", "approx"):
                    argv = ["price", "--params", p_path, "--contract", c_path, "--method", method]
                    ops.append((f"{cls.name}/{seed}/{kind}/{method}", cls.name, argv))
    base = os.path.join(into, "base_params.json")
    shutil.copy(os.path.join(ROOT, "tests", "fixtures", "base_params.json"), base)
    ops.append(("verify/base", "verify", ["verify", "--params", base, *VERIFY_ARGS]))
    return ops


def run_ref(root: str, ops: list, out_dir: str) -> dict:
    """{label: (exit code, stderr, report or None)} of every op on one ref."""
    os.makedirs(out_dir)
    jobs = [(label, argv + ["--out", os.path.join(out_dir, f"{k}.json")])
            for k, (label, _, argv) in enumerate(ops)]
    done = subprocess.run([sys.executable, "-c", RUNNER, os.path.join(root, "src")], cwd=root,
                          input=json.dumps(jobs), capture_output=True, text=True, check=True)
    codes = json.loads(done.stdout)
    results = {}
    for k, (label, _, _) in enumerate(ops):
        path = os.path.join(out_dir, f"{k}.json")
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
            report.pop("wall_time_s", None)
        results[label] = (*codes[label], report)
    return results


def largest_move(a, b) -> float:
    """Largest relative difference of two JSON values: 0 when equal, inf when
    their structure or a non-numeric leaf differs."""
    if type(a) in (int, float) and type(b) in (int, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        return abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((largest_move(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((largest_move(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_a", help="git ref of the first side")
    parser.add_argument("ref_b", help="git ref of the second side")
    parser.add_argument("--seeds", type=int, default=3, help="jitter seeds per class (default 3)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-reports-") as scratch:
        inputs = os.path.join(scratch, "inputs")
        os.makedirs(inputs)
        ops = write_inputs(inputs, args.seeds)
        sides = [run_ref(checkout(ref, scratch), ops, os.path.join(scratch, f"out-{k}"))
                 for k, ref in enumerate((args.ref_a, args.ref_b))]

    moves, notes = {}, []
    for label, group, _ in ops:
        (code_a, err_a, rep_a), (code_b, err_b, rep_b) = (side[label] for side in sides)
        move = largest_move(rep_a, rep_b)
        if code_a != code_b or err_a != err_b:
            move = math.inf
            notes.append(f"{label}: exit {code_a} -> {code_b} {err_b.strip() or err_a.strip()}")
        moves[group] = max(moves.get(group, 0.0), move)
    for group, move in moves.items():
        print(f"{group:20s} {'identical' if move == 0.0 else f'largest relative move {move:.3g}'}")
    for note in notes:
        print(note)
    changed = sum(move != 0.0 for move in moves.values())
    print(f"{len(ops)} reports, {changed} of {len(moves)} groups differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
