"""Compare the CLI reports of two git refs, value for value.

Run from the repository root, for example:

    python3 scripts/compare_reports.py HEAD~1 HEAD

Both refs are unpacked with `git archive` (the helper of
scripts/bench_pairs.py).  The inputs are written once, so both refs read the
same files:

* `price` on a trace and a max-eigenvalue contract, under `series` and
  `approx`, for every parameter class of bench/workloads.py (imported, never
  written to), each jittered at --seeds seeds;
* `verify` on tests/fixtures/base_params.json at a small budget;
* `calibrate` on tests/fixtures/prices_252.csv, with and without
  tests/fixtures/overrides_reference.json;
* one op per error exit: a missing params file (2), a one-row price CSV (3),
  an unattainable target return (4) and gamma(25, 5e29) drivers under
  `series` (6); and two trace ops on bad params, gamma(25, 1e-200) drivers
  and a NaN `lambda`.

An op that raises past `gvswap.cli.main` is recorded as exit 1, no stdout,
and `<type>: <message>` as its error line, so a ref whose CLI lets an
exception through still compares.

Each ref runs its ops in one child process, in its own output directory, that
puts the ref's src/ first on sys.path and calls gvswap.cli.main(argv).  The
exit codes, the error lines, the files the ops write to --out and what they
print on stdout (`calibrate`'s run report) must match, apart from
`wall_time_s`.  The script prints each group's largest relative move and exits
1 on any difference.

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

#: runs a JSON list of (label, argv) in one process:
#: {label: [exit code, stdout, stderr]}, [1, "", "<type>: <message>"] for an
#: uncaught exception
RUNNER = """
import contextlib, io, json, sys, warnings
sys.path.insert(0, sys.argv[1])
from gvswap.cli import main
warnings.simplefilter("ignore")
out = {}
for label, argv in json.load(sys.stdin):
    text, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
            code = main(argv)
        out[label] = [code, text.getvalue(), err.getvalue()]
    except Exception as exc:
        out[label] = [1, "", f"{type(exc).__name__}: {exc}"]
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
    fixture = {name: shutil.copy(os.path.join(ROOT, "tests", "fixtures", name), into)
               for name in ("base_params.json", "prices_252.csv", "overrides_reference.json",
                            "contract_eigenvalue.json", "contract_trace.json")}
    base = fixture["base_params.json"]
    ops.append(("verify/base", "verify", ["verify", "--params", base, *VERIFY_ARGS]))
    calibrate = ["calibrate", "--prices", fixture["prices_252.csv"]]
    ops.append(("calibrate/defaults", "calibrate", calibrate))
    ops.append(("calibrate/overrides", "calibrate",
                calibrate + ["--overrides", fixture["overrides_reference.json"]]))

    with open(base) as fh:
        params = json.load(fh)
    with open(fixture["contract_eigenvalue.json"]) as fh:
        contract = json.load(fh)
    one_row = os.path.join(into, "one-row.csv")
    with open(fixture["prices_252.csv"]) as fh, open(one_row, "w") as out:
        out.writelines([next(fh), next(fh)])  # the header and one row
    unattainable = os.path.join(into, "unattainable.json")
    workloads._write_json(unattainable, {**contract, "target_return": 0.5})
    overflowing = os.path.join(into, "overflowing-params.json")
    driver = {"family": "gamma", "a": 25, "b": 5e29}
    workloads._write_json(overflowing, {**params, "z1": driver, "z_star": driver, "z_star_star": driver})
    tiny = os.path.join(into, "tiny-driver-params.json")
    driver = {"family": "gamma", "a": 25, "b": 1e-200}
    workloads._write_json(tiny, {**params, "z1": driver, "z_star": driver, "z_star_star": driver})
    nan_lambda = os.path.join(into, "nan-lambda-params.json")
    workloads._write_json(nan_lambda, {**params, "lambda": math.nan})  # written as NaN
    trace = ["price", "--contract", fixture["contract_trace.json"], "--method", "approx", "--params"]
    price = ["price", "--contract", fixture["contract_eigenvalue.json"], "--params"]
    ops += [
        ("error/missing-params", "errors",
         price + [os.path.join(into, "missing.json"), "--method", "approx"]),
        ("error/one-row-prices", "errors", ["calibrate", "--prices", one_row]),
        ("error/unattainable-target", "errors",
         ["price", "--contract", unattainable, "--params", base, "--method", "approx"]),
        ("error/overflowing-driver", "errors", price + [overflowing, "--method", "series"]),
        ("error/tiny-driver-trace", "errors", trace + [tiny]),
        ("error/nan-lambda-trace", "errors", trace + [nan_lambda]),
    ]
    return ops


def _without_wall_time(text: str):
    """The JSON value of text, without its `wall_time_s`; None for no text."""
    if not text:
        return None
    value = json.loads(text)
    value.pop("wall_time_s", None)
    return value


def run_ref(root: str, ops: list, out_dir: str) -> dict:
    """{label: (exit code, stderr, {"out": --out file, "stdout": printed
    report})} of every op on one ref.  The --out names are relative to out_dir,
    so a report that echoes its own --out reads the same on both refs."""
    os.makedirs(out_dir)
    jobs = [(label, argv + ["--out", f"{k}.json"]) for k, (label, _, argv) in enumerate(ops)]
    done = subprocess.run([sys.executable, "-c", RUNNER, os.path.join(root, "src")], cwd=out_dir,
                          input=json.dumps(jobs), capture_output=True, text=True, check=True)
    printed = json.loads(done.stdout)
    results = {}
    for k, (label, _, _) in enumerate(ops):
        code, stdout, stderr = printed[label]
        path = os.path.join(out_dir, f"{k}.json")
        written = None
        if os.path.exists(path):
            with open(path) as fh:
                written = fh.read()
        reports = {"out": _without_wall_time(written), "stdout": _without_wall_time(stdout)}
        results[label] = (code, stderr, reports)
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
            lines = err_a.strip() if err_a == err_b else f"{err_a.strip()!r} -> {err_b.strip()!r}"
            notes.append(f"{label}: exit {code_a} -> {code_b} {lines}")
        moves[group] = max(moves.get(group, 0.0), move)
    for group, move in moves.items():
        print(f"{group:20s} {'identical' if move == 0.0 else f'largest relative move {move:.3g}'}")
    for note in notes:
        print(note)
    changed = sum(move != 0.0 for move in moves.values())
    print(f"{len(ops)} ops, {changed} of {len(moves)} groups differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
