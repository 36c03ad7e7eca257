"""Compare two git refs on the benchmark in alternating pairs of runs.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload price-series --seeds 1101-1110 --seconds 38 --out BENCH_n.json

Both refs are unpacked with `git archive` into temporary directories, and
`python3 bench/run.py` runs in each checkout with the same seed, one run per
side and seed; the side that runs first alternates from pair to pair, starting
with the parent.  The medians, quartiles (inclusive method), pairs won by the
change and the comparison with each metric's bound in BENCHMARK.json go under
"end_to_end" -> workload in --out; other keys of an existing --out file are
kept.  With --trace-seed, each side also runs once with --trace 1 (parent
first), and its per-layer metrics go under "per_layer" -> workload.  The
line count of each side's src/gvswap/*.py, as `wc -l` gives it, goes under
"src_lines".

Standard library only; nothing under bench/ is written to.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """"1101-1103,1107" -> [1101, 1102, 1103, 1107]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def checkout(ref: str, into: str) -> str:
    """Unpack the tree of `ref` into a new directory under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], check=True, capture_output=True).stdout
    path = tempfile.mkdtemp(prefix="side-", dir=into)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(path, filter="data")
    return path


def src_lines(root: str) -> int:
    """Newlines in the checkout's src/gvswap/*.py: the total of `wc -l`."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "gvswap", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def bench_run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON object that bench/run.py prints last."""
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(results: dict, spec: dict) -> dict:
    """One metric's entry: both sides' summaries and the pairwise verdicts."""
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
    sign = 1.0 if better == "higher" else -1.0
    parent, change = summary(runs["parent"]), summary(runs["change"])
    relative = (change["median"] - parent["median"]) / parent["median"]
    return {
        "unit": spec["unit"],
        "better": better,
        "parent": parent,
        "change": change,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])),
        "relative_change_of_median": relative,
        "parent_iqr": parent["q3"] - parent["q1"],
        "bound": bound,
        "worse_by_more_than_bound": -sign * relative > bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--change", required=True, help="git ref of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1101-1110 or 5,7,9")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace-seed", type=int, help="also run one traced run per side")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        specs = json.load(fh)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {"parent": checkout(args.parent, scratch), "change": checkout(args.change, scratch)}
        lines = {side: src_lines(roots[side]) for side in SIDES}
        results = {side: [] for side in SIDES}
        first = []
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                results[side].append(bench_run(roots[side], args.workload, seed, args.seconds, 0))
                print(f"{args.workload} seed {seed} {side}: {results[side][-1]['metrics']}", file=sys.stderr)
        traced = {}
        if args.trace_seed is not None:
            for side in SIDES:
                traced[side] = bench_run(roots[side], args.workload, args.trace_seed, args.seconds, 1)

    entry = {
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "first_in_pair": first,
        **{key: {side: [r[key] for r in results[side]] for side in SIDES}
           for key in ("correct", "attempted", "failed")},
        "metrics": {spec["name"]: compare(results, spec) for spec in specs},
    }
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["src_lines"] = lines
    data.setdefault("end_to_end", {})[args.workload] = entry
    if traced:
        data.setdefault("per_layer", {})[args.workload] = traced
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
