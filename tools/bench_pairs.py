"""Paired benchmark runs, parent commit against a change, as one JSON file.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<N>.json \
        --run section-atlas=1761-1770 [--run exact-large=1721-1730 ...]

The committed files of the parent (default HEAD) are extracted with
`git archive` into a temporary directory; the change is this checkout's
working tree, so an uncommitted change can be measured.  For every
workload and seed, `rsbench/run.py` runs once on each side for the
`run_seconds` of BENCHMARK.json, which side goes first alternating from
pair to pair, and the run's last JSON line is kept.  Per workload the file
holds the pairs, the failed operations per side, and per end-to-end metric
of BENCHMARK.json the medians, quartiles (linear interpolation, inclusive),
change/parent ratio of the medians, `change_wins`, the pairs in which
the change is better, and two verdicts: `claim_met` (a gain may be claimed)
and `beyond_bound` (the change is worse than the metric's bound allows).  `trace1` holds every per-layer row of one
`--trace 1 --seconds 0` run per side and workload at seed 0.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 0


def parse_run(text):
    """'NAME=A-B' or 'NAME=A,B,C' -> (NAME, [seeds])."""
    name, _, seeds = text.partition("=")
    if not name or not seeds:
        raise argparse.ArgumentTypeError(f"expected NAME=SEEDS, got {text!r}")
    if "-" in seeds:
        lo, hi = (int(v) for v in seeds.split("-"))
        return name, list(range(lo, hi + 1))
    return name, [int(v) for v in seeds.split(",")]


def extract(rev, dest):
    """The committed files of rev, written under dest; returns the full sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def bench(checkout, workload, seed, seconds, trace):
    """The last JSON line of one rsbench/run.py process."""
    cmd = [sys.executable, "rsbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(pairs, metrics):
    """Per metric: medians, quartiles, change/parent ratio, wins and the
    two verdicts.  claim_met is the rule for claiming a gain: at least ten
    pairs, the change better in at least nine tenths of them (ties count
    for neither side), and its median better than the parent's by more
    than the parent's quartile distance.  beyond_bound is True when the
    change's median is worse than the parent's by more than the metric's
    bound, a fraction of the parent's median."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        row = {"change_wins": f"{wins}/{len(pairs)}"}
        for s, values in side.items():
            q1, med, q3 = quartiles(values)
            row.update({f"{s}_q1": q1, f"{s}_median": med, f"{s}_q3": q3})
        parent, change = row["parent_median"], row["change_median"]
        row["change_over_parent"] = change / parent
        gain = parent - change if lower else change - parent
        row["claim_met"] = (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                            and gain > row["parent_q3"] - row["parent_q1"])
        row["beyond_bound"] = -gain > metric["bound"] * parent
        summary[name] = dict(sorted(row.items()))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--run", type=parse_run, action="append", required=True,
                        metavar="WORKLOAD=SEEDS", help="e.g. section-atlas=1761-1770")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_sha = extract(args.parent, tmp)
        sides = {"parent": Path(tmp), "change": ROOT}
        result = {
            "description": (
                f"rsbench/run.py final JSON lines, parent commit vs the change, same seeds, "
                f"--seconds {seconds:g}, alternating which side runs first; quartiles by "
                "linear interpolation (inclusive); change_wins counts pairs where the change "
                "is better on that metric; claim_met: >= 10 pairs, wins >= 9/10 and the "
                "median better by more than the parent's quartile distance; beyond_bound: "
                "the median worse than the parent's by more than the BENCHMARK.json bound "
                "(a fraction of the parent's median); trace1 holds every per-layer row of --trace 1 "
                f"--seconds 0 runs at seed {TRACE_SEED}."),
            "machine": {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
                        "nproc": str(os.cpu_count()),
                        "numpy": np.__version__, "python": platform.python_version()},
            "parent_commit": parent_sha,
            "trace1": {workload: {"seed": TRACE_SEED} for workload, _ in args.run},
            "workloads": {},
        }
        for workload, row in result["trace1"].items():
            for s, path in sides.items():
                row[s] = bench(path, workload, TRACE_SEED, 0, 1)["metrics"]
        for workload, seeds in args.run:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for s in order:
                    pair[s] = bench(sides[s], workload, seed, seconds, 0)
                pairs.append(dict(sorted(pair.items())))
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{s} wall_s={pair[s]['metrics']['wall_s']['value']:.4f}" for s in order),
                    flush=True)
            result["workloads"][workload] = {
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("change", "parent")},
                "pairs": pairs,
                "summary": summarise(pairs, spec["end_to_end"]),
            }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
