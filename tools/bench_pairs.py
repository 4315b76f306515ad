"""Paired benchmark runs, parent commit against a change, as one JSON file.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<N>.json \
        --run section-atlas=1761-1770 [--run exact-large=1721-1730 ...] \
        [--cli sde-every-step simulate '{"engine": "sde", "sample_every": 1}' 1-5 ...]

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

A `--cli NAME COMMAND CONFIG SEEDS` pair runs one `rscycle COMMAND` with
the JSON config CONFIG and `--seed S` for each seed S, in a fresh process
per side and seed, alternating which side goes first.  It records the
exit code, the wall time and the child's peak RSS (`ru_maxrss` from
`os.wait4`) per side, and whether the two sides wrote the same bytes;
under `cli` the file holds its pairs and the same summary of `wall_s` and
`peak_rss_mb`.  This measures runs that no workload makes, such as the
stochastic `simulate` or an exact one of many cycles.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
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


# the child of a CLI pair: `rscycle` with the arguments after -c
_CLI_MAIN = "import sys; from rscycle.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_run(checkout, command, config_path, seed, out):
    """Exit code, wall time and peak RSS (MB) of one `rscycle COMMAND`
    process that imports rscycle from checkout's src."""
    argv = [sys.executable, "-c", _CLI_MAIN, command, "--config", str(config_path),
            "--seed", str(seed), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(checkout) / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode,
            "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": usage.ru_maxrss / 1024}}}


def digest(out):
    """sha256 over the names and bytes of every file under out, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def cli_pairs(sides, command, config, seeds, workdir):
    """One pair per seed of `cli_run` on each side, which side goes first
    alternating; each side's output is hashed and removed before the next
    run, and identical tells whether the two wrote the same bytes."""
    workdir = Path(workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair, digests = {"seed": seed, "first": order[0]}, {}
        for s in order:
            out = workdir / s
            pair[s] = cli_run(sides[s], command, config_path, seed, out)
            digests[s] = digest(out) if out.exists() else None
            shutil.rmtree(out, ignore_errors=True)
        pair["identical"] = digests["parent"] == digests["change"]
        pairs.append(dict(sorted(pair.items())))
        print(f"{command} seed {seed}: " + " ".join(
            f"{s} wall_s={pair[s]['metrics']['wall_s']['value']:.4f} "
            f"peak_rss_mb={pair[s]['metrics']['peak_rss_mb']['value']:.1f}" for s in order),
            flush=True)
    return pairs


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
    parser.add_argument("--run", type=parse_run, action="append", default=[],
                        metavar="WORKLOAD=SEEDS", help="e.g. section-atlas=1761-1770")
    parser.add_argument("--cli", nargs=4, action="append", default=[],
                        metavar=("NAME", "COMMAND", "CONFIG", "SEEDS"),
                        help="a CLI pair, e.g. sde simulate '{\"engine\": \"sde\"}' 1-5")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.run or args.cli):
        parser.error("give at least one --run or --cli")

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
            "cli": {},
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
        cli_metrics = [m for m in spec["end_to_end"] if m["name"] in ("wall_s", "peak_rss_mb")]
        for name, command, config, seeds in args.cli:
            config = json.loads(config)
            with tempfile.TemporaryDirectory(prefix="bench-cli-") as work:
                pairs = cli_pairs(sides, command, config, parse_run(f"{name}={seeds}")[1], work)
            result["cli"][name] = {
                "command": command, "config": config,
                "failed": {s: sum(p[s]["exit"] != 0 for p in pairs) for s in ("change", "parent")},
                "identical": sum(p["identical"] for p in pairs),
                "pairs": pairs,
                "summary": summarise(pairs, cli_metrics),
            }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
