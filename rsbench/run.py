"""rscycle benchmark: one workload, one seed, one run.

    python3 rsbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root (the program is imported from ./src).  With
`--trace 0` the run starts one fresh worker process after another (a closed
loop with one client) until S seconds have passed and at least three
repetitions have finished; each repetition runs the workload's fixed work
once and checks its outputs.  It prints a table of the end-to-end metrics
(median, quartiles and repetition count) and, as its last line, one JSON
object with the metrics named in BENCHMARK.json.  With `--trace 1` it runs
untraced and traced repetitions in turn for S seconds, then the
layer-scaling table, and reports the per-layer metrics instead.  `--smoke`
uses tiny sizes.

Every worker runs with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.
Outputs go to .rsbench_runs/ and are deleted after each repetition, except
the run record and the span file of a traced run.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".rsbench_runs"
WORKLOADS = ("exact-large", "simulate-cli", "sde-sweep", "section-atlas")

MIN_REPS = 3
WORKER_TIMEOUT_S = 120
RUN_BUDGET_S = 150          # no new repetition starts after this

# The work unit of each workload, reported as work_per_s and under its own name.
RATE_NAME = {"exact-large": "events_per_s", "simulate-cli": "events_per_s",
             "sde-sweep": "cell_steps_per_s", "section-atlas": "grid_cells_per_s"}
# Metrics printed in the table, with the workloads they apply to.
TABLE = (
    ("wall_s", "s", WORKLOADS),
    ("setup_s", "s", WORKLOADS),
    ("wall_raw_s", "s", WORKLOADS),
    ("setup_raw_s", "s", WORKLOADS),
    ("host_speed", "ratio", WORKLOADS),
    ("events_per_s", "1/s", ("exact-large", "simulate-cli")),
    ("cell_steps_per_s", "1/s", ("sde-sweep",)),
    ("grid_cells_per_s", "1/s", ("section-atlas",)),
    ("work_per_s", "1/s", WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("output_mb", "MB", ("simulate-cli", "sde-sweep", "section-atlas")),
    ("error_rate", "ratio", WORKLOADS),
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(args, env) -> dict:
    """Run one worker to completion; a crash or timeout is one failed op."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    if "--scaling" not in args:
        cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": ["worker timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"attempted": 1, "failed": 1,
                "problems": [f"worker exited with {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return float("nan")


def measure(workload, seed, seconds, size, env, record):
    """Closed loop of untraced repetitions; returns (samples, reps)."""
    start = time.monotonic()
    reps = []
    while True:
        out = RUNS / f"{workload}-rep{len(reps)}"
        shutil.rmtree(out, ignore_errors=True)
        rep = spawn(["--workload", workload, "--seed", str(seed), "--size", size,
                     "--out", str(out)], env)
        shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if elapsed >= RUN_BUDGET_S:
            break
    ok = [rep for rep in reps if "wall_s" in rep]
    samples = {
        "wall_s": [rep["wall_s"] for rep in ok],
        "setup_s": [rep["setup_s"] for rep in ok],
        "work_per_s": [rep["work"] / rep["wall_s"] for rep in ok],
        "peak_rss_mb": [rep["rss_mb"] for rep in ok],
        "output_mb": [rep["output_bytes"] / 1e6 for rep in ok],
        "wall_raw_s": [rep["wall_raw_s"] for rep in ok],
        "setup_raw_s": [rep["setup_raw_s"] for rep in ok],
        "host_speed": [rep["host_speed"] for rep in ok],
    }
    samples[RATE_NAME[workload]] = samples["work_per_s"]
    record["reps"] = reps
    return samples, reps


def traced(workload, seed, seconds, size, env, record):
    """Untraced and traced repetitions in turn until the time is up (at
    least one pair), then the scaling table.  Layer values are medians over
    the traced repetitions; trace.overhead_s is the difference of the
    median wall times."""
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    spans = RUNS / f"spans-{workload}-seed{seed}.tsv"
    start = time.monotonic()
    pairs = []
    while not pairs or time.monotonic() - start < min(seconds, RUN_BUDGET_S):
        pair = []
        for extra in ([], ["--trace-file", str(spans)]):
            out = RUNS / f"{workload}-trace-rep"
            shutil.rmtree(out, ignore_errors=True)
            pair.append(spawn(base + ["--out", str(out)] + extra, env))
            shutil.rmtree(out, ignore_errors=True)
        pairs.append(pair)
    scaling = spawn(["--scaling", "--seed", str(seed), "--size", size], env)
    reps = [rep for pair in pairs for rep in pair]
    record["reps"] = reps + [scaling]
    plain = [rep["wall_raw_s"] for rep, _ in pairs if "wall_raw_s" in rep]
    traced_reps = [rep for _, rep in pairs if "layers" in rep]
    layers = {}
    if traced_reps:
        layers = {key: statistics.median(rep["layers"][key] for rep in traced_reps)
                  for key in traced_reps[0]["layers"]}
    if plain and traced_reps:
        layers["trace.overhead_s"] = (statistics.median(rep["wall_raw_s"] for rep in traced_reps)
                                      - statistics.median(plain))
    if "layers" not in scaling:
        return layers, reps + [scaling]      # the failed scaling worker counts as a failure
    layers.update(scaling["layers"])
    return layers, reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)

    if not (SRC / "rscycle" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'rscycle'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        compileall.compile_dir(str(path), quiet=1)
    RUNS.mkdir(exist_ok=True)
    env = worker_env()
    size = "smoke" if args.smoke else "full"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size,
              "machine": {"nproc": os.cpu_count(), "git_sha": git_sha(),
                          "loadavg_1m_before": loadavg()}}

    if args.trace:
        layers, reps = traced(args.workload, args.seed, args.seconds, size, env, record)
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        samples, reps = measure(args.workload, args.seed, args.seconds, size, env, record)
        wanted = spec["end_to_end"]
    record["machine"]["loadavg_1m_after"] = loadavg()
    facts = next((rep["facts"] for rep in reps if "facts" in rep), {})
    record["machine"].update(facts)

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = sorted({p for rep in reps for p in rep.get("problems", [])})
    print(f"# rsbench {args.workload} seed={args.seed} trace={args.trace} size={size}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for p in problems:
        print(f"# FAILED {p}")
    print(f"# operations attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g}")

    if args.trace:
        for name in sorted(values):
            print(f"layer {name} {values[name]:.9g}")
    else:
        if not samples["wall_s"]:
            print("error: no repetition produced measurements", file=sys.stderr)
            return 1
        samples["error_rate"] = [failed / attempted]
        for name, unit, applies in TABLE:
            if args.workload in applies:
                q1, med, q3 = quartiles(samples[name])
                print(f"metric {name} {med:.9g} {unit} q1={q1:.9g} q3={q3:.9g} "
                      f"n={len(samples[name])}")
        values = {m["name"]: statistics.median(samples[m["name"]]) for m in wanted}

    record["metrics"] = values
    (RUNS / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
