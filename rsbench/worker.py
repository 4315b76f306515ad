"""One benchmark repetition, run by run.py in a fresh process.

    python3 rsbench/worker.py --workload NAME --seed N --size full|smoke \
        --out DIR --t0 MONOTONIC [--trace-file PATH]
    python3 rsbench/worker.py --scaling --seed N --size full|smoke

The first form runs the workload's operations once, checks their outputs,
and prints one JSON line with set-up time, wall time (raw and scaled to the
reference host speed), work done, peak memory and failures.  `--t0` is the
monotonic clock reading taken by the parent just before it started this
process, so set-up time covers interpreter start, imports, config files and
initial populations.  With `--trace-file` the repetition runs under the
span recorder, without calibration, and the spans are written to that file.  The second form measures the exact and
stochastic engines at several population sizes for a fixed amount of work.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads

# Host-speed calibration: a fixed loop of small numpy operations and plain
# Python arithmetic, timed before and after every operation.  The host is
# shared and its speed drifts by up to 2x within minutes, so the benchmark
# also reports each time scaled to a reference speed: raw time multiplied
# by CALIBRATION_REF_S over the calibration time measured around it.
CALIBRATION_REF_S = 0.030
_CAL_X = np.linspace(0.0, 1.0, 2000)

# Layer-scaling table: engine cost against n for a fixed event or step count.
SCALING_SIZES = {"full": (10, 100, 1000, 5000), "smoke": (10, 100)}
SCALING_EVENTS = {"full": 3000, "smoke": 300}
SCALING_STEPS = {"full": 1000, "smoke": 100}


def machine_facts() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop (about 0.03 s)."""
    start = time.perf_counter()
    for _ in range(1000):
        speeds = np.where(_CAL_X >= 0.75, 1.4, 1.0)
        (_CAL_X + speeds * 0.02) % 1.0
    total = 0
    for i in range(50000):
        total += i * i % 7
    return time.perf_counter() - start


def load_reference(workload: str, seed: int, size: str):
    """The recorded reference arrays when the seed is the reference seed,
    else None.  A missing file compares as empty, so every field fails."""
    if seed != workloads.REFERENCE_SEED:
        return None
    path = workloads.reference_path(workload, size)
    return dict(np.load(path)) if path.exists() else {}


def run_rep(workload: str, seed: int, size: str, out: Path, t0=None, tracer=None,
            reference=None) -> dict:
    """Prepare, time and check one repetition of a workload, comparing its
    outputs with `reference` when one is given."""
    ops = workloads.prepare(workload, seed, size, out)
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - t0 if t0 is not None else None
    # the traced repetition is one root span over the operations alone
    calibrations = [calibrate()] if tracer is None else []
    results, times = [], []
    try:
        with tracer.root(f"rsbench.{workload}") if tracer is not None else nullcontext():
            for op in ops:
                start = time.perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - start)
                results.append((result, error))
                if tracer is None:
                    calibrations.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    work, output_bytes, problems, fingerprint = 0, 0, [], {}
    failed = 0
    for op, (result, error) in zip(ops, results):
        if error is not None:
            op_problems = [error]
        else:
            try:
                outcome = op.check(result)
            except Exception as exc:  # a check that cannot read the output fails the op
                outcome = workloads.Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
            op_problems = list(outcome.problems)
            if reference is not None:
                op_problems += workloads.compare_reference(outcome.fingerprint, reference)
            work += outcome.work
            output_bytes += outcome.output_bytes
            fingerprint.update(outcome.fingerprint)
        if op_problems:
            failed += 1
            problems += [f"{op.name}: {p}" for p in op_problems]
    rep = {
        "workload": workload,
        "wall_raw_s": sum(times),
        "setup_raw_s": setup_s,
        "work": work,
        "output_bytes": output_bytes,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "fingerprint": fingerprint,
    }
    if calibrations:
        around = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
        rep["host_speed"] = CALIBRATION_REF_S / sorted(calibrations)[len(calibrations) // 2]
        rep["wall_s"] = sum(t * CALIBRATION_REF_S / c for t, c in zip(times, around))
        if setup_s is not None:
            rep["setup_s"] = setup_s * CALIBRATION_REF_S / calibrations[0]
    return rep


def scaling_table(seed: int, size: str) -> dict:
    """us per event of simulate_exact and us per step of simulate_sde
    against n, for a fixed event or step count."""
    import rscycle

    rng = np.random.default_rng(seed)
    rp = rscycle.RegionParams(s=0.25, r=0.75)
    fs = rscycle.FeedbackSpec.linear(-0.6)
    steps = SCALING_STEPS[size]
    noise = rscycle.NoiseSpec(sigma=1e-6, dt=0.02)
    out = {}
    for n in SCALING_SIZES[size]:
        pop = rscycle.Population(rng.random(n))
        # about three boundary crossings per cell per cycle
        duration = SCALING_EVENTS[size] / (3.0 * n)
        start = time.perf_counter()
        traj = rscycle.simulate_exact(pop, rp, fs, duration, sample="endpoints")
        elapsed = time.perf_counter() - start
        out[f"simulate.simulate_exact.us_per_event.n{n}"] = 1e6 * elapsed / max(1, len(traj.events))
        start = time.perf_counter()
        rscycle.simulate_sde(pop, rp, fs, noise, steps * noise.dt, seed=seed, sample_every=steps)
        elapsed = time.perf_counter() - start
        out[f"simulate.simulate_sde.us_per_step.n{n}"] = 1e6 * elapsed / steps
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args(argv)

    if args.scaling:
        print(json.dumps({"layers": scaling_table(args.seed, args.size)}))
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")
    tracer = None
    if args.trace_file is not None:
        from tracer import Tracer
        tracer = Tracer()
    rep = run_rep(args.workload, args.seed, args.size, args.out, args.t0, tracer,
                  load_reference(args.workload, args.seed, args.size))
    del rep["fingerprint"]
    rep["facts"] = machine_facts()
    if tracer is not None:
        tracer.write_spans(args.trace_file)
        rep["layers"] = tracer.layer_metrics()
        rep["root_spans"] = len(tracer.roots())
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
