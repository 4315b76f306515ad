"""Record the reference outputs that the benchmark compares against when it
runs with the reference seed.

    python3 rsbench/record_reference.py [--size full|smoke] [--workload NAME]

Re-record only when a change alters outputs on purpose, and say why in
that change.  Recording refuses outputs that fail their own checks.
"""

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import run_rep  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        out = HERE.parent / ".rsbench_runs" / f"record-{name}-{args.size}"
        try:
            rep = run_rep(name, workloads.REFERENCE_SEED, args.size, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if rep["failed"]:
            print(f"{name}: not recorded, checks failed: {rep['problems']}", file=sys.stderr)
            return 1
        path = workloads.reference_path(name, args.size)
        np.savez_compressed(path, **{k: v for k, (v, _) in rep["fingerprint"].items()})
        print(f"{name}: {len(rep['fingerprint'])} fields -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
