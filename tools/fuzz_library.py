"""Fuzz every public entry point of rscycle with malformed values.

    PYTHONPATH=src python3 tools/fuzz_library.py --out fuzz_report.json [--limit 5]

Each numeric argument of each entry point of `rscycle.__all__` takes every
value of VALUES in turn, and each array argument every array of ARRAYS,
while the other arguments keep a small valid call.  The entry points run
one after another, never in parallel, each in its own child process under
a 2 GiB address-space limit, and each call inside it under a time limit.
A call keeps the library's contract when it returns a finite result or
raises ValidationError, CertificateError or SimulationError; any other
exception, a non-finite result, a timeout or a dead child is broken.  The
JSON report holds one row per call (entry point, argument, value,
outcome) and the count of broken calls per entry point.

`tests/test_library_contract.py` imports this module and runs every call
of every entry point in one child, so the two cannot drift.  The public
names in NOT_ENTRY_POINTS, the exception classes and the result types that
only hold values, are not called.
"""

import argparse
import dataclasses
import enum
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2 << 30  # bytes, the limit of each child
KEPT = ("ok", "ValidationError", "CertificateError", "SimulationError")

# the public names that are not called: exceptions, enums and result records
NOT_ENTRY_POINTS = ("CertificateError", "SimulationError", "ValidationError", "Case", "EventKind",
                    "ClusterDecomposition", "CyclicSolution", "EventRecord", "FixedPoint",
                    "FixedPointReport", "Group", "SpectrumReport", "Trajectory")
# each numeric argument takes each of these
VALUES = [math.nan, math.inf, -1, 0, 1e308, -1e-320, 2.5, 10 ** 9, "x", None, []]
# each array argument takes each of these
ARRAYS = {
    "empty": [],
    "nan": [math.nan],
    "inf": [math.inf],
    "negative": [-0.5],
    "above-one": [1.5],
    "two-d": [[0.25, 0.5]],
    "descending": [0.75, 0.25],
    "huge": [1e308],
    "subnormal": [-1e-320],
    "text": ["x"],
    "none": [None],
    "object": [object()],
    "string-number": np.array(["0.5"]),
}


def entry_points():
    """name -> (function, base keyword arguments, numeric argument names,
    array argument names).  The base call of each returns."""
    import rscycle as rs

    rp, fs = rs.RegionParams(s=0.25, r=0.75), rs.FeedbackSpec.linear(-0.6)
    pop = rs.Population([0.1, 0.35, 0.6, 0.85])
    two = rs.as_piecewise(rs.RegionParams(s=0.2, r=0.6), 0.5)
    profile = rs.steady_profile(1.0, rp, rs.FeedbackSpec.linear(0.6))
    cyc = rs.RegionParams(s=0.15, r=0.6)  # k = 2 is M + 1 here
    table = [(0.0, 0.0), (0.5, 0.3), (1.0, 0.6)]
    return {
        "FeedbackSpec.linear": (rs.FeedbackSpec.linear, {"gamma": 0.6}, ["gamma"], []),
        "FeedbackSpec.hill": (rs.FeedbackSpec.hill, {"gamma": 0.6, "theta": 0.3, "h": 2.0},
                              ["gamma", "theta", "h"], []),
        "FeedbackSpec.tabulated": (rs.FeedbackSpec.tabulated, {"points": table}, [], ["points"]),
        "FeedbackSpec.none": (rs.FeedbackSpec.none, {}, [], []),
        "FeedbackSpec.__call__": (lambda I: fs(I), {"I": 0.5}, ["I"], ["I"]),
        "Population": (rs.Population, {"phases": [0.1, 0.6]}, [], ["phases"]),
        "RegionParams": (rs.RegionParams, {"s": 0.25, "r": 0.75}, ["s", "r"], []),
        "max_isolated_clusters": (rs.max_isolated_clusters, {"rp": rp}, [], []),
        "NoiseSpec": (rs.NoiseSpec, {"sigma": 1e-3, "dt": 0.02}, ["sigma", "dt"], []),
        "simulate_exact": (rs.simulate_exact, {"pop": pop, "rp": rp, "fs": fs, "duration": 1.0,
                                               "max_events": 10 ** 7},
                           ["duration", "max_events"], []),
        "simulate_sde": (rs.simulate_sde, {"pop": pop, "rp": rp, "fs": fs,
                                           "noise": rs.NoiseSpec(sigma=1e-3, dt=0.02),
                                           "duration": 1.0, "seed": 0, "sample_every": 1},
                         ["duration", "seed", "sample_every"], []),
        "count_clusters_histogram": (rs.count_clusters_histogram,
                                     {"pop": pop, "bins": 8, "occupancy_threshold": 2.0},
                                     ["bins", "occupancy_threshold"], []),
        "decompose": (rs.decompose, {"pop": pop, "rp": rp, "delta": 0.02}, ["delta"], []),
        "default_merge_delta": (rs.default_merge_delta, {"rp": rp}, [], []),
        "advance_to_section": (rs.advance_to_section,
                               {"positions": [0.0, 0.5], "rp": rp, "fs": fs}, [], ["positions"]),
        "numeric_F": (rs.numeric_F, {"p": [0.5], "rp": rp, "fs": fs}, [], ["p"]),
        "analytic_F_k2": (rs.analytic_F_k2, {"x1": 0.3, "rp": rp, "alpha": 0.5},
                          ["x1", "alpha"], ["x1"]),
        "as_piecewise": (rs.as_piecewise, {"rp": rp, "alpha": 0.5}, ["alpha"], []),
        "classify_k2": (rs.classify_k2, {"rp": rp, "alpha": 0.5}, ["alpha"], []),
        "compose": (rs.compose, {"m": two, "times": 2}, ["times"], []),
        "fixed_points": (rs.fixed_points, {"m": two}, [], []),
        "PiecewiseAffineMap": (rs.PiecewiseAffineMap,
                               {"breakpoints": [0.0, 0.5, 1.0], "slopes": [-1.0, -1.0],
                                "intercepts": [1.0, 1.0]},
                               [], ["breakpoints", "slopes", "intercepts"]),
        "PiecewiseAffineMap.__call__": (lambda x: two(x), {"x": 0.3}, ["x"], ["x"]),
        "build_A": (rs.build_A, {"k": 3, "beta": 0.3, "case": rs.Case.I}, ["k", "beta"], []),
        "classify_case": (rs.classify_case, {"rp": cyc, "k": 2, "beta": -0.3}, ["k", "beta"], []),
        "cyclic_solution": (rs.cyclic_solution, {"rp": cyc, "k": 2, "beta": -0.3},
                            ["k", "beta"], []),
        "cyclic_spacing": (rs.cyclic_spacing, {"case": rs.Case.I, "rp": cyc, "k": 2,
                                               "beta": -0.3}, ["k", "beta"], []),
        "saturating_feedback": (rs.saturating_feedback, {"k": 3, "beta": 0.4}, ["k", "beta"], []),
        "spectrum": (rs.spectrum, {"k": 3, "beta": 0.3, "case": rs.Case.I}, ["k", "beta"], []),
        "verify_root_requirement": (rs.verify_root_requirement,
                                    {"lam": -0.5 + 0.5j, "k": 3, "beta": 0.3},
                                    ["lam", "k", "beta"], []),
        "steady_profile": (rs.steady_profile, {"c": 1.0, "rp": rp, "fs": fs}, ["c"], []),
        "SteadyProfile.u": (lambda x: profile.u(x), {"x": 0.3}, ["x"], ["x"]),
        "SteadyProfile.b": (lambda x: profile.b(x), {"x": 0.3}, ["x"], ["x"]),
        "flux_residual": (rs.flux_residual, {"profile": profile, "grid": 64}, ["grid"], []),
        "mass": (rs.mass, {"profile": profile}, [], []),
    }


def calls(name):
    """The calls of entry point name: (argument, value label, keyword
    arguments), the base call first (argument None)."""
    _, base, numeric, array_args = entry_points()[name]
    out = [(None, None, base)]
    for arg in numeric:
        out += [(arg, repr(value), {**base, arg: value}) for value in VALUES]
    for arg in array_args:
        out += [(arg, label, {**base, arg: value}) for label, value in ARRAYS.items()]
    return out


def finite(x) -> bool:
    """Whether every number that x holds is finite."""
    if x is None or isinstance(x, (str, bool, enum.Enum)):
        return True
    if isinstance(x, (int, float, complex, np.generic)):
        return bool(np.all(np.isfinite(x))) if np.issubdtype(type(x), np.number) else True
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return all(map(finite, x.ravel().tolist()))
        return bool(np.isfinite(x).all()) if np.issubdtype(x.dtype, np.number) else True
    if isinstance(x, dict):
        return all(map(finite, x.values()))
    if isinstance(x, (tuple, list)):
        return all(map(finite, x))
    if dataclasses.is_dataclass(x):
        return all(finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


class _Timeout(BaseException):
    """Raised in a call by the per-call timer; a BaseException, so that no
    `except Exception` of the library catches it."""


def _on_timer(signum, frame):
    raise _Timeout


def outcome(function, kwargs, limit: float) -> str:
    """What one call does within limit seconds: "ok" for a finite result,
    the name of a contract error, or "broken: ..." for anything else."""
    import rscycle as rs

    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = function(**kwargs)
    except _Timeout:
        return f"broken: no result within {limit:g} s"
    except (rs.ValidationError, rs.CertificateError, rs.SimulationError) as exc:
        return type(exc).__name__
    except Exception as exc:  # MemoryError included
        return f"broken: {type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "ok" if finite(result) else "broken: non-finite result"


def child(names, limit: float) -> None:
    """Run every call of the entry points names, printing one JSON row per
    call as it ends."""
    table = entry_points()
    for name in names:
        for arg, value, kwargs in calls(name):
            row = {"entry": name, "argument": arg, "value": value,
                   "outcome": outcome(table[name][0], kwargs, limit)}
            print(json.dumps(row), flush=True)


def limit_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_child(names, limit: float):
    """The rows of `child(names)` run in a new process under the address
    space limit; the calls a dead or stuck child never reported are rows
    too, each broken."""
    argv = [sys.executable, __file__, "--child", *names, "--limit", str(limit)]
    expected = [(name, arg, value) for name in names for arg, value, _ in calls(name)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=limit * len(expected) + 30, preexec_fn=limit_address_space)
        stdout, why = proc.stdout, f"broken: child exited {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout, why = (exc.stdout or b"").decode(), "broken: child timed out"
    rows = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    for name, arg, value in expected[len(rows):]:
        rows.append({"entry": name, "argument": arg, "value": value, "outcome": why})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="fuzz_report.json", help="JSON report path")
    parser.add_argument("--limit", type=float, default=5.0, help="seconds per call")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.limit)
        return 0
    rows = []
    for name in entry_points():  # one child each, one after another
        rows += run_child([name], args.limit)
        broken = sum(not row["outcome"].startswith(KEPT) for row in rows if row["entry"] == name)
        print(f"{name}: {broken} broken", file=sys.stderr)
    broken = {}
    for row in rows:
        if not row["outcome"].startswith(KEPT):
            broken[row["entry"]] = broken.get(row["entry"], 0) + 1
    report = {"values": list(map(repr, VALUES)), "limit_s": args.limit,
              "arrays": {label: repr(value) for label, value in ARRAYS.items()},
              "calls": len(rows), "broken": sum(broken.values()), "broken_by_entry": broken,
              "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(rows)} calls, {report['broken']} broken", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
