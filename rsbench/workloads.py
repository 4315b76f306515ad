"""The four benchmark workloads: inputs drawn from the seed, the timed
operations, and the checks run on their outputs.

An operation is one library call or one CLI command.  `prepare` does all
set-up (initial populations, feedback specs, config files) and returns the
operations; the caller times `Op.run` and afterwards hands each result to
`Op.check`, which returns an `Outcome`.  Library functions and the CLI entry
point are looked up on their modules at call time, so the traced run sees
every call through its patched bindings.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import rscycle
from rscycle import cli

WORKLOADS = ("exact-large", "simulate-cli", "sde-sweep", "section-atlas")

# Outputs of this seed are compared against references recorded from the
# code the benchmark was defined on (see record_reference.py).
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Each full size takes about 1.5-5 s per repetition on a 2-CPU x86 machine;
# smoke sizes exist for the benchmark's own tests.
SIZES = {
    "exact-large": {
        "full": {"n": 2000, "cycles": 1.0},
        "smoke": {"n": 40, "cycles": 1.5},
    },
    "simulate-cli": {
        "full": {"n": 200, "cycles": 10.0},
        "smoke": {"n": 20, "cycles": 2.0},
    },
    "sde-sweep": {
        "full": {"n": 1000, "cycles": 100.0, "points": 6, "dt": 0.02},
        "smoke": {"n": 200, "cycles": 100.0, "points": 2, "dt": 0.02},
    },
    "section-atlas": {
        "full": {},
        "smoke": {"retmap": {"grid": 50},
                  "cyclic": {"k_max": 3, "beta_points": 6, "region_grid": 12},
                  "pde-steady": {"grid": 64}},
    },
}

GAMMAS = (0.6, -0.6)
EXACT_RP = (0.25, 0.75)          # (s, r) of exact-large
ORDER_TOL = 1e-9                 # slack of the no-overtaking check
EVENT_CODE = {"HitS_end": 0, "HitR_start": 1, "HitCycleEnd": 2}


@dataclass
class Outcome:
    """What a check found.  work counts the workload's unit of work
    (events, cell-steps or grid cells); fingerprint maps a field name to
    (array, tolerance) for the reference comparison, tolerance None meaning
    exact equality."""

    work: int = 0
    output_bytes: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprint: Dict[str, Tuple[np.ndarray, Optional[float]]] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def prepare(workload: str, seed: int, size: str, out: Path) -> List[Op]:
    """Build the operations of one repetition; all set-up happens here."""
    params = SIZES[workload][size]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "exact-large":
        return _exact_ops(seed, params)
    if workload == "simulate-cli":
        return _simulate_cli_ops(seed, params, out)
    if workload == "sde-sweep":
        return _sweep_ops(seed, params, out)
    if workload == "section-atlas":
        return _atlas_ops(seed, params, out)
    raise ValueError(f"unknown workload {workload!r}")


def _tag(gamma: float) -> str:
    return "pos" if gamma > 0 else "neg"


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# exact event-driven trajectories


def check_cells(initial, final, kinds, cells, times, s: float, r: float) -> List[str]:
    """Invariants of an exact run, from its initial and final phases and its
    event list: each cell's events cycle S_end -> R_start -> CycleEnd
    starting from its initial region, final phases lie in [0, 1), and the
    cells keep their cyclic order, the wrap pair included."""
    problems = []
    n = initial.size
    if final.shape != initial.shape:
        return [f"final state has {final.size} cells, expected {n}"]
    if np.any(final < 0.0) or np.any(final >= 1.0):
        problems.append("final phase outside [0, 1)")
    if cells.size and (cells.min() < 0 or cells.max() >= n):
        return problems + ["event names a cell that does not exist"]
    if np.any(np.diff(times) < 0.0):
        problems.append("event times decrease")
    order = np.argsort(cells, kind="stable")
    c, k = cells[order], kinds[order]
    same = c[1:] == c[:-1]
    if np.any((k[1:][same] - k[:-1][same]) % 3 != 1):
        problems.append("a cell's events break the S_end -> R_start -> CycleEnd cycle")
    first = np.ones(c.size, dtype=bool)
    first[1:] = ~same
    start_region = np.where(initial < s, 0, np.where(initial < r, 1, 2))
    if np.any(k[first] != start_region[c[first]]):
        problems.append("a cell's first event does not match its starting region")
    wraps = np.bincount(cells[kinds == 2], minlength=n)
    lift = (final + wraps)[np.argsort(initial, kind="stable")]
    if np.any(np.diff(lift) < -ORDER_TOL) or lift[-1] - lift[0] > 1.0 + ORDER_TOL:
        problems.append("cells overtook one another")
    return problems


def _event_fingerprint(prefix, kinds, cells, times, final):
    return {
        f"{prefix}.kinds": (kinds.astype(np.int8), None),
        f"{prefix}.cells": (cells.astype(np.int32), None),
        f"{prefix}.times": (times, 1e-9),
        f"{prefix}.final": (final, 1e-9),
    }


def _exact_ops(seed: int, params: dict) -> List[Op]:
    rng = np.random.default_rng(seed)
    s, r = EXACT_RP
    rp = rscycle.RegionParams(s=s, r=r)
    n, cycles = int(params["n"]), float(params["cycles"])
    ops = []
    for gamma in GAMMAS:
        pop = rscycle.Population(rng.random(n))
        fs = rscycle.FeedbackSpec.linear(gamma)
        held = {}

        def run_sim(pop=pop, fs=fs, held=held):
            held["traj"] = rscycle.simulate_exact(pop, rp, fs, cycles, sample="endpoints")
            return held["traj"]

        def check_sim(traj, initial=pop.phases.copy(), tag=_tag(gamma)):
            ev = traj.events
            kinds = np.array([EVENT_CODE[e.kind.value] for e in ev], dtype=np.int64)
            cells = np.array([e.cell for e in ev], dtype=np.int64)
            times = np.array([e.time for e in ev], dtype=float)
            final = np.asarray(traj.states[-1], dtype=float)
            problems = check_cells(initial, final, kinds, cells, times, s, r)
            if abs(traj.times[-1] - cycles) > 1e-12:
                problems.append(f"last sample at t={traj.times[-1]}, expected {cycles}")
            return Outcome(work=len(ev), problems=problems,
                           fingerprint=_event_fingerprint(f"exact-{tag}", kinds, cells, times, final))

        def run_decompose(held=held):
            return rscycle.decompose(held["traj"].final_population(), rp)

        def check_decompose(dec):
            members = sorted(i for g in dec.groups for i in g.indices)
            total = sum(g.width for g in dec.groups) + sum(dec.separating_gaps)
            problems = []
            if members != list(range(n)):
                problems.append("groups do not partition the cells")
            if abs(total - 1.0) > 1e-9:
                problems.append(f"group widths and gaps sum to {total!r}, not 1")
            return Outcome(problems=problems)

        ops.append(Op(f"simulate_exact-{_tag(gamma)}", run_sim, check_sim))
        ops.append(Op(f"decompose-{_tag(gamma)}", run_decompose, check_decompose))
    return ops


def _first_and_last_rows(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    """First data row and last row of a large CSV without reading it all."""
    with open(path, "rb") as fh:
        fh.readline()
        first = fh.readline()
        fh.seek(0, 2)
        end = fh.tell()
        block = 1 << 16
        while True:
            start = max(0, end - block)
            fh.seek(start)
            tail = fh.read(end - start).rstrip(b"\n")
            if b"\n" in tail or start == 0:
                break
            block *= 2
        last = tail.rsplit(b"\n", 1)[-1]
    return (np.array(first.split(b","), dtype=float),
            np.array(last.split(b","), dtype=float))


def _read_events_csv(path: Path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "kind", "cell"]:
        raise ValueError(f"unexpected events.csv header {rows[0]}")
    body = rows[1:]
    times = np.array([float(row[0]) for row in body], dtype=float)
    kinds = np.array([EVENT_CODE[row[1]] for row in body], dtype=np.int64)
    cells = np.array([int(row[2]) for row in body], dtype=np.int64)
    return kinds, cells, times


def _simulate_cli_ops(seed: int, params: dict, out: Path) -> List[Op]:
    defaults = cli._DEFAULTS["simulate"]
    s, r = defaults["s"], defaults["r"]
    cycles = float(params["cycles"])
    ops = []
    for gamma in (-0.6, 0.6):
        run_dir = out / f"simulate-{_tag(gamma)}"
        run_dir.mkdir(parents=True, exist_ok=True)
        config = _write_config(run_dir / "config.json", {
            "feedback": {"kind": "linear", "gamma": gamma},
            "n": int(params["n"]), "cycles": cycles,
        })
        argv = ["simulate", "--config", config, "--seed", str(seed), "--out", str(run_dir)]

        def check(rc, run_dir=run_dir, tag=_tag(gamma)):
            if rc != 0:
                return Outcome(problems=[f"exit code {rc}"])
            kinds, cells, times = _read_events_csv(run_dir / "events.csv")
            first, last = _first_and_last_rows(run_dir / "trajectory.csv")
            problems = check_cells(first[1:], last[1:], kinds, cells, times, s, r)
            if first[0] != 0.0 or last[0] != cycles:
                problems.append(f"trajectory spans t={first[0]}..{last[0]}, expected 0..{cycles}")
            return Outcome(work=kinds.size, output_bytes=_dir_bytes(run_dir), problems=problems,
                           fingerprint=_event_fingerprint(f"simulate-{tag}", kinds, cells, times, last[1:]))

        ops.append(Op(f"simulate-{_tag(gamma)}", lambda argv=argv: cli.main(argv), check))
    return ops


# ---------------------------------------------------------------------------
# stochastic cluster-count sweep


def check_dichotomy(gamma: float, rows) -> List[str]:
    """Acceptance criterion 1 on one sign of the sweep, rows being (M, N).

    Damping feedback: N >= M+1 wherever N > 0, and never N = 1.  Amplifying
    feedback: N <= M at 95% of the points and N > 0 at 90%.  The criterion
    is stated for a 60-point sweep; on P points the amplifying side allows
    ceil(5% P) rows with N > M and ceil(10% P) rows with N = 0, which is
    the criterion itself at P = 60 and one miss of each kind at P = 6.
    """
    if gamma < 0:
        bad = [(m, k) for m, k in rows if 0 < k < m + 1 or k == 1]
        return [f"damping rows (M, N) with 0 < N < M+1 or N = 1: {bad}"] if bad else []
    problems = []
    over = [(m, k) for m, k in rows if k > m]
    empty = sum(1 for _, k in rows if k == 0)
    if len(over) > -(-5 * len(rows) // 100):
        problems.append(f"amplifying rows (M, N) with N > M: {over} of {len(rows)}")
    if empty > -(-10 * len(rows) // 100):
        problems.append(f"amplifying rows with N = 0: {empty} of {len(rows)}")
    return problems


def _sweep_ops(seed: int, params: dict, out: Path) -> List[Op]:
    n, points = int(params["n"]), int(params["points"])
    steps = int(round(params["cycles"] / params["dt"]))
    ops = []
    for gamma in GAMMAS:
        run_dir = out / f"sweep-{_tag(gamma)}"
        run_dir.mkdir(parents=True, exist_ok=True)
        config = _write_config(run_dir / "config.json", {
            "gamma": gamma, "n": n, "points": points,
            "cycles": params["cycles"], "dt": params["dt"],
        })
        argv = ["sweep-fig4", "--config", config, "--seed", str(seed),
                "--out", str(run_dir), "--threads", "1"]

        def check(rc, run_dir=run_dir, gamma=gamma):
            if rc != 0:
                return Outcome(problems=[f"exit code {rc}"])
            raw = (run_dir / "sweep.csv").read_bytes()
            with open(run_dir / "sweep.csv") as fh:
                rows = [(int(row["M"]), int(row["N"])) for row in csv.DictReader(fh)]
            problems = check_dichotomy(gamma, rows)
            if len(rows) != points:
                problems.append(f"sweep.csv has {len(rows)} rows, expected {points}")
            return Outcome(work=n * steps * len(rows), output_bytes=_dir_bytes(run_dir),
                           problems=problems,
                           fingerprint={f"sweep-{_tag(gamma)}.csv": (np.frombuffer(raw, dtype=np.uint8), None)})

        ops.append(Op(f"sweep-{_tag(gamma)}", lambda argv=argv: cli.main(argv), check))
    return ops


# ---------------------------------------------------------------------------
# return map, cyclic atlas and steady profile


def draw_retmap_params(seed: int) -> Tuple[float, float, float]:
    """(s, r, alpha) from the ranges of the closed-form acceptance test."""
    rng = np.random.default_rng(seed)
    while True:
        s = rng.uniform(0.05, 0.6)
        r = rng.uniform(s + 0.05, 0.95)
        alpha = rng.uniform(-0.6, 0.9)
        if abs(alpha) >= 0.05:
            return float(s), float(r), float(alpha)


def _csv_rows(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _table_fingerprint(prefix, rows, label, numbers):
    return {
        f"{prefix}.{label}": (np.array([row[label] for row in rows], dtype="U8"), None),
        f"{prefix}.numbers": (np.array([[float(row[c]) for c in numbers] for row in rows],
                                       dtype=float).reshape(len(rows), len(numbers)), 1e-12),
    }


def _atlas_ops(seed: int, params: dict, out: Path) -> List[Op]:
    s, r, alpha = draw_retmap_params(seed)
    ops = []

    def cli_op(command, payload, check):
        run_dir = out / command
        run_dir.mkdir(parents=True, exist_ok=True)
        config = _write_config(run_dir / "config.json", payload)
        argv = [command, "--config", config, "--seed", str(seed), "--out", str(run_dir)]

        def checked(rc):
            if rc != 0:
                return Outcome(problems=[f"exit code {rc}"])
            outcome = check(run_dir)
            outcome.output_bytes = _dir_bytes(run_dir)
            return outcome

        ops.append(Op(command, lambda: cli.main(argv), checked))

    def check_retmap(run_dir):
        rows = _csv_rows(run_dir / "agreement.csv")
        worst = max(float(row["abs_diff"]) for row in rows)
        grid = len(_csv_rows(run_dir / "return_map.csv"))
        problems = [] if worst < 1e-9 else [f"agreement max abs_diff {worst:.3e} >= 1e-9"]
        if grid != len(rows):
            problems.append(f"return_map.csv has {grid} rows, agreement.csv {len(rows)}")
        return Outcome(work=grid, problems=problems)

    def check_cyclic(run_dir):
        spec = _csv_rows(run_dir / "spectrum.csv")
        regions = _csv_rows(run_dir / "regions.csv")
        labels = {row["case"] for row in spec + regions}
        problems = [] if labels <= {"I", "II", "III"} else [f"unknown case labels {labels}"]
        if not spec or not regions:
            problems.append("empty spectrum or region table")
        fp = _table_fingerprint("cyclic.spectrum", spec, "case",
                                ("k", "beta", "d", "spectral_radius", "min_modulus"))
        fp.update(_table_fingerprint("cyclic.regions", regions, "case", ("r", "s", "k")))
        return Outcome(work=len(spec) + len(regions), problems=problems, fingerprint=fp)

    def check_pde(run_dir):
        resid = json.loads((run_dir / "summary.json").read_text())["flux_residual"]
        problems = [] if resid <= 1e-12 else [f"flux residual {resid:.3e} > 1e-12"]
        return Outcome(problems=problems)

    cli_op("retmap", {"s": s, "r": r, "alpha": alpha, **params.get("retmap", {})}, check_retmap)
    cli_op("cyclic", params.get("cyclic", {}), check_cyclic)
    cli_op("pde-steady", params.get("pde-steady", {}), check_pde)
    return ops


# ---------------------------------------------------------------------------
# reference comparison


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}-seed{REFERENCE_SEED}.npz"


def compare_reference(fingerprint, reference) -> List[str]:
    """Differences between an operation's fingerprint and the recorded
    reference arrays."""
    problems = []
    for key, (value, tol) in fingerprint.items():
        if key not in reference:
            problems.append(f"reference lacks {key}")
            continue
        ref = reference[key]
        if ref.shape != value.shape:
            problems.append(f"{key}: shape {value.shape} differs from reference {ref.shape}")
        elif tol is None:
            if not np.array_equal(ref, value):
                problems.append(f"{key}: differs from reference")
        elif not np.all(np.abs(ref - value) <= tol):
            worst = float(np.max(np.abs(ref - value)))
            problems.append(f"{key}: deviates from reference by {worst:.3e} > {tol:g}")
    return problems
