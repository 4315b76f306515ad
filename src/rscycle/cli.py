"""Command-line experiment drivers.

Five subcommands cover the standard runs: a single trajectory, the
cluster-count feedback sweep, the two-cluster return map, the cyclic
solution atlas (case regions plus spectra), and the steady transport
profile.  Every command is deterministic given (config, seed): outputs are
CSV files plus a metadata sidecar holding the tool version, the config
hash, and the seed, so repeated runs are byte-identical.

This module alone writes files, so the artifact format lives here: each CSV
has a header line and reals as %.17g (which round-trips a float64), and
each JSON file has indent 2, sorted keys and a trailing newline.  Every CSV
goes through one column-wise writer, _write_table: its array columns of
reals are formatted in numpy (exact digits from Dekker's two-product with a
power of ten), and its columns with few distinct values (counts, labels,
grid values) are read from tables of those values.  JSON files go through
_write_json.

Exit codes: 0 on success, 2 on validation errors, 3 when a numerical
certificate fails, 4 when a simulation aborts (runaway or impossible state).
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .clusters import count_clusters_histogram
from .cyclic import (Case, CertificateError, _certify, _cluster_speeds, _spectra,
                     classify_case)
from .model import (FeedbackSpec, Population, RegionParams, ValidationError, _max_isolated,
                    max_isolated_clusters)
from .pde import flux_residual, mass, steady_profile
from .returnmap import _section_runs, analytic_F_k2, as_piecewise, compose, fixed_points
from .simulate import (_CHUNK, EventKind, NoiseSpec, SimulationError, _em_block,
                       _event_state_blocks, _exact_run, simulate_sde)

_DEFAULTS = {
    "simulate": {
        "engine": "exact",
        "n": 200,
        "s": 0.25,
        "r": 0.75,
        "feedback": {"kind": "linear", "gamma": -0.6},
        "cycles": 10.0,
        "sigma": 1e-6,
        "dt": 0.02,
        "initial": "random",
        "sample_every": 1,
    },
    "sweep-fig4": {
        "gamma": 0.6,
        "n": 1000,
        "points": 60,
        "cycles": 100.0,
        "sigma": 1e-6,
        "dt": 0.02,
        "bins": 120,
        "occupancy_threshold": 2.0,
        "lo": 1.0,
        "hi": 6.0,
    },
    "retmap": {
        "s": 0.2,
        "r": 0.6,
        "alpha": 0.5,
        "grid": 1000,
    },
    "cyclic": {
        "k_min": 2,
        "k_max": 8,
        "beta_lo": -0.5,
        "beta_hi": 0.5,
        "beta_points": 50,
        "region_grid": 120,
    },
    "pde-steady": {
        "c": 1.0,
        "s": 0.25,
        "r": 0.75,
        "feedback": {"kind": "linear", "gamma": 0.6},
        "grid": 512,
    },
}


# Keys of a "feedback" config per kind, in the order the FeedbackSpec
# constructor of that name takes them.
_FEEDBACK_KEYS = {
    "linear": ("gamma",),
    "hill": ("gamma", "theta", "h"),
    "tabulated": ("points",),
}


def _feedback_from_config(cfg) -> FeedbackSpec:
    if not isinstance(cfg, dict):
        raise ValidationError(f"feedback must be an object, got {cfg!r}")
    kind = cfg.get("kind", "linear")
    if not isinstance(kind, str) or kind not in _FEEDBACK_KEYS:  # a list is not hashable
        raise ValidationError(f"unknown feedback kind {kind!r}")
    keys = _FEEDBACK_KEYS[kind]
    unknown = sorted(set(cfg) - {"kind", *keys})
    if unknown:
        raise ValidationError(f"unknown feedback key(s) {unknown} for kind {kind!r}")
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ValidationError(f"{kind} feedback is missing key(s) {missing}")
    values = [cfg[key] for key in keys]
    if kind == "tabulated":
        ok = isinstance(values[0], list) and all(_is_number_list(p, 2) for p in values[0])
    else:
        ok = all(_is_number(v) for v in values)
    if not ok:
        raise ValidationError(f"{kind} feedback needs numbers (points: [I, f] pairs), got {cfg}")
    return getattr(FeedbackSpec, kind)(*values)


def _is_number(value) -> bool:
    """A finite number: json.load also parses the literals NaN and Infinity."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value, size=None) -> bool:
    return (isinstance(value, list) and all(_is_number(v) for v in value)
            and (size is None or len(value) == size))


def _load_config(path, command: str, overrides: dict) -> dict:
    cfg = dict(_DEFAULTS[command])
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc.strerror}")
        except ValueError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ValidationError(f"config must be a JSON object, got {type(user).__name__}")
        for key, value in user.items():
            if key not in cfg:
                raise ValidationError(f"unknown config key {key!r} for {command}")
            if _is_number(cfg[key]) and not _is_number(value):
                raise ValidationError(f"config key {key!r} must be a number, got {value!r}")
            if isinstance(cfg[key], int) and not (isinstance(value, int) and value >= 1):
                raise ValidationError(f"config key {key!r} must be an integer >= 1, got {value!r}")
            cfg[key] = value
    cfg.update(overrides)
    return cfg


# The table writer formats a real in numpy when 1e-4 <= x < 1e15 (its
# decimal exponent E lies in [-4, 14]); every other value (zero, negative,
# tiny, huge, non-finite) goes through "%.17g" one by one.
_POW10 = np.array([float(10 ** k) for k in range(23)])  # each one exact
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a float64
# One value takes a row of 28 bytes: byte 0 is unused, so that the digits
# after "0." fall on whole uint32 words, and the longest %.17g (24 bytes)
# plus its separator fits in bytes 1-25.
_ROW = 28
_BYTE = np.arange(_ROW)
_KEEP = (_BYTE >= 1) & (_BYTE <= _BYTE[:, None] + 1)  # row L: bytes 1 .. L + 1
_CHUNK_VALUES = 1 << 14  # array values per chunk of a table
# rows per chunk of a table with no array column: the join of a chunk holds
# an 80-byte buffer per field while it runs, more than the bytes it makes
_CHUNK_ROWS = 1 << 8


@functools.cache
def _digit_tables():
    """(words, zeros): words[i] holds the four bytes "%04d" % i for
    i < 10**4, and a zero byte then "0.d" for i = 10**4 + d; zeros[i]
    counts the trailing zeros of "%04d" % i."""
    i = np.arange(10 ** 4, dtype=np.uint16)[:, None]
    chars = (i // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    lead = np.array([[0, ord("0"), ord("."), ord("0") + d] for d in range(10)], np.uint8)
    words = np.concatenate([chars, lead]).view(np.uint32).ravel()
    zeros = np.argmin(chars[:, ::-1] == ord("0"), axis=1)
    zeros[0] = 4
    return words, zeros


def _two_product(a, b):
    """(hi, lo) with hi = fl(a * b) and hi + lo == a * b exactly (Dekker);
    each ufunc rounds once, so nothing is fused."""
    hi = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _div_10k(x):
    """x // 10**4 for int64 0 <= x < 10**9, by multiply and shift."""
    return (x * 3518437209) >> 45


def _decimal_digits(x):
    """(D, E) for float64 x in [1e-4, 1e15): D, in [10**16, 10**17), holds
    the 17 significant digits of x rounded half-even, and E is the decimal
    exponent, so that D * 10**(E - 16) is x rounded."""
    # E is fixed up from the exact product before rounding, so a value just
    # below a power of ten (1e-07 is 9.9999999999999995e-08) gets the smaller E
    E = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _two_product(x, _POW10[16 - E])
    while True:
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        bad = np.flatnonzero(low | high)
        if not bad.size:
            break
        E[bad] += high[bad].astype(np.int64) - low[bad]
        hi[bad], lo[bad] = _two_product(x[bad], _POW10[16 - E[bad]])
    # hi >= 1e16 > 2**53 is an even integer (its ulp is 2 or more) and |lo|
    # <= ulp(hi) / 2 <= 8, so lo carries the whole fraction, and rounding lo
    # half to even rounds hi + lo half to even: hi + rint(lo) is even iff rint(lo) is
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E[carry] += 1
    return D, E


def _packed_digits(D):
    """(packed, zeros): row i of the (len(D), 7) uint32 array packed holds a
    zero byte, "0." and the 17 digits of D[i] in bytes 0-19; zeros[i] counts
    the trailing zeros of D[i]."""
    words, tail_zeros = _digit_tables()
    # D = d0 | g1 | g2 | g3 | g4, a digit and four groups of four
    q, r = np.divmod(D, 10 ** 8)
    q_hi = _div_10k(q)
    d0 = _div_10k(q_hi)
    r_hi = _div_10k(r)
    groups = (d0 + 10 ** 4, q_hi - d0 * 10 ** 4, q - q_hi * 10 ** 4, r_hi, r - r_hi * 10 ** 4)
    zeros = tail_zeros[groups[4]]
    for k in (3, 2, 1):  # groups after k all zero: count on into group k
        i = np.flatnonzero(zeros == 4 * (4 - k))
        zeros[i] += tail_zeros[groups[k][i]]
    packed = np.empty((D.size, _ROW // 4), np.uint32)
    for k, group in enumerate(groups):
        packed[:, k] = words[group]
    return packed, zeros


def _format_g17(x, sep) -> bytes:
    """The bytes of "%.17g" % v + chr(s) for each value v of the float64
    vector x and separator byte s of sep, joined."""
    fast = (x >= 1e-4) & (x < 1e15)
    D, E = _decimal_digits(np.where(fast, x, 1.0))
    packed, zeros = _packed_digits(D)
    del D  # freed before the layout, to keep the peak memory low

    # %g layout: fixed, as -4 <= E < 17; trailing zeros and a bare "."
    # dropped.  Every row gets E = -1 ("0." + 17 digits in bytes 1-19),
    # then the other exponents are patched group by group.
    buf = packed.view(np.uint8)
    length = 19 - zeros
    other = np.flatnonzero(E != -1)
    # np.bincount, not np.unique: the first np.unique imports numpy.ma (~20 ms)
    for e in (np.flatnonzero(np.bincount(E[other] + 4)) - 4).tolist():
        i = other[E[other] == e]
        digits = buf[i, 3:20]
        if e >= 0:
            buf[i, 1:e + 2] = digits[:, :e + 1]
            buf[i, e + 2] = ord(".")
            buf[i, e + 3:19] = digits[:, e + 1:]
            length[i] = np.where(zeros[i] >= 16 - e, e + 1, 18 - zeros[i])
        else:
            buf[i, 3:2 - e] = ord("0")
            buf[i, 2 - e:19 - e] = digits
            length[i] -= e + 1
    # every other value, +0.0 too, as "%.17g" gives it, padded to 24 bytes
    special = np.flatnonzero(~fast)
    texts = [b"%.17g" % v for v in x[special].tolist()]
    buf[special, 1:25] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
    length[special] = list(map(len, texts))
    buf.ravel()[np.arange(1, buf.size, _ROW) + length] = sep
    return buf[np.take(_KEEP, length, axis=0)].tobytes()


def _write_table(path: Path, header: str, *columns) -> None:
    """One header line, then the bytes fmt % tuple(row) gives per row, with
    "%.17g" for a real and "%s" for a count or a label, joined by ",".

    A column is a numpy array of reals (a vector, or a 2-D block of
    columns), or a sequence of values with few distinct ones: counts,
    labels or reals.  Each run of adjacent array columns is formatted in
    numpy by one _format_g17 call per chunk of rows; a sequence is read
    from a table of its distinct values, each with the separators around
    it.  A table of arrays only is written as the formatted bytes, with no
    per-row or per-column work in Python.

    The table may instead be one iterator of 2-D blocks of reals, its rows
    in order: each block is written, in chunks, as it comes, so a producer
    can reuse one buffer and the whole table is never held.
    """
    if len(columns) == 1 and isinstance(columns[0], Iterator):
        tables = ([[block]] for block in columns[0])
    else:
        tables = [_runs(columns)]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for runs in tables:
            width = sum(block.shape[1] for run in runs if isinstance(run, list) for block in run)
            rows = max(1, _CHUNK_VALUES // width) if width else _CHUNK_ROWS
            for start in range(0, len(runs[0][0]), rows):
                fh.write(_table_rows(runs, slice(start, start + rows)))


def _runs(columns):
    """The columns of a table of _write_table as runs: a list of 2-D blocks
    per run of adjacent arrays, (column, table) per sequence."""
    runs = []
    for j, column in enumerate(columns):
        if not isinstance(column, np.ndarray):
            distinct = set(column)
            # 0.0 == -0.0, so a table cannot keep the sign of a zero: such a column is an array
            if not any(isinstance(v, float) and v == 0.0 for v in distinct):
                before = b"," if runs and isinstance(runs[-1], list) else b""
                after = b"\n" if j == len(columns) - 1 else b","
                table = {v: before + (b"%.17g" % v if isinstance(v, float) else str(v).encode())
                         + after for v in distinct}
                runs.append((column, table))
                continue
        column = np.asarray(column, dtype=float)
        block = column[:, None] if column.ndim == 1 else column
        if runs and isinstance(runs[-1], list):
            runs[-1].append(block)
        else:
            runs.append([block])
    return runs


def _table_rows(runs, rows) -> bytes:
    """The bytes of the rows in the slice rows of a table of _write_table."""
    parts = []
    for k, run in enumerate(runs):
        if isinstance(run, tuple):
            column, table = run
            parts.append(map(table.__getitem__, column[rows]))
            continue
        block = run[0][rows] if len(run) == 1 else np.concatenate([b[rows] for b in run], axis=1)
        sep = np.full(block.shape, ord(","), np.uint8)
        sep[:, -1] = ord("\n")  # the rows are split on it; after the last column it stays
        text = _format_g17(block.ravel(), sep.ravel())
        if len(runs) == 1:
            return text
        del block, sep  # freed before the join, to keep the peak memory low
        parts.append(text.splitlines(keepends=k == len(runs) - 1))
        del text
    return b"".join(chain.from_iterable(zip(*parts)))


def _columns(rows, width):
    """The columns of a list of rows with width fields each, as tuples."""
    return list(zip(*rows)) or [()] * width


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_metadata(out: Path, command: str, cfg: dict, seed: int) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    _write_json(out / "metadata.json", {
        "tool": "rscycle",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": cfg,
        "config_hash": hashlib.sha256(blob).hexdigest(),
    })


_KIND_VALUE = {kind: kind.value for kind in EventKind}
_CASE_VALUE = {case: case.value for case in Case}  # Enum's .value is a slow property

# decision: a run of the stochastic engine takes at most 10**7 steps, 1000
# times the 10**4 of a --paper-scale sweep point (200 cycles at dt = 0.02).
# A count past it is a typo or an overflow: cycles 1e308 gives an infinite
# count, and dt 1e-300 a run that would never end.
_MAX_STEPS = 10 ** 7


def _check_steps(cycles: float, noise: NoiseSpec) -> None:
    """Refuse a run of cycles / noise.dt steps that is not finite or is
    above _MAX_STEPS; called before any step is taken or worker started."""
    steps = cycles / noise.dt
    if not steps <= _MAX_STEPS:  # also refuses inf and nan
        raise ValidationError(f"cycles / dt = {steps:.6g} steps lies above the cap of "
                              f"{_MAX_STEPS} steps per run")


def write_events_csv(traj, path) -> None:
    """Boundary crossings of an exact run, read from traj.events (a
    Trajectory, or the run cmd_simulate streams): t,kind,cell, the bytes of
    "%.17g,%s,%d" per event, through _write_table."""
    events = traj.events
    _write_table(path, "t,kind,cell", np.fromiter(map(itemgetter(0), events), float, len(events)),
                 list(map(_KIND_VALUE.__getitem__, map(itemgetter(1), events))),
                 list(map(itemgetter(2), events)))


def cmd_simulate(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    fs = _feedback_from_config(cfg["feedback"])
    rng = np.random.default_rng(seed)
    n = int(cfg["n"])
    initial = cfg["initial"]
    if initial == "random":
        phases = np.sort(rng.random(n))
    elif initial == "uniform":
        phases = np.arange(n) / n
    elif _is_number_list(initial):
        if len(initial) != n:
            raise ValidationError(f"initial lists {len(initial)} phases but n is {n}")
        phases = np.asarray(initial, dtype=float)
    else:
        raise ValidationError(
            f'initial must be "random", "uniform" or a list of numbers, got {initial!r}')
    pop = Population(phases)
    duration = float(cfg["cycles"])
    if cfg["engine"] == "exact":
        run = _exact_run(pop, rp, fs, duration)
        write_events_csv(run, out / "events.csv")
        columns = (_trajectory_blocks(run, n),)
    elif cfg["engine"] == "sde":
        noise = NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"])
        _check_steps(duration, noise)
        traj = simulate_sde(pop, rp, fs, noise, duration, seed=rng,
                            sample_every=int(cfg["sample_every"]))
        columns = (traj.times, traj.states)
    else:
        raise ValidationError(f"unknown engine {cfg['engine']!r}")
    _write_table(out / "trajectory.csv", "t," + ",".join(f"phase_{i}" for i in range(n)), *columns)
    return 0


def _trajectory_blocks(run, n):
    """The [t | phases] rows of an exact run of n cells, block by block:
    each block of states is built into one reused buffer and copied into
    the phase columns of one reused table (a build straight into those
    strided columns is the slower)."""
    rows = min(len(run.times), _CHUNK)
    table = np.empty((rows, n + 1))
    for first, block in _event_state_blocks(*run.build, np.empty((rows, n))):
        part = table[:len(block)]
        part[:, 0] = run.times[first:first + len(block)]
        part[:, 1:] = block
        yield part


def _sweep_block(args):
    """Rows of the sweep points first, first + 1, ..., one per value, as one
    Euler-Maruyama block; point i draws its start and its noise from
    default_rng([seed, i])."""
    first, values, cfg, noise, seed = args
    n = int(cfg["n"])
    widths = [1.0 / value for value in values]  # |S| + |R| of each point
    geometry = [RegionParams(s=w / 2.0, r=1.0 - w / 2.0) for w in widths]
    rngs = [np.random.default_rng([seed, first + i]) for i in range(len(values))]
    start = np.array([rng.random(n) for rng in rngs])
    steps = int(round(cfg["cycles"] / noise.dt))
    _, states = _em_block(
        start, [rp.s for rp in geometry], [rp.r for rp in geometry],
        FeedbackSpec.linear(cfg["gamma"]), noise, steps, rngs, steps,
    )
    rows = []
    for value, rp, phases in zip(values, geometry, states[-1]):
        M = max_isolated_clusters(rp)
        N = count_clusters_histogram(
            Population(phases), bins=int(cfg["bins"]),
            occupancy_threshold=cfg["occupancy_threshold"],
        )
        verdict = "none" if N == 0 else "le_M" if N <= M else "ge_M_plus_1"
        rows.append((value, M, N, verdict))
    return rows


def cmd_sweep_fig4(cfg: dict, seed: int, out: Path, threads: int) -> int:
    points = int(cfg["points"])
    values = np.linspace(cfg["lo"], cfg["hi"], points + 1)[1:].tolist()
    # checked here, before any worker: value 0 would divide by zero in _sweep_block
    bad = [value for value in values if value <= 1.0]
    if bad:
        raise ValidationError(f"sweep values must be > 1, as |S| + |R| = 1/value must be < 1; "
                              f"lo={cfg['lo']!r}, hi={cfg['hi']!r} give {bad[0]!r}")
    # built here too, before any worker: dt = 0 would divide by zero in _sweep_block
    noise = NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"])
    _check_steps(cfg["cycles"], noise)
    # and the histogram settings, checked on one cell: _sweep_block counts only after the sweep
    count_clusters_histogram(Population(np.zeros(1)), int(cfg["bins"]), cfg["occupancy_threshold"])
    # one block of contiguous points per worker; the rows do not depend on the split
    bounds = [points * i // threads for i in range(threads + 1)]
    jobs = [(lo, values[lo:hi], cfg, noise, seed) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if len(jobs) > 1:
        import multiprocessing  # here only: with the socket modules it loads, ~10 ms of start-up

        with multiprocessing.Pool(len(jobs)) as pool:
            blocks = pool.map(_sweep_block, jobs)
    else:
        blocks = [_sweep_block(job) for job in jobs]
    _write_table(out / "sweep.csv", "sweep_value,M,N,verdict",
                 *_columns([row for block in blocks for row in block], 4))
    return 0


def cmd_retmap(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    alpha = float(cfg["alpha"])
    if alpha == 0.0:
        raise ValidationError("alpha = 0 gives the degenerate involution; nothing to map")
    # the replay speed in R while a cluster is in S, checked first: an alpha
    # outside the speed window is refused before any map is built or file written
    w = _cluster_speeds(2, alpha, "alpha")[1]
    F = as_piecewise(rp, alpha)
    F2 = compose(F, 2)
    xs = np.linspace(0.0, 1.0, int(cfg["grid"]))
    analytic = analytic_F_k2(xs, rp, alpha)  # F(xs), in one call
    _write_table(out / "return_map.csv", "x,F(x),F2(x)", xs, analytic, F2(xs))
    report = fixed_points(F2)
    _write_json(out / "fixed_points.json", {
        "points": [{"location": p.location, "multiplier": p.multiplier, "class": p.kind}
                   for p in report.points],
        "neutral_intervals": [[lo, hi] for lo, hi in report.neutral_intervals],
    })

    # each numeric point is a certificate replay of the closed form: F(x) is
    # the trailing cluster's position after the section run from (0, x), all
    # points as the rows of one lockstep replay
    starts = np.column_stack((np.zeros_like(xs), xs)).ravel()
    numeric = _section_runs(starts, np.arange(0, starts.size + 1, 2), rp.s, rp.r, w).final[::2]
    _write_table(out / "agreement.csv", "x,F_analytic,F_numeric,abs_diff",
                 xs, analytic, numeric, np.abs(analytic - numeric))
    return 0


def cmd_cyclic(cfg: dict, seed: int, out: Path, threads: int) -> int:
    if cfg["k_min"] < 2:
        raise ValidationError(f"k_min must be >= 2 (a cyclic solution has k >= 2 clusters), "
                              f"got {cfg['k_min']}")
    if cfg["k_max"] < cfg["k_min"]:
        raise ValidationError(f"k_max must be >= k_min, got k_min={cfg['k_min']}, "
                              f"k_max={cfg['k_max']}")
    spectrum_rows = []
    betas = [beta for beta in np.linspace(cfg["beta_lo"], cfg["beta_hi"],
                                          int(cfg["beta_points"])).tolist() if beta != 0.0]
    for k in range(int(cfg["k_min"]), int(cfg["k_max"]) + 1):
        # band-midpoint geometry with |R| = |S| so that k = M + 1
        w = 1.0 / (k - 0.5)
        rp = RegionParams(s=w / 2.0, r=1.0 - w / 2.0)
        cases, d, _ = _certify(rp.s, rp.r, k, betas)  # k's rows in one call
        reports = _spectra(k, list(zip(betas, cases)))
        spectrum_rows += [(k, beta, _CASE_VALUE[case], dk, rep.spectral_radius, rep.min_modulus)
                          for beta, case, dk, rep in zip(betas, cases, d.tolist(), reports)]
    columns = _columns(spectrum_rows, 6)
    _write_table(out / "spectrum.csv", "k,beta,case,d,spectral_radius,min_modulus",
                 *columns[:3], np.column_stack(columns[3:]))

    # the cells 0 < s < r < 1 of the grid, r outer, at k = M + 1, classified
    # as one batch; r and s take g values each, so they are written as
    # lists, each read from a table
    g = int(cfg["region_grid"])
    grid = (np.arange(g) + 0.5) / g
    r, s = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    inside = (0.0 < s) & (s < r) & (r < 1.0)
    r, s = r[inside], s[inside]
    k = _max_isolated(s, r) + 1
    cases = classify_case((s, r), k, 1.0 / k)
    _write_table(out / "regions.csv", "r,s,k,case", r.tolist(), s.tolist(), k.tolist(),
                 list(map(_CASE_VALUE.__getitem__, cases)))
    return 0


def cmd_pde(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    fs = _feedback_from_config(cfg["feedback"])
    profile = steady_profile(cfg["c"], rp, fs)
    xs = np.linspace(0.0, 1.0, int(cfg["grid"]), endpoint=False)
    u, b = profile.u(xs), profile.b(xs)
    _write_table(out / "profile.csv", "x,u,b,flux", xs, u, b, b * u)
    resid = flux_residual(profile)
    if resid > 1e-12:
        raise CertificateError(f"steady profile flux residual {resid:.3e}")
    _write_json(out / "summary.json", {
        "c": profile.c,
        "on_r_level": profile.on_r_level,
        "mass": mass(profile),
        "flux_residual": resid,
    })
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-fig4": cmd_sweep_fig4,
    "retmap": cmd_retmap,
    "cyclic": cmd_cyclic,
    "pde-steady": cmd_pde,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--out", type=str, default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="worker pool size")

    parser = argparse.ArgumentParser(
        prog="rscycle",
        description="Simulation and stability analysis of cycling populations "
        "with region-triggered feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="run one trajectory (exact or stochastic engine)")
    p_sweep = sub.add_parser("sweep-fig4", parents=[common],
                             help="cluster-count sweep against region size")
    p_sweep.add_argument("--paper-scale", action="store_true",
                         help="full-scale protocol (n=5000, 100 sweep points, 200 cycles)")
    sub.add_parser("retmap", parents=[common],
                   help="two-cluster return map, fixed points, agreement dump")
    sub.add_parser("cyclic", parents=[common],
                   help="cyclic-solution case regions and stability spectra")
    sub.add_parser("pde-steady", parents=[common],
                   help="steady transport profile of the continuum limit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    overrides = {}
    if getattr(ns, "paper_scale", False):
        overrides = {"n": 5000, "points": 100, "cycles": 200.0}
    try:
        if ns.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {ns.seed}")
        cfg = _load_config(ns.config, ns.command, overrides)
        out = Path(ns.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {out}: {exc.strerror}")
        threads = max(1, min(ns.threads, os.cpu_count() or 1))
        code = _COMMANDS[ns.command](cfg, ns.seed, out, threads)
        _write_metadata(out, ns.command, cfg, ns.seed)
        return code
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
