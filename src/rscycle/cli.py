"""Command-line experiment drivers.

Five subcommands cover the standard runs: a single trajectory, the
cluster-count feedback sweep, the two-cluster return map, the cyclic
solution atlas (case regions plus spectra), and the steady transport
profile.  Every command is deterministic given (config, seed): outputs are
CSV files plus a metadata sidecar holding the tool version, the config
hash, and the seed, so repeated runs are byte-identical.

A config is checked in full by _load_config, with one validator,
_check_config, before --out is made: a refused config leaves no directory,
and the commands read it as checked.  The validator writes no value rule of
the library again: it builds the library's objects or calls its rules.
This module alone writes files: each CSV, through the column-wise
_write_table, has a header line and reals as %.17g (which round-trips a
float64), and each JSON file, through _write_json, has indent 2, sorted
keys and a trailing newline.

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
from pathlib import Path

import numpy as np

from . import __version__
from .clusters import count_clusters_histogram
from .cyclic import (CertificateError, _beta_error, _certify, _cluster_speeds, _spectrum_roots,
                     classify_case)
from .model import (FeedbackSpec, Population, RegionParams, ValidationError, _check_count,
                    _max_isolated, max_isolated_clusters)
from .pde import flux_residual, mass, steady_profile
from .returnmap import _section_runs, analytic_F_k2, as_piecewise, compose, fixed_points
from .simulate import (_KIND_OF_CODE, NoiseSpec, SimulationError, _check_horizon, _em_block,
                       _event_arrays, _event_state_blocks, _exact_run, _sde_run, _sde_steps,
                       _speed_table)

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
    """A finite number: json.load also parses the literals NaN and Infinity,
    and an integer too large for a float."""
    if isinstance(value, float):
        return math.isfinite(value)
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_number_list(value, size=None) -> bool:
    return (isinstance(value, list) and all(_is_number(v) for v in value)
            and (size is None or len(value) == size))


def _load_config(path, command: str, overrides: dict) -> dict:
    """The defaults of command updated with the JSON object in the file path, then with
    overrides; refused here for an unknown key or a non-number, else by _check_config."""
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
            cfg[key] = value
    cfg.update(overrides)
    _check_config(command, cfg)
    return cfg


# decision: CLI policy.  A run holds at most 10**5 cells, 20 times the 5000
# of --paper-scale.  One state row is then 0.8 MB and a block of
# simulate._CHUNK exact states 51 MB; n 10**9 asked for 8 GB before the first step.
_MAX_CELLS = 10 ** 5
# decision: CLI policy.  A sweep block holds at most 10**7 phases (points *
# n), 20 times the 5 * 10**5 of --paper-scale.  Each Euler-Maruyama step
# makes about eight (points, n) float arrays, ~0.6 GB at the cap.
_MAX_BLOCK = 10 ** 7
# decision: CLI policy.  The cyclic atlas's (betas, k - 1, k - 1) eigvals
# stack holds at most 20 times the default's 50 * 7**2 entries, beta_points
# * (k_max - 1)**2; k_max 100 took 10.9 s with 50 betas and 220 s with 1000.
_MAX_STACK = 20 * 50 * 7 ** 2
# decision: CLI policy.  simulate's stochastic engine writes at most 2**26
# sampled values, (steps / sample_every + 1) * n.  It streams them, so the
# cap bounds the output and the time, not the memory: ~1.3 GB of
# trajectory.csv at ~20 bytes a value, formatted in ~12 s.  A --paper-scale
# trajectory (n 5000, 200 cycles at dt 0.02, every step) has 5.0 * 10**7;
# n 200 at the step cap would write ~40 GB.
_MAX_VALUES = 2 ** 26
# Each count: key -> (least, cap or None, what it counts), for the library's
# count rule.  Each cap is CLI policy, 20 times the largest default or
# --paper-scale value; at 10**9, in 2 GiB, each count below raised
# MemoryError.
_COUNTS = {
    "n": (1, _MAX_CELLS, "cells"),
    "sample_every": (1, None, None),
    "k_min": (2, None, None),
    # decision: 20 times --paper-scale's 100, each point's regions built here
    "points": (1, 2000, "sweep points"),
    # decision: 20 times the default 120; np.bincount counts bins per point
    "bins": (1, 2400, "bins"),
    # decision: 20 times retmap's 1000; retmap at 10**6 took 1.9 s and 618 MB
    "grid": (1, 20000, "grid points"),
    # decision: 20 times the default 8; each k's stack is within _MAX_STACK too
    "k_max": (1, 160, "clusters"),
    # decision: 20 times the default 50 rows of spectrum.csv per k
    "beta_points": (1, 1000, "betas"),
    # decision: 20 times the default 120; 2000 (grid**2 cells) took 3.2 s, 342 MB
    "region_grid": (1, 2400, "cells a side"),
}


def _check_config(command: str, cfg: dict) -> None:
    """Refuse cfg unless it keeps every rule of command: counts first, as rules may allocate
    by them, then the model's rules by building its objects or calling the library's rules,
    then cross-key rules."""
    for key in filter(_COUNTS.__contains__, cfg):
        _check_count(key, cfg[key], *_COUNTS[key])
    rp = RegionParams(s=cfg["s"], r=cfg["r"]) if "s" in cfg else None
    fs = _feedback_from_config(cfg["feedback"]) if "feedback" in cfg else None
    noise = NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"]) if "sigma" in cfg else None
    if command == "pde-steady":
        steady_profile(cfg["c"], rp, fs)
    elif command == "retmap":
        if cfg["alpha"] == 0:
            raise ValidationError("alpha = 0 gives the degenerate involution; nothing to map")
        _cluster_speeds(2, cfg["alpha"], "alpha")
    elif command == "cyclic":
        if cfg["k_max"] < cfg["k_min"]:
            raise ValidationError(f"k_max = {cfg['k_max']} lies below k_min = {cfg['k_min']}")
        if cfg["beta_points"] * (cfg["k_max"] - 1) ** 2 > _MAX_STACK:
            raise ValidationError(f"beta_points * (k_max - 1)**2 lies above the cap of "
                                  f"{_MAX_STACK}")
        error = (_beta_error(cfg["beta_lo"], window=True)
                 or _beta_error(cfg["beta_hi"], window=True))
        if error:
            raise error
    elif command == "sweep-fig4":
        if cfg["points"] * cfg["n"] > _MAX_BLOCK:
            raise ValidationError(f"points * n = {cfg['points'] * cfg['n']} phases lies above "
                                  f"the cap of {_MAX_BLOCK} per sweep")
        with np.errstate(all="ignore"):  # hi - lo may overflow; inf and nan values are refused
            values = np.linspace(cfg["lo"], cfg["hi"], cfg["points"] + 1)[1:].tolist()
        for value in values:  # value 0 would divide by zero in _sweep_regions
            if not value > 1.0:
                raise ValidationError(f"sweep values must be > 1, as |S| + |R| = 1/value must "
                                      f"be < 1; lo={cfg['lo']!r}, hi={cfg['hi']!r} give {value!r}")
            _sweep_regions(value)
        FeedbackSpec.linear(cfg["gamma"])
        count_clusters_histogram(Population(np.zeros(1)), cfg["bins"], cfg["occupancy_threshold"])
    else:
        initial = cfg["initial"]
        if not (_is_number_list(initial) or initial in ("random", "uniform")):
            raise ValidationError(
                f'initial must be "random", "uniform" or a list of numbers, got {initial!r}')
        if isinstance(initial, list):
            if len(initial) != cfg["n"]:
                raise ValidationError(f"initial lists {len(initial)} phases but n is {cfg['n']}")
            Population(np.asarray(initial, dtype=float))
        if cfg["engine"] not in ("exact", "sde"):
            raise ValidationError(f"unknown engine {cfg['engine']!r}")
        if cfg["engine"] == "exact":
            _check_horizon(cfg["cycles"], rp, _speed_table(fs, cfg["n"]), name="cycles")
    if command == "sweep-fig4" or cfg.get("engine") == "sde":
        steps = _sde_steps(cfg["cycles"], noise.dt, "cycles")
        if command == "simulate":  # the start, every sample_every-th step and the last
            values = (-(-steps // cfg["sample_every"]) + 1) * cfg["n"]
            if values > _MAX_VALUES:
                raise ValidationError(f"(steps / sample_every + 1) * n = {values} sampled "
                                      f"values lies above the cap of {_MAX_VALUES}")


# The table writer formats a real in numpy when 1e-4 <= x < 1e15 (its
# decimal exponent E lies in [-4, 14]); every other value (zero, negative,
# tiny, huge, non-finite) goes through "%.17g" one by one.  Its 17 digits
# come from the exact product x * 10**(16 - E).  Every value is first
# multiplied by the one constant 10**17, as if E were -1 (x in [0.1, 1), the
# phases that fill trajectory.csv); only the values whose product lands
# outside (10**16, 10**17) then take E from log10 and their own power of
# ten, on their own subset.
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


def _split(a):
    """Veltkamp's split (ah, al) of the float64 array a: ah + al == a, each
    half 26 bits."""
    c = _SPLIT * a
    ah = c - a
    np.subtract(c, ah, out=ah)  # c - (c - a)
    return ah, np.subtract(a, ah, out=c)


def _two_product(a, b, b_split):
    """(hi, lo) with hi = fl(a * b) and hi + lo == a * b exactly (Dekker),
    b_split the _split of b: lo is ((ah*bh - hi) + ah*bl + al*bh) + al*bl,
    each ufunc rounding once, so nothing is fused."""
    hi = a * b
    (ah, al), (bh, bl) = _split(a), b_split
    lo = ah * bh
    lo -= hi
    lo += np.multiply(ah, bl, out=ah)
    lo += np.multiply(al, bh, out=ah)
    lo += np.multiply(al, bl, out=al)
    return hi, lo


_SPLIT_1E17 = _split(_POW10[17:18])  # 10**17's split, made once


def _split_10k(x):
    """(x // 10**4, x % 10**4) for int64 0 <= x < 10**9, the quotient by
    multiply and shift; the remainder is written over x."""
    hi = np.multiply(x, 3518437209)
    np.right_shift(hi, 45, out=hi)
    x -= hi * 10 ** 4
    return hi, x


def _exponent_products(x):
    """(E, hi, lo) for float64 x in [1e-4, 1e15): E the decimal exponent
    of x, and hi + lo == x * 10**(16 - E) exactly, in [10**16, 10**17)."""
    # E is fixed up from the exact product before rounding, so a value just
    # below a power of ten (1e-07 is 9.9999999999999995e-08) gets the smaller E
    E = np.floor(np.log10(x)).astype(np.int64)
    p = _POW10[16 - E]
    hi, lo = _two_product(x, p, _split(p))
    while True:
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        bad = np.flatnonzero(low | high)
        if not bad.size:
            return E, hi, lo
        E[bad] += high[bad].astype(np.int64) - low[bad]
        p = _POW10[16 - E[bad]]
        hi[bad], lo[bad] = _two_product(x[bad], p, _split(p))


def _decimal_digits(x):
    """(D, other, E) for float64 x in [1e-4, 1e15): D, in [10**16, 10**17),
    holds the 17 significant digits of x rounded half-even.  The decimal
    exponent of x[i], such that D[i] * 10**(E - 16) is x[i] rounded, is -1,
    except at the indices of the array other, whose exponents E holds."""
    # the same bits as hi, lo of E = -1: _POW10[17] and its split
    hi, lo = _two_product(x, _POW10[17], _SPLIT_1E17)
    # (1e16, 1e17) holds products of E = -1 alone; the subset sorts out the
    # ends 1e16 and 1e17 by the sign of lo
    other = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    E, hi[other], lo[other] = _exponent_products(x[other])
    # hi >= 1e16 > 2**53 is an even integer (its ulp is 2 or more) and |lo|
    # <= ulp(hi) / 2 <= 8, so lo carries the whole fraction, and rounding lo
    # half to even rounds hi + lo half to even: hi + rint(lo) is even iff rint(lo) is
    D = hi.astype(np.int64)
    D += np.rint(lo, out=lo).astype(np.int64)
    # only hi = 1e17 (with lo < 0) rounds up to 10**17, and it is in other
    carry = np.flatnonzero(D[other] == 10 ** 17)
    D[other[carry]] = 10 ** 16
    E[carry] += 1
    return D, other, E


def _packed_digits(D):
    """(packed, zeros): row i of the (len(D), 7) uint32 array packed holds a
    zero byte, "0." and the 17 digits of D[i] in bytes 0-19; zeros[i] counts
    the trailing zeros of D[i].  D is overwritten."""
    words, tail_zeros = _digit_tables()
    # D = d0 | g1 | g2 | g3 | g4, a digit and four groups of four
    q = D // 10 ** 8
    D -= q * 10 ** 8
    q, g2 = _split_10k(q)
    d0, g1 = _split_10k(q)
    g3, g4 = _split_10k(D)
    d0 += 10 ** 4
    groups = (d0, g1, g2, g3, g4)
    zeros = tail_zeros[g4]
    i = np.flatnonzero(zeros == 4)
    for k in (3, 2, 1):  # the rows whose groups after k are all zero count on into group k
        zeros[i] += tail_zeros[groups[k][i]]
        i = i[zeros[i] == 4 * (5 - k)]
    packed = np.empty((D.size, _ROW // 4), np.uint32)
    for k, group in enumerate(groups):
        packed[:, k] = words[group]
    return packed, zeros


def _format_g17(x, sep) -> bytes:
    """The bytes of "%.17g" % v + chr(s) for each value v of the float64
    vector x and separator byte s of sep, joined."""
    special = np.flatnonzero(~((x >= 1e-4) & (x < 1e15)))
    y = x.copy()
    y[special] = 0.5  # a value of E = -1: no work in the subset
    D, other, E = _decimal_digits(y)
    del y
    packed, zeros = _packed_digits(D)
    del D  # freed before the layout, to keep the peak memory low

    # %g layout: fixed, as -4 <= E < 17; trailing zeros and a bare "."
    # dropped.  Every row gets E = -1 ("0." + 17 digits in bytes 1-19);
    # E = -2 writes "0.0" over bytes 0-2, so that its digits stay in place
    # and its text starts at byte 0; the other exponents are patched group
    # by group.
    buf = packed.view(np.uint8)
    length = 19 - zeros
    at_0 = other[E == -2]
    buf[at_0, :3] = np.frombuffer(b"0.0", np.uint8)
    # np.bincount, not np.unique: the first np.unique imports numpy.ma (10-14 ms)
    for e in (np.flatnonzero(np.bincount(E + 4)) - 4).tolist():
        i = other[E == e]
        if e >= 0:
            digits = buf[i, 3:20]
            buf[i, 1:e + 2] = digits[:, :e + 1]
            buf[i, e + 2] = ord(".")
            buf[i, e + 3:19] = digits[:, e + 1:]
            length[i] = np.where(zeros[i] >= 16 - e, e + 1, 18 - zeros[i])
        elif e < -2:
            buf[i, 2 - e:19 - e] = buf[i, 3:20]
            buf[i, 3:2 - e] = ord("0")
            length[i] -= e + 1
    # every other value, +0.0 too, as "%.17g" gives it, padded to 24 bytes
    texts = [b"%.17g" % v for v in x[special].tolist()]
    buf[special, 1:25] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
    length[special] = list(map(len, texts))
    buf.ravel()[np.arange(1, buf.size, _ROW) + length] = sep
    keep = np.take(_KEEP, length, axis=0)
    keep[at_0, 0] = True
    return buf[keep].tobytes()


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

    The table may instead be one iterator of tuples of columns, each tuple
    the next rows of the table: each is written, in chunks, as it comes,
    and the whole table is never held.  A column of such a tuple may be a
    view of a buffer that its producer overwrites once the next tuple is
    asked for: the writer is done with each tuple before it asks.
    """
    if len(columns) == 1 and isinstance(columns[0], Iterator):
        tables = map(_runs, columns[0])
    else:
        tables = [_runs(columns)]
    # a block of one chunk's numpy temporaries (128 bytes a value), freed at once, raises
    # glibc's mmap and trim thresholds, so that every chunk's temporaries stay in its heap
    np.empty(_CHUNK_VALUES * 128, np.uint8)
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


def write_events_csv(run, path) -> None:
    """Boundary crossings of an exact run (`simulate._Run`): t,kind,cell, the
    bytes of "%.17g,%s,%d" per event, in the tables of `_event_tables`."""
    _write_table(path, "t,kind,cell", _event_tables(run.events))


def _event_tables(slices):
    """The columns of events.csv, a times array and each crossing's "kind,cell"
    label, for groups of whole slices of at least _CHUNK_VALUES events (the last
    the rest), so the writer's chunks are those of the whole columns.  One label
    column, not a kind and a cell column, makes two items a row in the writer's
    join of a chunk, not three, each item 80 bytes while the join runs."""
    group, count, last = [], 0, len(slices) - 1
    for k, piece in enumerate(slices):
        group.append(piece)
        count += len(piece.cells)
        if count >= _CHUNK_VALUES or k == last:
            times, cells, codes = _event_arrays(group)
            keys = (cells * 3 + codes).tolist()  # a crossing's key, one per label
            labels = {key: f"{_KIND_OF_CODE[key % 3].value},{key // 3}" for key in set(keys)}
            yield times, list(map(labels.__getitem__, keys))
            group, count = [], 0


def cmd_simulate(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    fs = _feedback_from_config(cfg["feedback"])
    rng = np.random.default_rng(seed)
    n, initial = cfg["n"], cfg["initial"]
    if initial == "random":
        phases = np.sort(rng.random(n))
    elif initial == "uniform":
        phases = np.arange(n) / n
    else:
        phases = np.asarray(initial, dtype=float)
    pop = Population(phases)
    duration = float(cfg["cycles"])
    if cfg["engine"] == "exact":
        run = _exact_run(pop, rp, fs, duration)
        write_events_csv(run, out / "events.csv")
        blocks = _event_state_blocks(run)
    else:
        _, blocks = _sde_run(pop, rp, fs, NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"]),
                             duration, rng, cfg["sample_every"])
    _write_table(out / "trajectory.csv", "t," + ",".join(f"phase_{i}" for i in range(n)), blocks)
    return 0


def _sweep_regions(value: float) -> RegionParams:
    """The regions of sweep value v: |S| = |R| = 1 / (2 v)."""
    w = 1.0 / value  # |S| + |R|
    return RegionParams(s=w / 2.0, r=1.0 - w / 2.0)


def _sweep_block(args):
    """Rows of the sweep points first, first + 1, ..., one per value, as one
    Euler-Maruyama block; point i draws its start and its noise from
    default_rng([seed, i])."""
    first, values, cfg, seed = args
    n, noise = cfg["n"], NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"])
    geometry = list(map(_sweep_regions, values))
    rngs = [np.random.default_rng([seed, first + i]) for i in range(len(values))]
    start = np.array([rng.random(n) for rng in rngs])
    steps = _sde_steps(cfg["cycles"], noise.dt)
    for _, final in _em_block(start, [rp.s for rp in geometry], [rp.r for rp in geometry],
                              FeedbackSpec.linear(cfg["gamma"]), noise, steps, rngs, steps):
        pass  # the last sample is the final state
    rows = []
    for value, rp, phases in zip(values, geometry, final):
        M = max_isolated_clusters(rp)
        N = count_clusters_histogram(Population(phases), cfg["bins"], cfg["occupancy_threshold"])
        verdict = "none" if N == 0 else "le_M" if N <= M else "ge_M_plus_1"
        rows.append((value, M, N, verdict))
    return rows


def cmd_sweep_fig4(cfg: dict, seed: int, out: Path, threads: int) -> int:
    points = cfg["points"]
    values = np.linspace(cfg["lo"], cfg["hi"], points + 1)[1:].tolist()
    # one block of contiguous points per worker; the rows do not depend on the split
    bounds = [points * i // threads for i in range(threads + 1)]
    jobs = [(lo, values[lo:hi], cfg, seed) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if len(jobs) > 1:
        import multiprocessing  # here only: with the socket modules it loads, ~10 ms of start-up

        with multiprocessing.Pool(len(jobs)) as pool:
            blocks = pool.map(_sweep_block, jobs)
    else:
        blocks = [_sweep_block(job) for job in jobs]
    _write_table(out / "sweep.csv", "sweep_value,M,N,verdict",
                 *zip(*chain.from_iterable(blocks)))  # a row per point, and points >= 1
    return 0


def cmd_retmap(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    alpha = float(cfg["alpha"])
    w = 1.0 + alpha  # the replay speed in R while a cluster is in S
    F2 = compose(as_piecewise(rp, alpha), 2)
    xs = np.linspace(0.0, 1.0, cfg["grid"])
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
    betas = np.array([beta for beta in np.linspace(cfg["beta_lo"], cfg["beta_hi"],
                                                   cfg["beta_points"]).tolist() if beta != 0.0])
    ks, nb = np.arange(cfg["k_min"], cfg["k_max"] + 1), len(betas)
    # the rows in (k, beta) order, certified in one call, each k at its
    # band-midpoint geometry with |R| = |S| so that k = M + 1
    w = np.repeat(1.0 / (ks - 0.5), nb)
    k, beta = np.repeat(ks, nb), np.tile(betas, len(ks))
    cases, d, _ = _certify(w / 2.0, 1.0 - w / 2.0, k, beta)
    radius, low = np.zeros(len(k)), np.zeros(len(k))
    for i, kk in enumerate(ks.tolist()):
        rows = slice(i * nb, (i + 1) * nb)
        mods = np.abs(_spectrum_roots(kk, betas, cases[rows])[0])
        radius[rows], low[rows] = mods.max(axis=1), mods.min(axis=1)
    _write_table(out / "spectrum.csv", "k,beta,case,d,spectral_radius,min_modulus",
                 k.tolist(), beta.tolist(), [case._value_ for case in cases],
                 np.column_stack((d, radius, low)))

    # the cells 0 < s < r < 1 of the grid, r outer, at k = M + 1, classified
    # as one batch; r and s take g values each, so they are written as
    # lists, each read from a table
    g = cfg["region_grid"]
    grid = (np.arange(g) + 0.5) / g
    r, s = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    inside = (0.0 < s) & (s < r) & (r < 1.0)
    r, s = r[inside], s[inside]
    k = _max_isolated(s, r) + 1
    cases = classify_case((s, r), k, 1.0 / k)
    _write_table(out / "regions.csv", "r,s,k,case", r.tolist(), s.tolist(), k.tolist(),
                 [case._value_ for case in cases])  # Enum's .value is a slow property
    return 0


def cmd_pde(cfg: dict, seed: int, out: Path, threads: int) -> int:
    rp = RegionParams(s=cfg["s"], r=cfg["r"])
    fs = _feedback_from_config(cfg["feedback"])
    profile = steady_profile(cfg["c"], rp, fs)
    xs = np.linspace(0.0, 1.0, cfg["grid"], endpoint=False)
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


@functools.cache  # one parser per process: parse_args leaves it unchanged
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
        _check_count("seed", ns.seed, 0)
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
