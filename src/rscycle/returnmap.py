"""Return map of the k-cluster flow through the section x_{k-1} = 1.

A configuration of k point clusters, each 1/k of the population, is
written as (0, x_1, ..., x_{k-1}) with 0 <= x_1 <= ... <= x_{k-1} <= 1.
Advancing the flow until the leading cluster reaches 1 and relabeling (the
leader wraps to 0 and becomes the new trailing cluster) defines the
single-advance map

    F(x_1, ..., x_{k-1}) = (x_0(t1), x_1(t1), ..., x_{k-2}(t1)),

where t1 is the advance time.  Because no cluster overtakes another, the
trailing cluster never feels feedback before t1, so x_0(t1) = t1.  F is
continuous and piecewise affine; for k = 2 it has an explicit four-branch
closed form in terms of alpha = f(1/2).  Composition, fixed points, and
the two-cluster outcome classification are built on an exact
piecewise-affine representation.

The numeric map is the exact engine's region-clock kernel, `simulate._Flow`:
one call of its loop, `_Flow.run`, which ends after the first batch in which
a cluster reaches 1, so the two cannot drift apart.  That run is written
once for one point, `_section_run`: floats and a speed list (indexed by the
count in S) in, floats and (cluster, code) hits out, no numpy and no
EventKind.  `advance_to_section` and `numeric_F` check their positions
(finite, ascending in [0, 1], else ValidationError), build the list from
their profile and call it.

Callers that replay many points, the cyclic certificates and the CLI's
agreement column, replay them all at once with `_section_runs`: one
lockstep numpy loop over rows of clusters laid out flat, each row with its
own regions and its own speed 1 + beta in R while a cluster is in S.  A
section advance wraps no cluster before its last stop, so from ascending
positions S, the middle arc and R stay index ranges of a row and a queue
head is the last index of its range.  Row by row the result is bit for bit
that of `_section_run` on the same row, its checks and errors included; a
batch of one row is replayed by `_section_run` itself.
"""

import math
from dataclasses import dataclass
from operator import le
from typing import List, NamedTuple, Tuple

import numpy as np

from .model import (TIE_TOL, CertificateError, FeedbackSpec, RegionParams, ValidationError,
                    _check_count, _check_number)
from .simulate import (_DT_ERROR, _KIND_OF_CODE, _ORDER_ERROR, SimulationError, _Flow,
                       _speed_table)

_CONTINUITY_TOL = 1e-12
# decision: library policy.  A composition of more than 10**4 segments is a
# runaway and is refused (CertificateError); the two-cluster map has at most
# four and its square, over a grid of regions and alphas, at most seven.
_MAX_SEGMENTS = 10_000
# decision: library policy.  compose makes at most 10**4 compositions: those
# of 1 - x, whose powers keep one segment, take ~0.4 s, and times = 10**9
# never ended.
_MAX_TIMES = 10 ** 4
# decision: a multiplier within _NEUTRAL_TOL of modulus 1 grades its point neutral
_NEUTRAL_TOL = 1e-9
_FIXED_POINT_TOL = 1e-10
_NO_SECTION = "section advance did not terminate; integration bug"


# ---------------------------------------------------------------------------
# numeric section map


def _ascending(points, message: str) -> List[float]:
    """points as Python floats; ValidationError(message) unless they are
    nonempty and ascend in [0, 1] (any compare with NaN is false)."""
    try:
        pos = list(map(float, points))
    except (TypeError, ValueError):  # an entry that is not a number, or a nested list
        raise ValidationError(message) from None
    if not pos or not all(map(le, [0.0, *pos], [*pos, 1.0])):
        raise ValidationError(message)
    return pos


def _section_run(pos: List[float], rp: RegionParams, speeds: List[float]):
    """`advance_to_section` of floats pos, unchecked and unconverted, with
    speeds[j] the speed in R while j clusters are in S: the final positions
    are a list (pos itself if its leader is on the section) and each hit is
    (cluster index, crossing code of `_Flow.run`)."""
    if pos[-1] >= 1.0:
        return 0.0, pos, []
    flow = _Flow(pos, rp, speeds)
    log, _ = flow.run(max_stops=3 * len(pos) + 10, to_section=True)
    finished = [i for _, i, code in log[-1][2] if code == 2]
    if not finished:
        raise CertificateError(_NO_SECTION)
    final = flow.phase_list()
    for i in finished:
        final[i] = 1.0
    return flow.t, final, [(i, code) for _, _, batch in log for _, i, code in sorted(batch)]


# the errors of _section_runs by code: 1 is dt <= 0, 2 a cluster behind its
# new queue's tail, 3 a spent stop budget (0 is none)
_RUN_ERRORS = (None, (SimulationError, _DT_ERROR), (SimulationError, _ORDER_ERROR),
               (CertificateError, _NO_SECTION))
_RUN_CODES = {message: code for code, (_, message) in enumerate(_RUN_ERRORS[1:], 1)}


def _run_error(code: int) -> Exception:
    kind, message = _RUN_ERRORS[code]
    return kind(message)


class _Runs(NamedTuple):
    """The section runs of `_section_runs`, by row: t1 and the error code
    (0 if none) of each row, final laid out as the positions, and the hits of
    row i as cells[bounds[i]:bounds[i + 1]] with their crossing codes in
    codes[bounds[i]:bounds[i + 1]], cells numbered within the row."""

    t1: np.ndarray
    final: np.ndarray
    bounds: np.ndarray
    cells: np.ndarray
    codes: np.ndarray
    errors: np.ndarray


class _Arcs(NamedTuple):
    """Region bounds as `_Flow` reads them, unchecked (`RegionParams`
    refuses s >= r, which `_section_runs` replays into its dt > 0 check)."""

    s: float
    r: float


def _one_run(pos, s, r, w, raise_first: bool) -> _Runs:
    """`_section_runs` of the one row pos, by `_section_run`."""
    try:
        t1, final, hits = _section_run(pos.tolist(), _Arcs(s, r), [1.0] + [w] * len(pos))
    except (SimulationError, CertificateError) as exc:
        if raise_first:
            raise
        none = np.zeros(0, np.intp)
        return _Runs(np.zeros(1), pos.copy(), np.zeros(2, np.intp), none, none,
                     np.array([_RUN_CODES[str(exc)]], np.int8))
    cells, codes = np.array(hits, np.intp).reshape(-1, 2).T
    return _Runs(np.array([t1]), np.array(final), np.array([0, len(hits)]), cells, codes,
                 np.zeros(1, np.int8))


def _section_runs(pos, offsets, s, r, w, raise_first: bool = True) -> _Runs:
    """`_section_run` of every row at once, in lockstep.

    Row i is the clusters pos[offsets[i]:offsets[i + 1]] (nonempty, ascending
    in [0, 1], unchecked) on regions s[i], r[i], with speeds [1, w[i], w[i],
    ...] by the count in S; s, r and w may be scalars.  Each row is bit for
    bit `_section_run(row, RegionParams(s[i], r[i]), [1.0] + [w[i]] * k)`.

    Row i's S, middle arc and R are the index ranges [0, a), [a, b) and
    [b, kR): a cluster enters its next queue at the tail, the range's first
    index, and no cluster wraps to S before the row's last stop, so a range
    only loses its last index (the head) and its next range gains it.  A
    stop pops heads as `_Flow.run` does, against the clocks before the
    stop: R, then the middle arc, then S, then the wraps; each pop round
    takes one head from every row still popping, so a batch of ties costs
    one round per cluster.  The checks are `_Flow.run`'s: dt > 0, the order
    check of each queue a cluster enters, and the stop budget 3k + 10 of
    `_section_run`.  The hits come out by (row, stop, time to cross, cell),
    as `sorted(batch)` sorts a stop, with no sort over every hit: the log
    holds them stop by stop with rows ascending in each pop round, so one
    stable sort on the row puts each row's hits in stop order, and only the
    hits of a stop that batches two or more are re-sorted, by (time to
    cross, cell).  Within a run of exactly tied clusters
    `_Flow` puts the lowest index at the head, and this kernel the highest;
    tied clusters cross in one stop with the same times and clocks, so no
    output depends on which pops first.

    A row that fails a check stops there.  With raise_first, the error of
    the first failing row is raised, the one a row-by-row loop raises;
    otherwise errors holds each row's error code for `_run_error`, and the
    outputs of a failing row are unspecified.

    A batch of one row is replayed by `_section_run` itself: the lockstep
    loop's fixed cost, ~50 small-array operations per stop, is ~30 times
    that of a scalar replay of a few clusters.
    """
    pos = np.asarray(pos, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    n, size = len(offsets) - 1, len(pos)
    k = np.diff(offsets)
    s, r, w = (np.full(n, x, dtype=float) for x in (s, r, w))
    if n == 1:
        return _one_run(pos, float(s[0]), float(r[0]), float(w[0]), raise_first)
    row_of = np.repeat(np.arange(n), k)
    a = np.bincount(row_of[pos < s[row_of]], minlength=n)
    b = np.maximum(a, np.bincount(row_of[pos < r[row_of]], minlength=n))
    ends = [a, b, k.copy()]  # a, b and kR of each row after its last stop
    # per-cell entry phase and entry clock; the pad cell after the last row
    # is what an index past a range reads where the value is not used
    entry, since = np.append(pos, 0.0), np.zeros(size + 1)
    on_section = pos[offsets[1:] - 1] >= 1.0  # `_section_run` returns these at once
    t1, tau1, errors = np.zeros(n), np.zeros(n), np.zeros(n, np.int8)

    rows = (~on_section).nonzero()[0]
    base, A, B, KR, S, R, W = offsets[rows], a[rows], b[rows], k[rows], s[rows], r[rows], w[rows]
    t, tau, v = np.zeros(rows.size), np.zeros(rows.size), np.where(A > 0, W, 1.0)
    inf = math.inf
    d0 = np.where(A > 0, S - entry[base + A - 1], inf)
    d1 = np.where(B > A, R - entry[base + B - 1], inf)
    d2 = np.where(KR > B, 1.0 - entry[base + KR - 1], inf)
    budget = 3 * KR + 10
    log, stop = [], 0  # log: per pop round (rows, stop, times to cross, cells, code)
    while rows.size:
        tt0, tt1, tt2 = d0 - t, d1 - t, (d2 - tau) / v
        dt = np.where(tt1 < tt0, tt1, tt0)
        dt = np.where(tt2 < dt, tt2, dt)
        bad = dt <= 0.0
        if bad.any():
            errors[rows[bad]] = 1
            keep = ~bad
            (rows, base, A, B, KR, S, R, W, t, tau, v, d0, d1, d2, budget, tt0, tt1, tt2,
             dt) = (x[keep] for x in (rows, base, A, B, KR, S, R, W, t, tau, v, d0, d1, d2,
                                      budget, tt0, tt1, tt2, dt))
            if not rows.size:
                break
        t_next, tau_next, limit = t + dt, tau + v * dt, dt + TIE_TOL
        wrapped, fail = tt2 <= limit, np.zeros(rows.size, bool)
        sel = wrapped.nonzero()[0]
        while sel.size:  # R's heads reach 1
            KR[sel] -= 1
            log.append((rows[sel], stop, tt2[sel], KR[sel], 2))
            h = base[sel] + KR[sel] - 1
            d2[sel] = np.where(KR[sel] > B[sel], since[h] + (1.0 - entry[h]), inf)
            tt2[sel] = (d2[sel] - tau[sel]) / v[sel]
            sel = sel[tt2[sel] <= limit[sel]]
        sel = (tt1 <= limit).nonzero()[0]
        while sel.size:  # the middle arc's heads enter R at r on the new tau
            B[sel] -= 1
            log.append((rows[sel], stop, tt1[sel], B[sel], 1))
            h, now, at = base[sel] + B[sel], tau_next[sel], R[sel]
            empty = KR[sel] == B[sel] + 1  # R held no cluster
            fail[sel] |= ~empty & (entry[h + 1] + (now - since[h + 1]) < at)
            d2[sel] = np.where(empty, now + (1.0 - at), d2[sel])
            entry[h], since[h] = at, now
            d1[sel] = np.where(B[sel] > A[sel], since[h - 1] + (at - entry[h - 1]), inf)
            tt1[sel] = d1[sel] - t[sel]
            sel = sel[tt1[sel] <= limit[sel]]
        sel = (tt0 <= limit).nonzero()[0]
        while sel.size:  # S's heads enter the middle arc at s on the new t
            A[sel] -= 1
            log.append((rows[sel], stop, tt0[sel], A[sel], 0))
            h, now, at = base[sel] + A[sel], t_next[sel], S[sel]
            empty = B[sel] == A[sel] + 1  # the middle arc held no cluster
            fail[sel] |= ~empty & (entry[h + 1] + (now - since[h + 1]) < at)
            d1[sel] = np.where(empty, now + (R[sel] - at), d1[sel])
            entry[h], since[h] = at, now
            d0[sel] = np.where(A[sel] > 0, since[h - 1] + (at - entry[h - 1]), inf)
            tt0[sel] = d0[sel] - t[sel]
            sel = sel[tt0[sel] <= limit[sel]]
        # the wraps join S at 0 behind its tail, the row's first cluster; each
        # later wrap sits on the one before it, which the check always passes
        sel = (wrapped & (A > 0)).nonzero()[0]
        fail[sel] |= entry[base[sel]] + (t_next[sel] - since[base[sel]]) < 0.0
        v = np.where(A > 0, W, 1.0)
        t, tau, stop = t_next, tau_next, stop + 1
        out = wrapped | fail | (stop >= budget)
        if out.any():
            errors[rows[fail]] = 2
            errors[rows[out & ~wrapped & ~fail]] = 3
            done = wrapped & ~fail
            i = rows[done]
            t1[i], tau1[i] = t[done], tau[done]
            for end, now in zip(ends, (A, B, KR)):
                end[i] = now[done]
            keep = ~out
            (rows, base, A, B, KR, S, R, W, t, tau, v, d0, d1, d2, budget) = (
                x[keep] for x in (rows, base, A, B, KR, S, R, W, t, tau, v, d0, d1, d2, budget))

    # final positions as `_Flow.phase_list` reads them, finishers at 1.0
    final = pos.copy()
    mask = ((errors == 0) & ~on_section)[row_of]
    j = np.arange(size) - offsets[row_of]
    _, b, kr = (end[row_of] for end in ends)
    x = entry[:size] + (np.where(j < b, t1[row_of], tau1[row_of]) - since[:size])
    x -= np.floor(x)
    x[x == 1.0] = 0.0
    x[j >= kr] = 1.0
    final[mask] = x[mask]

    if log:
        hit_rows, stops, times, cells, codes = zip(*log)
        lengths = list(map(len, hit_rows))
        hit_rows, times, cells = map(np.concatenate, (hit_rows, times, cells))
        stops, codes = np.repeat(stops, lengths), np.repeat(codes, lengths)
        kept = (errors[hit_rows] == 0).nonzero()[0]
        order = kept[np.argsort(hit_rows[kept], kind="stable")]
        hit_rows, stops = hit_rows[order], stops[order]
        # tied[j]: hit j is in the stop of hit j - 1, of the same row; the
        # hits of such a stop are re-sorted in their places by (time to
        # cross, cell), as sorted(batch) orders them
        tied = np.append(False, (hit_rows[1:] == hit_rows[:-1]) & (stops[1:] == stops[:-1]))
        if tied.any():
            batched = tied | np.append(tied[1:], False)
            hits = order[batched]
            order[batched] = hits[np.lexsort((cells[hits], times[hits], stops[batched],
                                              hit_rows[batched]))]
        cells, codes = cells[order], codes[order]
    else:
        hit_rows = cells = codes = np.zeros(0, np.intp)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(hit_rows, minlength=n))))
    failed = errors.nonzero()[0]
    if raise_first and failed.size:
        raise _run_error(errors[failed[0]])
    return _Runs(t1, final, bounds, cells, codes, errors)


def advance_to_section(positions, rp: RegionParams, fs: FeedbackSpec):
    """Run the cluster flow until the leading cluster reaches 1.

    positions must be finite and ascend in [0, 1], else ValidationError;
    each cluster counts once in I.  Returns (t1, final positions, events)
    where events is the boundary-hit list [(cluster index, EventKind)] in
    time order, a batch sorted by (time to its boundary, index).  Nothing
    wraps; the clusters reaching the section finish at exactly 1.

    Raises CertificateError if no cluster reaches 1 within 3k + 10 stops
    (a correct advance makes at most 2k + 1).
    """
    pos = _ascending(positions, "positions must be finite and ascend in [0, 1]")
    t1, final, hits = _section_run(pos, rp, _speed_table(fs, len(pos)).tolist())
    return t1, np.array(final), [(i, _KIND_OF_CODE[code]) for i, code in hits]


def numeric_F(p, rp: RegionParams, fs: FeedbackSpec):
    """One application of the section map, computed by exact event-driven
    integration of k clusters.

    p holds (x_1, ..., x_{k-1}), k >= 2; the trailing cluster at 0 is
    implicit.  Returns (image point, t1).  A leader already on the section
    is a pure relabel: t1 = 0 and the image is (0, x_1, ..., x_{k-2}).
    """
    # an empty p (k = 1) has no section map
    p = _ascending(p, "simplex point must satisfy 0 <= x_1 <= ... <= x_{k-1} <= 1, k >= 2")
    t1, final, _ = _section_run([0.0, *p], rp, _speed_table(fs, len(p) + 1).tolist())
    return np.array(final[:-1]), t1


# ---------------------------------------------------------------------------
# closed form for two clusters


def _k2_case(rp: RegionParams, alpha: float) -> int:
    """1 if r + (1+alpha)s < 1, else 2."""
    return 1 if rp.r + (1.0 + alpha) * rp.s - 1.0 < 0.0 else 2


def analytic_F_k2(x1, rp: RegionParams, alpha: float):
    """Closed form of the two-cluster section map.

    alpha is the feedback value at signaling fraction 1/2.  The map has
    four affine branches; which set applies depends on the sign of
    r + (1+alpha)s - 1.
    """
    m = as_piecewise(rp, alpha)
    _check_number("x1", x1, ge=0.0, le=1.0, array=True)
    x = np.asarray(x1, dtype=float)
    out = m(x)
    return float(out) if np.isscalar(x1) or x.ndim == 0 else out


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Continuous piecewise-affine map on [0, 1].

    breakpoints has one more entry than slopes/intercepts and runs from 0
    to 1; segment j is slope[j]*x + intercept[j] on
    [breakpoints[j], breakpoints[j+1]].
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        q = np.asarray(self.intercepts, dtype=float)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "intercepts", q)
        if b.size != s.size + 1 or s.size != q.size or s.size == 0:
            raise ValidationError("inconsistent piecewise map arrays")
        if abs(b[0]) > 0.0 or abs(b[-1] - 1.0) > 0.0:
            raise ValidationError("breakpoints must span [0, 1]")
        if np.any(np.diff(b) <= 0.0):
            raise ValidationError("breakpoints must strictly ascend")
        # continuity at interior nodes
        left = s[:-1] * b[1:-1] + q[:-1]
        right = s[1:] * b[1:-1] + q[1:]
        gap = np.abs(left - right)
        if np.any(gap >= _CONTINUITY_TOL):
            raise CertificateError(
                f"piecewise map discontinuous at a node (max gap {gap.max():.3e})"
            )

    @property
    def n_segments(self) -> int:
        return self.slopes.size

    def segment_of(self, x: float) -> int:
        j = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return min(max(j, 0), self.n_segments - 1)

    def __call__(self, x):
        _check_number("x", x, array=True)
        x = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                    0, self.n_segments - 1)
        out = self.slopes[j] * x + self.intercepts[j]
        return float(out) if out.ndim == 0 else out


def as_piecewise(rp: RegionParams, alpha: float) -> PiecewiseAffineMap:
    """Exact piecewise-affine form of the two-cluster map.

    Case r + (1+a)s < 1: nodes {r-s, r, 1-(1+a)s}; otherwise nodes
    {r-s, (1+a r)/(1+a) - s, r}.  For alpha = 0 every branch degenerates
    to 1 - x.
    """
    _check_number("alpha", alpha, gt=-1.0)
    a = float(alpha)
    r, s = rp.r, rp.s
    if _k2_case(rp, a) == 1:
        nodes = [0.0, r - s, r, 1.0 - (1.0 + a) * s, 1.0]
        slopes = [-1.0, -(1.0 + a), -1.0, -1.0 / (1.0 + a)]
        intercepts = [1.0, 1.0 + a * (r - s), 1.0 - a * s, 1.0 / (1.0 + a)]
    else:
        b2 = (1.0 + a * r) / (1.0 + a) - s
        nodes = [0.0, r - s, b2, r, 1.0]
        slopes = [-1.0, -(1.0 + a), -1.0, -1.0 / (1.0 + a)]
        intercepts = [1.0, 1.0 + a * (r - s), r + (1.0 - r) / (1.0 + a), 1.0 / (1.0 + a)]
    # a node may coincide with a neighbor at a case boundary; drop zero cells
    keep = [j for j in range(4) if nodes[j + 1] - nodes[j] > 0.0]
    b = [0.0] + [nodes[j + 1] for j in keep]
    return PiecewiseAffineMap(
        breakpoints=np.array(b),
        slopes=np.array([slopes[j] for j in keep]),
        intercepts=np.array([intercepts[j] for j in keep]),
    )


def _compose2(g: PiecewiseAffineMap, h: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact composition g(h(x)) via breakpoint preimages."""
    cuts = set(float(b) for b in h.breakpoints)
    for j in range(h.n_segments):
        a, b = h.breakpoints[j], h.breakpoints[j + 1]
        p, q = h.slopes[j], h.intercepts[j]
        if p == 0.0:
            continue
        for c in g.breakpoints[1:-1]:
            x = (float(c) - q) / p
            if a + 1e-13 < x < b - 1e-13:
                cuts.add(float(x))
    bps = np.array(sorted(cuts))
    # merge nodes that collide within fp noise; decision: nodes 1e-13 or less
    # apart are one node, which sets the composition's segments
    keep = [0]
    for j in range(1, bps.size):
        if bps[j] - bps[keep[-1]] > 1e-13:
            keep.append(j)
    bps = bps[keep]
    bps[0], bps[-1] = 0.0, 1.0

    if bps.size - 1 > _MAX_SEGMENTS:
        raise CertificateError(f"composition exceeded {_MAX_SEGMENTS} segments")

    slopes, intercepts = [], []
    for j in range(bps.size - 1):
        xm = 0.5 * (bps[j] + bps[j + 1])
        jh = h.segment_of(xm)
        p, q = h.slopes[jh], h.intercepts[jh]
        jg = g.segment_of(min(max(p * xm + q, 0.0), 1.0))
        sg, ig = g.slopes[jg], g.intercepts[jg]
        slopes.append(sg * p)
        intercepts.append(sg * q + ig)

    slopes = np.array(slopes)
    intercepts = np.array(intercepts)
    # average tiny node mismatches away; larger ones are a construction bug
    left = slopes[:-1] * bps[1:-1] + intercepts[:-1]
    right = slopes[1:] * bps[1:-1] + intercepts[1:]
    gap = np.abs(left - right)
    if np.any(gap >= _CONTINUITY_TOL):
        raise CertificateError(
            f"composition discontinuous at a node (max gap {gap.max():.3e})"
        )
    node_vals = np.empty(bps.size)
    node_vals[0] = slopes[0] * bps[0] + intercepts[0]
    node_vals[1:-1] = 0.5 * (left + right)
    node_vals[-1] = slopes[-1] * bps[-1] + intercepts[-1]
    intercepts = node_vals[:-1] - slopes * bps[:-1]
    return PiecewiseAffineMap(breakpoints=bps, slopes=slopes, intercepts=intercepts)


def compose(m: PiecewiseAffineMap, times: int) -> PiecewiseAffineMap:
    """m composed with itself the given number of times, an integer from 1
    to _MAX_TIMES."""
    _check_count("times", times, 1, _MAX_TIMES, "compositions")
    out = m
    for _ in range(times - 1):
        out = _compose2(m, out)
    return out


# ---------------------------------------------------------------------------
# fixed points and the two-cluster outcome classification


@dataclass
class FixedPoint:
    location: float
    multiplier: float
    kind: str                    # "stable" | "unstable" | "neutral"


@dataclass
class FixedPointReport:
    points: List[FixedPoint]
    neutral_intervals: List[Tuple[float, float]]


def _classify_multiplier(m: float) -> str:
    if abs(m) > 1.0 + _NEUTRAL_TOL:
        return "unstable"
    if abs(m) < 1.0 - _NEUTRAL_TOL:
        return "stable"
    return "neutral"


def fixed_points(m: PiecewiseAffineMap) -> FixedPointReport:
    """All solutions of m(x) = x: isolated points (classified by the local
    slope) and whole identity segments reported as neutral intervals."""
    intervals: List[Tuple[float, float]] = []
    raw: List[Tuple[float, float]] = []
    for j in range(m.n_segments):
        a, b = float(m.breakpoints[j]), float(m.breakpoints[j + 1])
        p, q = float(m.slopes[j]), float(m.intercepts[j])
        if abs(p - 1.0) <= _CONTINUITY_TOL:
            if abs(q) <= _CONTINUITY_TOL:
                intervals.append((a, b))
            continue
        x = q / (1.0 - p)
        if a - 1e-12 <= x <= b + 1e-12:
            raw.append((min(max(x, a), b), p))

    # merge adjacent identity segments
    merged: List[Tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo - merged[-1][1] <= 1e-12:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))

    points: List[FixedPoint] = []
    # decision: a root within 1e-10 of a neutral interval or of a kept point
    # is part of it, which sets how many points are reported
    for x, p in sorted(raw):
        if any(lo - 1e-10 <= x <= hi + 1e-10 for lo, hi in merged):
            continue
        dup = next((fp for fp in points if abs(fp.location - x) <= 1e-10), None)
        if dup is not None:
            # shared node: keep it once, grade by both one-sided slopes
            kinds = {_classify_multiplier(p), _classify_multiplier(dup.multiplier)}
            if kinds == {"stable"} or kinds == {"unstable"}:
                pass
            else:
                dup.kind = "neutral"
            if abs(p) > abs(dup.multiplier):
                dup.multiplier = p
            continue
        resid = abs(m(x) - x)
        if resid >= _FIXED_POINT_TOL:
            raise CertificateError(f"fixed point residual {resid:.3e} at x={x!r}")
        points.append(FixedPoint(location=float(x), multiplier=float(p),
                                 kind=_classify_multiplier(p)))

    return FixedPointReport(points=points, neutral_intervals=merged)


_K2_OUTCOMES = (
    "positive-unstable-point",
    "positive-neutral-interval",
    "negative-stable-point",
    "negative-neutral-interval",
)


def classify_k2(rp: RegionParams, alpha: float) -> str:
    """Qualitative outcome of the two-cluster dynamics.

    Positive alpha gives either a single unstable interior balance point or
    a neutral interval of period-two configurations; negative alpha gives
    the stable point or the neutral interval.  alpha = 0 is rejected, the
    map degenerates to the involution 1 - x.
    """
    if alpha == 0.0:
        raise ValidationError("alpha = 0 has no feedback to classify")
    F2 = compose(as_piecewise(rp, alpha), 2)
    rep = fixed_points(F2)
    sign = "positive" if alpha > 0.0 else "negative"
    if rep.neutral_intervals:
        return f"{sign}-neutral-interval"
    # decision: a point within 1e-9 of 0 or 1 is a corner, not a balance point
    interior = [p for p in rep.points if 1e-9 < p.location < 1.0 - 1e-9]
    if len(interior) != 1:
        raise CertificateError(
            f"expected one interior balance point, found {len(interior)}"
        )
    fp = interior[0]
    if alpha > 0.0 and fp.kind != "unstable":
        raise CertificateError("positive feedback must destabilize the interior point")
    if alpha < 0.0 and fp.kind != "stable":
        raise CertificateError("negative feedback must stabilize the interior point")
    return f"{sign}-{fp.kind}-point"
