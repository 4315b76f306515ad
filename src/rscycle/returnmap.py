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
once, `_section_run`: floats and a speed list (indexed by the count in S)
in, floats and (cluster, code) hits out, no numpy and no EventKind.
`advance_to_section` and `numeric_F` check their positions (finite,
ascending in [0, 1], else ValidationError), build the list from their
profile and call it; callers that replay many points, the cyclic
certificates and the CLI's return map, pass one list to every call.
"""

from dataclasses import dataclass
from operator import le
from typing import List, Tuple

import numpy as np

from .model import CertificateError, FeedbackSpec, RegionParams, ValidationError
from .simulate import _KIND_OF_CODE, _Flow, _speed_table

_CONTINUITY_TOL = 1e-12
_MAX_SEGMENTS = 10_000
# decision: a multiplier within _NEUTRAL_TOL of modulus 1 grades its point neutral
_NEUTRAL_TOL = 1e-9
_FIXED_POINT_TOL = 1e-10


# ---------------------------------------------------------------------------
# numeric section map


def _ascending(points, message: str) -> List[float]:
    """points as Python floats; ValidationError(message) unless they are
    nonempty and ascend in [0, 1] (any compare with NaN is false)."""
    pos = list(map(float, points))
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
        raise CertificateError("section advance did not terminate; integration bug")
    final = flow.phase_list()
    for i in finished:
        final[i] = 1.0
    return flow.t, final, [(i, code) for _, _, batch in log for _, i, code in sorted(batch)]


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
    x = np.asarray(x1, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValidationError("x1 must lie in [0, 1]")
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
    if alpha <= -1.0:
        raise ValidationError("alpha must exceed -1")
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
    """m composed with itself the given number of times (times >= 1)."""
    if times < 1:
        raise ValidationError("times must be >= 1")
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
