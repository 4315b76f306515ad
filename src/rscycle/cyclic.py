"""Cyclic k-cluster solutions and their linear stability.

For k clusters (each 1/k of the population) the section map has a fixed
point with equal return spacing d; when k = M+1 (one more cluster than can
sit pairwise isolated) the advance window contains at most one signaling
cluster while the responsive region is occupied, and only beta = f(1/k)
enters.  Three event patterns partition the (r, s) band:

  Case I    leader enters R, then the trailing cluster leaves S, then the
            leader finishes:   d = (1 + beta (r - s)) / (k + beta (k - 1))
  Case II   the leader starts inside R:            d = (1 - s beta) / k
  Case III  the second cluster starts inside S:    d = (1 + r beta) / (k (1 + beta))

Every classification is certified by replaying the event sequence with the
exact engine and checking that the configuration returns to itself.  The
linearization of the section map at the fixed point is a (k-1)x(k-1)
matrix with ones on the subdiagonal and a constant last column, -(1+beta)
in Case I and -1 otherwise; its spectrum is computed twice (polynomial
companion roots with Newton polish, and a dense eigendecomposition) and
the two answers must agree.  An atlas computes both spectra of all its
rows for one k as one stack (`_spectra`): one eigvals call per solve and
one Horner loop per polynomial, bit for bit the answer of one row alone.

Along a cyclic solution the signaling fraction only takes the values 0
and 1/k, so a certificate replay builds no profile: it runs with the speeds
of `_cluster_speeds`, [1, 1 + beta, ..., 1 + beta] by the count in S, bit
for bit the table of `saturating_feedback(k, beta)` and checked against
that profile's speed window.  `_certify` holds every check and replay of
`classify_case` and `cyclic_solution` and returns (case, d, residual) from
the replay that verified the case.  Each replay is a `_section_run` of the
section map: floats and (cluster, code) hits, so it does no numpy work.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import List, Sequence, Tuple

import numpy as np

from .model import (CertificateError, FeedbackSpec, RegionParams, ValidationError,
                    max_isolated_clusters)
from .returnmap import _section_run

_CLOSURE_TOL = 1e-9
_DUAL_TOL = 1e-8


class Case(Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class CyclicSolution:
    k: int
    beta: float
    case: Case
    d: float
    residual: float


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    min_modulus: float
    residuals: np.ndarray
    dual_gap: float


def saturating_feedback(k: int, beta: float) -> FeedbackSpec:
    """A profile with f(1/k) = beta that stays inside the admissible speed
    window for any beta in (-0.95, 19): beta * min(k I, 1).

    Along a cyclic k-cluster solution the signaling fraction only takes the
    values 0 and 1/k, so any profile through (1/k, beta) gives the same
    dynamics; this one saturates so H3 holds even when a linear profile
    through the same point would not.

    A subnormal beta gives f = 0: its ramp underflows to 0 near I = 0, which
    no profile may do, and 1 + beta is exactly 1, so the speeds are those of
    zero feedback either way.
    """
    if abs(beta) < np.finfo(float).tiny:
        return FeedbackSpec.linear(0.0)
    return FeedbackSpec.tabulated([(0.0, 0.0), (1.0 / k, beta), (1.0, beta)])


def cyclic_spacing(case: Case, rp: RegionParams, k: int, beta: float) -> float:
    """Return spacing d of the cyclic solution under the given case."""
    if k < 2:
        raise ValidationError("need k >= 2")
    if abs(beta) >= 1.0:
        raise ValidationError("|beta| must be below 1")
    r, s = rp.r, rp.s
    if case is Case.I:
        d = (1.0 + beta * (r - s)) / (k + beta * (k - 1))
    elif case is Case.II:
        d = (1.0 - s * beta) / k
    else:
        d = (1.0 + r * beta) / (k * (1.0 + beta))
    if not (0.0 < d < 1.0) or (k - 1) * d >= 1.0:
        raise ValidationError(f"spacing d={d:.6g} leaves the unit interval for k={k}")
    return d


# The hits that certify each case as (cluster mod k, code: 0 leaves S, 1 enters
# R, 2 reaches 1); the leader k-1 is -1.  Cases II and III add crossings the
# band forces: in II cluster k-2 enters R after cluster 0 leaves S, in III
# cluster 0 never leaves S before the return completes.
_CERTIFYING_HITS = {
    Case.I: ((-1, 1), (0, 0), (-1, 2)),
    Case.II: ((0, 0), (-2, 1), (-1, 2)),
    Case.III: ((1, 0), (-1, 1), (-1, 2)),
}


def _cluster_speeds(k: int, beta: float, name: str = "beta") -> List[float]:
    """The speeds of a cyclic k-cluster solution by the count in S, the
    table of `saturating_feedback(k, beta)`, if 1 + beta lies in the window
    [FeedbackSpec.v_min, FeedbackSpec.v_max] that profile's validation
    enforces; the error names beta as the caller's key, name."""
    if not FeedbackSpec.v_min <= 1.0 + beta <= FeedbackSpec.v_max:
        raise ValidationError(f"speed 1 + {name} = {1.0 + beta!r} lies outside the admissible "
                              f"window [{FeedbackSpec.v_min}, {FeedbackSpec.v_max}]")
    return [1.0] + [1.0 + beta] * k


def _verify_case(case: Case, rp: RegionParams, k: int, beta: float, speeds: List[float]):
    """Replay the candidate on `_cluster_speeds(k, beta)`; return (d, residual) or None."""
    try:
        d = cyclic_spacing(case, rp, k, beta)
    except ValidationError:
        return None
    start = [i * d for i in range(k)]
    t1, final, hits = _section_run(start, rp, speeds)
    residual = max(max(map(abs, map(sub, final, start[1:] + [1.0]))), abs(t1 - d))
    if residual >= _CLOSURE_TOL:
        return None
    if hits != [(i % k, code) for i, code in _CERTIFYING_HITS[case]]:
        return None
    return d, residual


def _certify(rp: RegionParams, k: int, beta: float) -> Tuple[Case, float, float]:
    """(case, d, residual) from the replay that verified the case, as
    `classify_case` describes; a tuple, so a grid of cells builds no object."""
    if k < 2:
        raise ValidationError("need k >= 2")
    if not math.isfinite(beta) or abs(beta) >= 1.0:
        raise ValidationError(f"beta must be finite with |beta| < 1, got {beta!r}")
    speeds = _cluster_speeds(k, beta)
    M = max_isolated_clusters(rp)
    if k != M + 1:
        warnings.warn(f"k={k} is not M+1={M + 1} for these regions; case analysis may not apply",
                      stacklevel=3)  # names the caller of classify_case or cyclic_solution
    s_ok = rp.s < (1.0 + beta * rp.r) / (k * (1.0 + beta))
    r_ok = rp.r > (k - 1) / k * (1.0 - rp.s * beta)

    if s_ok and r_ok:
        ordered = (Case.I, Case.II, Case.III)
    elif not s_ok and r_ok:
        ordered = (Case.III, Case.I, Case.II)
    elif s_ok and not r_ok:
        ordered = (Case.II, Case.I, Case.III)
    else:
        # inequalities cannot pick a side; let the certificates decide
        good = [(case, got) for case in (Case.II, Case.III)
                if (got := _verify_case(case, rp, k, beta, speeds))]
        if len(good) == 1:
            return (good[0][0], *good[0][1])
        if len(good) == 2:
            raise CertificateError(f"both Case II and Case III verify at r={rp.r}, s={rp.s}, "
                                   f"k={k}, beta={beta}; degenerate parameter point")
        raise CertificateError(f"no case verifies at r={rp.r}, s={rp.s}, k={k}, beta={beta}")

    for case in ordered:
        got = _verify_case(case, rp, k, beta, speeds)
        if got is not None:
            return (case, *got)
    raise CertificateError(f"no case's event sequence verifies at r={rp.r}, s={rp.s}, k={k}, "
                           f"beta={beta} (M={M}); spacing formulas do not close")


def classify_case(rp: RegionParams, k: int, beta: float) -> Case:
    """Which event pattern the cyclic k-cluster solution follows.

    Selection uses the two closed-form inequalities
        s < (1/k) (1 + beta r) / (1 + beta)      (trailing cluster clears S)
        r > ((k-1)/k) (1 - s beta)               (leader starts below R)
    both holding means Case I, a failing s-inequality means Case III, a
    failing r-inequality means Case II.  `_certify` certifies the selected
    case by replaying its event sequence; on a fp-degenerate boundary the
    remaining cases are tried, and ambiguity or exhaustion is an error.
    """
    return _certify(rp, k, beta)[0]


def cyclic_solution(rp: RegionParams, k: int, beta: float) -> CyclicSolution:
    """The case of `classify_case`, with the spacing d and closure residual
    of the one replay that certified it."""
    return CyclicSolution(k, beta, *_certify(rp, k, beta))


def build_A(k: int, beta: float, case: Case) -> np.ndarray:
    """Linearization of the section map at the cyclic fixed point.

    Ones on the subdiagonal, a constant last column: -(1+beta) in Case I,
    -1 in Cases II and III.  For k = 2 this is the 1x1 matrix [c].
    """
    if k < 2:
        raise ValidationError("need k >= 2")
    c = -(1.0 + beta) if case is Case.I else -1.0
    A = np.zeros((k - 1, k - 1))
    for i in range(1, k - 1):
        A[i, i - 1] = 1.0
    A[:, -1] = c
    return A


def verify_root_requirement(lam: complex, k: int, beta: float) -> float:
    """Residual of the eigenvalue identity ((lam+beta)/(1+beta)) lam^(k-1) = 1.

    lam = 1 always satisfies it and carries no information, so it is
    rejected.
    """
    lam = complex(lam)
    if abs(lam - 1.0) < 1e-12:
        raise ValidationError("lambda = 1 is the trivial root; not admissible")
    return float(abs((lam + beta) / (1.0 + beta) * lam ** (k - 1) - 1.0))


def spectrum(k: int, beta: float, case: Case) -> SpectrumReport:
    """Eigenvalues of the linearization, computed twice.

    Polynomial companion roots (polished) are the primary answer; they must
    agree with a dense eigendecomposition of the assembled matrix within
    1e-8 or the report is refused.  residuals holds the root-requirement
    residual of each eigenvalue (with beta = 0 for Cases II/III, whose
    matrix is the Case-I matrix at zero feedback), and dual_gap the worst
    distance between a root and the eigenvalue paired with it.
    """
    return _spectra(k, [(beta, case)])[0]


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`np.polyval` of each row's coefficients (a row of coeffs) at that
    row of x, in polyval's order of operations."""
    y = np.zeros_like(x)
    for j in range(coeffs.shape[1]):
        y = y * x + coeffs[:, j, None]
    return y


def _spectra(k: int, rows: Sequence[Tuple[float, Case]]) -> List[SpectrumReport]:
    """`spectrum` of every (beta, case) row of one k, as stacks.

    Row i's characteristic polynomial lam^(k-1) + c (lam^(k-2) + ... + 1),
    c = 1 + beta in Case I and 1 otherwise, is solved as `np.roots` solves
    it, by the eigenvalues of its companion matrix, and polished by three
    Newton steps; then the matrices `build_A` gives are solved, and each
    root is paired greedily with the nearest unpaired eigenvalue.  All rows
    share one eigvals call per solve and one Horner loop per polynomial,
    with row i's coefficients in row i.  numpy's elementwise loops give the
    same bits at any position of a contiguous array, so each report is bit
    for bit what a one-row call returns (a property test checks this
    against the per-row reference).

    eigvals returns a real stack only if every row is real, so each row
    keeps the dtype of a one-row call only if the rows agree.  They do: for
    k = 2 every row is real, and for k >= 3 every row has a complex pair.
    At k = 3 the discriminant c (c - 4) is negative for 0 < c < 2; for
    k >= 4, times (lam - 1) the polynomial is lam^k + b lam^(k-1) - (1 + b),
    which has at most three real roots (Descartes' rule of signs), 1 among
    them.
    """
    if k < 2:
        raise ValidationError("need k >= 2")
    for i, (beta, case) in enumerate(rows):
        if not math.isfinite(beta) or abs(beta) >= 1.0:
            raise ValidationError(f"spectrum row {i}: beta must be finite with |beta| < 1, "
                                  f"got {beta!r}")
        if case is Case.I and beta == 0.0:
            raise ValidationError(f"spectrum row {i}: Case I needs 0 < |beta| < 1")
    if not rows:
        return []
    b = [float(beta) if case is Case.I else 0.0 for beta, case in rows]
    c = 1.0 + np.array(b)
    n, m = len(rows), k - 1
    subdiagonal = np.broadcast_to(np.eye(m, k=-1), (n, m, m))

    companion = subdiagonal.copy()
    companion[:, 0, :] = -c[:, None]
    coeffs = np.empty((n, k))
    coeffs[:, 0] = 1.0
    coeffs[:, 1:] = c[:, None]
    dcoeffs = coeffs[:, :-1] * np.arange(m, 0, -1)
    roots = np.linalg.eigvals(companion)
    for _ in range(3):
        val = _horner(coeffs, roots)
        der = _horner(dcoeffs, roots)
        step = np.where(np.abs(der) > 0, val / np.where(der == 0, 1.0, der), 0.0)
        roots = roots - step

    A = subdiagonal.copy()
    A[:, :, -1] = -c[:, None]
    eig = np.linalg.eigvals(A)

    # greedy pairing, root by root; np.hypot is the scalar complex abs
    row = np.arange(n)
    free = np.ones((n, m), dtype=bool)
    gap = np.zeros(n)
    for t in range(m):
        diff = roots[:, t, None] - eig
        dist = np.where(free, np.hypot(diff.real, diff.imag), np.inf)
        j = dist.argmin(axis=1)
        gap = np.maximum(gap, dist[row, j])
        free[row, j] = False
    bad = np.flatnonzero(gap > _DUAL_TOL)
    if bad.size:
        i = int(bad[0])
        beta, case = rows[i]
        raise CertificateError(
            f"companion roots and eigendecomposition disagree by {gap[i]:.3e} "
            f"for k={k}, beta={beta}, case {case.value} (row {i})"
        )

    order = np.argsort(np.angle(roots), axis=1, kind="stable")
    roots = np.take_along_axis(roots, order, axis=1)
    mods = np.abs(roots)
    radius, low = mods.max(axis=1).tolist(), mods.min(axis=1).tolist()
    return [
        SpectrumReport(
            eigenvalues=roots[i],
            spectral_radius=radius[i],
            min_modulus=low[i],
            residuals=np.array([verify_root_requirement(z, k, b[i]) for z in roots[i].tolist()]),
            dual_gap=float(gap[i]),
        )
        for i in range(n)
    ]
