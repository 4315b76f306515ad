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
and 1/k, so a certificate replay builds no profile: it runs with the speed
1 + beta in R while a cluster is in S and 1 otherwise, bit for bit the
table of `saturating_feedback(k, beta)` and checked against that profile's
speed window.  `_certify` is the one certifier: it takes rows of (s, r, k,
beta), holds every check of `classify_case` and `cyclic_solution`, and
returns each row's (case, d, residual) from the replay that verified its
case.  It works through the rows in blocks of _BLOCK_ROWS; in a block, a
round of tries replays the rows still open, each in its next case, as one
`returnmap._section_runs` call, so a block costs three such calls at
most (a one-row call replays through the scalar `_section_run`).
`cyclic_solution` is a one-row call of it, and `classify_case` one row or,
given a pair of region-bound arrays, a batch.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple, Union

import numpy as np

from .model import (CertificateError, FeedbackSpec, RegionParams, ValidationError,
                    _max_isolated)
from .returnmap import _run_error, _section_runs

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
    d = _spacing(case, rp.s, rp.r, k, beta)
    if not _in_unit_interval(d, k):
        raise ValidationError(f"spacing d={d:.6g} leaves the unit interval for k={k}")
    return d


def _spacing(case: Case, s, r, k, beta):
    """The spacing formula of case, on floats or elementwise on arrays."""
    if case is Case.I:
        return (1.0 + beta * (r - s)) / (k + beta * (k - 1))
    if case is Case.II:
        return (1.0 - s * beta) / k
    return (1.0 + r * beta) / (k * (1.0 + beta))


def _in_unit_interval(d, k):
    """Whether k clusters at spacing d fit in [0, 1), elementwise on arrays."""
    return (0.0 < d) & (d < 1.0) & ((k - 1) * d < 1.0)


# The hits that certify each case as (cluster mod k, code: 0 leaves S, 1 enters
# R, 2 reaches 1); the leader k-1 is -1.  Cases II and III add crossings the
# band forces: in II cluster k-2 enters R after cluster 0 leaves S, in III
# cluster 0 never leaves S before the return completes.
_CERTIFYING_HITS = {
    Case.I: ((-1, 1), (0, 0), (-1, 2)),
    Case.II: ((0, 0), (-2, 1), (-1, 2)),
    Case.III: ((1, 0), (-1, 1), (-1, 2)),
}


_CASES = tuple(Case)  # a case's code in _certify is its index here
# The certifying hits as arrays by case code: the clusters (mod k) and the codes.
_HIT_CELLS = np.array([[i for i, _ in _CERTIFYING_HITS[case]] for case in _CASES])
_HIT_CODES = np.array([[code for _, code in _CERTIFYING_HITS[case]] for case in _CASES])
# The case codes each row tries, in order, by 2 s_ok + r_ok of `classify_case`;
# -1 ends a row.  With neither inequality (row 0) both II and III are
# replayed, and exactly one must verify.
_TRIES = np.array([[1, 2, -1], [2, 0, 1], [1, 0, 2], [0, 1, 2]])


def _window_error(beta: float, name: str = "beta") -> ValidationError:
    return ValidationError(f"speed 1 + {name} = {1.0 + beta!r} lies outside the admissible "
                           f"window [{FeedbackSpec.v_min}, {FeedbackSpec.v_max}]")


def _cluster_speeds(k: int, beta: float, name: str = "beta") -> List[float]:
    """The speeds of a cyclic k-cluster solution by the count in S, the
    table of `saturating_feedback(k, beta)`, if 1 + beta lies in the window
    [FeedbackSpec.v_min, FeedbackSpec.v_max] that profile's validation
    enforces; the error names beta as the caller's key, name."""
    if not FeedbackSpec.v_min <= 1.0 + beta <= FeedbackSpec.v_max:
        raise _window_error(beta, name)
    return [1.0] + [1.0 + beta] * k


def _verify_cases(codes, s, r, k, beta):
    """Replay row i of (s, r, k, beta) in case _CASES[codes[i]]: returns
    (verified, d, residual, errors) arrays, errors[i] the `_section_runs`
    error code of the row's replay (0 if none).

    A row verifies if its spacing d fits in the unit interval, its replay
    from (0, d, ..., (k-1) d) ends within _CLOSURE_TOL of (d, ..., (k-1) d,
    1) at t1 = d (residual, the largest of those distances), and its hits
    are the case's certifying hits; a row whose d does not fit is not
    replayed.  The rows share one `_section_runs` call.
    """
    d = np.zeros(len(codes))
    for code, case in enumerate(_CASES):
        at = codes == code
        d[at] = _spacing(case, s[at], r[at], k[at], beta[at])
    fits = _in_unit_interval(d, k).nonzero()[0]
    verified, residual = np.zeros(len(codes), bool), np.zeros(len(codes))
    errors = np.zeros(len(codes), np.int8)
    if not fits.size:
        return verified, d, residual, errors
    kf, df = k[fits], d[fits]
    offsets = np.concatenate(([0], np.cumsum(kf)))
    j = np.arange(offsets[-1]) - np.repeat(offsets[:-1], kf)
    spacing = np.repeat(df, kf)
    runs = _section_runs(j * spacing, offsets, s[fits], r[fits], 1.0 + beta[fits],
                         raise_first=False)
    closed = (j + 1) * spacing  # the start shifted by one cluster, the leader at 1
    closed[offsets[1:] - 1] = 1.0
    gap = np.maximum.reduceat(np.abs(runs.final - closed), offsets[:-1])
    res = np.maximum(gap, np.abs(runs.t1 - df))
    hits = np.zeros(len(fits), bool)
    three = (np.diff(runs.bounds) == 3).nonzero()[0]
    at = runs.bounds[three, None] + np.arange(3)
    case = codes[fits[three]]
    hits[three] = ((runs.cells[at] == _HIT_CELLS[case] % kf[three, None])
                   & (runs.codes[at] == _HIT_CODES[case])).all(axis=1)
    ok = runs.errors == 0
    verified[fits] = ok & ~(res >= _CLOSURE_TOL) & hits
    residual[fits], errors[fits] = res, runs.errors
    return verified, d, residual, errors


# decision: rows certified at a time.  One block of the whole default grid
# (7140 rows) took ~12 ms but raised the command's peak RSS by ~7 MB; blocks
# of 1024 rows take ~15 ms and ~1.4 MB (in process, 2-CPU host).
_BLOCK_ROWS = 1024


def _certify(s, r, k, beta):
    """(cases, d, residual) of the rows of regions (s, r), k clusters and
    feedback beta, each row certified as `classify_case` describes: cases
    is a list of Case, d and residual are arrays, from the replay that
    verified the row's case.

    s, r, k and beta broadcast to one length.  Each row is checked as a
    one-row call checks it: 0 < s < r < 1 (the check of `RegionParams`),
    an integer k >= 2, a finite |beta| < 1 and 1 + beta in the speed
    window.  The rows are certified in blocks of _BLOCK_ROWS by
    `_certify_rows`.

    A row that fails raises the error the row-by-row loop raises first: the
    first failing row's first error, after a k != M+1 warning for each row
    that passed validation up to it.
    """
    s, r, k, beta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(r, dtype=float),
                                        np.asarray(k, dtype=float),
                                        np.atleast_1d(np.asarray(beta, dtype=float)))
    bad_rp = ~((0.0 < s) & (s < r) & (r < 1.0))
    bad_k = ~(k >= 2.0)
    bad_int = ~np.isfinite(k) | (k != np.floor(k))
    bad_beta = ~np.isfinite(beta) | (np.abs(beta) >= 1.0)
    bad_w = ~((FeedbackSpec.v_min <= 1.0 + beta) & (1.0 + beta <= FeedbackSpec.v_max))
    invalid = (bad_rp | bad_k | bad_int | bad_beta | bad_w).nonzero()[0]
    errors = {}  # row: its first error
    live = len(k)  # the rows before the first invalid one; the rest are never reached
    if invalid.size:
        live = i = int(invalid[0])
        if bad_rp[i]:
            errors[i] = ValidationError("region bounds must satisfy 0 < s < r < 1, got "
                                        f"s={float(s[i])}, r={float(r[i])}")
        elif bad_k[i]:
            errors[i] = ValidationError("need k >= 2")
        elif bad_int[i]:
            errors[i] = ValidationError(f"need an integer k, got {float(k[i])!r}")
        elif bad_beta[i]:
            errors[i] = ValidationError(
                f"beta must be finite with |beta| < 1, got {float(beta[i])!r}")
        else:
            errors[i] = _window_error(float(beta[i]))
    s, r, k, beta = s[:live], r[:live], k[:live].astype(np.intp), beta[:live]
    M = _max_isolated(s, r)
    case, d, residual = np.full(live, -1), np.zeros(live), np.zeros(live)
    for lo in range(0, live, _BLOCK_ROWS):
        at = slice(lo, lo + _BLOCK_ROWS)
        case[at], d[at], residual[at], failed = _certify_rows(s[at], r[at], k[at], beta[at], M[at])
        errors.update((lo + i, error) for i, error in failed.items())
        if failed:
            break  # the rows after it are never reached

    first_error = min(errors, default=live)
    upto = min(first_error + 1, live)  # the first invalid row fails before its warning
    for i in (k[:upto] != M[:upto] + 1).nonzero()[0]:
        warnings.warn(f"k={int(k[i])} is not M+1={int(M[i]) + 1} for these regions; case "
                      "analysis may not apply",
                      stacklevel=3)  # names the caller of classify_case or cyclic_solution
    if errors:
        raise errors[first_error]
    return [_CASES[c] for c in case.tolist()], d, residual


def _certify_rows(s, r, k, beta, M):
    """The certification of valid rows: (case codes, d, residual, errors),
    errors a dict of each failing row's first error.

    Round j replays every row still open in its j-th case of _TRIES, all as
    one `_verify_cases` call, so a block costs three `_section_runs` calls at
    most.  A row stays open until a case verifies or its replay fails; a row
    that meets neither inequality stays open for both II and III.
    """
    s_ok = s < (1.0 + beta * r) / (k * (1.0 + beta))
    r_ok = r > (k - 1) / k * (1.0 - s * beta)
    tries = _TRIES[2 * s_ok + r_ok]
    neither = ~s_ok & ~r_ok

    n, errors = len(k), {}
    case, d, residual = np.full(n, -1), np.zeros(n), np.zeros(n)
    good = np.zeros(n, np.intp)  # cases verified
    failed = np.zeros(n, bool)
    for j in range(3):
        rows = ((tries[:, j] >= 0) & ~failed & (neither | (good == 0))).nonzero()[0]
        if not rows.size:
            continue
        codes = tries[rows, j]
        ok, dj, rj, run_errors = _verify_cases(codes, s[rows], r[rows], k[rows], beta[rows])
        for i in (run_errors != 0).nonzero()[0]:
            errors[int(rows[i])] = _run_error(run_errors[i])
        failed[rows[run_errors != 0]] = True
        first = ok & (good[rows] == 0)
        at = rows[first]
        case[at], d[at], residual[at] = codes[first], dj[first], rj[first]
        good[rows[ok]] += 1
    for i in ((good != 1) & ~failed).nonzero()[0]:
        at = f"r={float(r[i])}, s={float(s[i])}, k={int(k[i])}, beta={float(beta[i])}"
        if not neither[i]:
            errors[int(i)] = CertificateError(f"no case's event sequence verifies at {at} "
                                              f"(M={int(M[i])}); spacing formulas do not close")
        elif good[i]:
            errors[int(i)] = CertificateError(f"both Case II and Case III verify at {at}; "
                                              "degenerate parameter point")
        else:
            errors[int(i)] = CertificateError(f"no case verifies at {at}")
    return case, d, residual, errors


def classify_case(rp: Union[RegionParams, Tuple], k, beta):
    """Which event pattern the cyclic k-cluster solution follows.

    Selection uses the two closed-form inequalities
        s < (1/k) (1 + beta r) / (1 + beta)      (trailing cluster clears S)
        r > ((k-1)/k) (1 - s beta)               (leader starts below R)
    both holding means Case I, a failing s-inequality means Case III, a
    failing r-inequality means Case II.  `_certify` certifies the selected
    case by replaying its event sequence; on a fp-degenerate boundary the
    remaining cases are tried, and ambiguity or exhaustion is an error.

    For one RegionParams this is a one-row call of `_certify` and returns a
    Case.  rp may instead be a pair (s, r) of region bounds: s, r, k and
    beta then broadcast to rows, which are certified as one batch, and the
    result is a list of Case, one per row (a region grid, as `rscycle
    cyclic` classifies it).
    """
    if isinstance(rp, RegionParams):
        return _certify(rp.s, rp.r, k, beta)[0][0]
    return _certify(*rp, k, beta)[0]


def cyclic_solution(rp: RegionParams, k: int, beta: float) -> CyclicSolution:
    """The case of `classify_case`, with the spacing d and closure residual
    of the one replay that certified it."""
    cases, d, residual = _certify(rp.s, rp.r, k, beta)
    return CyclicSolution(k, beta, cases[0], float(d[0]), float(residual[0]))


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
