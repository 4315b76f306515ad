"""Acceptance gate.

Eight end-to-end criteria covering the sweep dichotomy, the closed-form
two-cluster map, outcome classification, cyclic-solution certificates,
spectra, linearizations, the qualitative dynamics suites, and the steady
transport profile.  Each test records one PASS/FAIL line, printed in the
terminal summary.
"""

import csv
import multiprocessing

import numpy as np
import pytest

import acceptance_report as report
from rscycle import cli
from rscycle.clusters import decompose
from rscycle.cyclic import (
    Case,
    build_A,
    classify_case,
    cyclic_solution,
    cyclic_spacing,
    saturating_feedback,
    spectrum,
)
from rscycle.model import FeedbackSpec, Population, RegionParams
from rscycle.returnmap import analytic_F_k2, as_piecewise, classify_k2, compose, fixed_points, numeric_F
from rscycle.pde import flux_residual, steady_profile
from rscycle.simulate import simulate_exact

THREADS = min(8, multiprocessing.cpu_count())


def _run_sweep(tmp_path, gamma, seed):
    cfg = dict(cli._DEFAULTS["sweep-fig4"])
    cfg["gamma"] = gamma
    out = tmp_path / f"sweep_{'pos' if gamma > 0 else 'neg'}"
    out.mkdir()
    cli.cmd_sweep_fig4(cfg, seed, out, THREADS)
    with open(out / "sweep.csv") as fh:
        return [(float(r["sweep_value"]), int(r["M"]), int(r["N"]), r["verdict"])
                for r in csv.DictReader(fh)]


def test_cluster_count_dichotomy_sweep(tmp_path):
    # n=1000, 60 points, sigma=1e-6, 100 cycles (defaults); the amplifying
    # side must give N <= M at >= 95% of points and N > 0 at >= 90%; the
    # damping side must give N >= M+1 wherever N > 0 and never N = 1
    pos = _run_sweep(tmp_path, 0.6, seed=2026)
    neg = _run_sweep(tmp_path, -0.6, seed=2026)

    npts = len(pos)
    assert npts == 60
    pos_le = sum(1 for _, M, N, _ in pos if N <= M) / npts
    pos_nz = sum(1 for _, _, N, _ in pos if N > 0) / npts
    neg_bad = [(v, M, N) for v, M, N, _ in neg if N > 0 and N < M + 1]
    neg_ones = [(v, M, N) for v, M, N, _ in neg if N == 1]

    ok = pos_le >= 0.95 and pos_nz >= 0.90 and not neg_bad and not neg_ones
    report.record(1, "cluster-count dichotomy sweep", ok)
    assert pos_le >= 0.95, f"amplifying N<=M fraction {pos_le:.2f}"
    assert pos_nz >= 0.90, f"amplifying N>0 fraction {pos_nz:.2f}"
    assert not neg_bad, f"damping rows with 0 < N < M+1: {neg_bad}"
    assert not neg_ones, f"damping rows with N = 1: {neg_ones}"


def test_closed_form_matches_simulation():
    # 20 random parameter draws, 10 in each branch-structure regime,
    # 1000-point grid each, max deviation < 1e-9
    rng = np.random.default_rng(77)
    draws = {1: [], 2: []}
    while len(draws[1]) < 10 or len(draws[2]) < 10:
        s = rng.uniform(0.05, 0.6)
        r = rng.uniform(s + 0.05, 0.95)
        alpha = rng.uniform(-0.6, 0.9)
        if abs(alpha) < 0.05:
            continue
        regime = 1 if r + (1.0 + alpha) * s < 1.0 else 2
        if len(draws[regime]) < 10:
            draws[regime].append((RegionParams(s=s, r=r), alpha))

    xs = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for rp, alpha in draws[1] + draws[2]:
        fs = saturating_feedback(2, alpha)
        for x in xs:
            num, _ = numeric_F(np.array([x]), rp, fs)
            worst = max(worst, abs(analytic_F_k2(float(x), rp, alpha) - num[0]))

    ok = worst < 1e-9
    report.record(2, f"closed-form map vs simulation (max dev {worst:.2e})", ok)
    assert ok, f"max deviation {worst:.3e}"


def test_two_cluster_outcome_classification():
    shallow = RegionParams(s=0.2, r=0.6)
    wide = RegionParams(s=0.2, r=0.75)

    outcomes = {
        (0.5, shallow): "positive-unstable-point",
        (0.5, wide): "positive-neutral-interval",
        (-0.3, shallow): "negative-stable-point",
        (-0.3, wide): "negative-neutral-interval",
    }
    ok = True
    for (alpha, rp), expected in outcomes.items():
        ok = ok and classify_k2(rp, alpha) == expected

    def interior_point(alpha):
        rep = fixed_points(compose(as_piecewise(shallow, alpha), 2))
        pts = [p for p in rep.points if 1e-6 < p.location < 1 - 1e-6]
        assert len(pts) == 1
        return pts[0]

    p_unstable = interior_point(0.5)
    p_stable = interior_point(-0.3)
    ok = ok and abs(p_unstable.location - 0.48) < 1e-9
    ok = ok and abs(p_unstable.multiplier - 2.25) < 1e-9
    ok = ok and abs(p_stable.location - 0.88 / 1.7) < 1e-9
    ok = ok and abs(p_stable.multiplier - 0.49) < 1e-9

    rep = fixed_points(compose(as_piecewise(wide, 0.5), 2))
    ok = ok and len(rep.neutral_intervals) == 1
    lo, hi = rep.neutral_intervals[0]
    ok = ok and abs(lo - 0.45) < 1e-12 and abs(hi - 0.55) < 1e-12

    report.record(3, "two-cluster outcome classification and fixed points", ok)
    assert classify_k2(shallow, 0.5) == "positive-unstable-point"
    assert classify_k2(wide, 0.5) == "positive-neutral-interval"
    assert classify_k2(shallow, -0.3) == "negative-stable-point"
    assert classify_k2(wide, -0.3) == "negative-neutral-interval"
    assert abs(p_unstable.location - 0.48) < 1e-9
    assert abs(p_unstable.multiplier - 2.25) < 1e-9
    assert abs(p_stable.location - 0.88 / 1.7) < 1e-9
    assert abs(p_stable.multiplier - 0.49) < 1e-9
    assert abs(lo - 0.45) < 1e-12 and abs(hi - 0.55) < 1e-12


def _sample_in_case(rng, target: Case):
    for _ in range(5000):
        k = int(rng.integers(2, 9))
        width = rng.uniform(1.0 / k + 1e-3, min(1.0 / (k - 1), 1.0) - 1e-3)
        s = rng.uniform(0.02 * width, 0.98 * width)
        r = 1.0 - width + s
        if not (0.0 < s < r < 1.0):
            continue
        beta = rng.uniform(0.03, 0.7) * rng.choice([-1.0, 1.0])
        rp = RegionParams(s=s, r=r)
        if classify_case(rp, k, beta) is target:
            return rp, k, beta
    raise RuntimeError(f"could not sample parameters for case {target}")


def test_cyclic_solution_closure():
    # 50 random parameter tuples per case; closure residual < 1e-9 each
    rng = np.random.default_rng(5150)
    worst = 0.0
    ok = True
    for target in (Case.I, Case.II, Case.III):
        for _ in range(50):
            rp, k, beta = _sample_in_case(rng, target)
            sol = cyclic_solution(rp, k, beta)
            ok = ok and sol.case is target and sol.residual < 1e-9
            worst = max(worst, sol.residual)

    report.record(4, f"cyclic-solution closure certificates (worst {worst:.2e})", ok)
    assert ok, f"worst closure residual {worst:.3e}"


def test_spectrum_dichotomy():
    betas = [b for b in np.linspace(-0.5, 0.5, 51) if b != 0.0]
    ok = True
    detail = ""
    for k in range(2, 13):
        for beta in betas:
            rep = spectrum(k, float(beta), Case.I)
            if max(rep.residuals) >= 1e-9:
                ok, detail = False, f"root residual k={k} beta={beta}"
            if beta > 0 and rep.min_modulus < 1.0 + 1e-6:
                ok, detail = False, f"amplifying modulus k={k} beta={beta}"
            if beta < 0 and rep.spectral_radius > 1.0 - 1e-6:
                ok, detail = False, f"damping radius k={k} beta={beta}"
        for case in (Case.II, Case.III):
            rep = spectrum(k, 0.3, case)
            if np.max(np.abs(np.abs(rep.eigenvalues) - 1.0)) >= 1e-9:
                ok, detail = False, f"marginal case {case} k={k}"

    two = spectrum(2, 0.5, Case.I)
    if abs(two.spectral_radius - 1.5) >= 1e-12:
        ok, detail = False, "k=2 radius"

    report.record(5, "linear stability spectrum dichotomy", ok)
    assert ok, detail


# one parameter set per (cluster count, regime); all lie in the k = M+1 band
JACOBIAN_TABLE = [
    (2, Case.I, 0.6, 0.15, -0.3),
    (2, Case.II, 0.45, 0.1, 0.3),
    (2, Case.III, 0.7, 0.5, 0.3),
    (3, Case.I, 0.72, 0.12, -0.3),
    (3, Case.II, 0.62, 0.08, 0.3),
    (3, Case.III, 0.91, 0.4, 0.3),
    (4, Case.I, 0.78, 0.08, -0.3),
    (4, Case.II, 0.73, 0.06, 0.3),
    (4, Case.III, 0.97, 0.3, 0.3),
]


def test_jacobian_matches_stability_matrix():
    h = 1e-6
    worst = 0.0
    ok = True
    for k, case, r, s, beta in JACOBIAN_TABLE:
        rp = RegionParams(s=s, r=r)
        assert classify_case(rp, k, beta) is case
        d = cyclic_spacing(case, rp, k, beta)
        fs = saturating_feedback(k, beta)
        p_star = d * np.arange(1, k)

        J = np.empty((k - 1, k - 1))
        for j in range(k - 1):
            hi = p_star.copy()
            lo = p_star.copy()
            hi[j] += h
            lo[j] -= h
            f_hi, _ = numeric_F(hi, rp, fs)
            f_lo, _ = numeric_F(lo, rp, fs)
            J[:, j] = (f_hi - f_lo) / (2.0 * h)

        A = build_A(k, beta, case)
        dev = np.max(np.abs(J - A))
        worst = max(worst, dev)
        ok = ok and dev < 1e-6

    report.record(6, f"finite-difference Jacobian vs stability matrix (worst {worst:.2e})", ok)
    assert ok, f"worst entrywise deviation {worst:.3e}"


# --- qualitative dynamics, 100 randomized instances each ---------------


def _event_states(pop, rp, fs, duration):
    traj = simulate_exact(pop, rp, fs, duration)
    return traj


def _prop_large_gap_monotone(rng):
    """Amplifying feedback: a gap >= |R|+|S| never shrinks, event by event."""
    violations = 0
    for _ in range(100):
        bound = rng.uniform(0.1, 0.7)
        s = rng.uniform(0.03, bound - 0.02)
        rp = RegionParams(s=s, r=1.0 - (bound - s))
        gamma = rng.uniform(0.2, 0.9)
        n = int(rng.integers(4, 17))
        arc = 1.0 - bound - 0.02
        phases = np.sort(rng.random(n)) * arc
        traj = _event_states(Population(phases), rp, FeedbackSpec.linear(gamma), 3.0)
        gap = (traj.states[:, 0] - traj.states[:, -1]) % 1.0
        if np.any(np.diff(gap) < -1e-12):
            violations += 1
    return violations


def _prop_isolated_group_contracts(rng):
    """Amplifying feedback: an isolated group's width is non-increasing and
    shrinks substantially over 50 cycles."""
    violations = 0
    for _ in range(100):
        bound = rng.uniform(0.15, 0.55)
        s = rng.uniform(0.04, bound - 0.03)
        rp = RegionParams(s=s, r=1.0 - (bound - s))
        gamma = rng.uniform(0.3, 0.9)
        m = int(rng.integers(2, 7))
        wmax = min(bound, 1.0 - bound - 0.02)
        w0 = rng.uniform(0.05, 0.7) * wmax
        inner = np.sort(rng.random(m - 2)) * w0 if m > 2 else np.empty(0)
        start = rng.random()
        phases = np.sort((start + np.concatenate(([0.0], inner, [w0]))) % 1.0)
        traj = _event_states(Population(phases), rp, FeedbackSpec.linear(gamma), 50.0)
        # order is preserved, so group extremes keep their column indices
        first = int(np.argmin((phases - start) % 1.0))
        last = int(np.argmin((phases - start - w0) % 1.0 % 1.0))
        widths = (traj.states[:, last] - traj.states[:, first]) % 1.0
        if np.any(np.diff(widths) > 1e-12) or widths[-1] > 0.5 * w0:
            violations += 1
    return violations


def _prop_converges_to_isolated_clusters(rng):
    """Amplifying feedback with one large gap: the large-gap count never
    drops and the endpoint is a set of tight isolated clusters."""
    violations = 0
    for _ in range(100):
        bound = rng.uniform(0.12, 0.45)
        s = rng.uniform(0.03, bound - 0.03)
        rp = RegionParams(s=s, r=1.0 - (bound - s))
        gamma = rng.uniform(0.3, 0.9)
        n = int(rng.integers(6, 11))
        phases = np.sort(rng.random(n)) * (1.0 - bound - 0.02)
        traj = _event_states(Population(phases), rp, FeedbackSpec.linear(gamma), 250.0)

        sorted_states = np.sort(traj.states, axis=1)
        gaps = np.diff(
            np.concatenate([sorted_states, sorted_states[:, :1] + 1.0], axis=1),
            axis=1,
        )
        counts = (gaps >= rp.interaction_length - 1e-12).sum(axis=1)
        monotone = not np.any(np.diff(counts) < 0)

        dec = decompose(traj.final_population(), rp, delta=min(0.01, bound / 4))
        tight = all(g.width <= 1e-3 for g in dec.groups)
        isolated = all(g.isolated for g in dec.groups)
        within_capacity = 1 <= len(dec.groups) <= int(1.0 / rp.interaction_length + 1e-9)
        if not (monotone and tight and isolated and within_capacity):
            violations += 1
    return violations


def _prop_damping_destabilizes_clusters(rng):
    """Damping feedback: a perturbed cell leaves its cluster; separation
    grows monotonically at event resolution."""
    violations = 0
    for _ in range(100):
        bound = rng.uniform(0.15, 0.45)
        s = rng.uniform(0.03, bound - 0.03)
        rp = RegionParams(s=s, r=1.0 - (bound - s))
        gamma = -rng.uniform(0.2, 0.9)
        eps = 10.0 ** rng.uniform(-5, -3)
        pop = Population(np.array([0.0, eps, 0.5, 0.5]))
        traj = _event_states(pop, rp, FeedbackSpec.linear(gamma), 40.0)
        sep = (traj.states[:, 1] - traj.states[:, 0]) % 1.0
        grew = sep[-1] >= 3.0 * eps
        # the separation grows monotonically while the perturbation is
        # still local; once it is of order the geometry the pair reads as
        # separate clusters and pairwise monotonicity no longer applies
        beyond = np.nonzero(sep > 0.05)[0]
        local_end = beyond[0] if beyond.size else sep.size
        monotone = not np.any(np.diff(sep[:local_end]) < -1e-12)
        intact = np.all(traj.states[:, 3] == traj.states[:, 2])
        if not (grew and monotone and intact):
            violations += 1
    return violations


def _prop_damping_pair_gap_approaches_bound(rng):
    """Damping feedback, two clusters: the small gap rises monotonically to
    |R|+|S| (within 1e-6 after 200 cycles)."""
    violations = 0
    for _ in range(100):
        bound = rng.uniform(0.15, 0.45)
        s = rng.uniform(0.03, bound - 0.03)
        rp = RegionParams(s=s, r=1.0 - (bound - s))
        gamma = -rng.uniform(0.2, 0.9)
        g0 = rng.uniform(0.02, bound - 0.02)
        traj = _event_states(Population(np.array([0.0, g0])), rp,
                             FeedbackSpec.linear(gamma), 200.0)
        gap = (traj.states[:, 1] - traj.states[:, 0]) % 1.0
        monotone = not np.any(np.diff(gap) < -1e-12)
        converged = bound - gap[-1] < 1e-6
        if not (monotone and converged and gap[-1] <= bound + 1e-9):
            violations += 1
    return violations


def test_qualitative_dynamics():
    rng = np.random.default_rng(90210)
    results = {
        "large gap monotone": _prop_large_gap_monotone(rng),
        "isolated group contracts": _prop_isolated_group_contracts(rng),
        "converges to isolated clusters": _prop_converges_to_isolated_clusters(rng),
        "damping destabilizes clusters": _prop_damping_destabilizes_clusters(rng),
        "pair gap approaches bound": _prop_damping_pair_gap_approaches_bound(rng),
    }
    ok = all(v == 0 for v in results.values())
    report.record(7, f"qualitative dynamics suites {results}", ok)
    assert ok, f"violations: {results}"


def test_steady_profile_certificates():
    rp = RegionParams(s=0.25, r=0.75)
    prof = steady_profile(1.0, rp, FeedbackSpec.linear(0.6))
    level_ok = abs(prof.on_r_level - 1.0 / 1.15) < 1e-12

    worst = flux_residual(prof)
    rng = np.random.default_rng(55)
    for _ in range(20):
        s = rng.uniform(0.05, 0.4)
        r = rng.uniform(s + 0.1, 0.95)
        gamma = rng.uniform(-0.8, 0.8)
        c = rng.uniform(0.2, min(1.0 / s, 3.0) * 0.95)
        p = steady_profile(c, RegionParams(s=s, r=r), FeedbackSpec.linear(gamma))
        worst = max(worst, flux_residual(p))

    ok = level_ok and worst < 1e-14
    report.record(8, f"steady transport profile (worst flux residual {worst:.2e})", ok)
    assert level_ok
    assert worst < 1e-14, f"worst flux residual {worst:.3e}"
