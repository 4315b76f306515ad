import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectrum_oracle
from rscycle import cyclic, simulate
from rscycle.cyclic import (
    Case,
    build_A,
    classify_case,
    cyclic_solution,
    cyclic_spacing,
    saturating_feedback,
    spectrum,
    verify_root_requirement,
)
from rscycle.model import (
    CertificateError,
    FeedbackSpec,
    RegionParams,
    ValidationError,
    max_isolated_clusters,
)
from rscycle.returnmap import _section_runs, advance_to_section

# Hand-checked spacing values:
#   k=2, beta=0.5,  (r,s)=(0.6,0.2):  leader-in-R regime,
#       d = (1 + 0.5*0.4) / (2 + 0.5) = 0.48
#   k=3, beta=-0.2, (r,s)=(0.65,0.1): shallow-r regime,
#       d = (1 - 0.1*(-0.2)) / 3 = 0.34
#   k=3, beta=0.3,  (r,s)=(0.91,0.4): deep-s regime,
#       d = (1 + 0.3*0.91) / (3 * 1.3) = 1.273/3.9
SPACING_CASES = [
    (2, 0.5, 0.6, 0.2, Case.I, 0.48),
    (3, -0.2, 0.65, 0.1, Case.II, 0.34),
    (3, 0.3, 0.91, 0.4, Case.III, 1.273 / 3.9),
]


@pytest.mark.parametrize("k,beta,r,s,case,expected", SPACING_CASES)
def test_spacing_frozen(k, beta, r, s, case, expected):
    rp = RegionParams(s=s, r=r)
    assert classify_case(rp, k, beta) is case
    assert cyclic_spacing(case, rp, k, beta) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k,beta,r,s,case,expected", SPACING_CASES)
def test_solution_certificate(k, beta, r, s, case, expected):
    rp = RegionParams(s=s, r=r)
    sol = cyclic_solution(rp, k, beta)
    assert sol.case is case
    assert sol.d == pytest.approx(expected, abs=1e-12)
    assert sol.residual < 1e-9


def test_saturating_feedback_pins_value_at_one_over_k():
    for k in (2, 3, 5, 8):
        for beta in (-0.9, -0.3, 0.4, 2.0):
            fs = saturating_feedback(k, beta)
            assert fs(0.0) == 0.0
            assert fs(1.0 / k) == pytest.approx(beta, abs=1e-15)
            assert fs(1.0) == pytest.approx(beta, abs=1e-15)


def test_saturating_feedback_is_a_frozen_spec_per_k_beta():
    fs = saturating_feedback(3, 0.4)
    assert saturating_feedback(3, 0.4) == fs
    assert saturating_feedback(4, 0.4) != fs
    assert saturating_feedback(3, -0.4) != fs
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.table = ((0.0, 0.0), (1.0, 0.9))


@pytest.mark.parametrize("beta", [5e-324, -1e-320, 2e-310])
def test_saturating_feedback_subnormal_beta_is_zero_feedback(beta):
    # a subnormal ramp underflowed to 0 near I = 0 and failed validation
    fs = saturating_feedback(2, beta)
    assert np.sign(fs(1.0)) == 0
    zero = simulate._speed_table(FeedbackSpec.none(), 4)
    assert simulate._speed_table(fs, 4).tobytes() == zero.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_replay_speeds_are_the_saturating_table(data):
    # a replay runs on the speeds of _cluster_speeds: bit for bit the speed
    # table of the profile it stands for, a subnormal beta included, across
    # the whole speed window (the return map replays k = 2 with alpha up to 19)
    k = data.draw(st.integers(2, 12))
    tiny = np.finfo(float).tiny
    beta = data.draw(st.one_of(
        st.floats(-0.95, 19.0),
        st.floats(-tiny, tiny, exclude_min=True, exclude_max=True),  # the subnormals and zeros
        st.sampled_from([1.0 / k, -0.95, 19.0])))
    table = simulate._speed_table(saturating_feedback(k, beta), k).tolist()
    assert [x.hex() for x in cyclic._cluster_speeds(k, beta)] == [x.hex() for x in table]


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_cluster_speeds_window_is_the_saturating_window(k):
    # _cluster_speeds rejects exactly the beta whose profile fails validation
    for edge, outward in ((-0.95, -1.0), (19.0, 20.0)):
        saturating_feedback(k, edge)
        assert cyclic._cluster_speeds(k, edge)[1] == 1.0 + edge
        outside = float(np.nextafter(edge, outward))
        with pytest.raises(ValidationError):
            saturating_feedback(k, outside)
        with pytest.raises(ValidationError):
            cyclic._cluster_speeds(k, outside)


@pytest.mark.parametrize("k,beta,r,s,case,expected", SPACING_CASES)
def test_solution_is_one_replay(monkeypatch, k, beta, r, s, case, expected):
    # the replay that certifies the case also gives d and the residual: one
    # batch of one row
    rows = []
    real = cyclic._section_runs

    def counted(pos, offsets, *args, **kwargs):
        rows.append(len(offsets) - 1)
        return real(pos, offsets, *args, **kwargs)

    monkeypatch.setattr(cyclic, "_section_runs", counted)
    assert cyclic_solution(RegionParams(s=s, r=r), k, beta).case is case
    assert rows == [1]


@pytest.mark.parametrize("fn", [classify_case, cyclic_solution])
def test_off_band_warning_names_the_caller(fn):
    # k = 3 on regions with M + 1 = 2 still certifies, with a warning
    with pytest.warns(UserWarning, match=r"k=3 is not M\+1=2") as record:
        fn(RegionParams(s=0.2, r=0.6), 3, 0.2)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("k,r,s", [(2, 0.6, 0.2), (3, 0.65, 0.1)])
def test_beta_below_the_speed_window_is_rejected(k, r, s):
    # 1 + beta must reach FeedbackSpec.v_min = 0.05, as for any profile
    rp = RegionParams(s=s, r=r)
    for beta in (-0.97, float(np.nextafter(-0.95, -1.0))):
        with pytest.raises(ValidationError):
            classify_case(rp, k, beta)
        with pytest.raises(ValidationError):
            cyclic_solution(rp, k, beta)
    assert cyclic_solution(rp, k, -0.95).case is classify_case(rp, k, -0.95)


def test_classification_boundaries_consistent():
    # classification agrees with the defining inequalities on a coarse grid
    for k in (2, 3, 4, 5):
        for beta in (-0.4, 0.35):
            width = 1.0 / (k - 0.5)
            rp = RegionParams(s=width / 2, r=1.0 - width / 2)
            assert max_isolated_clusters(rp) + 1 == k
            case = classify_case(rp, k, beta)
            d = cyclic_spacing(case, rp, k, beta)
            assert 0.0 < d < 1.0
            assert (k - 1) * d < 1.0


def test_all_cases_verifiable_across_band():
    # every (r, s) inside the k = M+1 band admits a certified solution
    rng = np.random.default_rng(31)
    for k in (2, 3, 4, 6):
        for _ in range(25):
            width = rng.uniform(1.0 / k + 1e-3, 1.0 / (k - 1) - 1e-3) if k > 1 else 0
            s = rng.uniform(0.02, width - 0.01)
            rp = RegionParams(s=s, r=1.0 - (width - s))
            beta = rng.uniform(-0.6, 0.6)
            if abs(beta) < 0.02:
                continue
            sol = cyclic_solution(rp, k, beta)
            assert sol.residual < 1e-9


def test_build_A_shapes_and_frozen_entries():
    A = build_A(2, 0.5, Case.I)
    np.testing.assert_allclose(A, [[-1.5]])

    A = build_A(3, 0.5, Case.I)
    np.testing.assert_allclose(A, [[0.0, -1.5], [1.0, -1.5]])

    A = build_A(3, 0.5, Case.II)
    np.testing.assert_allclose(A, [[0.0, -1.0], [1.0, -1.0]])

    A = build_A(4, -0.25, Case.III)
    np.testing.assert_allclose(
        A, [[0.0, 0.0, -1.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
    )


def test_two_cluster_eigenvalue_exact():
    rep = spectrum(2, 0.5, Case.I)
    assert rep.spectral_radius == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(rep.eigenvalues, [-1.5], atol=1e-12)

    rep = spectrum(2, -0.4, Case.I)
    assert rep.spectral_radius == pytest.approx(0.6, abs=1e-12)


def test_root_requirement_exact_for_two_clusters():
    assert verify_root_requirement(-1.5, 2, 0.5) < 1e-14
    assert verify_root_requirement(-0.6, 2, -0.4) < 1e-14


def test_root_requirement_rejects_unit_root():
    with pytest.raises(ValidationError):
        verify_root_requirement(1.0, 3, 0.2)


def test_spectrum_dichotomy_signs():
    # amplifying feedback repels, damping feedback attracts, for every
    # leader-in-R spectrum
    for k in (2, 3, 5, 9):
        rep = spectrum(k, 0.3, Case.I)
        assert rep.min_modulus > 1.0 + 1e-6
        rep = spectrum(k, -0.3, Case.I)
        assert rep.spectral_radius < 1.0 - 1e-6


def test_spectrum_marginal_for_other_cases():
    # the other two regimes have purely rotational linearizations
    for k in (2, 3, 4, 7):
        for case in (Case.II, Case.III):
            rep = spectrum(k, 0.3, case)
            np.testing.assert_allclose(np.abs(rep.eigenvalues), 1.0, atol=1e-9)
            # eigenvalues are the k-th roots of unity except 1
            roots = np.sort_complex(rep.eigenvalues)
            expected = np.sort_complex(
                np.exp(2j * np.pi * np.arange(1, k) / k)
            )
            np.testing.assert_allclose(roots, expected, atol=1e-8)


def test_spectrum_residuals_small():
    for k in (2, 4, 8, 12):
        for beta in (-0.45, -0.1, 0.2, 0.5):
            rep = spectrum(k, beta, Case.I)
            assert max(rep.residuals) < 1e-9
            assert len(rep.eigenvalues) == k - 1


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        spectrum(2, 0.0, Case.I)
    with pytest.raises(ValidationError):
        spectrum(1, 0.5, Case.I)
    with pytest.raises(ValidationError):
        spectrum(3, 1.5, Case.I)


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), 5.0, -1.0])
def test_spectrum_rejects_bad_beta_in_every_case(case, beta):
    # nan raised numpy's LinAlgError, and Cases II/III accepted |beta| >= 1
    with pytest.raises(ValidationError):
        spectrum(3, beta, case)


def test_one_bad_row_is_rejected_before_the_stack_is_solved():
    rows = [(0.2, Case.I), (-0.3, Case.II), (float("nan"), Case.III), (0.1, Case.I)]
    with pytest.raises(ValidationError, match="row 2"):
        cyclic._spectra(4, rows)
    assert cyclic._spectra(4, []) == []


def test_classify_case_rejects_non_finite_beta():
    # a nan beta ran every replay before "no case verifies"
    rp = RegionParams(s=0.2, r=0.8)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            classify_case(rp, 3, beta)


def test_dual_gap_is_the_oracle_pairing_distance():
    for k in (2, 3, 5, 8, 12):
        for beta, case in ((0.45, Case.I), (-0.45, Case.I), (0.3, Case.II), (-0.7, Case.III)):
            rep = spectrum(k, beta, case)
            _, worst = spectrum_oracle.spectrum(k, beta, case)
            assert 0.0 <= rep.dual_gap <= 1e-8
            assert rep.dual_gap == worst


def _assert_same_report(got, want):
    assert got.eigenvalues.dtype == want.eigenvalues.dtype
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.residuals.dtype == want.residuals.dtype
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert float(got.spectral_radius).hex() == float(want.spectral_radius).hex()
    assert float(got.min_modulus).hex() == float(want.min_modulus).hex()
    assert float(got.dual_gap).hex() == float(want.dual_gap).hex()


_BETA = st.one_of(
    st.sampled_from([1e-300, -1e-300, 0.999, -0.999]),
    st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
)
_ROW = st.tuples(_BETA, st.sampled_from(list(Case))).filter(
    lambda row: row[0] != 0.0 or row[1] is not Case.I)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 12), rows=st.lists(_ROW, min_size=1, max_size=60))
def test_stacked_spectra_match_the_per_row_oracle(k, rows):
    got = cyclic._spectra(k, rows)
    assert len(got) == len(rows)
    for (beta, case), rep in zip(rows, got):
        _assert_same_report(rep, spectrum_oracle.spectrum(k, beta, case)[0])


def test_a_disagreeing_row_is_named(monkeypatch):
    rows = [(0.2, Case.I), (-0.3, Case.I), (0.25, Case.II), (0.4, Case.III)]
    real = np.linalg.eigvals
    calls = []

    def perturbed(a):
        w = real(a)
        calls.append(a.shape)
        if len(calls) == 2:  # the build_A stack; the first call is the companions
            w = w.copy()
            w[2, 1] += 1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvals", perturbed)
    with pytest.raises(CertificateError, match=r"beta=0\.25, case II \(row 2\)"):
        cyclic._spectra(4, rows)
    assert calls == [(4, 3, 3), (4, 3, 3)]


def _old_expected_hits(case, k):
    """The certifying hit lists as EventKinds, as the per-case check once built them."""
    kind = simulate.EventKind
    S, R, END = kind.HIT_S_END, kind.HIT_R_START, kind.HIT_CYCLE_END
    if case is Case.I:
        return [(k - 1, R), (0, S), (k - 1, END)]
    if case is Case.II:
        return [(0, S), (k - 2, R), (k - 1, END)]
    return [(1, S), (k - 1, R), (k - 1, END)]


def _old_verify_case(case, rp, k, beta):
    """The per-case check as it once was: on the public advance, with
    EventKind lists and the closure residual read through numpy."""
    try:
        d = cyclic_spacing(case, rp, k, beta)
    except ValidationError:
        return None
    start = [i * d for i in range(k)]
    t1, final, hits = advance_to_section(start, rp, saturating_feedback(k, beta))
    expect = start[1:] + [1.0]
    residual = max(abs(x - y) for x, y in zip(final.tolist(), expect))
    residual = max(residual, abs(t1 - d))
    if residual >= 1e-9:
        return None
    if hits != _old_expected_hits(case, k):
        return None
    return d, residual


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 12), a=st.floats(0.0, 0.98), b=st.floats(0.0, 1.0),
       sign=st.sampled_from([-1.0, 1.0]), size=st.floats(0.02, 0.9))
def test_verify_case_is_the_old_event_kind_check(k, a, b, sign, size):
    # the batched per-case check, the three cases as three rows of one
    # replay, against the per-case EventKind check it replaced: same (d,
    # residual) bits or None, inside the k = M+1 band and at its edges
    width = 1.0 / k + a * (1.0 / (k - 1) - 1.0 / k)
    s = min(max(b * width, 1e-3), width - 1e-3)
    rp = RegionParams(s=s, r=1.0 - (width - s))
    beta = sign * size
    verified, d, residual, errors = cyclic._verify_cases(
        np.arange(3), np.full(3, rp.s), np.full(3, rp.r), np.full(3, k), np.full(3, beta))
    assert not errors.any()
    got = [(d[i].hex(), residual[i].hex()) if verified[i] else None for i in range(3)]
    want = [_old_verify_case(case, rp, k, beta) for case in Case]
    assert got == [x and (x[0].hex(), x[1].hex()) for x in want]


def test_spacing_validation():
    rp = RegionParams(s=0.2, r=0.6)
    with pytest.raises(ValidationError):
        cyclic_spacing(Case.I, rp, 1, 0.5)
    with pytest.raises(ValidationError):
        cyclic_spacing(Case.I, rp, 2, 1.0)


def test_classify_matches_brute_force_inequalities():
    # the closed-form case test against direct inequality evaluation
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        width = rng.uniform(1.0 / k + 1e-3, min(1.0 / (k - 1), 0.95) - 1e-3)
        s = rng.uniform(0.01, width - 0.005)
        rp = RegionParams(s=s, r=1.0 - (width - s))
        beta = float(rng.uniform(-0.7, 0.7))
        if abs(beta) < 0.02:
            continue
        case = classify_case(rp, k, beta)
        d1 = (1.0 + beta * (rp.r - rp.s)) / (k + beta * (k - 1))
        s_ok = rp.s < (1.0 + beta * rp.r) / (k * (1.0 + beta))
        r_ok = rp.r > (k - 1) / k * (1.0 - rp.s * beta)
        if s_ok and r_ok:
            assert case is Case.I, (k, beta, rp)
        elif not r_ok and s_ok:
            assert case is Case.II, (k, beta, rp)
        elif not s_ok and r_ok:
            assert case is Case.III, (k, beta, rp)


# Rows that take the certifier's rare branches, found by a search off the
# k = M+1 band (the default atlas takes none of them), as (s, r, k, beta).
# FALLBACK tries III, which fails, then I, which verifies; NEITHER meets
# neither inequality, and of II and III only III verifies; no case verifies
# NO_CASE (II, I, III) or NEITHER_NO_CASE (II, III).
FALLBACK = (0.39994253475967784, 0.5890953701439295, 2, 0.9493582042841204)
NEITHER = (0.3678840269067504, 0.9630721151537374, 4, -0.8273051146616561)
NO_CASE = (0.2306450698216744, 0.5061275979233255, 6, -0.9)
NEITHER_NO_CASE = (0.849077688581484, 0.9463734536395703, 8, -0.9)
IN_BAND = [(0.2, 0.6, 2, 0.5), (0.1, 0.65, 3, -0.2), (0.4, 0.91, 3, 0.3), (0.06, 0.73, 4, 0.3)]


def _row_by_row(rows):
    """cyclic_solution of each row, or the error it raised, and the warnings
    the loop gives until its first error."""
    got = []
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        for s, r, k, beta in rows:
            try:
                got.append(cyclic_solution(RegionParams(s=s, r=r), k, beta))
            except (ValidationError, CertificateError) as exc:
                got.append(exc)
                break
    return got, [str(w.message) for w in record]


def _batch(rows):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            got = cyclic._certify(*map(list, zip(*rows)))
        except (ValidationError, CertificateError) as exc:
            got = exc
    return got, [str(w.message) for w in record]


@pytest.mark.filterwarnings("ignore:k=")
def test_rare_branches_are_taken():
    # the first choice of FALLBACK (failing s-inequality) is III; NEITHER and
    # NEITHER_NO_CASE meet neither inequality
    for (s, r, k, beta), want in ((FALLBACK, (False, True)), (NEITHER, (False, False)),
                                  (NO_CASE, (True, False)), (NEITHER_NO_CASE, (False, False))):
        assert (s < (1.0 + beta * r) / (k * (1.0 + beta)),
                r > (k - 1) / k * (1.0 - s * beta)) == want
    assert classify_case(RegionParams(s=FALLBACK[0], r=FALLBACK[1]), *FALLBACK[2:]) is Case.I
    assert classify_case(RegionParams(s=NEITHER[0], r=NEITHER[1]), *NEITHER[2:]) is Case.III


@pytest.mark.parametrize("block", [1024, 3, 1])
def test_mixed_batch_is_the_row_by_row_result(monkeypatch, block):
    # rows of several k with a fallback and a neither-branch row: each row's
    # (case, d, residual) bits are its one-row result, and the batch warns
    # for the off-band rows as the loop does, in blocks of any size
    monkeypatch.setattr(cyclic, "_BLOCK_ROWS", block)
    rows = [IN_BAND[0], FALLBACK, IN_BAND[1], NEITHER, IN_BAND[2], IN_BAND[3], FALLBACK]
    want, want_warnings = _row_by_row(rows)
    (cases, d, residual), got_warnings = _batch(rows)
    assert got_warnings == want_warnings and len(want_warnings) == 1  # NEITHER's k = M+2
    assert cases == [sol.case for sol in want]
    assert [x.hex() for x in d.tolist()] == [sol.d.hex() for sol in want]
    assert [x.hex() for x in residual.tolist()] == [sol.residual.hex() for sol in want]


@pytest.mark.parametrize("rows", [
    [IN_BAND[0], FALLBACK, NO_CASE, NEITHER, NEITHER_NO_CASE],
    [IN_BAND[1], NEITHER_NO_CASE, IN_BAND[2], NO_CASE],
    [NEITHER, (0.2, 0.6, 2, float("nan")), NO_CASE],
    [NO_CASE, (0.2, 0.6, 1, 0.5)],
    [IN_BAND[3], (0.2, 0.6, 2, -0.97), FALLBACK],
    [FALLBACK, (0.2, 0.6, 1, 0.5), (0.2, 0.6, 2, float("inf"))],
    [NEITHER, (0.2, 0.6, 2.5, 0.5), NO_CASE],
    [IN_BAND[1], (0.6, 0.2, 1, 0.5), (0.2, 0.6, 1, 0.5)],
], ids=["no-case-first", "neither-no-case-first", "nan-beta", "no-case-then-k1",
        "below-window", "k1-then-inf", "fractional-k", "bad-regions-then-k1"])
@pytest.mark.parametrize("block", [1024, 2, 1])
def test_mixed_batch_raises_the_first_row_error(monkeypatch, rows, block):
    # the batch raises the error, and gives the warnings, of a loop that
    # stops at its first failing row, in blocks of any size
    monkeypatch.setattr(cyclic, "_BLOCK_ROWS", block)
    want, want_warnings = _row_by_row(rows)
    assert isinstance(want[-1], Exception)
    got, got_warnings = _batch(rows)
    assert type(got) is type(want[-1]) and str(got) == str(want[-1])
    assert got_warnings == want_warnings


def test_grid_batch_warns_the_caller_once_per_off_band_row():
    # a batch call names its own caller, as the one-row calls do
    with pytest.warns(UserWarning, match=re.escape("k=3 is not M+1=2")) as record:
        cyclic._certify([0.2, 0.2], [0.6, 0.6], [3, 2], [0.2, 0.2])
    assert len(record) == 1


def test_grid_classification_is_one_batch(monkeypatch):
    # classify_case on a pair of region-bound arrays: one row per cell, each
    # the one-row case, from one `_section_runs` call per round of tries
    s, r = np.array([0.2, 0.1, FALLBACK[0]]), np.array([0.6, 0.65, FALLBACK[1]])
    k, beta = np.array([2, 3, 2]), np.array([0.5, -0.2, FALLBACK[3]])
    calls = []

    def counted(pos, offsets, *args, **kwargs):
        calls.append(len(offsets) - 1)
        return _section_runs(pos, offsets, *args, **kwargs)

    monkeypatch.setattr(cyclic, "_section_runs", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = classify_case((s, r), k, beta)
        calls_batch = list(calls)
        assert cases == [classify_case(RegionParams(s=a, r=b), c, e)
                         for a, b, c, e in zip(s.tolist(), r.tolist(), k.tolist(), beta.tolist())]
    assert cases == [Case.I, Case.II, Case.I]
    assert calls_batch == [3, 1]  # FALLBACK's III fails, its I verifies


@pytest.mark.parametrize("rp,k,message", [
    ((0.6, 0.2), 2, "region bounds must satisfy 0 < s < r < 1, got s=0.6, r=0.2"),
    ((0.2, 0.6), 2.5, "need an integer k, got 2.5"),
    ((0.2, 0.6), float("inf"), "need an integer k, got inf"),
    ((0.2, 0.6), 1.5, "need k >= 2"),
])
def test_batch_checks_regions_and_integer_k(rp, k, message):
    # the checks of a one-row call with a RegionParams, made row by row; a
    # fractional k is refused, not truncated
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        classify_case(([0.2, rp[0]], [0.6, rp[1]]), [2, k], 0.5)
    if rp[0] < rp[1]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            cyclic_solution(RegionParams(*rp), k, 0.5)
