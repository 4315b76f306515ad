import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rscycle.cyclic import _cluster_speeds, saturating_feedback
from rscycle.model import CertificateError, RegionParams, ValidationError
from rscycle.returnmap import (
    analytic_F_k2,
    as_piecewise,
    classify_k2,
    compose,
    fixed_points,
    _run_error,
    _section_run,
    _section_runs,
    advance_to_section,
    numeric_F,
)
from rscycle.simulate import _KIND_OF_CODE, SimulationError, _Flow, _speed_table

RP1 = RegionParams(s=0.2, r=0.6)     # shallow signaling arc: first regime
RP2 = RegionParams(s=0.5, r=0.7)     # deep signaling arc: second regime

# Hand-computed images for alpha = 0.5, (r, s) = (0.6, 0.2).
# Branch nodes at 0.4, 0.6, 0.7:
#   x < 0.4        : 1 - x
#   0.4 <= x < 0.6 : 1 - 1.5 x + 0.5 (r - s)  = 1.2 - 1.5 x
#   0.6 <= x < 0.7 : 1 - x - 0.5 s            = 0.9 - x
#   x >= 0.7       : (1 - x) / 1.5
K2_CASE1_VALUES = [
    (0.0, 1.0),
    (0.3, 0.7),
    (0.5, 0.45),
    (0.65, 0.25),
    (0.8, 0.2 / 1.5),
    (1.0, 0.0),
]

# Same for alpha = 0.3, (r, s) = (0.7, 0.5): deep-arc regime since
# 0.7 + 1.3 * 0.5 >= 1.  Nodes at 0.2, 1.21/1.3 - 0.5, 0.7:
#   x < 0.2              : 1 - x
#   0.2 <= x < 0.430769..: 1.06 - 1.3 x
#   0.430769.. <= x < 0.7: 0.7 - x + 0.3/1.3
#   x >= 0.7             : (1 - x) / 1.3
K2_CASE2_VALUES = [
    (0.1, 0.9),
    (0.3, 0.67),
    (0.5, 0.7 - 0.5 + 0.3 / 1.3),
    (0.9, 0.1 / 1.3),
]


@pytest.mark.parametrize("x,expected", K2_CASE1_VALUES)
def test_analytic_map_shallow_arc_frozen(x, expected):
    assert analytic_F_k2(x, RP1, 0.5) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("x,expected", K2_CASE2_VALUES)
def test_analytic_map_deep_arc_frozen(x, expected):
    assert analytic_F_k2(x, RP2, 0.3) == pytest.approx(expected, abs=1e-15)


def test_piecewise_nodes_shallow_arc():
    F = as_piecewise(RP1, 0.5)
    np.testing.assert_allclose(F.breakpoints, [0.0, 0.4, 0.6, 0.7, 1.0], atol=1e-15)
    np.testing.assert_allclose(F.slopes, [-1.0, -1.5, -1.0, -1.0 / 1.5], atol=1e-15)


def test_piecewise_nodes_deep_arc():
    F = as_piecewise(RP2, 0.3)
    np.testing.assert_allclose(
        F.breakpoints, [0.0, 0.2, 1.21 / 1.3 - 0.5, 0.7, 1.0], atol=1e-14
    )
    np.testing.assert_allclose(F.slopes, [-1.0, -1.3, -1.0, -1.0 / 1.3], atol=1e-15)


def test_piecewise_evaluates_vectorized():
    F = as_piecewise(RP1, 0.5)
    xs = np.array([x for x, _ in K2_CASE1_VALUES])
    expected = np.array([v for _, v in K2_CASE1_VALUES])
    np.testing.assert_allclose(F(xs), expected, atol=1e-15)


def test_analytic_matches_numeric_both_regimes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = rng.uniform(0.05, 0.45)
        r = rng.uniform(s + 0.05, 0.95)
        alpha = rng.uniform(-0.6, 0.9)
        if abs(alpha) < 0.05:
            alpha = 0.1
        rp = RegionParams(s=s, r=r)
        fs = saturating_feedback(2, alpha)
        for x in rng.random(40):
            num, _ = numeric_F(np.array([x]), rp, fs)
            assert analytic_F_k2(x, rp, alpha) == pytest.approx(num[0], abs=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.01, 0.95), gap=st.floats(0.01, 0.98), alpha=st.floats(-0.9, 3.0),
       x=st.floats(0.0, 1.0))
def test_analytic_map_is_numeric_map(s, gap, alpha, x):
    # the closed form against a replay of the section map, off its breakpoints
    assume(s + gap < 0.99)
    rp = RegionParams(s=s, r=s + gap)
    assume(np.min(np.abs(as_piecewise(rp, alpha).breakpoints - x)) > 1e-9)
    num, _ = numeric_F(np.array([x]), rp, saturating_feedback(2, alpha))
    assert abs(analytic_F_k2(x, rp, alpha) - num[0]) <= 1e-12


def test_numeric_t1_equals_new_coordinate():
    # the trailing cluster sits at t1 when the leader reaches the section
    rng = np.random.default_rng(8)
    fs = saturating_feedback(2, 0.5)
    for x in rng.uniform(0.05, 0.95, 25):
        img, t1 = numeric_F(np.array([x]), RP1, fs)
        assert img[0] == pytest.approx(t1, abs=1e-12)


def test_boundary_relabel_rule():
    img, t1 = numeric_F(np.array([1.0]), RP1, saturating_feedback(2, 0.5))
    assert t1 == 0.0
    np.testing.assert_allclose(img, [0.0])

    img, t1 = numeric_F(np.array([0.3, 1.0]), RP1, saturating_feedback(3, 0.5))
    assert t1 == 0.0
    np.testing.assert_allclose(img, [0.0, 0.3])


def test_diagonal_collapses_to_edge():
    # coincident trailing clusters arrive at the section together
    fs = saturating_feedback(3, 0.4)
    img, t1 = numeric_F(np.array([0.4, 0.4]), RP1, fs)
    assert img[0] == pytest.approx(t1)
    assert img[1] == pytest.approx(1.0)


def test_simplex_vertices_cycle():
    # corners of the ordered simplex map cyclically onto one another
    fs = saturating_feedback(4, 0.3)
    k = 4
    p = np.zeros(k - 1)  # full synchrony
    seen = [p.copy()]
    for _ in range(k):
        p, _ = numeric_F(p, RP1, fs)
        seen.append(p.copy())
    np.testing.assert_allclose(seen[-1], seen[0], atol=1e-12)
    # intermediate corners are (0,..,0,1,..,1) patterns
    np.testing.assert_allclose(seen[1], [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(seen[2], [0.0, 1.0, 1.0], atol=1e-12)


def test_map_preserves_simplex():
    rng = np.random.default_rng(23)
    fs = saturating_feedback(3, -0.4)
    for _ in range(50):
        p = np.sort(rng.random(2))
        img, t1 = numeric_F(p, RP1, fs)
        assert 0.0 <= img[0] <= img[1] <= 1.0 + 1e-12
        assert 0.0 < t1 <= 1.0 + 1e-12


def test_compose_matches_iterated_evaluation():
    F = as_piecewise(RP1, 0.5)
    F2 = compose(F, 2)
    F3 = compose(F, 3)
    xs = np.linspace(0.0, 1.0, 701)
    np.testing.assert_allclose(F2(xs), F(F(xs)), atol=1e-12)
    np.testing.assert_allclose(F3(xs), F(F(F(xs))), atol=1e-12)


def test_fixed_points_unstable_frozen():
    # alpha = 0.5, (r, s) = (0.6, 0.2): interior fixed point of the second
    # iterate at 0.48 with multiplier 1.5^2 = 2.25
    F2 = compose(as_piecewise(RP1, 0.5), 2)
    rep = fixed_points(F2)
    assert rep.neutral_intervals == []
    interior = [p for p in rep.points if 1e-6 < p.location < 1.0 - 1e-6]
    assert len(interior) == 1
    assert interior[0].location == pytest.approx(0.48, abs=1e-12)
    assert interior[0].multiplier == pytest.approx(2.25, abs=1e-12)
    assert interior[0].kind == "unstable"


def test_fixed_points_stable_frozen():
    # alpha = -0.3: fixed point at 0.88/1.7, multiplier 0.7^2 = 0.49
    F2 = compose(as_piecewise(RP1, -0.3), 2)
    rep = fixed_points(F2)
    interior = [p for p in rep.points if 1e-6 < p.location < 1.0 - 1e-6]
    assert len(interior) == 1
    assert interior[0].location == pytest.approx(0.88 / 1.7, abs=1e-12)
    assert interior[0].multiplier == pytest.approx(0.49, abs=1e-12)
    assert interior[0].kind == "stable"


def test_neutral_interval_frozen():
    # (r, s) = (0.75, 0.2), alpha = 0.5: the second iterate is the identity
    # on [0.45, 0.55]
    rp = RegionParams(s=0.2, r=0.75)
    F2 = compose(as_piecewise(rp, 0.5), 2)
    rep = fixed_points(F2)
    assert len(rep.neutral_intervals) == 1
    lo, hi = rep.neutral_intervals[0]
    assert lo == pytest.approx(0.45, abs=1e-12)
    assert hi == pytest.approx(0.55, abs=1e-12)
    xs = np.linspace(lo, hi, 50)
    np.testing.assert_allclose(F2(xs), xs, atol=1e-12)


@pytest.mark.parametrize("alpha,r,s,expected", [
    (0.5, 0.6, 0.2, "positive-unstable-point"),
    (0.5, 0.75, 0.2, "positive-neutral-interval"),
    (-0.3, 0.6, 0.2, "negative-stable-point"),
    (-0.3, 0.75, 0.2, "negative-neutral-interval"),
])
def test_classify_k2_outcomes(alpha, r, s, expected):
    assert classify_k2(RegionParams(s=s, r=r), alpha) == expected


def test_classify_k2_rejects_degenerate_alpha():
    with pytest.raises(ValidationError):
        classify_k2(RP1, 0.0)
    with pytest.raises(ValidationError):
        classify_k2(RP1, -1.0)


def test_numeric_F_validates_ordering():
    with pytest.raises(ValidationError):
        numeric_F(np.array([0.7, 0.3]), RP1, saturating_feedback(3, 0.5))
    with pytest.raises(ValidationError):
        numeric_F(np.array([-0.1]), RP1, saturating_feedback(2, 0.5))
    # NaN fails the simplex check instead of reaching the kernel
    with pytest.raises(ValidationError):
        numeric_F([float("nan")], RP1, saturating_feedback(2, 0.5))
    with pytest.raises(ValidationError):
        numeric_F([0.3, float("nan")], RP1, saturating_feedback(2, 0.5))
    # no point: k = 1 has no section map
    with pytest.raises(ValidationError):
        numeric_F([], RP1, saturating_feedback(2, 0.5))


NAN = float("nan")


@pytest.mark.parametrize("positions", [
    [0.5, 0.2], [-0.1, 0.3], [0.0, NAN], [0.0, NAN, 0.5], [NAN, 0.3, 0.7],
], ids=["descending", "negative", "nan-last", "nan-middle", "nan-first"])
def test_advance_to_section_rejects_positions_off_the_simplex(positions):
    # each of these once returned a result or raised CertificateError,
    # SimulationError or IndexError, depending on where the bad value sat
    fs = saturating_feedback(len(positions), 0.5)
    with pytest.raises(ValidationError, match="finite and ascend in"):
        advance_to_section(positions, RP1, fs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_private_replay_is_the_public_advance(data):
    # the one section replay behind advance_to_section, read before and after
    # the public conversion: t1 and positions bit for bit, codes as EventKinds
    k = data.draw(st.integers(2, 12))
    starts = sorted(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                       min_size=k, max_size=k)))
    s = data.draw(st.floats(0.02, 0.45))
    rp = RegionParams(s=s, r=data.draw(st.floats(s + 0.02, 0.97)))
    beta = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.01, 0.9))
    fs = saturating_feedback(k, beta)
    t1, final, hits = _section_run(list(starts), rp, _speed_table(fs, k).tolist())
    t1_pub, final_pub, hits_pub = advance_to_section(starts, rp, fs)
    assert type(t1) is type(t1_pub) is float and t1.hex() == t1_pub.hex()
    assert all(type(x) is float for x in final)
    assert np.array(final).tobytes() == final_pub.tobytes()
    assert [(i, _KIND_OF_CODE[code]) for i, code in hits] == hits_pub


@st.composite
def _section_rows(draw):
    """(positions, s, r, beta) of one row: k in [2, 12] ascending positions
    with ties and near-ties, clusters on or just below s or r and leaders on
    the section, regions and a speed 1 + beta across the window [0.05, 20].
    One row in 20 swaps s and r, regions outside the contract that drive
    the replay into its dt > 0 check."""
    k = draw(st.integers(2, 12))
    s = draw(st.floats(0.02, 0.9))
    r = draw(st.floats(s, 0.98, exclude_min=True))
    if draw(st.integers(0, 19)) == 0:
        s, r = r, s
    beta = draw(st.one_of(st.floats(-0.95, 19.0), st.sampled_from([-0.95, 0.0, 19.0])))
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k))
    # a nudge below TIE_TOL makes near-ties, batched with their neighbour
    nudge = draw(st.sampled_from([3e-13, 9e-13, 3e-12]))
    pool = [0.0, s, r, s - nudge, r - nudge, *free, *(min(p + nudge, 1.0) for p in free)]
    pos = sorted(pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=k,
                                                max_size=k)))
    if draw(st.integers(0, 7)) == 0:
        pos[-1] = 1.0
    return pos, s, r, beta


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_section_rows(), min_size=1, max_size=16))
def test_lockstep_runs_are_the_scalar_replay_row_by_row(rows):
    # every row of one batch of mixed k: t1, final positions and hits bit for
    # bit, or the same error; the batch raises the first failing row's
    want = []
    for pos, s, r, beta in rows:
        try:
            want.append(_section_run(list(pos), types.SimpleNamespace(s=s, r=r),
                                     _cluster_speeds(len(pos), beta)))
        except (SimulationError, CertificateError) as exc:
            want.append(exc)
    offsets = np.cumsum([0] + [len(pos) for pos, *_ in rows])
    args = (np.concatenate([pos for pos, *_ in rows]), offsets, *(
        [row[i] for row in rows] for i in (1, 2)), [1.0 + row[3] for row in rows])
    errors = [x for x in want if isinstance(x, Exception)]
    if errors:
        with pytest.raises(type(errors[0]), match=f"^{re.escape(str(errors[0]))}$"):
            _section_runs(*args)
    runs = _section_runs(*args, raise_first=False)
    for i, expected in enumerate(want):
        if isinstance(expected, Exception):
            got = _run_error(runs.errors[i])
            assert type(got) is type(expected) and str(got) == str(expected)
            continue
        t1, final, hits = expected
        assert runs.errors[i] == 0
        assert runs.t1[i].hex() == t1.hex()
        assert [x.hex() for x in runs.final[offsets[i]:offsets[i + 1]].tolist()] == [
            x.hex() for x in final]
        lo, hi = runs.bounds[i], runs.bounds[i + 1]
        assert list(zip(runs.cells[lo:hi].tolist(), runs.codes[lo:hi].tolist())) == hits


def test_lockstep_runs_take_scalar_regions_and_speeds():
    # one row on the section, one advancing; s, r and w broadcast
    runs = _section_runs([0.0, 1.0, 0.0, 0.48], [0, 2, 4], 0.2, 0.6, 1.5)
    assert runs.t1.tolist() == [0.0, _section_run([0.0, 0.48], RP1, [1.0, 1.5, 1.5])[0]]
    assert runs.final[:2].tolist() == [0.0, 1.0] and runs.bounds[:2].tolist() == [0, 0]
    assert not runs.errors.any()


def test_one_row_batch_is_the_scalar_replay():
    # a batch of one row is replayed by `_section_run` and packed as the
    # lockstep loop packs it; a failing row is that replay's error, raised
    # or as its code
    t1, final, hits = _section_run([0.0, 0.48], RP1, [1.0, 1.5, 1.5])
    runs = _section_runs([0.0, 0.48], [0, 2], 0.2, 0.6, 1.5)
    assert runs.t1.tolist() == [t1] and runs.final.tolist() == final
    assert runs.bounds.tolist() == [0, len(hits)] and not runs.errors.any()
    assert list(zip(runs.cells.tolist(), runs.codes.tolist())) == hits
    # s above r: the first stop has dt <= 0, in one row as in two
    with pytest.raises(SimulationError, match="^non-positive time"):
        _section_runs([0.0, 0.48], [0, 2], 0.6, 0.2, 1.5)
    for offsets in ([0, 2], [0, 2, 4]):
        runs = _section_runs([0.0, 0.48] * (len(offsets) - 1), offsets, 0.6, 0.2, 1.5,
                             raise_first=False)
        assert runs.errors.tolist() == [1] * (len(offsets) - 1)


def test_section_advance_raises_when_its_stop_budget_runs_out(monkeypatch):
    # a correct advance reaches 1 within 2k + 1 stops; a kernel that runs past
    # the section spends the whole budget of 3k + 10 stops
    runs = []
    real_run = _Flow.run

    def past_the_section(self, **kw):
        runs.append(real_run(self, **{**kw, "to_section": False}))
        return runs[-1]

    monkeypatch.setattr(_Flow, "run", past_the_section)
    start, fs = [0.0, 0.3, 0.6], saturating_feedback(3, 0.5)
    with pytest.raises(CertificateError, match="section advance did not terminate"):
        advance_to_section(start, RP1, fs)
    [(log, _)] = runs
    assert len(log) == 3 * 3 + 10


def test_piecewise_rejects_discontinuous_spec():
    from rscycle.returnmap import PiecewiseAffineMap

    with pytest.raises(CertificateError):
        PiecewiseAffineMap(
            breakpoints=np.array([0.0, 0.5, 1.0]),
            slopes=np.array([1.0, 1.0]),
            intercepts=np.array([0.0, 0.25]),
        )
