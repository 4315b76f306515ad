import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rscycle.model import (
    MIN_ARC,
    FeedbackSpec,
    Population,
    RegionParams,
    ValidationError,
    max_isolated_clusters,
    wrap01,
)
from rscycle.simulate import _Flow, _speed_table

# Hand-computed interaction lengths and cluster capacities:
#   (r, s) = (0.6, 0.2)  -> |R|+|S| = 0.6,  floor(1/0.6)  = 1
#   (r, s) = (0.75, 0.25)-> |R|+|S| = 0.5,  floor(2)      = 2
#   (r, s) = (0.9, 0.1)  -> |R|+|S| = 0.2,  floor(5)      = 5
#   (r, s) = (0.95, 0.05)-> |R|+|S| = 0.1,  floor(10)     = 10
CAPACITY_CASES = [
    (0.6, 0.2, 1),
    (0.75, 0.25, 2),
    (0.9, 0.1, 5),
    (0.95, 0.05, 10),
    (0.7, 0.2, 2),
]


def test_region_params_accessors():
    rp = RegionParams(s=0.2, r=0.6)
    assert rp.len_S == pytest.approx(0.2)
    assert rp.len_R == pytest.approx(0.4)
    assert rp.interaction_length == pytest.approx(0.6)


@pytest.mark.parametrize("s,r", [(0.5, 0.5), (0.6, 0.4), (0.0, 0.5), (0.2, 1.0), (-0.1, 0.5)])
def test_region_params_rejects_bad_arcs(s, r):
    with pytest.raises(ValidationError):
        RegionParams(s=s, r=r)


@pytest.mark.parametrize("s,r", [(1e-300, 0.5), (0.2, 0.9999999999999999), (0.3, 0.3 + 1e-10),
                                 (MIN_ARC, 0.5), (0.2, 1.0 - MIN_ARC)])
def test_region_params_rejects_arcs_too_short_for_the_clocks(s, r):
    # each arc must be longer than MIN_ARC: one at the edge is refused too
    with pytest.raises(ValidationError, match="^region arcs s, r - s and 1 - r must each be "
                                              "longer than 1e-09, got "):
        RegionParams(s=s, r=r)


def test_region_params_admits_an_arc_just_above_the_minimum():
    above = float(np.nextafter(MIN_ARC, 1.0))
    RegionParams(s=above, r=0.5)
    RegionParams(s=0.25, r=0.25 + 2 * above)


def _regions(phases, rp):
    """The region of each phase as the exact kernel splits them: 0 is S, 1 the
    middle arc, 2 is R."""
    return list(_Flow(list(phases), rp, [1.0] * (len(phases) + 1)).region)


def test_region_of_boundary_conventions():
    rp = RegionParams(s=0.25, r=0.75)
    # S is half-open on the right, R closed on the left; a wrapped cell sits at 0, in S
    assert _regions([0.0, 0.25, 0.75, 0.999999], rp) == [0, 1, 2, 2]


def test_region_of_partitions_circle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        s = rng.uniform(0.05, 0.45)
        r = rng.uniform(s + 0.05, 0.95)
        xs = rng.random(500)
        assert _regions(xs.tolist(), RegionParams(s=s, r=r)) == [
            0 if x < s else 1 if x < r else 2 for x in xs]


@pytest.mark.parametrize("r,s,expected", CAPACITY_CASES)
def test_max_isolated_clusters_frozen(r, s, expected):
    assert max_isolated_clusters(RegionParams(s=s, r=r)) == expected


def test_max_isolated_clusters_monotone_in_interaction_length():
    # shrinking the combined arc can only raise the capacity
    prev = None
    for width in np.linspace(0.9, 0.05, 40):
        rp = RegionParams(s=width / 2, r=1.0 - width / 2)
        m = max_isolated_clusters(rp)
        if prev is not None:
            assert m >= prev
        prev = m


def test_max_isolated_clusters_is_the_int_of_the_numpy_floor():
    # a 400 x 400 (s, r) grid, plus arcs whose reciprocal is an exact integer
    grid = ((np.arange(400) + 0.5) / 400).tolist()
    cases = [(s, r) for r in grid for s in grid if s < r]
    cases += [(w / 2, 1.0 - w / 2) for w in (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6, 1 / 8, 1 / 10)]
    cases += [(0.125, 0.875), (0.1, 0.9), (1 / 6, 5 / 6), (0.05, 0.85)]
    for s, r in cases:
        rp = RegionParams(s=s, r=r)
        m = max_isolated_clusters(rp)
        assert type(m) is int
        assert m == int(np.floor(1.0 / rp.interaction_length + 1e-9))


def test_capacity_at_sweep_value_six_is_the_nudged_floor():
    # sweep value 6 of the cluster-count sweep: |S| + |R| = 1/6, split
    # evenly.  On these float (s, r), 1/(|R| + |S|) in exact arithmetic is
    # just below 6, so its exact floor is 5.  The docstring's rule,
    # floor(1/(|R|+|S|) + 1e-9) on the floats, reads 6: the nudge decides M
    width = 1.0 / 6
    rp = RegionParams(s=width / 2.0, r=1.0 - width / 2.0)
    exact = 1 / ((1 - Fraction(rp.r)) + Fraction(rp.s))
    assert 6 - Fraction(1, 10**9) < exact < 6
    assert math.floor(exact) == 5
    assert max_isolated_clusters(rp) == 6


def test_wrap01():
    assert wrap01(1.0) == 0.0
    assert wrap01(-0.25) == pytest.approx(0.75)
    assert wrap01(2.5) == pytest.approx(0.5)
    assert wrap01(-1e-17) == 0.0


def _wrap_by_remainder(x):
    y = np.remainder(np.asarray(x, dtype=float), 1.0)
    return np.where(y == 1.0, 0.0, y)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [0.0, -0.0, -5e-324, 5e-324, -1e-17, 1.0 - 2.0 ** -53, 1.0, np.nextafter(1.0, 2.0),
         -1.0, 1e300, -1e300, 2.0 ** 51 + 0.5, -(2.0 ** 51) - 0.5]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=FINITE | st.sampled_from(EDGES),
       xs=arrays(np.float64, st.integers(0, 40), elements=FINITE | st.sampled_from(EDGES)))
def test_wrap01_is_remainder_bit_for_bit(x, xs):
    # wrap01 is x - floor(x); it must equal x % 1.0 (with 1.0 set to 0.0) in
    # every bit, the sign of zero included, and lie in [0, 1)
    for value in (x, xs):
        got, want = wrap01(value), _wrap_by_remainder(value)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == want.tobytes()
        assert np.all((got >= 0.0) & (got < 1.0))


def test_linear_feedback_values():
    fs = FeedbackSpec.linear(0.6)
    assert fs(0.0) == 0.0
    assert fs(0.5) == pytest.approx(0.3)
    assert fs(1.0) == pytest.approx(0.6)
    assert np.sign(fs(1.0)) == 1

    fs = FeedbackSpec.linear(-0.6)
    assert fs(0.5) == pytest.approx(-0.3)
    assert np.sign(fs(1.0)) == -1


def test_hill_feedback_is_monotone_and_anchored():
    fs = FeedbackSpec.hill(0.8, theta=0.3, h=4.0)
    assert fs(0.0) == 0.0
    grid = np.linspace(0.0, 1.0, 200)
    vals = np.array([fs(g) for g in grid])
    assert np.all(np.diff(vals) >= 0)
    assert np.sign(fs(1.0)) == 1


def test_tabulated_feedback_interpolates():
    fs = FeedbackSpec.tabulated([(0.0, 0.0), (0.5, 0.4), (1.0, 0.4)])
    assert fs(0.25) == pytest.approx(0.2)
    assert fs(0.75) == pytest.approx(0.4)


def test_none_feedback_is_identically_zero():
    fs = FeedbackSpec.none()
    assert np.sign(fs(1.0)) == 0
    assert fs(0.7) == 0.0


def test_feedback_rejects_sign_changes():
    with pytest.raises(ValidationError):
        FeedbackSpec.tabulated([(0.0, 0.0), (0.5, 0.3), (1.0, -0.3)])


def test_feedback_rejects_nonzero_origin():
    with pytest.raises(ValidationError):
        FeedbackSpec.tabulated([(0.0, 0.1), (1.0, 0.5)])


def test_feedback_rejects_speed_outside_bounds():
    # 1 + f must stay inside [0.05, 20]; f = -0.99 dips to 0.01 < 0.05
    with pytest.raises(ValidationError):
        FeedbackSpec.linear(-0.99)
    with pytest.raises(ValidationError):
        FeedbackSpec.linear(25.0)
    # the window's ends are admissible
    FeedbackSpec.linear(-0.95)
    FeedbackSpec.linear(19.0)


def test_feedback_rejects_nonmonotone():
    with pytest.raises(ValidationError):
        FeedbackSpec.tabulated([(0.0, 0.0), (0.4, 0.5), (1.0, 0.2)])


def test_feedback_rejects_out_of_range_input():
    fs = FeedbackSpec.linear(0.5)
    with pytest.raises(ValidationError):
        fs(1.5)
    with pytest.raises(ValidationError):
        fs(-0.1)


def test_population_validation_and_weights():
    # a population is its phases alone, with no weights: every cell counts once in I
    pop = Population(np.array([0.1, 0.5, 0.9]))
    assert [f.name for f in fields(Population)] == ["phases"] and len(pop) == 3
    with pytest.raises(ValidationError):
        Population(np.array([0.1, 1.0]))
    with pytest.raises(TypeError):
        Population(np.array([0.1, 0.2]), np.array([1.0, 1.0]))


def test_feedback_spec_is_its_profile_alone():
    # a spec holds its profile's parameters and nothing a run builds from them
    assert [f.name for f in fields(FeedbackSpec)] == ["kind", "gamma", "theta", "h", "table"]


@pytest.mark.parametrize("phases", [[np.nan, 0.3], [0.1, np.inf]], ids=["nan-phase", "inf-phase"])
def test_population_rejects_non_finite(phases):
    with pytest.raises(ValidationError):
        Population(np.array(phases))


def test_signaling_fraction_uniform():
    # two of four cells in S: I = 0.5, read from the count table
    fs = FeedbackSpec.linear(0.6)
    phases, rp = [0.05, 0.1, 0.3, 0.7], RegionParams(s=0.2, r=0.6)
    assert _Flow(phases, rp, _speed_table(fs, len(phases)).tolist()).v == pytest.approx(1.3)
