import numpy as np
import pytest

from rscycle import simulate
from rscycle.model import FeedbackSpec, Population, RegionParams, ValidationError
from rscycle.returnmap import advance_to_section
from rscycle.simulate import (
    EventKind,
    NoiseSpec,
    SimulationError,
    cell_speeds,
    next_event,
    simulate_exact,
    simulate_sde,
)

RP = RegionParams(s=0.2, r=0.6)
POS = FeedbackSpec.linear(0.6)
ZERO = FeedbackSpec.none()


def test_cell_speeds_frozen():
    # one cell of two in S -> I = 0.5, f = 0.3; only the R cell is boosted
    pop = Population(np.array([0.1, 0.7]))
    np.testing.assert_allclose(cell_speeds(pop, RP, POS), [1.0, 1.3])


def test_cell_speeds_without_signal():
    pop = Population(np.array([0.3, 0.7]))  # nobody in S
    np.testing.assert_allclose(cell_speeds(pop, RP, POS), [1.0, 1.0])


def test_next_event_frozen():
    # cell 0 at 0.1 reaches s=0.2 after 0.1; cell 1 at 0.55 reaches r=0.6
    # after 0.05 (both at unit speed).  The R-entry wins.
    pop = Population(np.array([0.1, 0.55]))
    dt, hits = next_event(pop, RP, POS)
    assert dt == pytest.approx(0.05)
    assert hits == [(1, EventKind.HIT_R_START)]


def test_next_event_batches_ties():
    # cell 0 at 0.7 reaches 1 after 0.3; cell 1 at 0.3 reaches r after 0.3
    pop = Population(np.array([0.7, 0.3]))
    dt, hits = next_event(pop, RP, POS)
    assert dt == pytest.approx(0.3)
    kinds = {(c, k) for c, k in hits}
    assert kinds == {(0, EventKind.HIT_CYCLE_END), (1, EventKind.HIT_R_START)}


# every sample mode records the post-batch state at a batch time
SAMPLE_MODES = pytest.mark.parametrize("mode", ["events", "endpoints", "grid"])


def _sample(mode, duration):
    return [duration] if mode == "grid" else mode


@SAMPLE_MODES
def test_single_cell_period_is_one_regardless_of_feedback(mode):
    # a lone cell never sees a signal while in R, so its period is exactly 1
    for fs in (ZERO, POS, FeedbackSpec.linear(-0.6)):
        traj = simulate_exact(Population(np.array([0.0])), RP, fs, 1.0, sample=_sample(mode, 1.0))
        assert traj.states[-1][0] == 0.0
        kinds = [e.kind for e in traj.events]
        assert kinds == [
            EventKind.HIT_S_END,
            EventKind.HIT_R_START,
            EventKind.HIT_CYCLE_END,
        ]
        times = [e.time for e in traj.events]
        np.testing.assert_allclose(times, [0.2, 0.6, 1.0])


@SAMPLE_MODES
def test_wrap_lands_exactly_on_zero(mode):
    traj = simulate_exact(Population(np.array([0.9])), RP, ZERO, 0.1, sample=_sample(mode, 0.1))
    assert traj.states[-1][0] == 0.0


def test_boosted_cell_slows_when_signal_stops():
    # cell 1 runs at 1.3 only while cell 0 is still in S (until t = 0.2,
    # position 0.6 + 0.26 = 0.86), then finishes the last 0.14 at unit
    # speed: cycle end at t = 0.34, not 0.4 / 1.3
    pop = Population(np.array([0.0, 0.6]))
    traj = simulate_exact(pop, RP, POS, 0.35)
    cycle_hits = [e for e in traj.events if e.kind == EventKind.HIT_CYCLE_END]
    assert len(cycle_hits) == 1
    assert cycle_hits[0].cell == 1
    assert cycle_hits[0].time == pytest.approx(0.34, abs=1e-12)


def test_piecewise_linear_between_events():
    pop = Population(np.array([0.0, 0.6]))
    ts = np.linspace(0.0, 0.1, 11)
    traj = simulate_exact(pop, RP, POS, 0.1, sample=ts)
    # no boundary is reached before t = 0.1, so motion is affine
    np.testing.assert_allclose(traj.states[:, 0], ts, atol=1e-14)
    np.testing.assert_allclose(traj.states[:, 1], 0.6 + 1.3 * ts, atol=1e-14)


def test_winding_number_preserved():
    # adjacent-gap sums around the circle stay at exactly one turn, so no
    # cell ever overtakes another
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = rng.integers(3, 12)
        s = rng.uniform(0.05, 0.4)
        r = rng.uniform(s + 0.1, 0.95)
        gamma = rng.uniform(-0.8, 0.8)
        rp = RegionParams(s=s, r=r)
        fs = FeedbackSpec.linear(gamma)
        phases = np.sort(rng.random(n))
        traj = simulate_exact(Population(phases), rp, fs, rng.uniform(0.5, 3.0))
        final = traj.states[-1]
        gaps = (np.roll(final, -1) - final) % 1.0
        assert abs(gaps.sum() - 1.0) < 1e-9


def test_section_map_matches_exact_engine():
    # the section map is the exact engine stopped when the leader reaches 1:
    # same hits batch by batch, same final state bit for bit, except that
    # the cells hitting 1 stop there instead of wrapping to 0
    rng = np.random.default_rng(11)
    for trial in range(300):
        k = rng.integers(2, 9)
        s = rng.uniform(0.05, 0.4)
        r = rng.uniform(s + 0.1, 0.95)
        rp = RegionParams(s=s, r=r)
        fs = FeedbackSpec.linear(rng.uniform(-0.8, 0.8))
        x = np.concatenate(([0.0], np.sort(rng.random(k - 1))))
        w = rng.uniform(0.1, 1.0, k)

        t1, final, hits = advance_to_section(x, w, rp, fs)
        traj = simulate_exact(Population(x, w), rp, fs, t1)

        assert traj.times[-1] == t1
        batch_sizes = np.unique([e.time for e in traj.events], return_counts=True)[1]
        assert sum(batch_sizes) == len(hits)
        start = 0
        for size in batch_sizes:
            got = sorted((e.cell, e.kind) for e in traj.events[start:start + size])
            want = sorted(hits[start:start + size])
            assert got == want
            start += size
        assert final[-1] == 1.0
        np.testing.assert_array_equal(traj.states[-1], np.where(final == 1.0, 0.0, final))


def test_sample_grid_matches_event_snapshots():
    # a grid of the event times of an "events" run gives the same samples bit
    # for bit: a grid time at a batch takes the post-batch state
    rng = np.random.default_rng(13)
    for trial in range(300):
        k = rng.integers(2, 9)
        s = rng.uniform(0.05, 0.4)
        r = rng.uniform(s + 0.1, 0.95)
        rp = RegionParams(s=s, r=r)
        fs = FeedbackSpec.linear(rng.uniform(-0.8, 0.8))
        pop = Population(np.sort(rng.random(k)), rng.uniform(0.1, 1.0, k))
        duration = rng.uniform(0.5, 3.0)

        ref = simulate_exact(pop, rp, fs, duration)
        traj = simulate_exact(pop, rp, fs, duration, sample=ref.times)

        np.testing.assert_array_equal(traj.times, ref.times)
        np.testing.assert_array_equal(traj.states, ref.states)
        assert np.all((traj.states >= 0.0) & (traj.states < 1.0))
        # one ulp before each stop, a cell about to wrap can round to 1.0
        early = simulate_exact(pop, rp, fs, duration, sample=np.nextafter(ref.times[1:], 0.0))
        assert np.all((early.states >= 0.0) & (early.states < 1.0))


def test_order_check_covers_wrap_pair(monkeypatch):
    # a leader that laps the trailer breaks no adjacent pair of the sorted
    # lifts; only the wrap pair (leader minus trailer > 1) shows it
    real = simulate._next_crossing

    def lapping(*args):
        c = real(*args)
        dist = c.dist.copy()
        dist[-1] += 1.0
        return c._replace(dist=dist)

    monkeypatch.setattr(simulate, "_next_crossing", lapping)
    with pytest.raises(SimulationError, match="cyclic order"):
        simulate_exact(Population(np.array([0.1, 0.5, 0.9])), RP, ZERO, 1.0)


def test_event_budget_guard():
    pop = Population(np.sort(np.random.default_rng(0).random(20)))
    with pytest.raises(SimulationError):
        simulate_exact(pop, RP, POS, 50.0, max_events=10)


def test_zero_duration_rejected():
    with pytest.raises(ValidationError):
        simulate_exact(Population(np.array([0.1])), RP, ZERO, 0.0)


def test_sample_times_validation():
    pop = Population(np.array([0.1]))
    with pytest.raises(ValidationError):
        simulate_exact(pop, RP, ZERO, 1.0, sample=[0.5, 0.2])
    with pytest.raises(ValidationError):
        simulate_exact(pop, RP, ZERO, 1.0, sample=[0.5, 1.5])


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=-1.0, dt=0.01)
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=0.1, dt=0.0)
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=0.1, dt=0.2)


def test_sde_deterministic_under_seed():
    pop = Population(np.random.default_rng(1).random(30))
    spec = NoiseSpec(sigma=1e-3, dt=0.01)
    a = simulate_sde(pop, RP, POS, spec, 2.0, seed=42)
    b = simulate_sde(pop, RP, POS, spec, 2.0, seed=42)
    c = simulate_sde(pop, RP, POS, spec, 2.0, seed=43)
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_sde_noiseless_converges_first_order():
    # with sigma = 0 the stepper is plain Euler on a piecewise-constant
    # field; halving dt should roughly halve the endpoint error
    rng = np.random.default_rng(5)
    phases = np.sort(rng.random(40))
    pop = Population(phases)
    fs = FeedbackSpec.linear(0.5)
    duration = 2.0
    exact = simulate_exact(pop, RP, fs, duration).states[-1]

    def endpoint_error(dt):
        traj = simulate_sde(pop, RP, fs, NoiseSpec(sigma=0.0, dt=dt), duration, seed=0)
        diff = np.abs(traj.states[-1] - exact)
        return np.minimum(diff, 1.0 - diff).max()  # circle distance

    e1 = endpoint_error(0.02)
    e2 = endpoint_error(0.01)
    e3 = endpoint_error(0.005)
    assert e2 < e1
    assert e3 < e2
    # order ~1: ratio of successive errors in a loose band around 2
    assert 1.2 < e1 / e3


def test_sde_respects_sample_every():
    pop = Population(np.array([0.1, 0.4, 0.8]))
    spec = NoiseSpec(sigma=0.0, dt=0.01)
    traj = simulate_sde(pop, RP, ZERO, spec, 1.0, seed=0, sample_every=25)
    # samples at step 0, 25, 50, 75, 100
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sde_final_population_round_trip():
    pop = Population(np.array([0.2, 0.9]), weights=np.array([2.0, 1.0]))
    spec = NoiseSpec(sigma=1e-4, dt=0.01)
    traj = simulate_sde(pop, RP, POS, spec, 0.5, seed=3)
    out = traj.final_population()
    assert np.all((out.phases >= 0.0) & (out.phases < 1.0))
    np.testing.assert_array_equal(out.weights, pop.weights)
