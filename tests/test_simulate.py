import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_oracle
import sampler_oracle
import sde_oracle
import rscycle.simulate
from rscycle.model import TIE_TOL, FeedbackSpec, Population, RegionParams, ValidationError
from rscycle.returnmap import advance_to_section
from rscycle.simulate import (
    _CHUNK,
    _SLICE,
    _KIND_OF_CODE,
    EventKind,
    NoiseSpec,
    SimulationError,
    _build_event_states,
    _check_horizon,
    _em_block,
    _exact_run,
    _Flow,
    _log_slice,
    _row_slice,
    _Run,
    _speed_table,
    simulate_exact,
    simulate_sde,
)

RP = RegionParams(s=0.2, r=0.6)
POS = FeedbackSpec.linear(0.6)
ZERO = FeedbackSpec.none()


def _flow(phases):
    pop = Population(np.array(phases))
    return _Flow(pop.phases.tolist(), RP, _speed_table(POS, len(pop)).tolist())


def _speeds_of(flow):
    return [flow.v if region == 2 else 1.0 for region in flow.region]


def _next_batch(flow):
    """One stop of a fresh flow: its time (the dt from t = 0) and its hits."""
    [(dt, _, batch)], _ = flow.run(max_stops=1)
    return dt, [(i, _KIND_OF_CODE[code]) for _, i, code in batch]


def test_cell_speeds_frozen():
    # one cell of two in S -> I = 0.5, f = 0.3; only the R cell is boosted
    np.testing.assert_allclose(_speeds_of(_flow([0.1, 0.7])), [1.0, 1.3])


def test_cell_speeds_without_signal():
    # nobody in S
    np.testing.assert_allclose(_speeds_of(_flow([0.3, 0.7])), [1.0, 1.0])


def test_next_event_frozen():
    # cell 0 at 0.1 reaches s=0.2 after 0.1; cell 1 at 0.55 reaches r=0.6
    # after 0.05 (both at unit speed).  The R-entry wins.
    dt, hits = _next_batch(_flow([0.1, 0.55]))
    assert dt == pytest.approx(0.05)
    assert hits == [(1, EventKind.HIT_R_START)]


def test_next_event_batches_ties():
    # cell 0 at 0.7 reaches 1 after 0.3; cell 1 at 0.3 reaches r after 0.3
    dt, hits = _next_batch(_flow([0.7, 0.3]))
    assert dt == pytest.approx(0.3)
    kinds = {(c, k) for c, k in hits}
    assert kinds == {(0, EventKind.HIT_CYCLE_END), (1, EventKind.HIT_R_START)}


# every sample mode records the post-batch state at a batch time
SAMPLE_MODES = pytest.mark.parametrize("mode", ["events", "endpoints"])


@SAMPLE_MODES
def test_single_cell_period_is_one_regardless_of_feedback(mode):
    # a lone cell never sees a signal while in R, so its period is exactly 1
    for fs in (ZERO, POS, FeedbackSpec.linear(-0.6)):
        traj = simulate_exact(Population(np.array([0.0])), RP, fs, 1.0, sample=mode)
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
    traj = simulate_exact(Population(np.array([0.9])), RP, ZERO, 0.1, sample=mode)
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
    # t = 0 is the first row of an "events" run, each later time one "endpoints" run
    states = np.array([simulate_exact(pop, RP, POS, 0.1).states[0]] + [
        simulate_exact(pop, RP, POS, t, sample="endpoints").states[-1] for t in ts[1:]])
    # no boundary is reached before t = 0.1, so motion is affine
    np.testing.assert_allclose(states[:, 0], ts, atol=1e-14)
    np.testing.assert_allclose(states[:, 1], 0.6 + 1.3 * ts, atol=1e-14)


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

        t1, final, hits = advance_to_section(x, rp, fs)
        traj = simulate_exact(Population(x), rp, fs, t1)

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
    # an "endpoints" run to each sample time of an "events" run gives that
    # row bit for bit: a horizon at a batch takes the post-batch state
    rng = np.random.default_rng(13)
    for trial in range(300):
        k = rng.integers(2, 9)
        s = rng.uniform(0.05, 0.4)
        r = rng.uniform(s + 0.1, 0.95)
        rp = RegionParams(s=s, r=r)
        fs = FeedbackSpec.linear(rng.uniform(-0.8, 0.8))
        pop = Population(np.sort(rng.random(k)))
        duration = rng.uniform(0.5, 3.0)

        ref = simulate_exact(pop, rp, fs, duration)
        for t, state in zip(ref.times[1:].tolist(), ref.states[1:]):
            traj = simulate_exact(pop, rp, fs, t, sample="endpoints")
            assert traj.times.tolist() == [t]
            assert traj.states[0].tobytes() == state.tobytes()
            # a horizon one ulp before a stop is within TIE_TOL of it, so the run
            # takes the stop: a cell that reaches 1 there is at 0, not at 1.0
            early = simulate_exact(pop, rp, fs, np.nextafter(t, 0.0), sample="endpoints")
            assert np.all((early.states >= 0.0) & (early.states < 1.0))
        assert np.all((ref.states >= 0.0) & (ref.states < 1.0))


def test_order_check_covers_wrap_pair(monkeypatch):
    # a leader that laps the trailer: the cell wrapping at 1 enters S one
    # lap ahead, in front of the S queue's tail
    real_init = _Flow.__init__

    def lapping(self, *args):
        real_init(self, *args)
        self.starts = self.starts[:2] + (1.0,)

    monkeypatch.setattr(_Flow, "__init__", lapping)
    with pytest.raises(SimulationError, match="cyclic order"):
        simulate_exact(Population(np.array([0.05, 0.5, 0.9])), RP, ZERO, 1.0)


def _batches(events):
    """The (cell, kind) lists of consecutive events that share a time."""
    out = []
    for i, ev in enumerate(events):
        if i == 0 or ev.time != events[i - 1].time:
            out.append([])
        out[-1].append((ev.cell, ev.kind))
    return out


def _assert_matches_oracle(stops, batches, traj, tol):
    assert _batches(traj.events) == [batch for _, batch in batches]
    assert len(traj.times) == len(stops)
    np.testing.assert_allclose(traj.times, [t for t, _ in stops], rtol=0.0, atol=tol)
    np.testing.assert_allclose(traj.states, [p for _, p in stops], rtol=0.0, atol=tol)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_matches_oracle(data):
    # the region-clock kernel against the per-event numpy loop it replaced
    n = data.draw(st.integers(1, 16))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    phases = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    s = data.draw(st.floats(0.05, 0.45))
    rp = RegionParams(s=s, r=data.draw(st.floats(s + 0.05, 0.95)))
    fs = FeedbackSpec.linear(data.draw(st.floats(-0.8, 0.8, allow_subnormal=False)))
    duration = data.draw(st.floats(0.01, 3.0))
    stops, batches, margin = exact_oracle.simulate(phases, rp, fs, duration)
    x = np.sort(phases)
    t1_ref, final_ref, section_batches, section_margin = exact_oracle.advance_to_section(x, rp, fs)
    traj = simulate_exact(Population(phases), rp, fs, duration)
    # rounding may put a crossing on either side of the tie threshold, in the
    # run and in the section advance, and a batch on either side of the horizon
    near = [t for t, _ in batches] + [ev.time for ev in traj.events]
    assume(min(margin, section_margin) > 1e-13 and all(abs(t - duration) > 1e-9 for t in near))
    _assert_matches_oracle(stops, batches, traj, 1e-12)

    t1, final, hits = advance_to_section(x, rp, fs)
    assert len(hits) == sum(len(b) for b in section_batches)
    start = 0
    for batch in section_batches:
        assert sorted(hits[start:start + len(batch)]) == sorted(batch)
        start += len(batch)
    assert abs(t1 - t1_ref) <= 1e-12
    np.testing.assert_allclose(final, final_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.6, -0.6])
def test_kernel_matches_oracle_long_run(gamma):
    # over 250 cycles a gap can pass within rounding of TIE_TOL, where the two
    # engines may batch a crossing with its neighbour's or just after it; so
    # each cell's own crossings are compared, and the final state
    rng = np.random.default_rng(2007)
    pop = Population(rng.random(4))
    args = (RegionParams(s=0.25, r=0.75), FeedbackSpec.linear(gamma), 250.0)
    stops, batches, _ = exact_oracle.simulate(pop.phases, *args)
    traj = simulate_exact(pop, *args)
    for cell in range(4):
        want = [(t, kind) for t, batch in batches for c, kind in batch if c == cell]
        got = [(ev.time, ev.kind) for ev in traj.events if ev.cell == cell]
        assert [kind for _, kind in got] == [kind for _, kind in want]
        np.testing.assert_allclose([t for t, _ in got], [t for t, _ in want], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(traj.states[-1], stops[-1][1], rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_invariants(data):
    # each cell crosses s, r and 1 in turn, from its initial region on; and the
    # lifted final phases (final + laps), in initial order, keep that order
    # and span at most one turn: no cell overtakes another, the wrap pair included
    n = data.draw(st.integers(1, 16))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    phases = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    s = data.draw(st.floats(0.05, 0.45))
    rp = RegionParams(s=s, r=data.draw(st.floats(s + 0.05, 0.95)))
    fs = FeedbackSpec.linear(data.draw(st.floats(-0.8, 0.8, allow_subnormal=False)))
    traj = simulate_exact(Population(phases), rp, fs, data.draw(st.floats(0.01, 3.0)))
    assert np.all(np.diff(traj.times) > 0.0)
    due = [0 if p < rp.s else 1 if p < rp.r else 2 for p in phases]  # code of the next crossing
    wraps = np.zeros(n)
    for ev in traj.events:
        assert ev.kind == _KIND_OF_CODE[due[ev.cell]]
        wraps[ev.cell] += due[ev.cell] == 2
        due[ev.cell] = (due[ev.cell] + 1) % 3
    lift = (traj.states[-1] + wraps)[np.argsort(phases, kind="stable")]
    assert np.all(np.diff(lift) >= -1e-9)
    assert lift[-1] - lift[0] <= 1.0 + 1e-9


def _assert_laps_match_log(traj):
    # each cell's laps, counted from the sampled states alone: the distance
    # travelled between samples, under a turn each, is (x[k+1] - x[k]) mod 1,
    # and initial + distance - final is the number of whole turns
    assert np.all(np.diff(traj.times) > 0.0)
    x = traj.states
    turns = x[0] + ((x[1:] - x[:-1]) % 1.0).sum(axis=0) - x[-1]
    laps = np.round(turns)
    assert np.all(np.abs(turns - laps) <= 1e-9)
    ends = [ev.cell for ev in traj.events if ev.kind == EventKind.HIT_CYCLE_END]
    np.testing.assert_array_equal(laps, np.bincount(ends, minlength=x.shape[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_laps_from_states_match_the_log(data):
    phases, rp, fs = _draw_cells(data, data.draw(st.integers(1, 16)))
    _assert_laps_match_log(simulate_exact(Population(np.array(phases)), rp, fs,
                                          data.draw(st.floats(0.01, 3.0))))


# cell 4 reaches 1 a few ulps past the horizon, within TIE_TOL of it
HORIZON_TIE = (Population(np.array([0, 0, 0, 0, 1e-5])),
               RegionParams(s=0.09243255051407308, r=0.5), FeedbackSpec.linear(0.09375), 0.99999)


@SAMPLE_MODES
def test_batch_within_tie_tol_of_the_horizon_is_in_the_run(mode):
    # the batch is the last stop: the log has the cell's HitCycleEnd, and the
    # horizon state, at exactly the horizon, has it at 0
    traj = simulate_exact(*HORIZON_TIE, sample=mode)
    assert traj.times[-1] == HORIZON_TIE[-1]
    assert [ev.kind for ev in traj.events if ev.cell == 4][-1] == EventKind.HIT_CYCLE_END
    assert traj.states[-1][4] == 0.0
    if mode == "events":
        _assert_laps_match_log(traj)


@pytest.mark.parametrize("duration", [5e-13, TIE_TOL])
def test_run_within_tie_tol_samples_start_and_horizon(duration):
    # the loop runs once however short the run: t = 0 is sampled, and the
    # first batch, 5e-13 ahead, is within TIE_TOL of the horizon and ends it
    start = np.array([0.2 - 5e-13, 0.5])
    traj = simulate_exact(Population(start), RP, POS, duration)
    np.testing.assert_array_equal(traj.times, [0.0, duration])
    assert traj.states[0].tobytes() == start.tobytes()
    assert traj.states[1][0] == 0.2
    assert [(ev.cell, ev.kind) for ev in traj.events] == [(0, EventKind.HIT_S_END)]
    end = simulate_exact(Population(start), RP, POS, duration, sample="endpoints")
    assert end.times.tobytes() == traj.times[-1:].tobytes()
    assert end.states.tobytes() == traj.states[-1:].tobytes()
    assert end.events == traj.events


def _draw_cells(data, n):
    """n phases in [0, 1), region bounds and a linear feedback."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    phases = data.draw(st.lists(unit, min_size=n, max_size=n))
    s = data.draw(st.floats(0.05, 0.45))
    rp = RegionParams(s=s, r=data.draw(st.floats(s + 0.05, 0.95)))
    gamma = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.01, 0.8))
    return phases, rp, FeedbackSpec.linear(gamma)


def _hex(values):
    return [float(x).hex() for x in values]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_phase_list_is_phases_bit_for_bit(data):
    # the section map's float read-out against the engine's state builder,
    # at the start and after each batch of a run of several laps
    n = data.draw(st.integers(1, 12))
    phases, rp, fs = _draw_cells(data, n)
    flow = _Flow(phases, rp, _speed_table(fs, n).tolist())
    start, log, lists = flow.arrays(), [], [flow.phase_list()]
    for _ in range(data.draw(st.integers(1, 8 * n))):
        log += flow.run(max_stops=1)[0]
        t, tau, _ = log[-1]
        assert (t, tau) == (flow.t, flow.tau)
        lists.append(flow.phase_list())
    run = _Run(flow.t, [_row_slice(0.0, 0.0), _log_slice(log, n)], start, flow.starts, [])
    _, states = _build_event_states(run)
    assert [_hex(row) for row in states] == [_hex(x) for x in lists]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_queues_are_the_per_cell_fill(data):
    # the queues cut from the descending order are those of appending each
    # cell, in that order, to its region's queue, ties and boundaries included
    n = data.draw(st.integers(1, 12))
    phases, rp, fs = _draw_cells(data, n)
    phases = [data.draw(st.sampled_from([p, rp.s, rp.r, 0.0])) for p in phases]
    flow = _Flow(phases, rp, _speed_table(fs, n).tolist())
    want = ([], [], [])
    for i in sorted(range(n), key=phases.__getitem__, reverse=True):
        want[0 if phases[i] < rp.s else 1 if phases[i] < rp.r else 2].append(i)
    assert [list(q) for q in flow.queues] == list(want)
    assert list(flow.region) == [code for i in range(n) for code in range(3) if i in want[code]]


def test_phase_list_sets_a_rounded_up_one_to_zero():
    # a tiny negative phase minus its floor rounds to exactly 1.0
    flow = _Flow([-1e-300, 0.5], RP, _speed_table(POS, 2).tolist())
    built = _build_event_states(_Run(0.0, [_row_slice(0.0, 0.0)], flow.arrays(), flow.starts, []))[1][0]
    assert _hex(flow.phase_list()) == _hex(built) == _hex(sampler_oracle.phases(flow))
    assert _hex(built) == _hex([0.0, 0.5])


def _assert_same_run(pop, rp, fs, duration, sample):
    got = simulate_exact(pop, rp, fs, duration, sample=sample)
    want = sampler_oracle.simulate_exact(pop, rp, fs, duration, sample)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.events == want.events
    return got


def _tie_heavy_phases(data, n, rp):
    """n phases that crowd onto ties: repeats, cells on s, on r and at 0,
    and cells within 1e-12 of one another."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    anchors = [0.0, rp.s, rp.r, data.draw(unit)]
    phases = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["free", "anchor", "repeat", "near"]))
        if kind == "free" or (kind == "repeat" and not phases):
            x = data.draw(unit)
        elif kind == "anchor":
            x = data.draw(st.sampled_from(anchors))
        elif kind == "repeat":
            x = data.draw(st.sampled_from(phases))
        else:
            nudge = data.draw(st.sampled_from([-1e-12, -4e-13, -1e-15, 1e-15, 4e-13, 1e-12]))
            x = min(max(data.draw(st.sampled_from(anchors + phases)) + nudge, 0.0), 1.0 - 2**-53)
        phases.append(x)
    return np.array(phases)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_built_states_match_the_per_stop_sampler(data):
    # states, times and events bit for bit against the per-stop sampler, for
    # runs of K rows, K just below, at or just above a multiple of _CHUNK
    n = data.draw(st.integers(1, 16))
    _, rp, fs = _draw_cells(data, n)
    pop = Population(_tie_heavy_phases(data, n, rp))
    K = data.draw(st.integers(1, 3)) * _CHUNK + data.draw(st.sampled_from([-1, 0, 1]))
    duration = 1.0
    while len(stops := simulate_exact(pop, rp, fs, duration).times[:-1]) < K:
        duration *= 2.0
    # a horizon between stops K - 2 and K - 1: the run stops K - 1 times, and
    # the horizon is its last row
    assume(stops[K - 1] - stops[K - 2] > 1e-9)
    duration = (stops[K - 2] + stops[K - 1]) / 2.0
    assert len(_assert_same_run(pop, rp, fs, duration, "events").states) == K
    _assert_same_run(pop, rp, fs, duration, "endpoints")


@pytest.mark.parametrize("gamma", [0.6, -0.6])
def test_built_states_match_the_per_stop_sampler_at_n_1000(gamma):
    pop = Population(np.random.default_rng(1000).random(1000))
    args = (pop, RegionParams(s=0.25, r=0.75), FeedbackSpec.linear(gamma), 0.4)
    assert len(_assert_same_run(*args, "events").states) > 10 * _CHUNK
    _assert_same_run(*args, "endpoints")


@pytest.mark.parametrize("stops", [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
@pytest.mark.parametrize("on_stop", [True, False], ids=["horizon-on-a-stop", "horizon-between"])
def test_runs_across_slices_match_the_per_stop_sampler(stops, on_stop):
    # the loop runs _SLICE crossings at a time, here one a stop; a horizon
    # at or just past a slice's last stop ends the run in a slice of its own
    # or none
    pop = Population(np.random.default_rng(7).random(7))
    ends = np.unique([ev.time for ev in simulate_exact(pop, RP, POS, 200.0, "endpoints").events])
    duration = ends[stops - 1] if on_stop else (ends[stops - 1] + ends[stops]) / 2.0
    traj = _assert_same_run(pop, RP, POS, float(duration), "events")
    assert len(traj.times) == 1 + stops + (not on_stop)
    _assert_same_run(pop, RP, POS, float(duration), "endpoints")


def test_a_run_cut_inside_a_batch_matches_the_per_stop_sampler():
    # three clusters of 400 equal phases cross 400 at a stop: a run ends
    # after the stop whose batch reaches _SLICE crossings, inside that batch
    pop = Population(np.repeat([0.1, 0.4, 0.7], 400))
    run = _exact_run(pop, RP, POS, 3.0)
    assert [(len(piece.t), len(piece.cells)) for piece in run.slices[1:3]] == [(3, 1200)] * 2
    assert len(run.slices) > 4
    _assert_same_run(pop, RP, POS, 3.0, "events")


@pytest.mark.parametrize("phases", [[0.3], [0.1, 0.7]])
@pytest.mark.parametrize("fs", [POS, FeedbackSpec.linear(-0.6)], ids=["pos", "neg"])
def test_cells_crossing_several_times_in_one_block(phases, fs):
    # one or two cells cross about three times a cycle each, so a block of
    # _CHUNK stops holds many crossings of every cell; each row must take the
    # cell's latest crossing at or before it
    traj = _assert_same_run(Population(np.array(phases)), RP, fs, 60.0, "events")
    stop = np.searchsorted(traj.times, [ev.time for ev in traj.events])
    first_block = [ev.cell for ev, k in zip(traj.events, stop) if k < _CHUNK]
    assert np.bincount(first_block, minlength=len(phases)).min() >= 2


def test_states_are_built_without_a_second_copy():
    # the (K, n) states are the run's one large allocation: no list of rows
    # stacked after the loop, no whole-array temporary in the wrap
    pop = Population(np.random.default_rng(5).random(1000))
    tracemalloc.start()
    try:
        traj = simulate_exact(pop, RP, POS, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.shape[0] >= 1000
    assert peak < 1.25 * traj.states.nbytes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_section_map_same_for_lists_and_arrays(data):
    k = data.draw(st.integers(2, 9))
    phases, rp, fs = _draw_cells(data, k)
    x = sorted(phases)
    t1, final, hits = advance_to_section(x, rp, fs)
    t1_nd, final_nd, hits_nd = advance_to_section(np.array(x), rp, fs)
    assert t1.hex() == t1_nd.hex()
    assert final.dtype == final_nd.dtype == np.float64
    assert final.tobytes() == final_nd.tobytes()
    assert hits == hits_nd


def test_event_budget_guard():
    pop = Population(np.sort(np.random.default_rng(0).random(20)))
    # 20 cells make 3 crossings per lap, and a lap takes at most 1 here: a
    # budget below 3 * 20 * 49 is refused before any work
    with pytest.raises(ValidationError, match="makes at least 2940 crossings"):
        simulate_exact(pop, RP, POS, 50.0, max_events=10)
    # a budget above that lower bound but below the run's count: the engine's guard
    with pytest.raises(SimulationError):
        simulate_exact(pop, RP, POS, 50.0, max_events=2940)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), gamma=st.floats(-0.9, 5.0), duration=st.floats(0.01, 8.0),
       s=st.floats(0.05, 0.4), r=st.floats(0.5, 0.95), seed=st.integers(0, 2 ** 32 - 1))
def test_horizon_rule_admits_every_run_within_its_budget(n, gamma, duration, s, r, seed):
    # 3 n floor(duration / lap_max) is a lower bound on the crossings: a run
    # whose own count is its budget is never refused before it starts
    rp, fs = RegionParams(s=s, r=r), FeedbackSpec.linear(gamma)
    pop = Population(np.sort(np.random.default_rng(seed).random(n)))
    count = len(simulate_exact(pop, rp, fs, duration, sample="endpoints").events)
    _check_horizon(duration, rp, _speed_table(fs, n), max_events=count)
    assert len(simulate_exact(pop, rp, fs, duration, max_events=count).events) == count


@pytest.mark.parametrize("sample", ["events", "endpoints"])
def test_max_events_is_the_largest_count_allowed(sample):
    pop = Population(np.array([0.05, 0.3, 0.5, 0.9]))
    count = len(simulate_exact(pop, RP, POS, 3.0).events)
    assert len(simulate_exact(pop, RP, POS, 3.0, sample=sample, max_events=count).events) == count
    with pytest.raises(SimulationError, match=f"event count exceeded {count - 1} "):
        simulate_exact(pop, RP, POS, 3.0, sample=sample, max_events=count - 1)


def test_zero_duration_rejected():
    with pytest.raises(ValidationError):
        simulate_exact(Population(np.array([0.1])), RP, ZERO, 0.0)


def test_sample_times_validation():
    # the list form of sample times was removed; an array must not reach an
    # `in` test, where it raises an ambiguous-truth ValueError
    pop = Population(np.array([0.1]))
    for sample in ([0.5], np.array([0.2, 0.5]), None):
        with pytest.raises(ValidationError, match="list form of sample times was removed"):
            simulate_exact(pop, RP, ZERO, 1.0, sample=sample)


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=-1.0, dt=0.01)
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=0.1, dt=0.0)
    with pytest.raises(ValidationError):
        NoiseSpec(sigma=0.1, dt=0.2)
    # sigma, a per-step std in cycles, lies in [0, 1]; nan and inf are refused
    for sigma in (float("nan"), float("inf"), 1e308, np.nextafter(1.0, 2.0), -5e-324):
        with pytest.raises(ValidationError, match=r"^sigma must lie in \[0, 1\], got "):
            NoiseSpec(sigma=sigma, dt=0.01)
    for sigma in (0.0, 0.05, 1.0):
        assert NoiseSpec(sigma=sigma, dt=0.01).sigma == sigma


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


@pytest.mark.parametrize("gamma", [0.6, -0.6])
def test_noiseless_sde_within_c_dt_of_the_exact_flow(gamma):
    # Euler on the piecewise-constant field takes each crossing up to one step
    # late, so the endpoint error is O(dt); it aliases with where crossings
    # fall in their steps and need not shrink when dt halves, so this is a
    # bound, not a rate.  Worst error/dt over these 20 cases per sign: 5.20
    # (amplifying) and 0.91 (damping); over 600 cases per sign, 6.1 and 6.0.
    # C = 8 is 1.5x the worst here.
    C = 8.0
    rng = np.random.default_rng([0, int(gamma > 0)])
    fs = FeedbackSpec.linear(gamma)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        s = rng.uniform(0.05, 0.4)
        rp = RegionParams(s=s, r=rng.uniform(s + 0.1, 0.95))
        cycles = float(rng.integers(1, 11))  # on the step grid of both dt
        pop = Population(rng.random(n))
        exact = simulate_exact(pop, rp, fs, cycles, sample="endpoints").states[-1]
        for dt in (0.01, 0.0025):
            traj = simulate_sde(pop, rp, fs, NoiseSpec(sigma=0.0, dt=dt), cycles, sample_every=10**9)
            diff = np.abs(traj.states[-1] - exact)
            assert np.minimum(diff, 1.0 - diff).max() <= C * dt


def test_sde_respects_sample_every():
    pop = Population(np.array([0.1, 0.4, 0.8]))
    spec = NoiseSpec(sigma=0.0, dt=0.01)
    traj = simulate_sde(pop, RP, ZERO, spec, 1.0, seed=0, sample_every=25)
    # samples at step 0, 25, 50, 75, 100
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sde_final_population_round_trip():
    pop = Population(np.array([0.2, 0.9]))
    spec = NoiseSpec(sigma=1e-4, dt=0.01)
    traj = simulate_sde(pop, RP, POS, spec, 0.5, seed=3)
    out = traj.final_population()
    assert np.all((out.phases >= 0.0) & (out.phases < 1.0))
    assert out.phases.tobytes() == traj.states[-1].tobytes()


@pytest.mark.parametrize("gamma", [0.6, -0.6])
def test_em_block_matches_reference(gamma):
    # each row of the block is a sweep point run on its own: same start,
    # same normals, same final phases in every bit
    cfg = {"gamma": gamma, "n": 50, "cycles": 6.0, "sigma": 1e-3, "dt": 0.02,
           "bins": 120, "occupancy_threshold": 2.0}
    values = [1.3, 2.2, 3.7, 5.1]
    rps = [RegionParams(s=0.5 / v, r=1.0 - 0.5 / v) for v in values]
    rngs = [np.random.default_rng([11, i]) for i in range(len(values))]
    start = np.array([rng.random(cfg["n"]) for rng in rngs])
    steps = int(round(cfg["cycles"] / cfg["dt"]))
    _, states = _em_block(start, [rp.s for rp in rps], [rp.r for rp in rps],
                          FeedbackSpec.linear(gamma),
                          NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"]), steps, rngs, steps)
    for i, value in enumerate(values):
        final, _ = sde_oracle.sweep_point(i, value, cfg, 11)
        assert states[-1][i].tobytes() == final.tobytes()


# "unit": every cell counts once in I, as in every run
@pytest.mark.parametrize("fs", [POS, FeedbackSpec.linear(-0.6)], ids=["pos-unit", "neg-unit"])
def test_sde_samples_match_reference(fs):
    pop = Population(np.random.default_rng(4).random(25))
    spec = NoiseSpec(sigma=1e-2, dt=0.01)
    traj = simulate_sde(pop, RP, fs, spec, 2.0, seed=8, sample_every=7)
    times, states = sde_oracle.simulate_sde(pop, RP, fs, spec, 2.0, seed=8, sample_every=7)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("per_block", [1, 2, 3, 30])
def test_sde_samples_stack_across_blocks(monkeypatch, per_block):
    # the run streams its samples in blocks of _SAMPLE_BLOCK values; the 30
    # samples here come in blocks of one, two, three or all of them
    monkeypatch.setattr(rscycle.simulate, "_SAMPLE_BLOCK", 25 * per_block)
    pop = Population(np.random.default_rng(4).random(25))
    spec = NoiseSpec(sigma=1e-2, dt=0.01)
    traj = simulate_sde(pop, RP, POS, spec, 2.0, seed=8, sample_every=7)
    times, states = sde_oracle.simulate_sde(pop, RP, POS, spec, 2.0, seed=8, sample_every=7)
    assert len(times) == 30
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


def test_speed_table_is_one_plus_f():
    fs = FeedbackSpec.linear(0.6)
    table = _speed_table(fs, 10)
    assert table.tobytes() == (1.0 + fs(np.arange(11) / 10)).tobytes()
    for twin in (copy.deepcopy(fs), pickle.loads(pickle.dumps(fs))):
        assert twin == fs and repr(twin) == repr(fs)
        assert _speed_table(twin, 10).tobytes() == table.tobytes()


def test_equal_specs_give_the_same_table():
    # a table given as lists of ints is the same profile as the classmethod's
    a = FeedbackSpec.tabulated([(0.0, 0.0), (0.5, -0.3), (1.0, -0.4)])
    b = FeedbackSpec(kind="tabulated", table=[[0, 0], [0.5, -0.3], [1, -0.4]])
    assert a is not b and a == b and hash(a) == hash(b)
    assert _speed_table(a, 40).tobytes() == _speed_table(b, 40).tobytes()
