"""Reference sampler for bit-for-bit tests of the exact engine's states.

This is the sampler `simulate_exact` used before its event log: the loop
drives the same kernel, `simulate._Flow`, one stop per `run`, keeps its own
horizon rules ("endpoints" samples the grid [duration]), and at each stop
rebuilds every phase from the flow's per-cell lists with numpy (`phases`),
so each stop costs O(n); the rows are stacked after the loop.
"""

import copy
from operator import itemgetter

import numpy as np

from rscycle.model import TIE_TOL, wrap01
from rscycle.simulate import _KIND_OF_CODE, EventRecord, Trajectory, _Flow, _speed_table


def phases(flow, offset=0.0):
    """Every phase at time t + offset along the frozen speeds, in [0, 1)."""
    clocks = np.array([flow.t + offset, flow.t + offset, flow.tau + flow.v * offset])
    moved = clocks[np.array(flow.region)] - np.array(flow.since)
    return wrap01(np.array(flow.entry) + moved)


def _snapshot(flow):
    """A copy of the flow's clocks, speed and per-cell state, for `phases`."""
    snap = copy.copy(flow)
    snap.entry, snap.since, snap.region = flow.entry[:], flow.since[:], flow.region[:]
    return snap


def simulate_exact(pop, rp, fs, duration, sample="events"):
    """`simulate_exact` with the per-stop sampler, for valid arguments."""
    grid = None if sample == "events" else [duration]
    flow = _Flow(pop.phases.tolist(), rp, _speed_table(fs, len(pop)).tolist())
    times, states, events = [], [], []
    pending = 0
    t = 0.0
    while True:
        # one stop, with no horizon: the stop's time t + dt is read off the
        # flow after it, and the state before it from a snapshot
        stop = _snapshot(flow)
        [(t_next, _, batch)], _ = flow.run(max_stops=1)
        if grid is None:
            times.append(t)
            states.append(phases(stop))
        else:
            while pending < len(grid) and grid[pending] < min(t_next, duration):
                times.append(grid[pending])
                states.append(phases(stop, grid[pending] - t))
                pending += 1
        if t_next > duration + TIE_TOL:
            final = phases(stop, duration - t)
            break
        t = t_next
        events += [EventRecord(t, _KIND_OF_CODE[code], i)
                   for _, i, code in sorted(batch, key=itemgetter(1))]
        if t >= duration - TIE_TOL:
            final = phases(flow)
            break
    rest = [duration] if grid is None else grid[pending:]
    return Trajectory(times=np.array(times + rest),
                      states=np.vstack(states + [final] * len(rest)), events=events)
