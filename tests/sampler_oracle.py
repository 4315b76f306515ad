"""Reference sampler for bit-for-bit tests of the exact engine's states.

This is the sampler `simulate_exact` used before its event log: the loop
drives the same kernel, `simulate._Flow`, and at each stop rebuilds every
phase from the flow's per-cell arrays with numpy (`phases`), so each stop
costs O(n); the rows are stacked after the loop.
"""

from operator import itemgetter

import numpy as np

from rscycle.model import TIE_TOL, wrap01
from rscycle.simulate import _KIND_OF_CODE, EventRecord, Trajectory, _Flow


def phases(flow, offset=0.0):
    """Every phase at time t + offset along the frozen speeds, in [0, 1)."""
    clocks = np.array([flow.t + offset, flow.t + offset, flow.tau + flow.v * offset])
    moved = clocks[np.frombuffer(flow.region, np.int8)] - np.frombuffer(flow.since)
    return wrap01(np.frombuffer(flow.entry) + moved)


def simulate_exact(pop, rp, fs, duration, sample="events"):
    """`simulate_exact` with the per-stop sampler, for valid arguments."""
    if isinstance(sample, str):
        grid = None if sample == "events" else [duration]
    else:
        grid = np.asarray(sample, dtype=float).tolist()
    flow = _Flow(pop.phases.tolist(), rp, fs)
    times, states, events = [], [], []
    pending = 0
    t = 0.0
    while True:
        dt = flow.next_dt()
        if grid is None:
            times.append(t)
            states.append(phases(flow))
        else:
            while pending < len(grid) and grid[pending] < min(t + dt, duration):
                times.append(grid[pending])
                states.append(phases(flow, grid[pending] - t))
                pending += 1
        if t + dt > duration + TIE_TOL:
            flow.advance(duration - t)
            break
        batch = flow.pop(dt)
        t = flow.t
        batch.sort(key=itemgetter(1))
        events += [EventRecord(t, _KIND_OF_CODE[code], i) for _, i, code in batch]
        if t >= duration - TIE_TOL:
            break
    rest = [duration] if grid is None else grid[pending:]
    return Trajectory(times=np.array(times + rest),
                      states=np.vstack(states + [phases(flow)] * len(rest)), events=events)
