"""Reference exact engine for differential tests of `simulate._Flow`.

This is the event loop the exact engine used before the region-clock
kernel: every event recomputes the speeds and the time to the next
boundary of every cell with numpy, snaps the batch onto its boundaries, and
checks on unwrapped positions that no cell overtakes another, the wrap pair
included.  It is O(n) per event, so it is only for small runs.
"""

import numpy as np

from rscycle.model import TIE_TOL, wrap01
from rscycle.simulate import EventKind, SimulationError

KINDS = tuple(EventKind)  # indexed by the boundary code: 0 is s, 1 is r, 2 is 1


def speed_law(pos, rp, fs):
    """The speed law: 1 + f(I) in R and 1 elsewhere, I the fraction of cells in S."""
    I = np.count_nonzero(pos < rp.s) / pos.size
    fI = fs(I) if I > 0.0 else 0.0
    return np.where(pos >= rp.r, 1.0 + fI, 1.0)


def next_crossing(pos, rp, fs):
    """(dt, batch mask, speeds, boundary code, distance, time to boundary)."""
    speeds = speed_law(pos, rp, fs)
    in_s = pos < rp.s
    mid = (pos >= rp.s) & (pos < rp.r)
    dist = np.where(in_s, rp.s - pos, np.where(mid, rp.r - pos, 1.0 - pos))
    code = np.where(in_s, 0, np.where(mid, 1, 2))
    tt = dist / speeds
    dt = float(tt.min())
    if dt <= 0.0:
        raise SimulationError("non-positive time to next boundary; a cell sits past it")
    return dt, tt <= dt + TIE_TOL, speeds, code, dist, tt


def snap(pos, batch, code, rp, end):
    pos[batch & (code == 0)] = rp.s
    pos[batch & (code == 1)] = rp.r
    pos[batch & (code == 2)] = end


def simulate(phases, rp, fs, duration):
    """The stops (time, state) at t = 0, after each batch and at the horizon;
    the batches as (time, [(cell, EventKind)] in cell order); and the tie
    margin, the smallest distance of a time to a boundary from the batch
    threshold dt + TIE_TOL."""
    pos = np.asarray(phases, dtype=float).copy()
    lift = pos.copy()  # unwrapped positions
    order = np.argsort(pos, kind="stable")
    stops, batches = [], []
    margin = np.inf
    t = 0.0
    while t < duration * (1.0 - 1e-15):
        stops.append((t, pos.copy()))
        dt, batch, speeds, code, dist, tt = next_crossing(pos, rp, fs)
        margin = min(margin, np.abs(tt - (dt + TIE_TOL)).min())
        if t + dt > duration:
            pos = wrap01(pos + speeds * (duration - t))
            break
        lift = np.where(batch, lift + dist, lift + speeds * dt)
        pos = pos + speeds * dt
        snap(pos, batch, code, rp, 0.0)
        t += dt
        batches.append((t, [(int(i), KINDS[code[i]]) for i in np.nonzero(batch)[0]]))
        sorted_lift = lift[order]
        if np.any(np.diff(sorted_lift) < -1e-9) or sorted_lift[-1] - sorted_lift[0] > 1.0 + 1e-9:
            raise SimulationError("cyclic order violated; integration bug")
    stops.append((duration, pos))
    return stops, batches, margin


def advance_to_section(positions, rp, fs):
    """(t1, final positions, batches of (cell, EventKind)), each batch in
    (time to its boundary, cell) order, and the tie margin as in `simulate`;
    the cells reaching 1 stop there."""
    pos = np.asarray(positions, dtype=float).copy()
    t = 0.0
    batches = []
    margin = np.inf
    while pos.max() < 1.0:
        dt, batch, speeds, code, _, tt = next_crossing(pos, rp, fs)
        margin = min(margin, np.abs(tt - (dt + TIE_TOL)).min())
        pos = pos + speeds * dt
        snap(pos, batch, code, rp, 1.0)
        t += dt
        members = np.nonzero(batch)[0][np.argsort(tt[batch], kind="stable")]
        batches.append([(int(i), KINDS[code[i]]) for i in members])
        if np.any(batch & (code == 2)):
            break
    return t, pos, batches, margin
