"""Time evolution of a population on the circle.

Two engines are provided.  The exact engine exploits the fact that the
vector field is piecewise constant between boundary crossings: each cell
moves at a fixed speed until some cell reaches s, r, or 1, so the flow can
be integrated event to event without discretization error.  The stochastic
engine is a plain Euler-Maruyama discretization with wrapped additive
noise, used for the cluster-count experiments.

The stochastic engine is one block stepper, `_em_block`: it advances P
independent runs as one (P, n) array of phases, each row with its own
region bounds and its own generator.  I = j/n for every row comes from one
count over the block, and the R step (1 + f(j/n)) dt is read from a table
built once per run.  Only the normal draws stay per row, one
standard_normal(n) per row and step, so each row's stream, and its result,
is bit for bit that of the row run alone.  `simulate_sde` is the
P = 1 caller; the cluster-count sweep of the CLI steps its points as blocks.

A cell that reaches 1 wraps to exactly 0 and is in S from that instant.
Simultaneous boundary hits (within TIE_TOL of the earliest) are processed
as one batch and the signaling fraction is recomputed once afterwards.
The exact engine samples in one of two modes: "events" takes t = 0, the
state after every batch and the horizon, "endpoints" the horizon alone.
The horizon row is the last post-batch state moved along the frozen
speeds, and every sampled phase lies in [0, 1).  A batch within TIE_TOL
of the horizon is the run's last stop, so the event log and the final
state agree on every cell's laps.

Both engines have one speed law, the table of `_speed_table`: while j of
the n cells are in S, a cell in R moves at 1 + f(j/n).

The exact engine and the one-point section map (`returnmap._section_run`,
behind `advance_to_section` and `numeric_F`) share one region-clock kernel,
`_Flow`.  Cells never overtake and no region
straddles 0, so the occupants of S, the middle arc and R form three FIFO
queues, and the next batch is found among the three queue heads: an event
costs O(batch) work.  One loop, `_Flow.run`, steps the flow: it holds the
clocks, the speed, the three heads' due clocks and the queues in locals,
stops at the horizon, after a stop budget or, for the section map, after
the first batch in which a cell reaches 1, and returns its stops as a log
of (t, tau, batch).  `_Flow` takes its cells and its speed law as lists of
Python floats, the speeds indexed by the count in S: `simulate_exact`
builds the list from `_speed_table` once per run, and `_section_run` takes
the list from its caller.  It reads the cells back as a list
(`phase_list`), so a replay of a few clusters does no numpy work per call.
Replays of many points (the cyclic certificates, the return map's
agreement column) go through `returnmap._section_runs` instead: the same
stops in one lockstep numpy loop over all points, bit for bit `_section_run`
row by row.

`simulate_exact` runs the loop once, to the horizon, and builds the event
records and the sampled states from the log after it; `_exact_run` is that
run up to the records, with the states left to build.  A crossing's code
fixes the cell's new entry phase, entry clock and region, as `_Flow.run`
sets them.  `_event_state_blocks` builds the states in blocks of `_CHUNK`
stops and yields each block as it is done: every cell's row is entry +
(clock[region] - since) from the per-cell state at the block's first stop,
and then only the columns of the cells that cross inside the block are
rebuilt, each row from the cell's latest crossing at or before it.  In
"endpoints" mode the build has one row, the horizon's clocks, and no batch,
and starts from the flow's per-cell state after the run.  Every block is
wrapped in place.  `simulate_exact` builds the blocks into one (K, n)
array, which it returns; `rscycle simulate` builds them into one reused
table of `_CHUNK` rows and writes each before the next is built, so it
never holds the K x n states.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import List, NamedTuple, Optional

import numpy as np

from .model import TIE_TOL, FeedbackSpec, Population, RegionParams, ValidationError, wrap01


class SimulationError(RuntimeError):
    """The engine detected an impossible state (a bug or runaway run)."""


class EventKind(str, Enum):
    HIT_S_END = "HitS_end"
    HIT_R_START = "HitR_start"
    HIT_CYCLE_END = "HitCycleEnd"


class EventRecord(NamedTuple):
    time: float
    kind: EventKind
    cell: int


@dataclass(frozen=True)
class NoiseSpec:
    """Euler-Maruyama step size and per-step displacement std."""

    sigma: float
    dt: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValidationError("sigma must be >= 0")
        if not (0.0 < self.dt <= 0.1):
            raise ValidationError("dt must lie in (0, 0.1] (at least 10 steps per cycle)")


@dataclass
class Trajectory:
    """Sampled states of a run: times[i] pairs with states[i] (one row of
    phases per sample).  events is empty for the stochastic engine."""

    times: np.ndarray
    states: np.ndarray
    events: List[EventRecord] = field(default_factory=list)

    def final_population(self) -> Population:
        return Population(wrap01(self.states[-1]))


def _speed_table(fs: FeedbackSpec, n: int) -> np.ndarray:
    """The speed law for n cells: entry j is the speed 1 + f(j/n) in R while
    j cells are in S (cells outside R move at 1)."""
    return 1.0 + fs(np.arange(n + 1) / n)


_ORDER_ERROR = "cyclic order violated; integration bug"
_DT_ERROR = "non-positive time to next boundary; a cell sits past it"


class _Flow:
    """The exact flow as three FIFO queues of cells, one per region.

    S and the middle arc run on the clock t, R on its own clock tau, which
    advances by v dt with v = 1 + f(I).  A cell's phase is its entry phase
    plus its region's clock minus its entry clock, so a cell that has just
    crossed sits exactly on the boundary.  Codes: 0 is S and its end s, 1 is
    the middle arc and r, 2 is R and 1.  due holds, per code, the region
    clock at which the queue's head reaches the region's end (inf if the
    queue is empty); event_count counts the crossings made so far.  speeds
    is the speed law as a list, entry j the speed in R while j cells are in
    S, as `_speed_table` gives it.
    """

    def __init__(self, phases: List[float], rp: RegionParams, speeds: List[float]):
        n, s, r = len(phases), rp.s, rp.r
        region = [0 if p < s else 1 if p < r else 2 for p in phases]
        # per-cell state in lists: run() reads and writes them per crossing,
        # where a list beats an array; numpy reads them through arrays()
        self.entry, self.since, self.region = list(phases), [0.0] * n, region
        # head first, nearest the region's end: the regions are arcs, so R,
        # the middle arc and S are consecutive runs of the descending order
        order = sorted(range(n), key=phases.__getitem__, reverse=True)
        in_r, above_s = region.count(2), n - region.count(0)
        self.queues = q0, q1, q2 = (deque(order[above_s:]), deque(order[in_r:above_s]),
                                    deque(order[:in_r]))
        self.ends, self.starts = (s, r, 1.0), (s, r, 0.0)  # region end, next start
        self.due = (s - phases[q0[0]] if q0 else math.inf, r - phases[q1[0]] if q1 else math.inf,
                    1.0 - phases[q2[0]] if q2 else math.inf)
        self.speeds, self.v = speeds, speeds[len(q0)]
        self.t = self.tau = 0.0
        self.event_count = 0

    def run(self, horizon=math.inf, max_events=math.inf, max_stops=math.inf, to_section=False):
        """Step the flow from stop to stop; return (log, offset).

        A stop finds the earliest crossing among the three queue heads, dt
        away, advances both clocks by dt and moves each cell crossing within
        TIE_TOL of it to the next region; log holds each stop's (t, tau,
        batch) after it, the batch a tuple of (time to cross, cell, code),
        R's crossings first, then the middle arc's, then S's (a tuple, as
        most batches hold one crossing and a tuple is the smaller).

        The run ends at the horizon: before a stop more than TIE_TOL past it,
        with offset the time from t to the horizon, or after a stop within
        TIE_TOL of it, with offset 0.0.  It also ends, offset None, after
        max_stops stops or, if to_section, after the first stop in which a
        cell reaches 1.  The clocks, speed and dues are kept in locals while it
        runs and stored back when it ends, so a later run resumes the flow.

        Raises SimulationError if a time to cross is not positive, if a
        crossing cell would land behind its new queue's tail, or if the
        crossings made exceed max_events.
        """
        t, tau, v, (d0, d1, d2), events = self.t, self.tau, self.v, self.due, self.event_count
        q0, q1, q2 = self.queues
        entry, since, region, speeds = self.entry, self.since, self.region, self.speeds
        (e0, e1, e2), (s0, s1, s2) = self.ends, self.starts
        late, near, tol, inf = horizon + TIE_TOL, horizon - TIE_TOL, TIE_TOL, math.inf
        log, offset, stops = [], None, 0
        while True:
            tt0, tt1, tt2 = d0 - t, d1 - t, (d2 - tau) / v
            dt = tt1 if tt1 < tt0 else tt0
            if tt2 < dt:
                dt = tt2
            if dt <= 0.0:
                raise SimulationError(_DT_ERROR)
            t_next = t + dt
            if t_next > late:
                offset = horizon - t
                break
            # pop every head within TIE_TOL of dt, R first; a cell moves into
            # its next queue once that queue's own crossings are popped: the
            # middle arc's into R at r on the new tau, S's into the middle
            # arc at s on the new t, and R's last, into S at 0 on the new t
            tau_next, limit, batch = tau + v * dt, dt + tol, ()
            wrapped, left_s = tt2 <= limit, tt0 <= limit
            while tt2 <= limit:
                batch += ((tt2, q2.popleft(), 2),)
                d2 = since[q2[0]] + (e2 - entry[q2[0]]) if q2 else inf
                tt2 = (d2 - tau) / v
            while tt1 <= limit:
                i = q1.popleft()
                batch += ((tt1, i, 1),)
                d1 = since[q1[0]] + (e1 - entry[q1[0]]) if q1 else inf
                tt1 = d1 - t
                if not q2:
                    d2 = tau_next + (e2 - s1)
                elif entry[q2[-1]] + (tau_next - since[q2[-1]]) < s1:
                    raise SimulationError(_ORDER_ERROR)
                entry[i], since[i], region[i] = s1, tau_next, 2
                q2.append(i)
            while tt0 <= limit:
                i = q0.popleft()
                batch += ((tt0, i, 0),)
                d0 = since[q0[0]] + (e0 - entry[q0[0]]) if q0 else inf
                tt0 = d0 - t
                if not q1:
                    d1 = t_next + (e1 - s0)
                elif entry[q1[-1]] + (t_next - since[q1[-1]]) < s0:
                    raise SimulationError(_ORDER_ERROR)
                entry[i], since[i], region[i] = s0, t_next, 1
                q1.append(i)
            if wrapped:
                for _, i, code in batch:
                    if code != 2:
                        break
                    if not q0:
                        d0 = t_next + (e0 - s2)
                    elif entry[q0[-1]] + (t_next - since[q0[-1]]) < s2:
                        raise SimulationError(_ORDER_ERROR)
                    entry[i], since[i], region[i] = s2, t_next, 0
                    q0.append(i)
            if left_s or wrapped:  # S lost or gained a cell
                v = speeds[len(q0)]
            t, tau = t_next, tau_next
            log.append((t, tau, batch))
            events += len(batch)
            if events > max_events:
                raise SimulationError(
                    f"event count exceeded {max_events} (s={e0}, r={e1}, n={len(entry)}); "
                    "aborting runaway run")
            if t >= near:
                offset = 0.0
                break
            stops += 1
            if stops >= max_stops or (to_section and wrapped):
                break
        self.t, self.tau, self.v, self.due, self.event_count = t, tau, v, (d0, d1, d2), events
        return log, offset

    def arrays(self):
        """Numpy copies of the per-cell entry phases, entry clocks and regions."""
        return np.array(self.entry), np.array(self.since), np.frombuffer(bytearray(self.region), np.int8)

    def phase_list(self) -> List[float]:
        """Every phase at time t as Python floats, in [0, 1): entry + (clock -
        since), then x - floor(x), with 1.0 set to 0.0 (the arithmetic of
        the sampled states, bit for bit)."""
        clocks = (self.t, self.t, self.tau)
        out = []
        for entry, since, code in zip(self.entry, self.since, self.region):
            x = entry + (clocks[code] - since)
            x -= math.floor(x)
            out.append(0.0 if x == 1.0 else x)
        return out


_KIND_OF_CODE = tuple(EventKind)  # indexed by the crossing code of _Flow.run
_CHUNK = 64  # stops per block of _build_event_states


def _fill(out, clocks, entry, since, region) -> None:
    """out[k] = entry + (clocks[k, region] - since): the unwrapped phases of
    one per-cell state at each row (t, t, tau) of clocks."""
    np.take(clocks, region, axis=1, out=out, mode="clip")
    out -= since
    out += entry


def _wrap(out, scratch) -> None:
    """wrap01 in place; the floor goes to the first rows of scratch."""
    scratch = scratch[:len(out)]
    np.floor(out, out=scratch)
    out -= scratch
    out[out == 1.0] = 0.0


def _event_state_blocks(clocks, start, log, starts, out):
    """Build the state at each row of clocks into out, _CHUNK rows at a
    time, and yield each block as (first, view of out) once it is built.

    Row k of the (K, 3) array clocks is stop k's (t, t, tau), and log[k - 1]
    is the batch of stop k as (time to cross, cell, code); rows past the log
    have no batch.  start holds each cell's entry phase, entry clock and
    region at stop 0, as numpy arrays that the build advances in place.  A
    crossing of code c moves its cell to region (c + 1) % 3 with entry phase
    starts[c], at that region's clock of its stop, as `_Flow.run` does.

    out is either (K, n), and block b fills its rows b * _CHUNK onward in
    place, or a buffer of min(K, _CHUNK) rows that every block reuses from
    its first row.
    """
    K, n = len(clocks), len(start[0])
    entry, since, region = start
    members = list(chain.from_iterable(log))
    cells = np.fromiter(map(itemgetter(1), members), np.intp, len(members))
    codes = np.fromiter(map(itemgetter(2), members), np.intp, len(members))
    stops = np.repeat(np.arange(1, len(log) + 1), np.fromiter(map(len, log), np.intp, len(log)))
    new_region = ((codes + 1) % 3).astype(np.int8)
    new_entry = np.array(starts)[codes]
    new_since = clocks[stops, np.where(new_region == 2, 2, 0)]
    bounds = np.searchsorted(stops, np.arange(0, K + _CHUNK, _CHUNK)).tolist()
    scratch = np.empty((min(K, _CHUNK), n))
    column = np.empty(n, np.intp)
    for first in range(0, K, _CHUNK):
        rows = clocks[first:first + _CHUNK]
        block = out[first:first + _CHUNK] if len(out) == K else out[:len(rows)]
        _fill(block, rows, entry, since, region)
        lo, hi = bounds[first // _CHUNK], bounds[first // _CHUNK + 1]
        if lo < hi:
            # the crossing cells' columns: row k takes the cell's latest
            # crossing at or before it (index m + j for crossing j of the
            # block), else its state at the block's first stop (index < m).
            # A cell crosses at most once a stop, so no index is written twice.
            cross = cells[lo:hi]
            changed = np.flatnonzero(np.bincount(cross, minlength=n))
            m = changed.size
            column[changed] = np.arange(m)
            latest = np.empty((len(block), m), np.intp)
            latest[:] = np.arange(m)
            latest[stops[lo:hi] - first, column[cross]] = np.arange(m, m + hi - lo)
            np.maximum.accumulate(latest, axis=0, out=latest)
            ent = np.concatenate((entry[changed], new_entry[lo:hi]))
            sin = np.concatenate((since[changed], new_since[lo:hi]))
            reg = np.concatenate((region[changed], new_region[lo:hi]))
            sub = np.take_along_axis(rows, reg[latest], axis=1)
            sub -= sin[latest]
            sub += ent[latest]
            block[:, changed] = sub
            last = latest[-1]
            entry[changed], since[changed], region[changed] = ent[last], sin[last], reg[last]
        _wrap(block, scratch)
        yield first, block


def _build_event_states(clocks, start, log, starts) -> np.ndarray:
    """The states of `_event_state_blocks`, built in place in one (K, n) array."""
    states = np.empty((len(clocks), len(start[0])))
    for _ in _event_state_blocks(clocks, start, log, starts, states):
        pass
    return states


def _event_records(log) -> List[EventRecord]:
    """The events of a run's log, by stop and within a stop by cell.  The
    log is released block by block as the records are built, so the two
    never exist in full at once."""
    events: List[EventRecord] = []
    new = tuple.__new__  # EventRecord's own __new__, without its Python frame
    for first in range(0, len(log), _CHUNK):
        block = log[first:first + _CHUNK]
        log[first:first + _CHUNK] = [None] * len(block)
        events += [new(EventRecord, (t, _KIND_OF_CODE[code], i)) for t, _, batch in block
                   for _, i, code in (sorted(batch, key=itemgetter(1)) if len(batch) > 1 else batch)]
    return events


class _Run(NamedTuple):
    """One exact run before its states are built: the sample times, the
    event records, and build, the arguments (clocks, start, log, starts) of
    `_event_state_blocks` but its buffer."""

    times: np.ndarray
    events: List[EventRecord]
    build: tuple


def _exact_run(pop: Population, rp: RegionParams, fs: FeedbackSpec, duration: float,
               sample: str = "events", max_events: int = 10_000_000) -> _Run:
    """The run of `simulate_exact`, with its states left to build.

    One run of the kernel's loop, `_Flow.run`, goes to the horizon and logs
    each stop's clocks and batch.  The event records are built from the log
    here, and the log is released as they are; the batches stay for the
    state build.
    """
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    # isinstance first: an array in a tuple raises an ambiguous-truth ValueError
    if not (isinstance(sample, str) and sample in ("events", "endpoints")):
        raise ValidationError(f'sample must be "events" or "endpoints", got {sample!r} '
                              "(the list form of sample times was removed)")

    flow = _Flow(pop.phases.tolist(), rp, _speed_table(fs, len(pop)).tolist())
    start = flow.arrays() if sample == "events" else None
    log, offset = flow.run(duration, max_events=max_events)
    # the horizon's clocks: the last stop's moved by offset, 0.0 if the stop is on the horizon
    t, tau = flow.t + offset, flow.tau + flow.v * offset
    if sample == "endpoints":
        events = _event_records(log)  # first, so the log is released before the arrays are made
        return _Run(np.array([duration]), events,
                    (np.array([(t, t, tau)]), flow.arrays(), [], flow.starts))
    ts, taus = [0.0, *map(itemgetter(0), log)], [0.0, *map(itemgetter(1), log)]
    if offset:  # else the last stop is on the horizon and is its sample
        ts.append(t)
        taus.append(tau)
    clocks, batches = np.column_stack((ts, ts, taus)), [batch for _, _, batch in log]
    return _Run(np.array(ts[:-1] + [duration]), _event_records(log),
                (clocks, start, batches, flow.starts))


def simulate_exact(
    pop: Population,
    rp: RegionParams,
    fs: FeedbackSpec,
    duration: float,
    sample: str = "events",
    max_events: int = 10_000_000,
) -> Trajectory:
    """Integrate the piecewise-constant flow exactly for the given duration.

    sample is "events" (t = 0, after every batch, and the horizon) or
    "endpoints" (the horizon alone).  The horizon is one more boundary: a
    batch within TIE_TOL of duration, on either side, is the last stop.
    Its events keep their own times, and its post-batch state is sampled
    at duration; else the horizon row is the last stop's state moved along
    the frozen speeds.

    One run of the kernel's loop, `_Flow.run`, goes to the horizon and logs
    each stop's clocks and batch; the event records and, block by block
    into one (K, n) array, the sampled states are built from that log after
    it.

    Raises SimulationError if the event count exceeds max_events, which
    flags parameter sets whose event cadence explodes.
    """
    run = _exact_run(pop, rp, fs, duration, sample, max_events)
    return Trajectory(times=run.times, states=_build_event_states(*run.build), events=run.events)


def _em_block(pos: np.ndarray, s, r, fs: FeedbackSpec, noise: NoiseSpec, steps: int,
              rngs, sample_every: int):
    """Euler-Maruyama on a block of P independent runs sharing fs and noise.

    pos is a (P, n) array of phases.  Row p has its own region bounds s[p],
    r[p] and its own generator rngs[p], which draws one standard_normal(n)
    per step, so each row's stream is that of a run on its own.  Each step
    the speeds are frozen at the row's count j in S: a cell in R moves by
    (1 + f(j/n)) dt, any other by dt; then the sigma-scaled normals are
    added and the row is wrapped.  Returns the sampled step numbers (0,
    every multiple of sample_every, and steps) and the block at each.

    Raises ValidationError if steps < 1: a horizon shorter than one step
    would return the start as the result.
    """
    if steps < 1:
        raise ValidationError(f"the horizon must hold at least one step of dt={noise.dt}, "
                              f"got {steps} steps")
    dt = noise.dt
    s, r = np.asarray(s, dtype=float)[:, None], np.asarray(r, dtype=float)[:, None]
    r_steps = _speed_table(fs, pos.shape[1]) * dt  # entry j: the R step while j cells are in S
    normals = np.empty_like(pos)
    ks, states = [0], [pos.copy()]
    for k in range(1, steps + 1):
        for row, rng in zip(normals, rngs):
            rng.standard_normal(out=row)
        pos = pos + np.where(pos >= r, r_steps[np.count_nonzero(pos < s, axis=1)][:, None], dt)
        pos += noise.sigma * normals
        pos = wrap01(pos)
        if k % sample_every == 0 or k == steps:
            ks.append(k)
            states.append(pos)
    return ks, states


def simulate_sde(
    pop: Population,
    rp: RegionParams,
    fs: FeedbackSpec,
    noise: NoiseSpec,
    duration: float,
    seed: Optional[int] = None,
    sample_every: int = 1,
) -> Trajectory:
    """Euler-Maruyama run with wrapped additive noise.

    Each step the speeds are frozen at the current signaling fraction, the
    cells advance by speed*dt plus sigma-scaled standard normals, and the
    result is wrapped mod 1.  Reproducible for a fixed seed.
    """
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    if sample_every < 1:
        raise ValidationError("sample_every must be >= 1")
    steps = int(round(duration / noise.dt))
    ks, states = _em_block(pop.phases[None, :], [rp.s], [rp.r], fs, noise, steps,
                           [np.random.default_rng(seed)], sample_every)
    return Trajectory(times=np.array(ks) * noise.dt, states=np.vstack(states), events=[])
