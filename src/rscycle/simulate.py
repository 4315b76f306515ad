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
The exact engine samples by one rule: the state at a time is the last
post-batch state moved along the frozen speeds, so a sample at a batch
time is the post-batch state and every sampled phase lies in [0, 1).
A batch within TIE_TOL of the horizon is the run's last stop, so the
event log and the final state agree on every cell's laps.

Both engines have one speed law, the table of `_speed_table`: while j of
the n cells are in S, a cell in R moves at 1 + f(j/n).

The exact engine and the section map `returnmap.advance_to_section` share
one region-clock kernel, `_Flow`.  Cells never overtake and no region
straddles 0, so the occupants of S, the middle arc and R form three FIFO
queues, and the next batch is found among the three queue heads: an event
costs O(batch) work.  `_Flow` takes its cells as lists of Python floats; the
section map reads them back as a list (`phase_list`), so a replay of a few
clusters does no numpy work per call.

In "events" mode the exact engine samples from an event log, not from the
flow: the loop logs each stop's clocks (t, tau) and its batch of (cell, code), and the
sampled states are built after the loop.  A crossing's code fixes the
cell's new entry phase, entry clock and region, as `_Flow.pop` sets them.
`_build_event_states` fills one preallocated (K, n) array in blocks of
`_CHUNK` stops: every cell's row is entry + (clock[region] - since) from the
per-cell state at the block's first stop, and then only the columns of the
cells that cross inside the block are rebuilt, each row from the cell's
latest crossing at or before it.  A grid time takes the same arithmetic in
one row, filled while the loop is at its stop from the flow's per-cell
state, at the stop's clocks moved by the time past the stop at the stop's
speed.  Every block is wrapped in place, so the build holds one (K, n)
array and block-sized scratch.
"""

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Union

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
    """The speed law for n cells: entry j is the speed 1 + f(j/n) in R
    while j cells are in S (cells outside R move at 1).

    Memoized on the spec object: fs keeps the last (n, table) built for it,
    so every replay of one shared spec (the section map's) reads one table.
    Sharing is safe because the spec is frozen and the table is read-only.
    The memo lives and dies with the spec, so a run's work does not depend
    on earlier runs in the process.
    """
    memo = fs._speed_memo
    if memo is None or memo[0] != n:
        table = 1.0 + fs(np.arange(n + 1) / n)
        table.flags.writeable = False
        memo = (n, table)
        object.__setattr__(fs, "_speed_memo", memo)  # fs is frozen; the memo is not part of its value
    return memo[1]


class _Flow:
    """The exact flow as three FIFO queues of cells, one per region.

    S and the middle arc run on the clock t, R on its own clock tau, which
    advances by v dt with v = 1 + f(I).  A cell's phase is its entry phase
    plus its region's clock minus its entry clock, so a cell that has just
    crossed sits exactly on the boundary.  Codes: 0 is S and its end s, 1 is
    the middle arc and r, 2 is R and 1.
    """

    def __init__(self, phases: List[float], rp: RegionParams, fs: FeedbackSpec):
        self.t = self.tau = 0.0
        region = [0 if p < rp.s else 1 if p < rp.r else 2 for p in phases]
        # per-cell state in arrays that numpy reads without a copy (arrays())
        self.entry, self.since = array("d", phases), array("d", bytes(8 * len(phases)))
        self.region = array("b", region)
        self.queues = (deque(), deque(), deque())  # head first: nearest the region's end
        for i in sorted(range(len(phases)), key=phases.__getitem__, reverse=True):
            self.queues[region[i]].append(i)
        self.ends, self.starts = (rp.s, rp.r, 1.0), (rp.s, rp.r, 0.0)  # region end, next start
        self._v = _speed_table(fs, len(phases)).tolist()  # indexed by the count in S
        self.v = self._v[len(self.queues[0])]
        self.due = [self._due(code) for code in range(3)]

    def _due(self, code: int) -> float:
        """The region clock at which the head of queue code reaches the region's end."""
        q = self.queues[code]
        return self.since[q[0]] + (self.ends[code] - self.entry[q[0]]) if q else math.inf

    def next_dt(self) -> float:
        """Time to the earliest crossing: the first of the three queue heads."""
        due, t = self.due, self.t
        self.head_tt = tts = (due[0] - t, due[1] - t, (due[2] - self.tau) / self.v)
        dt = min(tts)
        if dt <= 0.0:
            raise SimulationError("non-positive time to next boundary; a cell sits past it")
        return dt

    def advance(self, dt: float) -> None:
        self.t += dt
        self.tau += self.v * dt

    def pop(self, dt: float) -> list:
        """Advance by dt, from next_dt, and move each cell crossing within TIE_TOL
        of it to the next region; return the batch as (time to cross, cell, code)."""
        batch, due, limit = [], self.due, dt + TIE_TOL
        for code, tt in enumerate(self.head_tt):
            while tt <= limit:
                batch.append((tt, self.queues[code].popleft(), code))
                due[code] = self._due(code)
                tt = (due[2] - self.tau) / self.v if code == 2 else due[code] - self.t
        self.advance(dt)
        entry, since, s_changed = self.entry, self.since, False
        for _, i, code in batch:
            nxt = 0 if code == 2 else code + 1
            q, start, clock = self.queues[nxt], self.starts[code], self.tau if nxt == 2 else self.t
            if q and entry[q[-1]] + (clock - since[q[-1]]) < start:
                raise SimulationError("cyclic order violated; integration bug")
            entry[i], since[i], self.region[i] = start, clock, nxt
            q.append(i)
            if len(q) == 1:
                due[nxt] = self._due(nxt)
            s_changed |= code != 1  # S lost or gained a cell
        if s_changed:
            self.v = self._v[len(self.queues[0])]
        return batch

    def arrays(self):
        """The per-cell entry phases, entry clocks and regions as numpy views."""
        return np.frombuffer(self.entry), np.frombuffer(self.since), np.frombuffer(self.region, np.int8)

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


_KIND_OF_CODE = tuple(EventKind)  # indexed by the crossing code of _Flow.pop
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


def _fill_moved(out, flow, offsets) -> None:
    """out[k] = the flow's phases moved by offsets[k] along its frozen
    speeds, before the wrap: a block of rows from one stop."""
    t, tau, v = flow.t, flow.tau, flow.v
    clocks = np.array([(t + d, t + d, tau + v * d) for d in offsets]).reshape(-1, 3)
    _fill(out, clocks, *flow.arrays())


def _build_event_states(clocks, start, log, starts) -> np.ndarray:
    """The state at each row of clocks, from the start state and the batches.

    Row k of the (K, 3) array clocks is stop k's (t, t, tau), and log[k - 1]
    is the batch of stop k as (time to cross, cell, code); rows past the log
    have no batch.  start holds each cell's entry phase, entry clock and
    region at stop 0, as numpy arrays that the build advances in place.  A
    crossing of code c moves its cell to region (c + 1) % 3 with entry phase
    starts[c], at that region's clock of its stop, as `_Flow.pop` does.
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
    states = np.empty((K, n))
    scratch = np.empty((min(K, _CHUNK), n))
    column = np.empty(n, np.intp)
    for first in range(0, K, _CHUNK):
        block, rows = states[first:first + _CHUNK], clocks[first:first + _CHUNK]
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
    return states


def simulate_exact(
    pop: Population,
    rp: RegionParams,
    fs: FeedbackSpec,
    duration: float,
    sample: Union[str, Sequence[float]] = "events",
    max_events: int = 10_000_000,
) -> Trajectory:
    """Integrate the piecewise-constant flow exactly for the given duration.

    sample may be "events" (t = 0, after every batch, and the horizon),
    "endpoints" (the grid [duration]) or an ascending grid of times within
    [0, duration].  A grid time takes the state of the last stop at or before
    it, moved along the frozen speeds: at a batch time that is the post-batch
    state, and every sampled phase lies in [0, 1).  The horizon is one more
    boundary: a batch within TIE_TOL of duration, on either side, is the
    last stop.  Its events keep their own times, and its post-batch state is
    sampled at duration and at every grid time left.

    In "events" mode the loop logs each stop's clocks and batch, and
    `_build_event_states` builds the states from that log after the loop.
    On a grid the loop fills the rows of the grid times after each stop, from
    the flow's per-cell state there; they are wrapped after the loop.

    Raises SimulationError if the event count exceeds max_events, which
    flags parameter sets whose event cadence explodes.
    """
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    if isinstance(sample, str):
        if sample not in ("events", "endpoints"):
            raise ValidationError(f"unknown sample mode {sample!r}")
        grid = None if sample == "events" else [duration]
    else:
        grid = np.asarray(sample, dtype=float)
        ascending = grid.size > 0 and np.all(np.diff(grid) >= 0)
        if not (ascending and grid[0] >= 0 and grid[-1] <= duration + TIE_TOL):
            raise ValidationError("sample times must be nonempty and ascend within [0, duration]")
        grid = grid.tolist()

    flow = _Flow(pop.phases.tolist(), rp, fs)
    if grid is None:
        start = [a.copy() for a in flow.arrays()]
        times: List[float] = []  # t at each stop
        taus: List[float] = []  # tau at each stop
        log: List[list] = []  # the batch of each stop after the first
    else:
        states = np.empty((len(grid), pop.phases.size))
    events: List[EventRecord] = []
    pending = 0  # index of the first grid time not yet sampled

    t = 0.0
    while True:  # at least once, so t = 0 is sampled however short the run
        dt = flow.next_dt()
        if grid is None:
            times.append(t)
            taus.append(flow.tau)
        elif pending < len(grid) and grid[pending] < min(t + dt, duration):
            first = pending
            while pending < len(grid) and grid[pending] < min(t + dt, duration):
                pending += 1
            _fill_moved(states[first:pending], flow, [g - t for g in grid[first:pending]])
        if t + dt > duration + TIE_TOL:
            offset = duration - t
            break
        batch = flow.pop(dt)
        t = flow.t
        if len(batch) > 1:
            batch.sort(key=itemgetter(1))  # a batch is listed by cell
        if grid is None:
            log.append(batch)
        for _, i, code in batch:
            events.append(EventRecord(t, _KIND_OF_CODE[code], i))
        if len(events) > max_events:
            raise SimulationError(
                f"event count exceeded {max_events} (s={rp.s}, r={rp.r}, "
                f"feedback={fs.kind}, n={pop.phases.size}); aborting runaway run"
            )
        if t >= duration - TIE_TOL:
            offset = 0.0
            break
    # the horizon state is the last stop's moved by offset; each time left takes it
    if grid is None:
        ts = times + [t + offset]
        clocks = np.column_stack((ts, ts, taus + [flow.tau + flow.v * offset]))
        states = _build_event_states(clocks, start, log, flow.starts)
        times.append(duration)
    else:
        _fill_moved(states[pending:], flow, [offset] * (len(grid) - pending))
        scratch = np.empty((min(len(grid), _CHUNK), states.shape[1]))
        for first in range(0, len(grid), _CHUNK):
            _wrap(states[first:first + _CHUNK], scratch)
        times = grid
    return Trajectory(times=np.array(times), states=states, events=events)


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
