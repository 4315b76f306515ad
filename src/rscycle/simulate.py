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
is bit for bit that of the row run alone.  It yields (step, block) at each
sample and keeps none: the cluster-count sweep of the CLI keeps the last,
and `_sde_run`, the P = 1 run, copies the samples into one reused block of
2 MB, its stream of (times, block).

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
stops at the horizon, after a stop or crossing budget or, for the section
map, after the first batch in which a cell reaches 1, and returns its stops
as a log of (t, tau, batch).  `_Flow` takes its cells and its speed law as
lists of Python floats, the speeds indexed by the count in S:
`simulate_exact` builds the list from `_speed_table` once per run, and
`_section_run` takes the list from its caller.  It reads the cells back as
a list (`phase_list`), so a replay of a few clusters does no numpy work per
call.
Replays of many points (the cyclic certificates, the return map's
agreement column) go through `returnmap._section_runs` instead: the same
stops in one lockstep numpy loop over all points, bit for bit `_section_run`
row by row.

`_exact_run` runs the loop to the horizon in runs that end after the stop
that reaches `_SLICE` crossings (a stop may batch up to n), and keeps each
run's log only as one `_Slice` of compact arrays: each row's clocks t and
tau and batch size, and each crossing's cell and code, in cell order within
a row, as events.csv has them; 20 bytes a stop and 5 a crossing: the run's
one event log, which `_event_arrays` flattens for the Trajectory and events.csv.
A crossing's code fixes the cell's new entry phase, entry clock and
region, as `_Flow.run` sets them.  `_event_state_blocks` builds the states
slice by slice in blocks of `_CHUNK` rows, into one reused buffer, and
yields each block with its times as it is done: every cell's row is entry +
(clock[region] - since) from the per-cell state at the block's first row,
and then only the columns of the cells that cross inside the block are
rebuilt, each row from the cell's latest crossing at or before it.  In
"endpoints" mode the build has one row, the horizon's clocks, and no batch,
and starts from the flow's per-cell state after the run.  Every block is
wrapped in place.

So each engine gives one stream of (times, block), and two readers take
it: `_stack` copies it into the (K, n) array that `simulate_exact` and
`simulate_sde` return, and `rscycle simulate` writes events.csv from the
arrays and then each block of the stream before it asks for the next, so
it holds neither the K x n states nor a Python object per event.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import List, NamedTuple, Optional

import numpy as np

from .model import (TIE_TOL, FeedbackSpec, Population, RegionParams, ValidationError,
                    _check_count, _check_number, wrap01)

# decision: library policy, which the CLI shares.  A stochastic run takes at
# most 10**7 steps, 1000 times the 10**4 of a --paper-scale sweep point; a
# count past it is a typo or an overflow: duration 1e308 gives an infinite
# count, and dt 1e-300 a run that never ends.
_MAX_STEPS = 10 ** 7
# decision: library policy, which the CLI shares.  An exact run makes at most
# 10**7 crossings unless its caller sets max_events; the default simulate
# makes ~6 * 10**3.
_MAX_EVENTS = 10_000_000


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
        # decision: sigma is the per-step displacement std in cycles, and
        # the tests use at most 0.05.  A std above 1 moves a cell by laps
        # per step, and 1e308 filled a trajectory with nan.
        _check_number("sigma", self.sigma, ge=0.0, le=1.0)
        _check_number("dt", self.dt, gt=0.0, le=0.1)  # at least 10 steps per cycle


@dataclass
class Trajectory:
    """Sampled states of a run: times[i] pairs with states[i] (one row of
    phases per sample), and the exact engine's crossings in events.csv's
    order (event_codes index EventKind; empty for the stochastic engine)."""

    times: np.ndarray
    states: np.ndarray
    event_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    event_cells: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    event_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))

    @property
    def events(self) -> List[EventRecord]:
        """The crossings as a new list of EventRecord, built from the arrays."""
        kinds = map(_KIND_OF_CODE.__getitem__, self.event_codes.tolist())
        rows = zip(self.event_times.tolist(), kinds, self.event_cells.tolist())
        return list(map(EventRecord._make, rows))

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

    def run(self, horizon=math.inf, max_events=math.inf, max_stops=math.inf,
            max_crossings=math.inf, to_section=False):
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
        max_stops stops, after the stop in which its crossings reach
        max_crossings or, if to_section, after the first stop in which a
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
        log, offset, stops, cut = [], None, 0, events + max_crossings
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
            if stops >= max_stops or events >= cut or (to_section and wrapped):
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
_CHUNK = 64  # rows per block of _event_state_blocks
# crossings per run of _Flow.run in _exact_run: a run ends after the stop
# that reaches them, so its log holds fewer than _SLICE + n crossings
_SLICE = 1024


class _Slice(NamedTuple):
    """Rows of an exact run in compact arrays, 20 bytes a row and 5 a
    crossing: each row's clocks t and tau and the size of its batch, and
    each crossing's cell and code, by row and within a row by cell, the
    order of events.csv.  A row of a log is a stop; the start of a run and
    a horizon between stops are rows of no crossing."""

    t: np.ndarray
    tau: np.ndarray
    sizes: np.ndarray
    cells: np.ndarray
    codes: np.ndarray


def _row_slice(t: float, tau: float) -> _Slice:
    """One row of clocks with no crossing."""
    return _Slice(np.array([t]), np.array([tau]), np.zeros(1, np.int32), np.empty(0, np.int32),
                  np.empty(0, np.int8))


def _log_slice(log, n: int) -> _Slice:
    """The compact arrays of a log of `_Flow.run` over n cells."""
    rows, batches = len(log), list(map(itemgetter(2), log))
    sizes = np.fromiter(map(len, batches), np.int32, rows)
    members = list(chain.from_iterable(batches))
    cells = np.fromiter(map(itemgetter(1), members), np.int32, len(members))
    codes = np.fromiter(map(itemgetter(2), members), np.int8, len(members))
    if len(members) > rows:  # a batch of several crossings: put each in cell order
        order = np.argsort(np.repeat(np.arange(rows), sizes) * n + cells)
        cells, codes = cells[order], codes[order]
    return _Slice(np.fromiter(map(itemgetter(0), log), float, rows),
                  np.fromiter(map(itemgetter(1), log), float, rows), sizes, cells, codes)


class _Run(NamedTuple):
    """One exact run before its states are built: the horizon, the rows in
    slices of compact arrays, start, each cell's entry phase, entry clock
    and region at the first row, starts, the entry phase of each crossing
    code (`_Flow.starts`), and events, the slices of its crossings."""

    duration: float
    slices: List[_Slice]
    start: tuple
    starts: tuple
    events: List[_Slice]

    @property
    def rows(self) -> int:
        return sum(len(piece.t) for piece in self.slices)


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


def _event_state_blocks(run: _Run):
    """Build the state at each row of run, slice by slice and _CHUNK rows
    at a time, into one buffer of min(K, _CHUNK) rows, and yield each block
    as (its times, view of the buffer) once it is built; the next block
    overwrites it.  A row's time is its clock t, and the last row's the
    horizon.

    The build advances copies of run.start in place.  A crossing of code c
    moves its cell to region (c + 1) % 3 with entry phase run.starts[c], at
    that region's clock of its row, as `_Flow.run` does.
    """
    K = run.rows
    entry, since, region = (a.copy() for a in run.start)
    n = len(entry)
    out, scratch = np.empty((min(K, _CHUNK), n)), np.empty((min(K, _CHUNK), n))
    starts, row = np.array(run.starts), 0
    column = np.empty(n, np.intp)
    for piece in run.slices:
        clocks = np.column_stack((piece.t, piece.t, piece.tau))
        stops = np.repeat(np.arange(len(clocks)), piece.sizes)
        cells, new_region = piece.cells, (piece.codes + 1) % 3
        new_entry = starts[piece.codes]
        new_since = clocks[stops, np.where(new_region == 2, 2, 0)]
        bounds = np.searchsorted(stops, np.arange(0, len(clocks) + _CHUNK, _CHUNK)).tolist()
        for first in range(0, len(clocks), _CHUNK):
            rows = clocks[first:first + _CHUNK]
            block = out[:len(rows)]
            _fill(block, rows, entry, since, region)
            lo, hi = bounds[first // _CHUNK], bounds[first // _CHUNK + 1]
            if lo < hi:
                # the crossing cells' columns: row k takes the cell's latest
                # crossing at or before it (index m + j for crossing j of the
                # block), else its state at the block's first row (index < m).
                # A cell crosses at most once a row, so no index is written twice.
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
            row += len(rows)
            times = piece.t[first:first + _CHUNK]
            if row == K:
                times = np.append(times[:-1], run.duration)
            yield times, block


def _stack(K: int, n: int, blocks):
    """The times and states of a stream of (times, block) blocks of n cells,
    K rows in all, copied in order into one (K,) and one (K, n) array."""
    times, states, first = np.empty(K), np.empty((K, n)), 0
    for t, block in blocks:
        times[first:first + len(t)], states[first:first + len(t)] = t, block
        first += len(t)
    return times, states


def _event_arrays(slices):
    """The (times, cells, codes) of the crossings of slices, in events.csv's order."""
    return (np.repeat(np.concatenate([piece.t for piece in slices]),
                      np.concatenate([piece.sizes for piece in slices])),
            np.concatenate([piece.cells for piece in slices]),
            np.concatenate([piece.codes for piece in slices]))


def _check_horizon(duration, rp: RegionParams, speeds, max_events=_MAX_EVENTS,
                   name: str = "duration") -> None:
    """The exact horizon rule: refuse a duration that is not finite and > 0,
    or whose lower bound on the event count exceeds max_events.

    speeds is the speed table of n cells (`_speed_table`).  A cell moves at
    1 outside R and at no less than v_lo, the table's smallest entry, in R,
    so it makes each full lap, and the lap's three crossings, within lap_max
    = r + (1 - r) / v_lo.  So the n cells make at least 3 n floor(duration /
    lap_max) crossings, and a run refused here would have exceeded its
    budget; the quotient is cut by 1e-12 of itself, more than its rounding.
    """
    _check_number(name, duration, gt=0.0)
    lap_max = rp.r + (1.0 - rp.r) / float(np.min(speeds))
    laps = np.floor(float(duration) / lap_max * (1.0 - 1e-12))  # may be inf, with no warning
    least = 3 * (len(speeds) - 1) * float(laps)
    if least > max_events:
        raise ValidationError(f"{name} = {float(duration)!r} makes at least {least:.6g} crossings, "
                              f"above the budget of {max_events} events per run")


def _exact_run(pop: Population, rp: RegionParams, fs: FeedbackSpec, duration: float,
               sample: str = "events", max_events: int = _MAX_EVENTS) -> _Run:
    """The run of `simulate_exact`, with its states left to build.

    The horizon is checked by `_check_horizon` before any work.  The
    kernel's loop, `_Flow.run`, goes to the horizon in runs of about _SLICE
    crossings, and each run's log is kept only as one slice of compact
    arrays, which are also the rows in "events" mode.  In "endpoints" mode
    the one row is the horizon, built from the flow after the run.
    """
    _check_count("max_events", max_events, 0)
    speeds = _speed_table(fs, len(pop))
    _check_horizon(duration, rp, speeds, max_events)
    # isinstance first: an array in a tuple raises an ambiguous-truth ValueError
    if not (isinstance(sample, str) and sample in ("events", "endpoints")):
        raise ValidationError(f'sample must be "events" or "endpoints", got {sample!r} '
                              "(the list form of sample times was removed)")

    flow = _Flow(pop.phases.tolist(), rp, speeds.tolist())
    start = flow.arrays() if sample == "events" else None
    slices, offset = [_row_slice(0.0, 0.0)], None
    while offset is None:
        log, offset = flow.run(duration, max_events=max_events, max_crossings=_SLICE)
        if log:
            slices.append(_log_slice(log, len(pop)))
    # the horizon's clocks: the last stop's moved by offset, 0.0 if the stop is on the horizon
    t, tau = flow.t + offset, flow.tau + flow.v * offset
    if sample == "endpoints":
        return _Run(duration, [_row_slice(t, tau)], flow.arrays(), flow.starts, slices)
    if offset:  # else the last stop is on the horizon and is its row
        slices.append(_row_slice(t, tau))
    return _Run(duration, slices, start, flow.starts, slices)


def simulate_exact(
    pop: Population,
    rp: RegionParams,
    fs: FeedbackSpec,
    duration: float,
    sample: str = "events",
    max_events: int = _MAX_EVENTS,
) -> Trajectory:
    """Integrate the piecewise-constant flow exactly for the given duration.

    sample is "events" (t = 0, after every batch, and the horizon) or
    "endpoints" (the horizon alone).  The horizon is one more boundary: a
    batch within TIE_TOL of duration, on either side, is the last stop.
    Its events keep their own times, and its post-batch state is sampled
    at duration; else the horizon row is the last stop's state moved along
    the frozen speeds.

    The run is `_exact_run`'s.  Its slices give the event arrays, with no
    Python object per event, and the states, each block copied into one
    (K, n) array.

    Raises ValidationError, before any work, for a max_events that is not
    an integer >= 0, a duration that is not finite and > 0 or whose lower
    bound on the event count already exceeds max_events (`_check_horizon`),
    and SimulationError if the event count
    exceeds max_events, which flags parameter sets whose event cadence
    explodes.
    """
    run = _exact_run(pop, rp, fs, duration, sample, max_events)
    times, states = _stack(run.rows, len(pop), _event_state_blocks(run))
    return Trajectory(times, states, *_event_arrays(run.events))


def _sde_steps(duration, dt, name: str = "duration") -> int:
    """The step rule: the Euler-Maruyama step count of a horizon, duration /
    dt to the nearest integer, refused (ValidationError) unless it lies in
    [1, _MAX_STEPS]."""
    steps = float(duration) / dt  # may be inf, with no warning
    if not steps <= _MAX_STEPS:  # also refuses inf and nan
        raise ValidationError(f"{name} / dt = {steps:.6g} steps lies above the cap of "
                              f"{_MAX_STEPS} steps per run")
    count = round(steps) if steps > 0.0 else 0  # -inf may not reach round
    if count < 1:
        raise ValidationError(f"{name} / dt = {steps:.6g} rounds to less than one step")
    return count


def _em_block(pos: np.ndarray, s, r, fs: FeedbackSpec, noise: NoiseSpec, steps: int,
              rngs, sample_every: int):
    """Euler-Maruyama on a block of P independent runs sharing fs and noise.

    pos is a (P, n) array of phases.  Row p has its own region bounds s[p],
    r[p] and its own generator rngs[p], which draws one standard_normal(n)
    per step, so each row's stream is that of a run on its own.  Each step
    the speeds are frozen at the row's count j in S: a cell in R moves by
    (1 + f(j/n)) dt, any other by dt; then the sigma-scaled normals are
    added and the row is wrapped.  Yields (k, block) at step k = 0, every
    multiple of sample_every and steps, a count of `_sde_steps`; each
    block is pos itself (k = 0) or a new array, and the stepper never
    writes into a block it has yielded.
    """
    dt = noise.dt
    s, r = np.asarray(s, dtype=float)[:, None], np.asarray(r, dtype=float)[:, None]
    r_steps = _speed_table(fs, pos.shape[1]) * dt  # entry j: the R step while j cells are in S
    normals = np.empty_like(pos)
    yield 0, pos
    for k in range(1, steps + 1):
        for row, rng in zip(normals, rngs):
            rng.standard_normal(out=row)
        pos = pos + np.where(pos >= r, r_steps[np.count_nonzero(pos < s, axis=1)][:, None], dt)
        pos += noise.sigma * normals
        pos = wrap01(pos)
        if k % sample_every == 0 or k == steps:
            yield k, pos


def _sde_run(pop: Population, rp: RegionParams, fs: FeedbackSpec, noise: NoiseSpec,
             duration: float, seed=None, sample_every: int = 1):
    """The run of `simulate_sde` as a stream, its arguments checked first:
    (K, an iterator of (times, block)), K the sample count and each block
    the next samples of `_em_block` with their times k dt, in blocks of
    `_sample_blocks`, each a view of one buffer that the next overwrites."""
    _check_number("duration", duration, gt=0.0)
    _check_count("sample_every", sample_every, 1)
    if not (seed is None or isinstance(seed, (np.random.Generator, np.random.SeedSequence))):
        _check_count("seed", seed, 0)
    steps = _sde_steps(duration, noise.dt)
    K = -(-steps // sample_every) + 1  # step 0, every sample_every-th and the last
    samples = _em_block(pop.phases[None, :], [rp.s], [rp.r], fs, noise, steps,
                        [np.random.default_rng(seed)], sample_every)
    rows = min(K, max(1, _SAMPLE_BLOCK // len(pop)))
    return K, _sample_blocks(samples, noise.dt, rows, len(pop))


_SAMPLE_BLOCK = 1 << 18  # values per block of _sample_blocks: 2 MB of float64


def _sample_blocks(samples, dt, rows, n):
    """The (k, (1, n) block) samples of `_em_block` as (times k dt, block)
    blocks of rows samples, the rest last, in one buffer the next overwrites."""
    steps, block, i = np.empty(rows), np.empty((rows, n)), 0
    for k, sample in samples:
        steps[i], block[i] = k, sample[0]
        i += 1
        if i == rows:
            yield steps * dt, block
            i = 0
    if i:
        yield steps[:i] * dt, block[:i]


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
    result is wrapped mod 1.  Reproducible for a fixed seed.  The samples
    are stacked, block by block as they come, into one (K, n) array.

    Raises ValidationError for a duration that is not finite and > 0, a
    step count of `_sde_steps` below 1 or above _MAX_STEPS, a sample_every
    that is not an integer >= 1, or a seed number that is not an integer
    >= 0.
    """
    K, blocks = _sde_run(pop, rp, fs, noise, duration, seed, sample_every)
    times, states = _stack(K, len(pop), blocks)
    return Trajectory(times=times, states=states)
