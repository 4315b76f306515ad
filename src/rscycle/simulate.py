"""Time evolution of a population on the circle.

Two engines are provided.  The exact engine exploits the fact that the
vector field is piecewise constant between boundary crossings: each cell
moves at a fixed speed until some cell reaches s, r, or 1, so the flow can
be integrated event to event without discretization error.  The stochastic
engine is a plain Euler-Maruyama discretization with wrapped additive
noise, used for the cluster-count experiments.

A cell that reaches 1 wraps to exactly 0 and is in S from that instant.
Simultaneous boundary hits (within TIE_TOL of the earliest) are processed
as one batch and the signaling fraction is recomputed once afterwards.
The exact engine samples by one rule: the state at a time is the last
post-batch state moved along the frozen speeds, so a sample at a batch
time is the post-batch state and every sampled phase lies in [0, 1).

The exact engine and the section map `returnmap.advance_to_section` share
one event step, `_next_crossing`; its speed law `_speeds` also drives the
stochastic engine.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import (
    TIE_TOL,
    FeedbackSpec,
    Population,
    RegionParams,
    ValidationError,
    wrap01,
)


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
    weights: np.ndarray
    events: List[EventRecord] = field(default_factory=list)
    seed: Optional[int] = None

    def final_population(self) -> Population:
        return Population(wrap01(self.states[-1]), self.weights.copy())


def _speeds(pos, w, total, rp: RegionParams, fs: FeedbackSpec) -> np.ndarray:
    """The speed law: 1 + f(I) in R and 1 elsewhere, I the weighted share in S."""
    I = float(w[pos < rp.s].sum() / total)
    fI = fs(I) if I > 0.0 else 0.0
    return np.where(pos >= rp.r, 1.0 + fI, 1.0)


class _Crossing(NamedTuple):
    """The next boundary crossing of the frozen field, with per-cell data."""

    dt: float             # time to the earliest crossing
    batch: np.ndarray     # cells that hit within TIE_TOL of dt
    speeds: np.ndarray
    code: np.ndarray      # boundary ahead: 0 is s, 1 is r, 2 is 1
    dist: np.ndarray      # distance to that boundary
    tt: np.ndarray        # time to that boundary


def _next_crossing(pos, w, total, rp: RegionParams, fs: FeedbackSpec) -> _Crossing:
    """One event step of the flow from phases pos in [0, 1)."""
    speeds = _speeds(pos, w, total, rp, fs)
    in_s = pos < rp.s
    mid = (pos >= rp.s) & (pos < rp.r)
    dist = np.where(in_s, rp.s - pos, np.where(mid, rp.r - pos, 1.0 - pos))
    code = np.where(in_s, 0, np.where(mid, 1, 2))
    tt = dist / speeds
    dt = float(tt.min())
    if dt <= 0.0:
        raise SimulationError("non-positive time to next boundary; a cell sits past it")
    return _Crossing(dt, tt <= dt + TIE_TOL, speeds, code, dist, tt)


def _snap(pos: np.ndarray, c: _Crossing, rp: RegionParams, end: float) -> None:
    """Place every batch member exactly on its boundary; one reaching 1 goes to end."""
    pos[c.batch & (c.code == 0)] = rp.s
    pos[c.batch & (c.code == 1)] = rp.r
    pos[c.batch & (c.code == 2)] = end


_KIND_OF_CODE = tuple(EventKind)  # indexed by _Crossing.code


def cell_speeds(pop: Population, rp: RegionParams, fs: FeedbackSpec) -> np.ndarray:
    """Instantaneous speed of every cell: 1 + f(I) inside R when someone is
    signaling, 1 everywhere else."""
    return _speeds(pop.phases, pop.weights, pop.total_weight, rp, fs)


def next_event(pop: Population, rp: RegionParams, fs: FeedbackSpec):
    """Time to the next boundary crossing and the cells that share it.

    Returns (dt_star, hits) where hits is a list of (cell_index, EventKind)
    covering every cell whose crossing time is within TIE_TOL of the
    earliest one.
    """
    c = _next_crossing(pop.phases, pop.weights, pop.total_weight, rp, fs)
    return c.dt, [(int(i), _KIND_OF_CODE[c.code[i]]) for i in np.nonzero(c.batch)[0]]


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
    state, and every sampled phase lies in [0, 1).

    Raises SimulationError if the event count exceeds max_events, which
    flags parameter sets whose event cadence explodes.
    """
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    pos = pop.phases.copy()
    w = pop.weights.copy()
    total = w.sum()

    # unwrapped coordinate, used to assert that cells never overtake
    lift = pos.copy()
    order = np.argsort(pos, kind="stable")

    if isinstance(sample, str):
        if sample not in ("events", "endpoints"):
            raise ValidationError(f"unknown sample mode {sample!r}")
        grid = None if sample == "events" else np.array([duration])
    else:
        grid = np.asarray(sample, dtype=float)
        ascending = grid.size > 0 and np.all(np.diff(grid) >= 0)
        if not (ascending and grid[0] >= 0 and grid[-1] <= duration + TIE_TOL):
            raise ValidationError("sample times must be nonempty and ascend within [0, duration]")

    times: List[float] = []
    states: List[np.ndarray] = []
    events: List[EventRecord] = []
    pending = 0  # index of the first grid time not yet sampled
    t = 0.0

    def record(t_next, speeds):
        # the one sample rule, at each stop t of the loop (see the docstring)
        nonlocal pending
        if grid is None:
            times.append(t)
            states.append(pos.copy())
            return
        while pending < grid.size and grid[pending] < t_next:
            times.append(float(grid[pending]))
            states.append(wrap01(pos + speeds * (grid[pending] - t)))
            pending += 1

    while t < duration * (1.0 - 1e-15):
        c = _next_crossing(pos, w, total, rp, fs)
        record(min(t + c.dt, duration), c.speeds)
        if t + c.dt > duration:
            pos = wrap01(pos + c.speeds * (duration - t))
            break

        lift = np.where(c.batch, lift + c.dist, lift + c.speeds * c.dt)
        pos = pos + c.speeds * c.dt
        _snap(pos, c, rp, 0.0)
        t += c.dt

        for i in np.nonzero(c.batch)[0]:
            events.append(EventRecord(t, _KIND_OF_CODE[c.code[i]], int(i)))
        if len(events) > max_events:
            raise SimulationError(
                f"event count exceeded {max_events} (s={rp.s}, r={rp.r}, "
                f"feedback={fs.kind}, n={pos.size}); aborting runaway run"
            )

        sorted_lift = lift[order]
        if np.any(np.diff(sorted_lift) < -1e-9) or sorted_lift[-1] - sorted_lift[0] > 1.0 + 1e-9:
            raise SimulationError("cyclic order violated; integration bug")

    t = duration  # the last stop; a batch within 1e-15 * duration of it counts as on it
    record(np.inf, 0.0)

    return Trajectory(
        times=np.array(times),
        states=np.vstack(states),
        weights=w,
        events=events,
    )


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
    rng = np.random.default_rng(seed)
    pos = pop.phases.copy()
    w = pop.weights.copy()
    total = w.sum()
    n = pos.size
    steps = int(round(duration / noise.dt))

    times = [0.0]
    states = [pos.copy()]
    for k in range(1, steps + 1):
        speeds = _speeds(pos, w, total, rp, fs)
        pos = wrap01(pos + speeds * noise.dt + noise.sigma * rng.standard_normal(n))
        if k % sample_every == 0 or k == steps:
            times.append(k * noise.dt)
            states.append(pos.copy())

    return Trajectory(
        times=np.array(times),
        states=np.vstack(states),
        weights=w,
        events=[],
        seed=seed,
    )
