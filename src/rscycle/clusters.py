"""Grouping diagnostics: gaps, delta-chains and histogram cluster counts."""

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List, Optional

import numpy as np

from .model import Population, RegionParams, _check_count, _check_number

# decision: library policy.  A histogram has at most 10**6 bins, counts of
# 8 MB; 10**9 raised MemoryError.  The CLI's bins cap, 2400, is its own.
_MAX_BINS = 10 ** 6


def _sorted_gaps(phases: np.ndarray):
    """Stable phase order and the gap from each sorted cell forward to the
    next; the last gap wraps around the circle.  When all cells coincide
    (a lone cell included) that wrap gap is the full turn, so the widths
    always sum to 1."""
    order = np.argsort(phases, kind="stable")
    x = phases[order]
    widths = (np.roll(x, -1) - x) % 1.0
    if np.all(phases == phases[0]):
        widths[-1] = 1.0
    return order, widths


@dataclass
class Group:
    indices: List[int]          # member cells in cyclic order
    width: float                # arc from first to last member
    isolated: bool              # both adjacent gaps >= |R|+|S|
    strictly_isolated: bool     # both adjacent gaps > |R|+|S|


@dataclass
class ClusterDecomposition:
    groups: List[Group]
    separating_gaps: List[float]
    delta: float


def default_merge_delta(rp: RegionParams) -> float:
    return min(0.5 * rp.interaction_length, 0.02)


def decompose(pop: Population, rp: RegionParams, delta: Optional[float] = None) -> ClusterDecomposition:
    """Split the population into maximal chains whose consecutive gaps stay
    below delta.

    Groups are reported in cyclic order together with the gaps separating
    them; group widths plus separating gaps add up to 1.  If every gap is
    below delta the whole population is one group, broken at the largest
    gap so the width stays well defined.
    """
    if delta is None:
        delta = default_merge_delta(rp)
    _check_number("merge delta", delta, gt=0.0, lt=rp.interaction_length)  # (0, |R|+|S|)
    order, widths = _sorted_gaps(pop.phases)
    m = order.size

    breaks = np.nonzero(widths >= delta)[0]
    if breaks.size == 0:
        breaks = np.array([int(np.argmax(widths))])
    order, widths, breaks = order.tolist(), widths.tolist(), breaks.tolist()

    bound = rp.interaction_length
    groups: List[Group] = []
    seps: List[float] = []
    k = len(breaks)
    for j in range(k):
        start = (breaks[j] + 1) % m
        stop = breaks[(j + 1) % k]          # inclusive; the next break gap follows it
        if start <= stop:
            members, inner = order[start:stop + 1], widths[start:stop]
        else:
            members, inner = order[start:] + order[:stop + 1], widths[start:] + widths[:stop]
        # left to right, as floats: sum() compensates its float additions from Python 3.12
        width = reduce(add, inner, 0.0)
        gap_before = widths[breaks[j]]
        gap_after = widths[stop]
        groups.append(
            Group(
                indices=members,
                width=width,
                isolated=gap_before >= bound and gap_after >= bound,
                strictly_isolated=gap_before > bound and gap_after > bound,
            )
        )
        seps.append(gap_after)
    return ClusterDecomposition(groups=groups, separating_gaps=seps, delta=delta)


def count_clusters_histogram(pop: Population, bins: int = 120,
                             occupancy_threshold: float = 2.0) -> int:
    """Histogram-based cluster count.

    Bins the phases, marks bins whose cell count exceeds occupancy_threshold
    times the uniform expectation n / bins, and returns the number of cyclic
    runs of marked bins.  Returns 0 if nothing is marked or if more than half
    of all bins are marked (no discernible clusters).
    """
    _check_count("bins", bins, 2, _MAX_BINS, "bins")
    _check_number("occupancy threshold", occupancy_threshold, gt=0.0)
    idx = np.minimum((pop.phases * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    marked = counts > occupancy_threshold * (len(pop) / bins)
    n_marked = int(marked.sum())
    if n_marked == 0 or n_marked > bins // 2:
        return 0
    # cyclic runs of marked bins
    transitions = np.sum(marked & ~np.roll(marked, 1))
    return int(transitions)
