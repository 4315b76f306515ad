import numpy as np
import pytest

from rscycle.clusters import (
    count_clusters_histogram,
    decompose,
    default_merge_delta,
)
from rscycle.model import FeedbackSpec, Population, RegionParams, ValidationError
from rscycle.simulate import simulate_exact

RP = RegionParams(s=0.25, r=0.75)


def test_gap_widths_sum_to_one():
    # group widths plus separating gaps go once around the circle
    rng = np.random.default_rng(3)
    pops = [Population(rng.random(rng.integers(2, 41))) for _ in range(10)]
    pops += [Population(np.full(n, 0.3)) for n in (2, 17, 40)]  # all cells at one phase
    for pop in pops:
        dec = decompose(pop, RP)
        total = sum(g.width for g in dec.groups) + sum(dec.separating_gaps)
        assert total == pytest.approx(1.0)


def test_decompose_two_tight_groups():
    # two groups of three, half a circle apart, internal spread 0.004
    base = np.array([0.0, 0.002, 0.004])
    pop = Population(np.concatenate([0.1 + base, 0.6 + base]))
    dec = decompose(pop, RP)
    assert len(dec.groups) == 2
    for g in dec.groups:
        assert g.width == pytest.approx(0.004)
        assert len(g.indices) == 3
        # separating gaps are 0.496 < 0.5 = |R|+|S|, so not isolated
        assert not g.isolated
    assert sorted(len(g.indices) for g in dec.groups) == [3, 3]


def test_decompose_isolation_flags():
    rp = RegionParams(s=0.1, r=0.9)   # interaction length 0.2
    pop = Population(np.array([0.0, 0.01, 0.5, 0.51]))
    dec = decompose(pop, rp)
    assert len(dec.groups) == 2
    assert all(g.isolated and g.strictly_isolated for g in dec.groups)


def test_decompose_boundary_gap_is_isolated_but_not_strictly():
    # binary-exact geometry: |S| = |R| = 0.125, every gap exactly 0.25
    rp = RegionParams(s=0.125, r=0.875)
    pop = Population(np.array([0.0, 0.25, 0.5, 0.75]))
    dec = decompose(pop, rp, delta=0.1)
    assert len(dec.groups) == 4
    assert all(g.isolated for g in dec.groups)
    assert not any(g.strictly_isolated for g in dec.groups)


def test_decompose_single_blob_wraps():
    # group straddling the wrap point stays one group
    pop = Population(np.array([0.99, 0.995, 0.005, 0.01]))
    dec = decompose(pop, RP)
    assert len(dec.groups) == 1
    assert dec.groups[0].width == pytest.approx(0.02)
    assert len(dec.groups[0].indices) == 4


def test_decompose_rejects_bad_delta():
    pop = Population(np.array([0.1, 0.6]))
    with pytest.raises(ValidationError):
        decompose(pop, RP, delta=0.0)
    with pytest.raises(ValidationError):
        decompose(pop, RP, delta=0.6)


def test_default_merge_delta_capped():
    assert default_merge_delta(RP) == pytest.approx(0.02)
    tight = RegionParams(s=0.005, r=0.995)
    assert default_merge_delta(tight) == pytest.approx(0.005)


def test_histogram_count_frozen():
    # three tight groups of 40 cells in 120 bins; empty bins stay below
    # any positive threshold
    rng = np.random.default_rng(11)
    centers = [0.1, 0.45, 0.8]
    phases = np.concatenate([c + 0.001 * rng.random(40) for c in centers])
    pop = Population(phases)
    assert count_clusters_histogram(pop) == 3


def test_histogram_rotation_invariance_on_bin_multiples():
    rng = np.random.default_rng(2)
    phases = np.concatenate([0.2 + 0.002 * rng.random(50), 0.7 + 0.002 * rng.random(50)])
    pop = Population(phases)
    bins = 120
    base = count_clusters_histogram(pop, bins=bins)
    for shift_bins in (1, 7, 60, 119):
        shifted = Population((phases + shift_bins / bins) % 1.0)
        assert count_clusters_histogram(shifted, bins=bins) == base


def test_histogram_uniform_spread_counts_zero():
    # with cells everywhere more than half the bins are occupied above
    # threshold 1, which reads as "no clusters"
    pop = Population(np.arange(2400) / 2400.0)
    assert count_clusters_histogram(pop, occupancy_threshold=1.0) == 0


def test_histogram_nothing_above_threshold_counts_zero():
    pop = Population(np.arange(120) / 120.0)
    # one cell per bin, threshold 2x the mean occupancy
    assert count_clusters_histogram(pop) == 0


def test_histogram_wraparound_run_counts_once():
    rng = np.random.default_rng(6)
    phases = (0.999 + 0.002 * rng.random(80)) % 1.0
    assert count_clusters_histogram(Population(phases)) == 1


def test_histogram_validation():
    pop = Population(np.array([0.1]))
    with pytest.raises(ValidationError):
        count_clusters_histogram(pop, bins=1)
    with pytest.raises(ValidationError):
        count_clusters_histogram(pop, occupancy_threshold=0.0)


def _lead_to_tail(traj, members):
    """Width of a group given tail to lead, and its internal gaps, at every sample."""
    x = traj.states[:, members]
    return (x[:, -1] - x[:, 0]) % 1.0, np.diff(x, axis=1) % 1.0


def test_isolated_group_contracts_under_positive_feedback():
    # positive feedback squeezes an isolated group while it holds together
    rp = RegionParams(s=0.2, r=0.6)
    fs = FeedbackSpec.linear(0.8)
    phases = np.array([0.62, 0.7, 0.78])
    traj = simulate_exact(Population(phases), rp, fs, 5.0)
    widths, internal = _lead_to_tail(traj, [0, 1, 2])
    assert internal.max() < rp.interaction_length
    assert widths[0] == pytest.approx(0.16)
    assert widths[-1] < widths[0]


def test_spreading_pair_stalls_below_interaction_length():
    # a pair under negative feedback spreads until interaction ceases; the
    # width climbs to just below |R|+|S| and the pair never comes apart
    rp = RegionParams(s=0.1, r=0.9)
    fs = FeedbackSpec.linear(-0.6)
    traj = simulate_exact(Population(np.array([0.0, 0.05])), rp, fs, 15.0)
    widths, internal = _lead_to_tail(traj, [0, 1])
    assert internal.max() < rp.interaction_length
    assert widths[-1] > 0.19
    assert widths[-1] < rp.interaction_length
