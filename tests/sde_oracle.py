"""Reference Euler-Maruyama engine for differential tests of `simulate._em_block`.

This is the stepper the stochastic engine and the cluster-count sweep used
before the block stepper: one run at a time, the speed law evaluated with
numpy every step, and the wrap written as `% 1.0`.  Each sweep point is one
such run with its own generator.
"""

import numpy as np

from exact_oracle import speed_law
from rscycle.clusters import count_clusters_histogram
from rscycle.model import FeedbackSpec, Population, RegionParams, max_isolated_clusters
from rscycle.simulate import NoiseSpec


def wrap(x):
    y = x % 1.0
    y[y == 1.0] = 0.0
    return y


def simulate_sde(pop, rp, fs, noise, duration, seed=None, sample_every=1):
    """(times, states) of one run, sampled at step 0, every multiple of
    sample_every, and the last step."""
    rng = np.random.default_rng(seed)
    pos = pop.phases.copy()
    n = pos.size
    steps = int(round(duration / noise.dt))
    times, states = [0.0], [pos.copy()]
    for k in range(1, steps + 1):
        v = speed_law(pos, rp, fs)
        pos = wrap(pos + v * noise.dt + noise.sigma * rng.standard_normal(n))
        if k % sample_every == 0 or k == steps:
            times.append(k * noise.dt)
            states.append(pos.copy())
    return np.array(times), np.vstack(states)


def sweep_point(index, value, cfg, seed):
    """The final phases and the sweep.csv row (value, M, N, verdict) of one point."""
    w = 1.0 / value
    rp = RegionParams(s=w / 2.0, r=1.0 - w / 2.0)
    rng = np.random.default_rng([seed, index])
    pop = Population(rng.random(int(cfg["n"])))
    steps = int(round(cfg["cycles"] / cfg["dt"]))
    _, states = simulate_sde(pop, rp, FeedbackSpec.linear(cfg["gamma"]),
                             NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"]),
                             float(cfg["cycles"]), seed=rng, sample_every=steps)
    M = max_isolated_clusters(rp)
    N = count_clusters_histogram(Population(states[-1]), bins=int(cfg["bins"]),
                                 occupancy_threshold=cfg["occupancy_threshold"])
    verdict = "none" if N == 0 else "le_M" if N <= M else "ge_M_plus_1"
    return states[-1], (value, M, N, verdict)


def sweep_csv(cfg, seed):
    """The bytes of sweep.csv for a sweep-fig4 config, point by point."""
    points = int(cfg["points"])
    values = np.linspace(cfg["lo"], cfg["hi"], points + 1)[1:]
    lines = ["sweep_value,M,N,verdict"]
    for i, value in enumerate(values):
        lines.append("%.17g,%d,%d,%s" % sweep_point(i, float(value), cfg, seed)[1])
    return ("\n".join(lines) + "\n").encode()
