"""Cycling populations with region-triggered feedback.

Phase oscillators on the unit circle speed up or slow down inside a
"response" arc according to how much of the population currently sits in a
"signaling" arc.  The package provides an exact event-driven integrator, a
stochastic one, cluster diagnostics, the two-cluster return map in closed
form, existence and stability certificates for evenly spaced cyclic
solutions, and the steady profile of the continuum transport equation.
"""

__version__ = "0.1.0"

from .model import (
    CertificateError,
    FeedbackSpec,
    Population,
    RegionParams,
    ValidationError,
    max_isolated_clusters,
)
from .simulate import (
    EventKind,
    EventRecord,
    NoiseSpec,
    SimulationError,
    Trajectory,
    simulate_exact,
    simulate_sde,
)
from .clusters import (
    ClusterDecomposition,
    Group,
    count_clusters_histogram,
    decompose,
    default_merge_delta,
)
from .returnmap import (
    FixedPoint,
    FixedPointReport,
    PiecewiseAffineMap,
    advance_to_section,
    analytic_F_k2,
    as_piecewise,
    classify_k2,
    compose,
    fixed_points,
    numeric_F,
)
from .cyclic import (
    Case,
    CyclicSolution,
    SpectrumReport,
    build_A,
    classify_case,
    cyclic_solution,
    cyclic_spacing,
    saturating_feedback,
    spectrum,
    verify_root_requirement,
)
from .pde import SteadyProfile, flux_residual, mass, steady_profile

__all__ = [
    "CertificateError",
    "FeedbackSpec",
    "Population",
    "RegionParams",
    "ValidationError",
    "max_isolated_clusters",
    "EventKind",
    "EventRecord",
    "NoiseSpec",
    "SimulationError",
    "Trajectory",
    "simulate_exact",
    "simulate_sde",
    "ClusterDecomposition",
    "Group",
    "count_clusters_histogram",
    "decompose",
    "default_merge_delta",
    "FixedPoint",
    "FixedPointReport",
    "PiecewiseAffineMap",
    "advance_to_section",
    "analytic_F_k2",
    "as_piecewise",
    "classify_k2",
    "compose",
    "fixed_points",
    "numeric_F",
    "Case",
    "CyclicSolution",
    "SpectrumReport",
    "build_A",
    "classify_case",
    "cyclic_solution",
    "cyclic_spacing",
    "saturating_feedback",
    "spectrum",
    "verify_root_requirement",
    "SteadyProfile",
    "flux_residual",
    "mass",
    "steady_profile",
]
