"""Steady transport profile of the continuum limit.

The density u(t, x) of a large population obeys a conservation law with
advection speed b(x, [u]) = 1 + f(I) on R and 1 elsewhere, where
I = integral of u over S.  A steady state carries constant flux c around
the circle, so the density is c off the responsive region and
c / (1 + f(c s)) on it.
"""

from dataclasses import dataclass

import numpy as np

from .model import (FeedbackSpec, RegionParams, ValidationError, _check_count, _check_number,
                    _reals, wrap01)

# decision: library policy.  flux_residual samples at most 10**6 points,
# about 1000 times its default 1024, in arrays of 8 MB; 10**9 raised
# MemoryError.
_MAX_GRID = 10 ** 6


@dataclass(frozen=True)
class SteadyProfile:
    """Piecewise-constant steady density with flux value c."""

    c: float
    rp: RegionParams
    on_r_level: float

    @property
    def flux(self) -> float:
        return self.c

    def u(self, x):
        """Density at phase x (vectorized)."""
        x = wrap01(_reals("x", x, array=True))
        out = np.where(x >= self.rp.r, self.on_r_level, self.c)
        return float(out) if out.ndim == 0 else out

    def b(self, x):
        """Advection speed at phase x for this profile's signaling load."""
        x = wrap01(_reals("x", x, array=True))
        out = np.where(x >= self.rp.r, self.c / self.on_r_level, 1.0)
        return float(out) if out.ndim == 0 else out


def steady_profile(c: float, rp: RegionParams, fs: FeedbackSpec) -> SteadyProfile:
    """Constant-flux steady state with off-R level c.

    The signaling load of the profile itself is I = c s, which must stay
    inside the feedback domain [0, 1]; the slowdown factor 1 + f(c s) must
    be positive.
    """
    _check_number("flux level c", c, gt=0.0)
    I = c * rp.s
    if I > 1.0:
        raise ValidationError(
            f"signaling load c*s = {I:.6g} exceeds 1; profile outside model range"
        )
    denom = 1.0 + fs(I)
    if denom <= 0.0:
        raise ValidationError("1 + f(c s) must be positive")
    return SteadyProfile(c=float(c), rp=rp, on_r_level=float(c / denom))


def mass(profile: SteadyProfile) -> float:
    """Total mass of the profile: c (1 - |R|) + |R| c / (1 + f(c s))."""
    rp = profile.rp
    return profile.c * (1.0 - rp.len_R) + rp.len_R * profile.on_r_level


def flux_residual(profile: SteadyProfile, grid: int = 1024) -> float:
    """Max deviation of b(x) u(x) from the flux constant on a grid of grid
    points, an integer from 1 to _MAX_GRID."""
    _check_count("grid", grid, 1, _MAX_GRID, "grid points")
    xs = np.linspace(0.0, 1.0, grid, endpoint=False)
    return float(np.max(np.abs(profile.b(xs) * profile.u(xs) - profile.flux)))
