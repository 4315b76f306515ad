"""Core model objects: the unit-circle phase variable, the signaling and
responsive regions, feedback profiles, and populations of cells.

Cells live on the circle [0, 1) and advance with unit base speed.  Two arcs
control the coupling: the signaling region S = [0, s) just after division,
and the responsive region R = [r, 1) just before it, with 0 < s < r < 1.
Cells inside R have their speed multiplied by 1 + f(I), where I = j/n is
the fraction of the n cells currently inside S and f is a monotone
feedback profile with f(0) = 0.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class CertificateError(RuntimeError):
    """Raised when a numerical cross-check that must hold fails."""


# Feedback profiles are validated on this many interior sample points plus
# the endpoints 0 and 1.
_VALIDATION_GRID = 1000

# Decision tolerance: crossings within TIE_TOL of the earliest are one batch,
# with I recomputed once after it, and a batch within TIE_TOL of the horizon
# is the run's last stop.
TIE_TOL = 1e-12


def wrap01(x):
    """Map x onto [0, 1). Works on scalars and arrays.

    Bit for bit the same as `x % 1.0`, which is an exact fmod followed, for
    a negative x, by one rounded `+ 1.0`: x - floor(x) is the same single
    rounding of the same exact value, and several times cheaper.  Either
    rounds a tiny negative x up to exactly 1.0; that is set to 0.0.
    """
    x = np.asarray(x, dtype=float)
    y = x - np.floor(x)
    if y.ndim == 0:
        return np.float64(0.0) if y == 1.0 else y
    y[y == 1.0] = 0.0
    return y


@dataclass(frozen=True)
class RegionParams:
    """Arc geometry of the two coupling regions.

    s is the upper end of the signaling region S = [0, s); r is the lower
    end of the responsive region R = [r, 1).
    """

    s: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.s < self.r < 1.0):
            raise ValidationError(
                f"region bounds must satisfy 0 < s < r < 1, got s={self.s}, r={self.r}"
            )

    @property
    def len_S(self) -> float:
        return self.s

    @property
    def len_R(self) -> float:
        return 1.0 - self.r

    @property
    def interaction_length(self) -> float:
        """|R| + |S|, the gap size below which two groups can interact."""
        return self.len_R + self.len_S


def max_isolated_clusters(rp: RegionParams) -> int:
    """Largest number of groups that can be pairwise non-interacting.

    Groups interact when the gap between them is below |R| + |S|; fitting k
    gaps of at least that size around the circle requires
    k <= 1/(|R|+|S|), so the count is floor(1/(|R|+|S|) + 1e-9) on the floats.
    """
    return int(_max_isolated(rp.s, rp.r))


def _max_isolated(s, r):
    """`max_isolated_clusters` of the regions (s, r), elementwise on arrays."""
    # decision: a reciprocal within 1e-9 below an integer counts as that integer
    return np.floor(1.0 / ((1.0 - r) + s) + 1e-9).astype(np.intp)


@dataclass(frozen=True)
class FeedbackSpec:
    """A validated feedback profile f acting on the signaling fraction.

    Supported kinds:
      linear    f(I) = gamma * I
      hill      f(I) = gamma * I**h / (I**h + theta**h)
      tabulated monotone piecewise-linear interpolation of (I, f) pairs

    Validation enforces f(0) = 0, monotonicity with a single sign on (0, 1]
    (or f identically zero), and the fixed speed window
    v_min <= 1 + f(I) <= v_max, that is 0.05 to 20, on a dense grid.
    """

    v_min: ClassVar[float] = 0.05
    v_max: ClassVar[float] = 20.0

    kind: str
    gamma: Optional[float] = None
    theta: Optional[float] = None
    h: Optional[float] = None
    table: Optional[Tuple[Tuple[float, float], ...]] = None

    @classmethod
    def linear(cls, gamma: float) -> "FeedbackSpec":
        return cls(kind="linear", gamma=float(gamma))

    @classmethod
    def hill(cls, gamma: float, theta: float, h: float) -> "FeedbackSpec":
        return cls(kind="hill", gamma=float(gamma), theta=float(theta), h=float(h))

    @classmethod
    def tabulated(cls, points: Sequence[Tuple[float, float]]) -> "FeedbackSpec":
        return cls(kind="tabulated", table=points)

    @classmethod
    def none(cls) -> "FeedbackSpec":
        """No coupling: f identically zero."""
        return cls.linear(0.0)

    def __post_init__(self):
        if self.kind not in ("linear", "hill", "tabulated"):
            raise ValidationError(f"unknown feedback kind {self.kind!r}")
        if self.kind == "linear":
            if self.gamma is None:
                raise ValidationError("linear feedback needs gamma")
        elif self.kind == "hill":
            if self.gamma is None or self.theta is None or self.h is None:
                raise ValidationError("hill feedback needs gamma, theta, h")
            if self.theta <= 0 or self.h <= 0:
                raise ValidationError("hill feedback needs theta > 0 and h > 0")
        else:
            if self.table is not None:  # a tuple of float pairs, so the spec hashes by value
                object.__setattr__(self, "table", tuple((float(a), float(b)) for a, b in self.table))
            if self.table is None or len(self.table) < 2:
                raise ValidationError("tabulated feedback needs at least two points")
            xs = np.array([p[0] for p in self.table])
            if xs[0] != 0.0 or xs[-1] != 1.0:
                raise ValidationError("table must span I = 0 to I = 1")
            if np.any(np.diff(xs) <= 0):
                raise ValidationError("table abscissae must be strictly increasing")
        self._validate_profile()

    def _raw(self, I):
        I = np.asarray(I, dtype=float)
        if self.kind == "linear":
            return self.gamma * I
        if self.kind == "hill":
            num = np.power(I, self.h, where=I > 0, out=np.zeros_like(I))
            return self.gamma * num / (num + self.theta ** self.h)
        xs = np.array([p[0] for p in self.table])
        ys = np.array([p[1] for p in self.table])
        return np.interp(I, xs, ys)

    def _validate_profile(self):
        grid = np.concatenate(([0.0], np.linspace(0.0, 1.0, _VALIDATION_GRID), [1.0]))
        vals = self._raw(grid)
        if vals[0] != 0.0:
            raise ValidationError(f"feedback must vanish at I=0, got f(0)={vals[0]}")
        diffs = np.diff(vals)
        if not (np.all(diffs >= 0.0) or np.all(diffs <= 0.0)):
            raise ValidationError("feedback profile must be monotone")
        interior = vals[grid > 0.0]
        pos, neg = np.any(interior > 0.0), np.any(interior < 0.0)
        if pos and neg:
            raise ValidationError("feedback sign must be constant on (0, 1]")
        if (pos or neg) and np.any(interior == 0.0):
            raise ValidationError("feedback may only vanish at I=0 (or identically)")
        speeds = 1.0 + vals
        if speeds.min() < self.v_min or speeds.max() > self.v_max:
            raise ValidationError(
                f"speeds 1+f(I) leave the admissible window "
                f"[{self.v_min}, {self.v_max}]: range "
                f"[{speeds.min():.6g}, {speeds.max():.6g}]"
            )

    def __call__(self, I):
        """Evaluate f at a signaling fraction in [0, 1]."""
        arr = np.asarray(I, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError(f"signaling fraction outside [0, 1]: {I}")
        out = self._raw(arr)
        return float(out) if np.isscalar(I) or arr.ndim == 0 else out


@dataclass
class Population:
    """Phases of the cells, each in [0, 1).  Every cell counts once in I."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float).copy()
        if self.phases.ndim != 1 or self.phases.size == 0:
            raise ValidationError("population needs a non-empty 1-d phase array")
        if not np.all((self.phases >= 0.0) & (self.phases < 1.0)):  # NaN fails too
            raise ValidationError("phases must lie in [0, 1)")

    def __len__(self) -> int:
        return self.phases.size
