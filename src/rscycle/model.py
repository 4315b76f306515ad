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

# decision: each arc s, r - s and 1 - r must be longer than MIN_ARC = 1000
# TIE_TOL.  A cell crosses an arc of length L in at least L / 20 (20 is the
# top of the speed window), so a crossing of such an arc takes over 50
# TIE_TOL: a tie batch never holds a cell's entry into an arc and its exit,
# and a batch's snap (at most 20 TIE_TOL of phase) stays under 2% of the
# arc.  The exact kernel's due times are a clock plus an arc, which resolve
# an arc of 1e-9 for every clock below ~9e6; at s = 1e-300, or 1 - r one
# ulp, the due equals its clock and the run aborted with a non-positive
# time to the next boundary.
MIN_ARC = 1000 * TIE_TOL


def _reals(name: str, value, array: bool = False) -> np.ndarray:
    """The type part of the number rule: value as a float array, refused
    (ValidationError) unless it is a real number or, if array, an array of
    them.  A string, None, an object or, unless array, a list is refused
    before any comparison can raise on it (np.asarray(value, dtype=float)
    would parse "0.5" and turn None into nan)."""
    try:
        x = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # a ragged list
        x = None
    if x is None or x.dtype.kind not in "biuf" or (x.ndim and not array):
        wanted = "a real number or an array of real numbers" if array else "a real number"
        shown = str(value) if isinstance(value, np.ndarray) else repr(value)  # no dtype
        raise ValidationError(f"{name} must be {wanted}, got {shown}")
    return x.astype(float, copy=False)


def _check_number(name: str, value, ge=None, gt=None, le=None, lt=None,
                  array: bool = False) -> None:
    """The number rule: refuse value unless it is a real number, or if
    array an array of them (`_reals`), each finite and in the range of the
    bounds given (>= ge, > gt, <= le, < lt).  nan and inf fail; the message
    names name and the first value that fails."""
    x = _reals(name, value, array)
    ok = np.isfinite(x)
    for bound, inside in ((ge, np.greater_equal), (gt, np.greater), (le, np.less_equal),
                          (lt, np.less)):
        if bound is not None:
            ok &= inside(x, bound)
    if ok.all():
        return
    low = ("[", ">=", ge) if ge is not None else ("(", ">", gt) if gt is not None else None
    high = ("]", "<=", le) if le is not None else (")", "<", lt) if lt is not None else None
    if low and high:
        allowed = f"lie in {low[0]}{low[2]:g}, {high[2]:g}{high[0]}"
    else:
        allowed = " and ".join(["be finite", *(f"{op} {bound:g}" for _, op, bound in
                                                filter(None, (low, high)))])
    bad = x if x.ndim == 0 else x[~ok][0]
    raise ValidationError(f"{name} must {allowed}, got {float(bad)!r}")


def _check_count(name: str, value, least: int, cap: Optional[int] = None,
                 noun: Optional[str] = None) -> None:
    """The count rule: refuse value unless it is an int (a numpy integer
    too, never a bool) of at least least and, given a cap, at most cap;
    the cap's message counts the value in noun."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    if cap is not None and value > cap:
        raise ValidationError(f"{name} = {value} {noun} lies above the cap of {cap}")


def _region_error(s, r) -> Optional[ValidationError]:
    """The error `RegionParams(s, r)` raises, or None: 0 < s < r < 1, then
    arcs s, r - s and 1 - r each longer than MIN_ARC."""
    if not (0.0 < s < r < 1.0):
        return ValidationError(f"region bounds must satisfy 0 < s < r < 1, got s={s}, r={r}")
    if not min(s, r - s, 1.0 - r) > MIN_ARC:
        return ValidationError(f"region arcs s, r - s and 1 - r must each be longer than "
                               f"{MIN_ARC:g}, got s={s}, r={r}")
    return None


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
    end of the responsive region R = [r, 1); 0 < s < r < 1, and each of
    the three arcs is longer than MIN_ARC.
    """

    s: float
    r: float

    def __post_init__(self):
        _check_number("s", self.s)
        _check_number("r", self.r)
        error = _region_error(self.s, self.r)
        if error is not None:
            raise error

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
        return cls(kind="linear", gamma=gamma)

    @classmethod
    def hill(cls, gamma: float, theta: float, h: float) -> "FeedbackSpec":
        return cls(kind="hill", gamma=gamma, theta=theta, h=h)

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
            _check_number("gamma", self.gamma)
            object.__setattr__(self, "gamma", float(self.gamma))
        elif self.kind == "hill":
            if self.gamma is None or self.theta is None or self.h is None:
                raise ValidationError("hill feedback needs gamma, theta, h")
            _check_number("gamma", self.gamma)
            _check_number("theta", self.theta, gt=0.0)
            _check_number("h", self.h, gt=0.0)
            for key in ("gamma", "theta", "h"):  # floats, so the spec hashes by value
                object.__setattr__(self, key, float(getattr(self, key)))
            with np.errstate(all="ignore"):  # _raw's scale may neither overflow nor vanish
                _check_number("theta ** h", np.float64(self.theta) ** self.h, gt=0.0)
        else:
            if self.table is not None:  # a tuple of float pairs, so the spec hashes by value
                try:
                    table = tuple((float(a), float(b)) for a, b in self.table)
                except (TypeError, ValueError):
                    raise ValidationError(f"table must hold (I, f) pairs of numbers, "
                                          f"got {self.table!r}") from None
                object.__setattr__(self, "table", table)
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
        _check_number("signaling fraction I", I, ge=0.0, le=1.0, array=True)
        arr = np.asarray(I, dtype=float)
        out = self._raw(arr)
        return float(out) if np.isscalar(I) or arr.ndim == 0 else out


@dataclass
class Population:
    """Phases of the cells, each in [0, 1).  Every cell counts once in I."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = _reals("phases", self.phases, array=True).copy()
        if self.phases.ndim != 1 or self.phases.size == 0:
            raise ValidationError("population needs a non-empty 1-d phase array")
        _check_number("phases", self.phases, ge=0.0, lt=1.0, array=True)

    def __len__(self) -> int:
        return self.phases.size
