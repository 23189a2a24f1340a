"""Vector calculus in two-dimensional lp spaces.

Exponents, points, duality maps, the quarter-turn rotation, and the
one-parameter curve through a unit vector together with the power of its
norm and the closed-form Taylor coefficients of that power at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exponents are clamped away from 1 and infinity: near 1 the duality map's
# derivative blows up and |x|^(p-1) loses precision in doubles.
EXPONENT_MIN = 1.05
EXPONENT_MAX = 64.0

_TWO_TOL = 1e-12
# Two exponents closer than this are the same exponent.
SAME_EXPONENT_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class RInfinity:
    """Distinguished tag for the infinite curve parameter.

    Kept as a singleton object rather than a float sentinel so that the
    infinite case is an explicit branch, never an arithmetic accident.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "R_INFINITY"


R_INFINITY = RInfinity()


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b], as (argument, value).

    Derivative-free on purpose: the objectives (norms over the sphere,
    tightness scales, fit residuals) are not twice differentiable at axis
    crossings. Maximise f by minimising -f and negating the value.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def is_infinite_param(r) -> bool:
    """True when r denotes the infinite curve parameter."""
    return isinstance(r, RInfinity) or (isinstance(r, float) and math.isinf(r))


def sign(t: float) -> float:
    """Sign with sign(0) = 0, so duality images of axis vectors keep exact zeros."""
    if t > 0.0:
        return 1.0
    if t < 0.0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class Exponent:
    """An exponent p with 1 < p < infinity, clamped to [1.05, 64]."""

    value: float

    def __post_init__(self):
        v = self.value
        if not math.isfinite(v):
            raise ValueError(f"exponent must be finite, got {v!r}")
        if v < EXPONENT_MIN or v > EXPONENT_MAX:
            raise ValueError(
                f"exponent {v} outside supported range [{EXPONENT_MIN}, {EXPONENT_MAX}]"
            )

    @property
    def conjugate(self) -> "Exponent":
        return Exponent(self.value / (self.value - 1.0))

    @property
    def is_two(self) -> bool:
        return abs(self.value - 2.0) <= _TWO_TOL

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Exponent({self.value:g})"


def as_exponent(p) -> Exponent:
    return p if isinstance(p, Exponent) else Exponent(float(p))


def lp_norm(x1: float, x2: float, p: Exponent) -> float:
    """(|x1|^p + |x2|^p)^(1/p), computed with the larger component factored out."""
    a, b = abs(x1), abs(x2)
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0
    pv = p.value
    return a * (1.0 + (b / a) ** pv) ** (1.0 / pv)


@dataclass(frozen=True)
class LpVector:
    """A point of R^2 tagged with the exponent of the space it lives in."""

    x1: float
    x2: float
    exponent: Exponent

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("vector components must be finite")
        if not isinstance(self.exponent, Exponent):
            object.__setattr__(self, "exponent", Exponent(float(self.exponent)))

    @classmethod
    def unit(cls, x1: float, x2: float, p) -> "LpVector":
        """Rescale (x1, x2) to the unit sphere of lp."""
        p = as_exponent(p)
        n = lp_norm(x1, x2, p)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x1 / n, x2 / n, p)

    @classmethod
    def from_mass(cls, mass1: float, p) -> "LpVector":
        """Unit vector with |x1|^p = mass1, both coordinates nonnegative."""
        p = as_exponent(p)
        if not 0.0 <= mass1 <= 1.0:
            raise ValueError(f"coordinate mass must lie in [0, 1], got {mass1}")
        pv = p.value
        return cls(mass1 ** (1.0 / pv), (1.0 - mass1) ** (1.0 / pv), p)

    def norm(self) -> float:
        return lp_norm(self.x1, self.x2, self.exponent)

    def is_unit(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def coords(self) -> tuple[float, float]:
        return (self.x1, self.x2)

    def __iter__(self):
        return iter((self.x1, self.x2))


def _require_unit(x: LpVector, tol: float, what: str) -> None:
    err = abs(x.norm() - 1.0)
    if err > tol:
        raise ValueError(f"{what} requires a unit vector (norm off by {err:.3e})")


def _dual_coords(x: LpVector) -> tuple[float, float]:
    """Coordinates sgn(xi)|xi|^(p-1) of the duality image of x; unlike
    duality_map, no conjugate exponent, which is below 1.05 for p > 21."""
    e = x.exponent.value - 1.0
    return (sign(x.x1) * abs(x.x1) ** e, sign(x.x2) * abs(x.x2) ** e)


def duality_map(x: LpVector, tol: float = 1e-10) -> LpVector:
    """The unique norming functional of a unit x, as a vector in the conjugate space.

    Componentwise sgn(xi)|xi|^(p-1); pairs to 1 against x and has unit
    conjugate norm.
    """
    _require_unit(x, tol, "duality_map")
    d1, d2 = _dual_coords(x)
    return LpVector(d1, d2, x.exponent.conjugate)


def rotate(x: LpVector) -> LpVector:
    """Quarter turn (x1, x2) -> (-x2, x1), same space."""
    return LpVector(-x.x2, x.x1, x.exponent)


def _rotated_dual_coords(x: LpVector) -> tuple[float, float]:
    """Coordinates of the duality image of the rotated vector."""
    d1, d2 = _dual_coords(x)
    return (-d2, d1)


def curve_through(x: LpVector, r) -> LpVector:
    """The curve x + r * (rotated dual of x); at r infinite, the rotated dual itself.

    Not normalized. The result carries the domain exponent tag.
    """
    d1, d2 = _rotated_dual_coords(x)
    if is_infinite_param(r):
        return LpVector(d1, d2, x.exponent)
    r = float(r)
    return LpVector(x.x1 + r * d1, x.x2 + r * d2, x.exponent)


def curve_norm_power(x: LpVector, r, power: float | None = None):
    """p-norm of curve_through(x, r), raised to `power` (default: p itself).

    Accepts a scalar or an ndarray of finite parameters r; strictly
    increasing for r > 0 and strictly decreasing for r < 0 when x is unit.
    """
    pv = x.exponent.value
    if power is None:
        power = pv
    d1, d2 = _rotated_dual_coords(x)
    r_arr = np.asarray(r, dtype=float)
    c1 = np.abs(x.x1 + r_arr * d1)
    c2 = np.abs(x.x2 + r_arr * d2)
    m = np.maximum(c1, c2)
    small = np.minimum(c1, c2)
    with np.errstate(invalid="ignore"):
        ratio = np.where(m > 0.0, small / np.where(m > 0.0, m, 1.0), 0.0)
    out = (m ** power) * (1.0 + ratio ** pv) ** (power / pv)
    if np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TaylorCoeffs:
    """Coefficients of r^0..r^4 at r = 0 of the curve norm power."""

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.c0, self.c1, self.c2, self.c3, self.c4)


def curve_taylor(x: LpVector, power: float | None = None) -> TaylorCoeffs:
    """Closed-form Taylor coefficients of curve_norm_power(x, ., power) at r = 0.

    Requires a unit x with both coordinates strictly positive; the closed
    forms are singular when x1*x2 = 0.
    """
    _require_unit(x, 1e-10, "curve_taylor")
    if x.x1 <= 0.0 or x.x2 <= 0.0:
        raise ValueError("curve_taylor needs strictly positive coordinates")
    p = x.exponent.value
    q = p if power is None else float(power)
    a = x.x1 * x.x2
    ap = a ** p
    mass_gap = x.x1 ** p - x.x2 ** p
    d2 = q * (p - 1.0) * a ** (p - 2.0)
    d3 = q * (p - 1.0) * (p - 2.0) * a ** (p - 3.0) * mass_gap
    d4 = q * (p - 1.0) * a ** (p - 4.0) * (
        (p - 2.0) * (p - 3.0)
        - 3.0 * ap * ((p - 2.0) * (p - 3.0) + (p - q) * (p - 1.0))
    )
    return TaylorCoeffs(1.0, 0.0, d2 / 2.0, d3 / 6.0, d4 / 24.0)
