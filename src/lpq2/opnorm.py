"""Induced operator norm of 2x2 matrices acting from lp_2 to lq_2.

The unit sphere of the domain is parametrized as
v(theta) = (sgn(cos)|cos|^(2/p), sgn(sin)|sin|^(2/p)), theta in [0, pi),
which is exactly unit for every theta. A dense scan brackets the local
maxima of ||T v(theta)||_q and golden-section refines each bracket; the
parametrization makes the scan exact on the sphere, so no renormalization
happens inside the optimizer.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import Exponent, LpVector, _golden_min, lp_norm, sign

DEFAULT_SCAN = 4096
DEFAULT_TOL_ATTAIN = 1e-9
DEFAULT_DEDUPE = 1e-7
INDEPENDENT_DET_TOL = 1e-8
_NORM_SCAN = 1024  # grid of norm_value, which min_distance screens with

# min_distance's screen: it scans every _SCREEN_STRIDE-th point of the
# norm_value grid, _SCREEN_CHUNK operators at a time (temporaries of about
# 150 kB), and stops refining at the first bound above the running minimum
# by more than the relative _SCREEN_SLACK. The slack absorbs a last-ulp
# difference between array loops over one row and over many.
_SCREEN_STRIDE = 8
_SCREEN_CHUNK = 128
_SCREEN_SLACK = 1e-12


@dataclass(frozen=True)
class Operator2x2:
    """A 2x2 real matrix tagged with domain and codomain exponents."""

    a11: float
    a12: float
    a21: float
    a22: float
    domain: Exponent
    codomain: Exponent

    def __post_init__(self):
        for v in (self.a11, self.a12, self.a21, self.a22):
            if not math.isfinite(v):
                raise ValueError("operator entries must be finite")
        if not isinstance(self.domain, Exponent):
            object.__setattr__(self, "domain", Exponent(float(self.domain)))
        if not isinstance(self.codomain, Exponent):
            object.__setattr__(self, "codomain", Exponent(float(self.codomain)))

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    def _same_spaces(self, other: "Operator2x2") -> None:
        if (
            self.domain.value != other.domain.value
            or self.codomain.value != other.codomain.value
        ):
            raise ValueError("operators act between different spaces")

    def __add__(self, other: "Operator2x2") -> "Operator2x2":
        self._same_spaces(other)
        return Operator2x2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
            self.domain,
            self.codomain,
        )

    def __sub__(self, other: "Operator2x2") -> "Operator2x2":
        self._same_spaces(other)
        return Operator2x2(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a21 - other.a21,
            self.a22 - other.a22,
            self.domain,
            self.codomain,
        )

    def scaled(self, c: float) -> "Operator2x2":
        return Operator2x2(
            c * self.a11, c * self.a12, c * self.a21, c * self.a22,
            self.domain, self.codomain,
        )

    def max_entry_diff(self, other: "Operator2x2") -> float:
        return max(abs(a - b) for a, b in zip(self.entries(), other.entries()))


@dataclass
class NormCertificate:
    """Operator norm plus the unit directions that attain it.

    Maximizers are sign-canonical (first nonzero coordinate positive) and
    deduplicated within a small angular distance; independent_pair is set
    when two of them are linearly independent.
    """

    norm: float
    maximizers: list[LpVector] = field(default_factory=list)
    independent_pair: bool = False


def apply(T: Operator2x2, v: LpVector) -> LpVector:
    """Matrix-vector product, tagged with the codomain exponent."""
    if v.exponent.value != T.domain.value:
        raise ValueError(
            f"vector lives in l^{v.exponent.value:g} but operator domain is "
            f"l^{T.domain.value:g}"
        )
    return LpVector(
        T.a11 * v.x1 + T.a12 * v.x2,
        T.a21 * v.x1 + T.a22 * v.x2,
        T.codomain,
    )


def adjoint(T: Operator2x2) -> Operator2x2:
    """Transpose acting between the conjugate spaces."""
    return Operator2x2(
        T.a11, T.a21, T.a12, T.a22,
        T.codomain.conjugate, T.domain.conjugate,
    )


def sphere_point(theta: float, p: Exponent) -> tuple[float, float]:
    """Unit vector of lp at angle theta under the 2/p-power parametrization."""
    e = 2.0 / p.value
    c, s = math.cos(theta), math.sin(theta)
    return (sign(c) * abs(c) ** e, sign(s) * abs(s) ** e)


@lru_cache(maxsize=8)
def _theta_grid(n: int) -> np.ndarray:
    """Uniform grid on [0, pi) augmented with log-spaced offsets near the axes.

    For large p the sphere arc near an axis collapses into a microscopic
    theta range, so uniform sampling alone can miss a peak hiding there.
    The array is shared by every caller, so it is read-only.
    """
    base = np.linspace(0.0, math.pi, n, endpoint=False)
    offs = np.concatenate([10.0 ** np.arange(-15.0, -2.9, 0.5), [0.0]])
    anchors = [0.0, math.pi / 2.0, math.pi]
    extra = np.concatenate([a + offs for a in anchors] + [a - offs for a in anchors])
    grid = np.concatenate([base, extra])
    grid = grid[(grid >= 0.0) & (grid < math.pi)]
    grid = np.unique(grid)
    grid.setflags(write=False)
    return grid


def _sphere_points(thetas: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of sphere_point at each angle, as two arrays."""
    ep = 2.0 / p
    c = np.cos(thetas)
    s = np.sin(thetas)
    return np.sign(c) * np.abs(c) ** ep, np.sign(s) * np.abs(s) ** ep


@lru_cache(maxsize=16)
def _sphere_table(scan: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan grid `_theta_grid(scan)` and its lp sphere points.

    They depend only on the grid size and p, so every scan at that exponent
    shares one read-only copy.
    """
    thetas = _theta_grid(scan)
    v1, v2 = _sphere_points(thetas, p)
    v1.setflags(write=False)
    v2.setflags(write=False)
    return thetas, v1, v2


def _image_norms(a11, a12, a21, a22, v1: np.ndarray, v2: np.ndarray, q: float) -> np.ndarray:
    """||A v||_q at each sphere point v = (v1, v2).

    With float entries the result has the shape of v1; with (n, 1) columns
    of entries it is one row per operator. Each point gets the same
    arithmetic either way.
    """
    w1 = np.abs(a11 * v1 + a12 * v2)
    w2 = np.abs(a21 * v1 + a22 * v2)
    m = np.maximum(w1, w2)
    lo = np.minimum(w1, w2)
    ratio = np.where(m > 0.0, lo / np.where(m > 0.0, m, 1.0), 0.0)
    return m * (1.0 + ratio ** q) ** (1.0 / q)


def _scan_values(T: Operator2x2, thetas: np.ndarray) -> np.ndarray:
    v1, v2 = _sphere_points(thetas, T.domain.value)
    return _image_norms(*T.entries(), v1, v2, T.codomain.value)


def _grid_scan(T: Operator2x2, scan: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid `_theta_grid(scan)` and ||T v||_q at each of its sphere points."""
    thetas, v1, v2 = _sphere_table(scan, T.domain.value)
    return thetas, _image_norms(*T.entries(), v1, v2, T.codomain.value)


def _value_at(T: Operator2x2, theta: float) -> float:
    ep = 2.0 / T.domain.value
    c, s = math.cos(theta), math.sin(theta)
    v1 = sign(c) * abs(c) ** ep
    v2 = sign(s) * abs(s) ** ep
    w1 = T.a11 * v1 + T.a12 * v2
    w2 = T.a21 * v1 + T.a22 * v2
    return lp_norm(w1, w2, T.codomain)


def _canonical_maximizer(theta: float, p: Exponent) -> LpVector:
    v1, v2 = sphere_point(theta, p)
    if v1 < 0.0 or (v1 == 0.0 and v2 < 0.0):
        v1, v2 = -v1, -v2
    return LpVector(v1, v2, p)


def _angular_dist(a: float, b: float) -> float:
    """Distance on [0, pi) with v and -v identified."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _theta_at(thetas: np.ndarray, i: int, n: int) -> float:
    """Grid angle at a cyclic index, unwrapped by multiples of pi."""
    return float(thetas[i % n]) + math.pi * (i // n)


def norm_value(T: Operator2x2, scan: int = _NORM_SCAN) -> float:
    """Operator norm only, without maximizer bookkeeping (fast path).

    Never below the maximum of its grid scan: refinement only raises it.
    """
    thetas, vals = _grid_scan(T, scan)
    return _refined_max(T, thetas, vals)


def _refined_max(T: Operator2x2, thetas: np.ndarray, vals: np.ndarray) -> float:
    """The scan maximum, raised by a golden refinement of each peak's bracket."""
    gmax = float(vals.max())
    if gmax == 0.0:
        return 0.0
    if gmax - float(vals.min()) <= 1e-11 * gmax:
        return gmax
    n = len(thetas)
    best = gmax
    thresh = gmax - 1e-4 * gmax
    idx = np.nonzero(vals >= thresh)[0]
    for i0, i1 in _contiguous_runs(idx, n):
        lo = _theta_at(thetas, i0 - 1, n)
        hi = _theta_at(thetas, i1 + 1, n)
        if hi <= lo:
            continue
        _, neg = _golden_min(lambda t: -_value_at(T, t), lo, hi, 1e-8)
        fv = -neg
        if fv > best:
            best = fv
    return best


def _contiguous_runs(idx: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Group sorted indices into runs, merging across the cyclic seam."""
    if len(idx) == 0:
        return []
    runs = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i == prev + 1:
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        s, e = runs.pop()
        runs[0] = (s - n, runs[0][1])
    return runs


def op_norm(
    T: Operator2x2,
    scan: int = DEFAULT_SCAN,
    tol_attain: float = DEFAULT_TOL_ATTAIN,
    refine_tol: float = 1e-13,
    dedupe: float = DEFAULT_DEDUPE,
) -> NormCertificate:
    """Norm certificate: the induced norm and every attaining direction found.

    Directions within `dedupe` radians are merged; values within
    `tol_attain` of the maximum count as attaining.
    """
    thetas, vals = _grid_scan(T, scan)
    gmax = float(vals.max())
    if gmax == 0.0:
        return NormCertificate(0.0, [], False)
    gmin = float(vals.min())
    if gmax - gmin <= 1e-11 * gmax:
        # Constant on the sphere: every direction attains.
        m1 = _canonical_maximizer(0.0, T.domain)
        m2 = _canonical_maximizer(math.pi / 2.0, T.domain)
        return NormCertificate(gmax, [m1, m2], True)

    n = len(thetas)
    thresh = gmax - max(1e-5 * gmax, 10.0 * tol_attain)
    idx = np.nonzero(vals >= thresh)[0]
    candidates: list[tuple[float, float]] = []
    neg_f = lambda t: -_value_at(T, t)
    for i0, i1 in _contiguous_runs(idx, n):
        # Refine each grid-local maximum inside the run (a run can straddle
        # two peaks separated by a shallow dip).
        local = []
        for i in range(i0, i1 + 1):
            v = vals[i % n]
            vl = vals[(i - 1) % n]
            vr = vals[(i + 1) % n]
            if v >= vl and v >= vr:
                local.append(i)
        if not local:
            local = [max(range(i0, i1 + 1), key=lambda i: vals[i % n])]
        for i in local:
            lo = _theta_at(thetas, i - 1, n)
            hi = _theta_at(thetas, i + 1, n)
            if hi <= lo:
                continue
            th, neg = _golden_min(neg_f, lo, hi, refine_tol)
            candidates.append((th % math.pi, -neg))

    if not candidates:
        candidates = [(float(thetas[int(np.argmax(vals))]), gmax)]
    norm = max(fv for _, fv in candidates)
    keep: list[tuple[float, float]] = []
    for th, fv in sorted(candidates):
        if norm - fv > tol_attain:
            continue
        merged = False
        for k, (th0, fv0) in enumerate(keep):
            if _angular_dist(th, th0) <= dedupe:
                if fv > fv0:
                    keep[k] = (th, fv)
                merged = True
                break
        if not merged:
            keep.append((th, fv))
    maximizers = [_canonical_maximizer(th, T.domain) for th, _ in sorted(keep)]
    independent = False
    for i in range(len(maximizers)):
        for j in range(i + 1, len(maximizers)):
            a, b = maximizers[i], maximizers[j]
            if abs(a.x1 * b.x2 - a.x2 * b.x1) > INDEPENDENT_DET_TOL:
                independent = True
    return NormCertificate(norm, maximizers, independent)


def contraction_bound(tol: float) -> float:
    """Largest computed norm that still counts as a contraction within tol.

    The factor 1 + 8e-16 (about four ulps of 1) absorbs the roundoff of the
    sphere parametrization and of the lq-norm evaluation, so tol = 0 still
    accepts exact isometries.
    """
    return (1.0 + tol) * (1.0 + 8e-16)


def is_contraction(T: Operator2x2, tol: float = 1e-9) -> bool:
    """True when the induced norm does not exceed 1 + tol (contraction_bound).

    Equal to `norm_value(T) <= contraction_bound(tol)`; a scan maximum
    already above the bound decides without the refinement, which can only
    raise it.
    """
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    bound = contraction_bound(tol)
    thetas, vals = _grid_scan(T, _NORM_SCAN)
    if vals.max() > bound:
        return False
    return _refined_max(T, thetas, vals) <= bound


def _screen_bounds(diffs: np.ndarray, p: float, q: float) -> np.ndarray:
    """For each row of entries, the maximum of its image norms on every
    _SCREEN_STRIDE-th point of the norm_value grid: a lower bound on its
    norm_value, since that grid's maximum is one."""
    _, v1, v2 = _sphere_table(_NORM_SCAN, p)
    v1, v2 = v1[::_SCREEN_STRIDE], v2[::_SCREEN_STRIDE]
    return np.concatenate([
        _image_norms(*diffs[i:i + _SCREEN_CHUNK].T[..., None], v1, v2, q).max(axis=1)
        for i in range(0, len(diffs), _SCREEN_CHUNK)
    ])


def min_distance(ops: Sequence[Operator2x2], target: Operator2x2) -> float:
    """min(norm_value(E - target) for E in ops), bit for bit.

    One array scan bounds every distance from below (`_screen_bounds`);
    norm_value then runs in ascending order of bound and stops at the first
    bound that exceeds the running minimum by more than _SCREEN_SLACK, since
    no operator from there on can be closer.
    """
    if not ops:
        raise ValueError("min_distance needs at least one operator")
    p, q = target.domain.value, target.codomain.value
    if any(E.domain.value != p or E.codomain.value != q for E in ops):
        raise ValueError("operators act between different spaces")
    diffs = np.array([E.entries() for E in ops]) - np.array(target.entries())
    bounds = _screen_bounds(diffs, p, q)
    best = math.inf
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] > best * (1.0 + _SCREEN_SLACK):
            break
        best = min(best, norm_value(ops[i] - target))
    return best
