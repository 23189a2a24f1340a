"""The one-parameter family of contractions pinned to map x to y.

Every norm-one operator sending a fixed unit x to a fixed unit y lies on a
line T_s = (dual of x) tensor y + s * (rotated x) tensor (dual of rotated y).
The admissible s form a (possibly degenerate) closed interval; its endpoints
are extreme points of the operator unit ball. This module solves for the
tightness scale s at each curve parameter r, minimizes it over r to find the
interval endpoints, and evaluates the small-r limit scale in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import canonical_pair
from .core import (
    LpVector,
    RInfinity,
    R_INFINITY,
    duality_map,
    is_infinite_param,
    lp_norm,
    _golden_min,
    _require_unit,
    _rotated_dual_coords,
)
from .opnorm import Operator2x2

# The r-grid of the endpoint search: 512 points per decade over
# 1e-6 <= |r| <= 1e6, the positive side first.
_R_GRID = np.logspace(-6.0, 6.0, 512 * 12 + 1)
_SIGNED_R_GRID = np.concatenate([_R_GRID, -_R_GRID])
_R_GRID.setflags(write=False)
_SIGNED_R_GRID.setflags(write=False)


class LimitScaleInconsistency(RuntimeError):
    """Closed-form and dyadic estimates of the small-r limit disagree."""


@dataclass(frozen=True)
class ScaleResult:
    """An extremal scale value plus the curve parameter that witnesses it.

    witness is a finite float, the infinite tag, or None when the value is
    only approached as the curve parameter goes to zero.
    """

    value: float
    witness: float | RInfinity | None


@dataclass
class SegmentData:
    """Critical scales of the pinned family through (x, y), both signs.

    Witnesses refer to the canonical (coordinatewise nonnegative, sorted)
    representatives of the pair; values are reported in the orientation of
    the inputs. The chain
    limit_minus <= endpoint_minus <= 0 <= endpoint_plus <= limit_plus
    always holds.
    """

    x: LpVector
    y: LpVector
    endpoint_plus: float
    endpoint_minus: float
    witness_plus: float | RInfinity | None
    witness_minus: float | RInfinity | None
    limit_plus: float
    limit_minus: float


def pinned_operator(x: LpVector, y: LpVector, s: float) -> Operator2x2:
    """The operator mapping x to y whose rank-one correction has scale s."""
    _require_unit(x, 1e-10, "pinned_operator (domain vector)")
    _require_unit(y, 1e-10, "pinned_operator (codomain vector)")
    xp = duality_map(x)
    yod = _rotated_dual_coords(y)
    xo = (-x.x2, x.x1)
    return Operator2x2(
        y.x1 * xp.x1 + s * yod[0] * xo[0],
        y.x1 * xp.x2 + s * yod[0] * xo[1],
        y.x2 * xp.x1 + s * yod[1] * xo[0],
        y.x2 * xp.x2 + s * yod[1] * xo[1],
        x.exponent,
        y.exponent,
    )


def scale_at_infinity(x: LpVector, y: LpVector, sign: int) -> float:
    """Tightness scale at the infinite curve parameter."""
    dx = _rotated_dual_coords(x)
    dy = _rotated_dual_coords(y)
    num = lp_norm(dx[0], dx[1], x.exponent)
    den = lp_norm(dy[0], dy[1], y.exponent)
    return float(sign) * num / den


def _pow_offset(c: float, delta: np.ndarray, p: float) -> np.ndarray:
    """|c + delta|^p - |c|^p, elementwise, without cancellation for small delta.

    The small-perturbation branch goes through expm1(p * log1p(delta/c)), so
    the result keeps full relative accuracy even when delta is many orders of
    magnitude below c.
    """
    delta = np.asarray(delta, dtype=float)
    if c < 0.0:
        c, delta = -c, -delta
    if c == 0.0:
        return np.abs(delta) ** p
    u = delta / c
    small = np.abs(u) <= 0.5
    cp = c ** p
    out = np.empty_like(u)
    out[small] = cp * np.expm1(p * np.log1p(u[small]))
    large = ~small
    out[large] = np.abs(c + delta[large]) ** p - cp
    return out


def _curve_offset(v: LpVector, t: np.ndarray, power: float) -> np.ndarray:
    """||curve_through(v, t)||_p^power - ||v||_p^power, treating v as exactly
    unit. For unit v this equals curve_norm_power(v, t, power) - 1, but stays
    accurate down to t ~ 0 where the direct form loses everything."""
    p = v.exponent.value
    d1, d2 = _rotated_dual_coords(v)
    off = _pow_offset(v.x1, t * d1, p) + _pow_offset(v.x2, t * d2, p)
    if power == p:
        return off
    return np.expm1((power / p) * np.log1p(off))


def _safe_r(rs: np.ndarray, p: float, q: float) -> np.ndarray:
    """Cap |r| so r^max(p,q) stays inside double range (matters only for
    exponents in the dozens)."""
    cap = 10.0 ** min(8.0, 290.0 / max(p, q))
    return np.clip(rs, -cap, cap)


def _tight_scale_many(
    x: LpVector, y: LpVector, rs: np.ndarray, sign: int
) -> np.ndarray:
    """Vectorized root solve: the unique s of the given sign making the image
    of the domain curve land on the codomain sphere of matching radius.

    Works on the offset of the norm power from 1 rather than the norm power
    itself; near r = 0 both sides are O(r^2) and the direct formulation would
    drown in the ulps of values near 1.
    """
    return _tight_scales(x, y, rs, sign, prune=False)[1]


def _tight_scales(
    x: LpVector, y: LpVector, rs: np.ndarray, sign: int, prune: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The root solve of _tight_scale_many, returning (indices, scales).

    With prune=False every index of rs is returned. With prune=True the
    bisection drops, after each halving, the points whose |s| can no longer
    be the smallest (see _extremal_canonical); the scales of the points it
    keeps are bit-identical to the unpruned ones.
    """
    rs = _safe_r(np.asarray(rs, dtype=float), x.exponent.value, y.exponent.value)
    q = y.exponent.value
    idx = np.arange(rs.size)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        target = _curve_offset(x, rs, power=q)
        tsign = float(sign) * np.sign(rs)
        # The codomain offset grows like D * |t|^q; seed the upper bracket
        # from that rate so only a few doubling rounds remain.
        d1, d2 = _rotated_dual_coords(y)
        growth = max(abs(d1), abs(d2)) ** q
        hi = 2.0 * (1.0 + (np.maximum(target, 0.0) / growth) ** (1.0 / q))
        for _ in range(80):
            f = _curve_offset(y, tsign * hi, power=q)
            need = f < target
            if not need.any():
                break
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros_like(hi)
        abs_r = np.abs(rs)
        # 54 halvings reach ~1e-16 relative width; endpoints are then polished
        # by the scalar golden refinement where it matters.
        for _ in range(54):
            mid = 0.5 * (lo + hi)
            f = _curve_offset(y, tsign * mid, power=q)
            lower = f < target
            lo = np.where(lower, mid, lo)
            hi = np.where(lower, hi, mid)
            if prune:
                # fmin skips NaN, and a NaN lower bound compares False.
                keep = ~(lo / abs_r > np.fmin.reduce(hi / abs_r))
                if not keep.all():
                    idx, rs, abs_r, target, tsign, lo, hi = (
                        a[keep] for a in (idx, rs, abs_r, target, tsign, lo, hi)
                    )
        t = tsign * 0.5 * (lo + hi)
        return idx, t / rs


def _pow_offset_s(c: float, delta: float, p: float) -> float:
    if c < 0.0:
        c, delta = -c, -delta
    if c != 0.0:
        u = delta / c
        if -0.5 <= u <= 0.5:
            return c ** p * math.expm1(p * math.log1p(u))
    # At c = 0 the direct form is |delta|^p, which can overflow too.
    try:
        return abs(c + delta) ** p - c ** p
    except OverflowError:
        return math.inf


def _tight_scale_scalar(x: LpVector, y: LpVector, r: float, sign: int) -> float:
    """Scalar twin of _tight_scale_many for refinement loops."""
    p, q = x.exponent.value, y.exponent.value
    cap = 10.0 ** min(8.0, 290.0 / max(p, q))
    r = max(-cap, min(cap, r))
    dx1, dx2 = _rotated_dual_coords(x)
    dy1, dy2 = _rotated_dual_coords(y)
    off_x = _pow_offset_s(x.x1, r * dx1, p) + _pow_offset_s(x.x2, r * dx2, p)
    target = off_x if q == p else math.expm1((q / p) * math.log1p(off_x))

    def off_y(t: float) -> float:
        return _pow_offset_s(y.x1, t * dy1, q) + _pow_offset_s(y.x2, t * dy2, q)

    tsign = float(sign) * (1.0 if r > 0 else -1.0)
    growth = max(abs(dy1), abs(dy2)) ** q
    hi = 2.0 * (1.0 + (max(target, 0.0) / growth) ** (1.0 / q))
    for _ in range(80):
        if off_y(tsign * hi) >= target:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # Float fixed point: every later step leaves 0.5 * (lo + hi) = mid.
            break
        if off_y(tsign * mid) < target:
            lo = mid
        else:
            hi = mid
    return tsign * 0.5 * (lo + hi) / r


def tight_scale(x: LpVector, y: LpVector, r, sign: int) -> float:
    """Scalar tightness scale at curve parameter r (nonzero; infinity allowed).

    At r = 0 both sides of the defining equation are 1 and no root exists.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_unit(x, 1e-10, "tight_scale (domain vector)")
    _require_unit(y, 1e-10, "tight_scale (codomain vector)")
    if is_infinite_param(r):
        return scale_at_infinity(x, y, sign)
    r = float(r)
    if r == 0.0:
        raise ValueError("tight_scale is undefined at r = 0 (no root)")
    return _tight_scale_scalar(x, y, r, sign)


def _curvature(p: float, coord_prod: float) -> float:
    """Second-order growth rate of the curve norm power at r = 0."""
    if abs(p - 2.0) <= 1e-12:
        return 1.0
    if coord_prod > 0.0:
        return (p - 1.0) * coord_prod ** (p - 2.0)
    return 0.0 if p > 2.0 else math.inf


def _limit_magnitude(x: LpVector, y: LpVector) -> float:
    """|small-r limit| of the tightness scale, from matching second-order
    growth of the two curve norms; extended arithmetic covers axis vectors."""
    p = x.exponent.value
    q = y.exponent.value
    cp = _curvature(p, abs(x.x1 * x.x2))
    cq = _curvature(q, abs(y.x1 * y.x2))
    degenerate_p = cp == 0.0 or math.isinf(cp)
    degenerate_q = cq == 0.0 or math.isinf(cq)
    if (cp == 0.0 and cq == 0.0) or (math.isinf(cp) and math.isinf(cq)):
        # Both vectors on axes with both exponents away from 2: the scale is
        # governed by the direct comparison of the two exponents.
        if abs(p - q) <= 1e-12:
            return 1.0
        return 0.0 if p > q else math.inf
    if math.isinf(cp) or cq == 0.0:
        return math.inf
    if cp == 0.0 or math.isinf(cq):
        return 0.0
    return math.sqrt(cp / cq)


def _limit_numeric(x: LpVector, y: LpVector, sign: int) -> tuple[float, bool]:
    """Dyadic small-r estimate of the limit scale: evaluates the tightness
    scale at r = +-2^-k, k = 10..40, and extrapolates from the moderate-k
    band where the defining offsets still clear double-precision noise.

    Returns (estimate, diverging). Both one-sided sequences are computed;
    if they split, the smaller-magnitude side is used (the limit inferior).
    """
    ks = np.arange(10, 41)
    rs = 2.0 ** (-ks.astype(float))
    sp = _tight_scale_many(x, y, rs, sign)
    sn = _tight_scale_many(x, y, -rs, sign)
    # Extrapolation band: offsets ~ r^2 are still >> 1e-16 here.
    band = 6  # index of k = 16
    mp = np.abs(sp[: band + 1])
    growth = mp[-1] / max(mp[0], 1e-300)
    if mp[-1] > 1e8 or growth > 1.5:
        return math.inf * sign, True

    def one_sided(seq: np.ndarray) -> float:
        # The scale approaches its limit with side-dependent linear slope;
        # two Richardson levels kill the r and r^2 terms of each side.
        r1a = 2.0 * seq[band] - seq[band - 1]
        r1b = 2.0 * seq[band - 1] - seq[band - 2]
        return float((4.0 * r1a - r1b) / 3.0)

    ep = one_sided(sp)
    en = one_sided(sn)
    if abs(ep - en) > 1e-6 * max(1.0, abs(ep)):
        est = ep if abs(ep) <= abs(en) else en
    else:
        est = 0.5 * (ep + en)
    return est, False


def limit_scale(
    x: LpVector, y: LpVector, sign: int, verify: bool = False
) -> float:
    """Signed small-r limit of the tightness scale (+-inf when divergent).

    With verify=True the closed form is cross-checked against the dyadic
    estimate and a LimitScaleInconsistency is raised on disagreement beyond
    1e-4 instead of silently preferring either.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_unit(x, 1e-10, "limit_scale (domain vector)")
    _require_unit(y, 1e-10, "limit_scale (codomain vector)")
    xc, yc, _ = canonical_pair(x, y)
    mag = _limit_magnitude(xc, yc)
    closed = float(sign) * mag
    if verify:
        est, diverging = _limit_numeric(xc, yc, sign)
        if math.isinf(mag):
            if not diverging and abs(est) < 1e3:
                raise LimitScaleInconsistency(
                    f"closed form is infinite but dyadic estimate is {est:.6g}"
                )
        elif diverging:
            raise LimitScaleInconsistency(
                f"closed form is {closed:.6g} but dyadic sequence diverges"
            )
        elif abs(est - closed) > 1e-4 * max(1.0, abs(closed)):
            raise LimitScaleInconsistency(
                f"closed form {closed:.6g} vs dyadic estimate {est:.6g}"
            )
    return closed


def _lexi_best(abs_s: np.ndarray, abs_r: np.ndarray) -> int:
    """Index of the smallest |s|, ties resolved toward smaller |r|."""
    order = np.lexsort((abs_r, abs_s))
    return int(order[0])


def _grid_argmin(
    x: LpVector, y: LpVector, rs: np.ndarray, sign: int
) -> tuple[int, float]:
    """(k, |s_k|) for the grid point k that _lexi_best picks from the
    tightness scales at rs, computed with the pruned bisection."""
    kept, s_kept = _tight_scales(x, y, rs, sign, prune=True)
    abs_kept = np.abs(s_kept)
    j = _lexi_best(abs_kept, np.abs(rs[kept]))
    return int(kept[j]), float(abs_kept[j])


def _extremal_canonical(x: LpVector, y: LpVector, sign: int) -> ScaleResult:
    """Extremal scale for a canonical pair: minimize |tight_scale| over the
    logarithmic r-grid (both signs of r), the infinite parameter, and the
    small-r limit.

    The grid bisection only follows the points that can still be the
    minimum. After each halving a point's bracket [lo, hi] holds every later
    bracket, and rounding of the midpoint and of the division by |r| is
    monotone, so its final |s| lies in [lo/|r|, hi/|r|]. A point whose
    lo/|r| exceeds the smallest hi/|r| in play therefore ends strictly above
    some other point's |s|: it can neither win nor tie, and dropping it
    leaves the grid winner, ties included, as _lexi_best picks it from all
    of _tight_scale_many's values.
    """
    n = _R_GRID.size
    k, best_abs = _grid_argmin(x, y, _SIGNED_R_GRID, sign)
    neg_side = k >= n
    ki = k - n if neg_side else k
    r_sign = -1.0 if neg_side else 1.0

    witness: float | RInfinity | None = r_sign * float(_R_GRID[ki])
    # Golden refinement in log|r| around an interior grid winner.
    if 0 < ki < n - 1:
        lo, hi = math.log(_R_GRID[ki - 1]), math.log(_R_GRID[ki + 1])

        def f(u: float) -> float:
            return abs(_tight_scale_scalar(x, y, r_sign * math.exp(u), sign))

        u_best, f_best = _golden_min(f, lo, hi, 1e-10)
        if f_best < best_abs:
            best_abs = f_best
            witness = r_sign * math.exp(u_best)

    s_inf = scale_at_infinity(x, y, sign)
    if abs(s_inf) < best_abs:
        best_abs = abs(s_inf)
        witness = R_INFINITY

    lim = _limit_magnitude(x, y)
    if lim < best_abs:
        # The infimum is only approached as r -> 0; report the limit itself.
        return ScaleResult(float(sign) * lim, None)
    return ScaleResult(float(sign) * best_abs, witness)


def extremal_scale(x: LpVector, y: LpVector, sign: int) -> ScaleResult:
    """The admissible-interval endpoint of the given sign for the pinned
    family through (x, y), in the orientation of the inputs.

    The pair is canonicalized internally; witnesses refer to the canonical
    parametrization.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_unit(x, 1e-10, "extremal_scale (domain vector)")
    _require_unit(y, 1e-10, "extremal_scale (codomain vector)")
    xc, yc, orient = canonical_pair(x, y)
    csign = sign if orient > 0 else -sign
    res = _extremal_canonical(xc, yc, csign)
    return ScaleResult(orient * res.value, res.witness)


def pinned_segment(x: LpVector, y: LpVector) -> SegmentData:
    """Both endpoints and both small-r limits for the pinned family.

    The chain of SegmentData holds exactly: extremal_scale caps each
    endpoint's magnitude at the _limit_magnitude of the same canonical pair
    whose signed value limit_scale returns.
    """
    plus = extremal_scale(x, y, 1)
    minus = extremal_scale(x, y, -1)
    return SegmentData(
        x=x,
        y=y,
        endpoint_plus=plus.value,
        endpoint_minus=minus.value,
        witness_plus=plus.witness,
        witness_minus=minus.witness,
        limit_plus=limit_scale(x, y, 1),
        limit_minus=limit_scale(x, y, -1),
    )
