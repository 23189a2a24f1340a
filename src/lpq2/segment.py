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
    SAME_EXPONENT_TOL,
    Exponent,
    _dual_coords,
    is_infinite_param,
    lp_norm,
    _require_unit,
    _rotated_dual_coords,
)
from .opnorm import Operator2x2

# The r-grid of the endpoint search: 8 points per decade over
# 1e-6 <= |r| <= 1e6, both signs. Below 1e-6 the first-order cancellation
# in the offsets (see _log_curve_norm) costs more than 1e-10 of relative
# accuracy, so no sample lies outside this range.
_R_MIN, _R_MAX = 1e-6, 1e6
_R_GRID = np.logspace(math.log10(_R_MIN), math.log10(_R_MAX), 8 * 12 + 1)
_SIGNED_GRID = np.concatenate([_R_GRID, -_R_GRID])
_SIGNED_GRID.setflags(write=False)

# Root solve (_tight_roots). A point stops when its Newton step in log t is
# below _NEWTON_TOL plus its rounding noise, or after _NEWTON_MAX steps; a
# root whose rounding noise (_EPS times the cancelling first-order terms)
# exceeds _NOISE_MAX of its log norm is noise, reported as NaN.
_NEWTON_TOL = 1e-10
_NEWTON_MAX = 100
_EPS = 2.0 ** -52
_NOISE_MAX = 1e-3

# Zoom passes: each spreads _ZOOM_POINTS over a bracket in log|r| and keeps
# the two cells around its best point, so the bracket shrinks 128-fold per
# pass, from at most two grid cells (0.58) to 2e-9. The first two passes
# only locate the minimum: their Newton tolerances leave errors (1e-10 and
# 1e-12) below the differences between neighbouring points of the pass
# (about 5e-6 and 3e-10 relative times the curvature of log|s|).
_ZOOM_POINTS = 257
_ZOOM_TOLS = (1e-5, 1e-6, _NEWTON_TOL, _NEWTON_TOL)
_ZOOM_ROWS = 8
_ZOOM_STEPS = np.linspace(0.0, 1.0, _ZOOM_POINTS)


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
    xp = _dual_coords(x)
    yod = _rotated_dual_coords(y)
    xo = (-x.x2, x.x1)
    return Operator2x2(
        y.x1 * xp[0] + s * yod[0] * xo[0],
        y.x1 * xp[1] + s * yod[0] * xo[1],
        y.x2 * xp[0] + s * yod[1] * xo[0],
        y.x2 * xp[1] + s * yod[1] * xo[1],
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


def _log_curve_norm(v: LpVector):
    """The map t -> (l, t * dl/dt), elementwise, for
    l = log ||v + t * (rotated dual of v)||_p and a unit v.

    l comes from the offset ||.||_p^p - 1 = sum |c|^p (|1 + u|^p - 1),
    u = t d / c, each term through expm1 of p log|1 + u|, and log|1 + u| is
    log1p(u), or log1p(-2 - u) where the coordinate c + t d has changed
    sign. Each term keeps its relative accuracy as t -> 0, where the log
    of the norm itself is rounding noise, and where a coordinate of the
    curve vanishes; their sum loses about 1e-16/|t| relative to the
    cancellation of the two first-order terms. Where the offset overflows
    (exponents in the dozens), l is the log of the norm with its largest
    entry factored out. The second value, the elasticity of l, is t times
    the closed-form derivative sum(d sgn(w) |w|^(p-1)) / ||w||_p^p,
    w = v + t d.
    """
    p = v.exponent.value
    cs = (v.x1, v.x2)
    c = np.array(cs)[:, None]
    d = np.array(_rotated_dual_coords(v))[:, None]
    inv_c = np.array([1.0 / ci if ci else math.inf for ci in cs])[:, None]
    c_pow = np.array([abs(ci) ** p for ci in cs])[:, None]
    any_axis = 0.0 in cs
    on_axis = c == 0.0

    def log_norm(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = d * t
        w = c + delta
        mag = np.abs(w)
        u = delta * inv_c
        terms = c_pow * np.expm1(p * np.log1p(np.maximum(u, -2.0 - u)))
        if any_axis:
            terms = np.where(on_axis, mag ** p, terms)
        ell = np.log1p(terms[0] + terms[1]) / p
        if not np.isfinite(ell).all():
            m = np.maximum(mag[0], mag[1])
            far = np.log(m) + np.log1p((np.minimum(mag[0], mag[1]) / m) ** p) / p
            ell = np.where(np.isfinite(ell), ell, far)
        inv = np.exp(-ell)
        slope = d * np.copysign((mag * inv) ** (p - 1.0), w)
        return ell, t * inv * (slope[0] + slope[1])

    return log_norm


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _tight_roots(
    x: LpVector, y: LpVector, rs: np.ndarray, sign: int, s0=1.0, tol: float = _NEWTON_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Tightness scales at the curve parameters rs (nonzero, finite): the s
    of the given sign for which the codomain curve at t = r s has the norm of
    the domain curve at r, i.e. log ||y + t Jy*||_q = log ||x + r Jx*||_p.
    Returns (s, d log|s| / d log|r|); the slope is E_x / E_y - 1, E the
    elasticities of the two log norms at the solution.

    One Newton iteration in (log t, log l) for all points at once, from
    t = s0 |r| (s0 a scalar or one guess per point): near t = 0 both logs
    of the norms grow like t^2, far out like log t, so the log of either
    side is close to linear in log t and a few steps suffice. Safeguard: a
    step that fails to halve the step before, or leaves the bracket the
    residual signs give, is replaced by a bisection of that bracket in
    log t. A point stops once its Newton step is below tol, which leaves a
    relative error of order its square, plus four times the
    rounding noise of its residual: below that the steps are noise. A
    point is NaN where the domain log norm underflows, or where the noise
    at its root exceeds _NOISE_MAX (near-axis vectors with exponents far
    from 2, at tiny t).
    """
    rs = np.asarray(rs, dtype=float)
    abs_r = np.abs(rs)
    tsign = float(sign) * np.sign(rs)
    codomain = _log_curve_norm(y)
    target, x_elast = _log_curve_norm(x)(rs)
    log_target = np.log(target)
    # The first-order terms of an offset, p |c1 c2|^(p-1) |t| in size,
    # cancel; their rounding, relative to the log norm l, is the noise
    # _EPS |c1 c2|^(p-1) |t| / l of the solve. At the root l is the target,
    # so a root beyond t_noise is noise above _NOISE_MAX.
    x_noise = _EPS * abs(x.x1 * x.x2) ** (x.exponent.value - 1.0)
    y_noise = _EPS * abs(y.x1 * y.x2) ** (y.exponent.value - 1.0)
    x_rel = x_noise * abs_r / target
    t_noise = _NOISE_MAX * target / y_noise
    tol = tol + 4.0 * x_rel
    done = ~(target > 0.0)
    t = np.where(done, np.nan, s0 * abs_r)
    y_noise4 = 4.0 * y_noise
    lo = np.zeros_like(t)
    hi = np.full_like(t, np.inf)
    last = np.full_like(t, np.inf)
    for _ in range(_NEWTON_MAX):
        ell, elast = codomain(tsign * t)
        resid = np.log(ell) - log_target
        step = resid * ell / elast  # the Newton step lowers log t by this
        size = np.abs(step)
        # NaN compares False, so a point whose step is NaN stops.
        finished = ~(size > tol + y_noise4 * t / ell)
        new = t * np.exp(-step)
        below = resid < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        # A Newton step must halve the step before and stay in the bracket
        # the residual signs give; otherwise the point bisects the bracket
        # in log t (or doubles or halves t while one end is still open),
        # unless it stops here. A halving step rarely leaves the bracket,
        # so that test waits for the first step that does not halve.
        newton = size <= 0.5 * last
        if newton.all():
            last = size
        else:
            newton &= (new > lo) & (new <= hi)
            # A root above lo is above t_noise: noise, so stop looking.
            finished |= lo > t_noise
            mid = np.where(np.isfinite(hi), np.sqrt(lo * hi), 2.0 * lo)
            mid = np.where(finished, t, np.where(lo > 0.0, mid, 0.5 * hi))
            new = np.where(newton, new, mid)
            last = np.where(newton, size, np.abs(np.log(new / t)))
        t = np.where(done, t, new)
        done |= finished
        if done.all():
            break
    s = np.where(x_rel + y_noise * t / target > _NOISE_MAX, np.nan, float(sign) * t / abs_r)
    return s, x_elast / elast - 1.0


def tight_scale(x: LpVector, y: LpVector, r, sign: int) -> float:
    """Scalar tightness scale at curve parameter r (nonzero; infinity allowed).

    At r = 0 both sides of the defining equation are 1 and no root exists.
    NaN where doubles cannot resolve the root (see _tight_roots).
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
    return float(_tight_roots(x, y, np.array([r]), sign)[0][0])


def _curvature(e: Exponent, coord_prod: float) -> float:
    """Second-order growth rate of the curve norm power at r = 0."""
    if e.is_two:
        return 1.0
    p = e.value
    if coord_prod > 0.0:
        return (p - 1.0) * coord_prod ** (p - 2.0)
    return 0.0 if p > 2.0 else math.inf


def _limit_magnitude(x: LpVector, y: LpVector) -> float:
    """|small-r limit| of the tightness scale, from matching second-order
    growth of the two curve norms; extended arithmetic covers axis vectors."""
    p = x.exponent.value
    q = y.exponent.value
    cp = _curvature(x.exponent, abs(x.x1 * x.x2))
    cq = _curvature(y.exponent, abs(y.x1 * y.x2))
    if (cp == 0.0 and cq == 0.0) or (math.isinf(cp) and math.isinf(cq)):
        # Both vectors on axes with both exponents away from 2: the scale is
        # governed by the direct comparison of the two exponents.
        if abs(p - q) <= SAME_EXPONENT_TOL:
            return 1.0
        return 0.0 if p > q else math.inf
    if math.isinf(cp) or cq == 0.0:
        return math.inf
    if cp == 0.0 or math.isinf(cq):
        return 0.0
    return math.sqrt(cp / cq)


def limit_scale(x: LpVector, y: LpVector, sign: int) -> float:
    """Signed small-r limit of the tightness scale (+-inf when divergent)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_unit(x, 1e-10, "limit_scale (domain vector)")
    _require_unit(y, 1e-10, "limit_scale (codomain vector)")
    xc, yc, _ = canonical_pair(x, y)
    return float(sign) * _limit_magnitude(xc, yc)


def _closed_form(x: LpVector, y: LpVector) -> bool:
    """Canonical pairs whose endpoint no finite curve parameter attains:
    axis pairs (the scale is constant 1, or tends to 0 or to 1 at the ends
    of the curve) and balanced pairs with p < q (the two-point power-mean
    inequality puts the infimum at r -> 0)."""
    if x.x2 == 0.0 and y.x2 == 0.0:
        return True
    return x.x1 == x.x2 and y.x1 == y.x2 and x.exponent.value < y.exponent.value


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _grid_min(x: LpVector, y: LpVector, sign: int) -> tuple[float, float]:
    """(|s|, r) for the smallest tightness scale over finite r.

    The samples are the signed log grid and the points in its range where
    the domain curve crosses an axis: with p < 2, |x + r Jx*|^p bends there
    like a corner, which can put a minimum exactly at the crossing. A
    minimum lies around every sample below both its neighbours, and between
    two neighbouring samples where |s| turns from falling to rising, by the
    sign of the slope the root solve returns. These brackets (at most
    _ZOOM_ROWS, those with the smallest samples) are refined at once by
    zoom passes of the same root solve, warm-started from the scales of
    the pass before; the passes compare values only, so they need no
    smoothness at corners.
    """
    d = _rotated_dual_coords(x)
    crossings = [-c / di for c, di in zip(x.coords(), d) if c != 0.0 and di != 0.0]
    crossings = [r for r in crossings if _R_MIN <= abs(r) <= _R_MAX]
    rs = np.concatenate([_SIGNED_GRID, crossings])
    s, slope = _tight_roots(x, y, rs, sign)
    # fmin turns a NaN scale (a failed solve) into inf, so it never wins.
    s = np.fmin(np.abs(s), np.inf)
    k = int(np.argmin(s))
    best, r_best = float(s[k]), float(rs[k])
    rising = slope > 0.0
    rows = []  # smallest log|s| in the bracket, side, bracket in log|r|, samples
    for side in (1.0, -1.0):
        on_side = (np.sign(rs) == side) & (s > 0.0) & (s < np.inf)
        order = np.argsort(np.abs(rs[on_side]))
        us = np.log(np.abs(rs[on_side]))[order]
        log_s = np.log(s[on_side])[order]
        up = rising[on_side][order]
        low = np.zeros(us.size, dtype=bool)
        low[1:-1] = (log_s[1:-1] < log_s[:-2]) & (log_s[1:-1] <= log_s[2:])
        turn = ~up[:-1] & up[1:] & ~low[:-1] & ~low[1:]
        brackets = [(i - 1, i + 1) for i in np.flatnonzero(low)]
        brackets += [(i, i + 1) for i in np.flatnonzero(turn)]
        rows += [(log_s[i:j + 1].min(), side, us[i], us[j], us, log_s) for i, j in brackets]
    if not rows:
        return best, r_best
    # Rounding noise on flat stretches can make many shallow minima.
    rows.sort(key=lambda row: row[0])
    _, sides, lo, hi, prev_u, prev_log_s = zip(*rows[:_ZOOM_ROWS])
    sides = np.array(sides)[:, None]
    lo, hi = np.array(lo)[:, None], np.array(hi)[:, None]
    every = np.arange(len(sides))
    for tol in _ZOOM_TOLS:
        zu = lo + (hi - lo) * _ZOOM_STEPS
        zr = sides * np.exp(zu)
        # Warm start: the scales of the last pass, interpolated in log.
        s0 = np.exp([np.interp(u, pu, pl) for u, pu, pl in zip(zu, prev_u, prev_log_s)])
        zs = _tight_roots(x, y, zr.ravel(), sign, s0=s0.ravel(), tol=tol)[0]
        zs = np.fmin(np.abs(zs), np.inf).reshape(zu.shape)
        j = np.argmin(zs, axis=1)
        i = int(np.argmin(zs[every, j]))
        if tol <= _NEWTON_TOL and zs[i, j[i]] < best:
            best, r_best = float(zs[i, j[i]]), float(zr[i, j[i]])
        j = np.clip(j, 1, _ZOOM_POINTS - 2)
        lo, hi = zu[every, j - 1][:, None], zu[every, j + 1][:, None]
        prev_u, prev_log_s = zu, np.log(zs)
    return best, r_best


def _extremal_canonical(x: LpVector, y: LpVector, sign: int) -> ScaleResult:
    """Extremal scale for a canonical pair: the smallest |tight_scale| over
    finite r (both signs), the infinite parameter, and the small-r limit.

    Closed forms come first. For Hilbert pairs every scale is 1 and the
    reported witness is the infinite parameter, where the ratio
    ||T_s v|| / ||v|| is exactly |s|. For axis pairs and balanced pairs
    with p < q (_closed_form) the endpoint is the smaller of the scale at
    infinity and the small-r limit, so no finite r is solved for.
    """
    if x.exponent.is_two and y.exponent.is_two:
        return ScaleResult(float(sign), R_INFINITY)
    best_abs, witness = math.inf, None
    if not _closed_form(x, y):
        best_abs, witness = _grid_min(x, y, sign)

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
