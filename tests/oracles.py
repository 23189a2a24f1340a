"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: norms by
50-digit arithmetic, operator norms by brute-force mass-parametrized
sphere scans, diagonal norms by the interpolation closed form, tightness
scales and pinned-segment endpoints by mpmath root solves.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def mp_lp_norm(x1, x2, p, dps: int = 50) -> float:
    """lp norm summed at high precision."""
    with mpmath.workdps(dps):
        val = (abs(mpmath.mpf(x1)) ** p + abs(mpmath.mpf(x2)) ** p) ** (
            mpmath.mpf(1) / p
        )
        return float(val)


def mp_apply(entries, v, dps: int = 50) -> tuple[float, float]:
    """Matrix-vector product at high precision."""
    a11, a12, a21, a22 = entries
    with mpmath.workdps(dps):
        w1 = mpmath.mpf(a11) * mpmath.mpf(v[0]) + mpmath.mpf(a12) * mpmath.mpf(v[1])
        w2 = mpmath.mpf(a21) * mpmath.mpf(v[0]) + mpmath.mpf(a22) * mpmath.mpf(v[1])
        return float(w1), float(w2)


def brute_force_norm(entries, p: float, q: float, n: int = 100_000):
    """Max of ||T v||_q over the lp sphere, parametrized by coordinate mass
    and sign patterns (independent of the library's angle parametrization).

    Returns (norm, mass_at_max, sign_at_max).
    """
    a11, a12, a21, a22 = entries
    t = np.linspace(0.0, 1.0, n)
    v1 = t ** (1.0 / p)
    v2 = (1.0 - t) ** (1.0 / p)
    best = -1.0
    best_t = 0.0
    best_sign = 1.0
    for sgn in (1.0, -1.0):
        w1 = a11 * v1 + a12 * sgn * v2
        w2 = a21 * v1 + a22 * sgn * v2
        vals = (np.abs(w1) ** q + np.abs(w2) ** q) ** (1.0 / q)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_t = float(t[k])
            best_sign = sgn
    return best, best_t, best_sign


def brute_force_second_maximizer(
    entries, p: float, q: float, norm: float, n: int = 100_000,
    value_tol: float = 1e-9, sep: float = 1e-4
):
    """True when the scan finds two attaining directions separated by more
    than `sep` in coordinate distance (after sign canonicalization)."""
    a11, a12, a21, a22 = entries
    t = np.linspace(0.0, 1.0, n)
    v1 = t ** (1.0 / p)
    v2 = (1.0 - t) ** (1.0 / p)
    hits = []
    for sgn in (1.0, -1.0):
        w1 = a11 * v1 + a12 * sgn * v2
        w2 = a21 * v1 + a22 * sgn * v2
        vals = (np.abs(w1) ** q + np.abs(w2) ** q) ** (1.0 / q)
        for k in np.nonzero(vals >= norm - value_tol)[0]:
            hits.append((float(v1[k]), float(sgn * v2[k])))
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            a, b = hits[i], hits[j]
            d_direct = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            d_flip = max(abs(a[0] + b[0]), abs(a[1] + b[1]))
            if min(d_direct, d_flip) > sep:
                return True
    return False


def diag_norm_closed(d1: float, d2: float, p: float, q: float) -> float:
    """Norm of diag(d1, d2) from lp to lq: max entry for p <= q, the
    interpolation mean otherwise."""
    d1, d2 = abs(d1), abs(d2)
    if p <= q:
        return max(d1, d2)
    w = p * q / (p - q)
    return (d1 ** w + d2 ** w) ** (1.0 / w)


def mp_power_mean_margin(p, q, r, dps: int = 50) -> float:
    """High-precision evaluation of the symmetric two-point comparison."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(p)
        q = mpmath.mpf(q)
        r = mpmath.mpf(r)
        a = mpmath.sqrt((p - 1) / (q - 1))
        lhs = ((abs(1 + a * r) ** q + abs(1 - a * r) ** q) / 2) ** (1 / q)
        rhs = ((abs(1 + r) ** p + abs(1 - r) ** p) / 2) ** (1 / p)
        return float(rhs - lhs)


# ------------------------------------------------------- pinned-family scales
#
# Vectors are (x1, x2) tuples of unit vectors; the curve through x is
# x + r * (-sgn(x2)|x2|^(p-1), sgn(x1)|x1|^(p-1)). The tightness scale at r
# is the s of the given sign with ||y + r s Jy*||_q = ||x + r Jx*||_p.


class LimitScaleInconsistency(AssertionError):
    """A closed-form small-r limit disagrees with the dyadic estimate."""


def canonical(v) -> tuple[tuple[float, float], float]:
    """|coordinates| sorted down, and the determinant (+-1) of the signed
    permutation that does it: scales of the canonical pair are those of the
    input pair times the product of the two determinants."""
    a1, a2 = abs(v[0]), abs(v[1])
    det = (-1.0 if v[0] < 0.0 else 1.0) * (-1.0 if v[1] < 0.0 else 1.0)
    if a2 > a1:
        return (a2, a1), -det
    return (a1, a2), det


def _mp_unit(v, e):
    v = (mpmath.mpf(v[0]), mpmath.mpf(v[1]))
    n = (abs(v[0]) ** e + abs(v[1]) ** e) ** (1 / e)
    return v[0] / n, v[1] / n


def _mp_turned_dual(v, e):
    return (-mpmath.sign(v[1]) * abs(v[1]) ** (e - 1), mpmath.sign(v[0]) * abs(v[0]) ** (e - 1))


def _mp_curve_norm(v, e, r):
    if mpmath.isinf(r):
        w = _mp_turned_dual(v, e)
    else:
        d = _mp_turned_dual(v, e)
        w = (v[0] + r * d[0], v[1] + r * d[1])
    return (abs(w[0]) ** e + abs(w[1]) ** e) ** (1 / e)


def mp_tight_scale(x, y, p, q, r, sign: int, dps: int = 50):
    """Tightness scale at the finite nonzero curve parameter r, solved at
    `dps` digits by a bracketed root search on the codomain curve. x and y
    are renormalised at full precision first."""
    with mpmath.workdps(dps):
        p, q, r = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(r)
        xm = _mp_unit(x, p)
        ym = _mp_unit(y, q)
        target = _mp_curve_norm(xm, p, r)
        tsign = sign * mpmath.sign(r)
        dy = _mp_turned_dual(ym, q)
        top = 2 * (target + 1) / (abs(dy[0]) ** q + abs(dy[1]) ** q) ** (1 / q)

        def f(t):
            return _mp_curve_norm(ym, q, tsign * t) - target

        t = mpmath.findroot(f, (mpmath.mpf(0), top), solver="illinois", maxsteps=200)
        return tsign * t / r


def _scan_scales(x, y, p: float, q: float, rs: np.ndarray, sign: int) -> np.ndarray:
    """|tightness scale| at each r, in doubles: 200 bisections of
    ||y + t Jy*||_q = ||x + r Jx*||_p for |t| on a bracket from 0."""
    x = np.array(x) / (abs(x[0]) ** p + abs(x[1]) ** p) ** (1 / p)
    y = np.array(y) / (abs(y[0]) ** q + abs(y[1]) ** q) ** (1 / q)

    def turned_dual(v, e):
        return np.array([-np.sign(v[1]) * abs(v[1]) ** (e - 1), np.sign(v[0]) * abs(v[0]) ** (e - 1)])

    def norm(w, e):
        big = np.maximum(np.abs(w[0]), np.abs(w[1]))
        return big * (1.0 + (np.minimum(np.abs(w[0]), np.abs(w[1])) / big) ** e) ** (1 / e)

    dx, dy = turned_dual(x, p), turned_dual(y, q)
    target = norm(x[:, None] + rs * dx[:, None], p)
    tsign = sign * np.sign(rs)
    lo = np.zeros_like(rs)
    hi = 2.0 * (target + 1.0) / norm(dy[:, None], q)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        low = norm(y[:, None] + tsign * mid * dy[:, None], q) < target
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    return 0.5 * (lo + hi) / np.abs(rs)


def mp_extremal_scale(x, y, p, q, sign: int, dps: int = 50):
    """(|endpoint|, r) for a pair whose endpoint is attained at a finite r.

    A double-precision scan of 100 points per decade over
    1e-4 <= |r| <= 1e6, both signs, locates the smallest |scale| (below
    1e-4 the scan's direct norms lose too much to cancellation); golden
    section at `dps` digits in log|r| between the scan neighbours refines
    it to a width of 1e-13. Raises when the scan minimum lies at the end of
    the scan or the scale at the infinite parameter is smaller: such pairs
    need a closed form.
    """
    logs = np.linspace(-4.0, 6.0, 1001)
    best = None
    for side in (1.0, -1.0):
        vals = _scan_scales(x, y, p, q, side * 10.0 ** logs, sign)
        k = int(np.argmin(vals))
        if best is None or vals[k] < best[0]:
            best = (vals[k], side, k)
    _, side, k = best
    if k in (0, len(logs) - 1):
        raise ValueError("scan minimum at the end of the scan")
    with mpmath.workdps(dps):
        ln10 = mpmath.log(10)

        def h(u):
            return abs(mp_tight_scale(x, y, p, q, side * mpmath.exp(u), sign, dps))

        a, b = mpmath.mpf(logs[k - 1]) * ln10, mpmath.mpf(logs[k + 1]) * ln10
        g = (mpmath.sqrt(5) - 1) / 2
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = h(c), h(d)
        while b - a > mpmath.mpf("1e-13"):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - g * (b - a)
                fc = h(c)
            else:
                a, c, fc = c, d, fd
                d = a + g * (b - a)
                fd = h(d)
        value, u = (fc, c) if fc < fd else (fd, d)
        xm = _mp_unit(x, mpmath.mpf(p))
        ym = _mp_unit(y, mpmath.mpf(q))
        at_inf = _mp_curve_norm(xm, p, mpmath.inf) / _mp_curve_norm(ym, q, mpmath.inf)
        if at_inf <= value:
            raise ValueError("the infinite parameter attains the endpoint")
        return value, side * mpmath.exp(u)


def limit_numeric(x, y, p: float, q: float, sign: int) -> tuple[float, bool]:
    """Dyadic small-r estimate of the limit scale of the canonical pair from
    30-digit tightness scales at r = +-2^-k, k = 10..16.

    Returns (estimate, diverging). The scale approaches its limit with a
    side-dependent linear slope; two Richardson levels on k = 14, 15, 16
    remove the r and r^2 terms of each side. If the two sides split, the
    smaller magnitude (the limit inferior) is the estimate.
    """
    x, y = canonical(x)[0], canonical(y)[0]
    rs = [2.0 ** -k for k in range(10, 17)]
    sp = [float(mp_tight_scale(x, y, p, q, r, sign, 30)) for r in rs]
    sn = [float(mp_tight_scale(x, y, p, q, -r, sign, 30)) for r in rs]
    growth = abs(sp[-1]) / max(abs(sp[0]), 1e-300)
    if abs(sp[-1]) > 1e8 or growth > 1.5:
        return math.inf * sign, True

    def one_sided(seq):
        r1a = 2.0 * seq[-1] - seq[-2]
        r1b = 2.0 * seq[-2] - seq[-3]
        return (4.0 * r1a - r1b) / 3.0

    ep, en = one_sided(sp), one_sided(sn)
    if abs(ep - en) > 1e-6 * max(1.0, abs(ep)):
        return (ep if abs(ep) <= abs(en) else en), False
    return 0.5 * (ep + en), False


def verify_limit_scale(closed: float, x, y, p: float, q: float, sign: int) -> None:
    """Raise LimitScaleInconsistency when the closed-form limit `closed`
    and the dyadic estimate disagree beyond 1e-4 (relative, floor 1)."""
    est, diverging = limit_numeric(x, y, p, q, sign)
    if math.isinf(closed):
        if not diverging and abs(est) < 1e3:
            raise LimitScaleInconsistency(
                f"closed form is infinite but dyadic estimate is {est:.6g}"
            )
    elif diverging:
        raise LimitScaleInconsistency(f"closed form is {closed:.6g} but dyadic sequence diverges")
    elif abs(est - closed) > 1e-4 * max(1.0, abs(closed)):
        raise LimitScaleInconsistency(f"closed form {closed:.6g} vs dyadic estimate {est:.6g}")
