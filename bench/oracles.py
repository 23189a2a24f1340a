"""Reference computations made apart from lpq2.

Nothing here imports the library. Operator norms come from a brute-force
scan of the domain sphere parametrised by coordinate mass (the library
scans by angle), the pinned family is built from its formula, scales have
closed forms, and inequality margins are evaluated at 50 digits.

Operators are plain tuples (a11, a12, a21, a22); vectors are (x1, x2).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Small coordinate masses of the scan: a uniform grid on [0, 1/2] plus a
# geometric one down to 1e-300, because for exponents in the dozens most of
# the sphere near an axis sits at masses far below any uniform step.
_MASSES = np.unique(
    np.concatenate([np.linspace(0.0, 0.5, 1025), np.logspace(-300.0, math.log10(0.5), 301)])
)
_ZOOM_POINTS = 33
_ZOOM_LEVELS = 7
_ZOOM_PEAKS = 2


def lp_norm(x1: float, x2: float, p: float) -> float:
    """(|x1|^p + |x2|^p)^(1/p) with the larger entry factored out."""
    a, b = abs(x1), abs(x2)
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0
    return a * (1.0 + (b / a) ** p) ** (1.0 / p)


def _lp_norm_arr(w1: np.ndarray, w2: np.ndarray, q: float) -> np.ndarray:
    a = np.maximum(np.abs(w1), np.abs(w2))
    b = np.minimum(np.abs(w1), np.abs(w2))
    safe = np.where(a > 0.0, a, 1.0)
    return np.where(a > 0.0, a * (1.0 + (b / safe) ** q) ** (1.0 / q), 0.0)


def _arc_values(T, p: float, q: float, small: np.ndarray, half: int, sgn: float) -> np.ndarray:
    """||T v||_q along one quarter arc of the lp sphere.

    `small` is the mass of the smaller coordinate; `half` says which
    coordinate that is; `sgn` is the sign of the second coordinate.
    """
    big_c = np.exp(np.log1p(-small) / p)
    small_c = small ** (1.0 / p)
    v1, v2 = (big_c, small_c) if half == 0 else (small_c, big_c)
    v2 = sgn * v2
    a11, a12, a21, a22 = T
    return _lp_norm_arr(a11 * v1 + a12 * v2, a21 * v1 + a22 * v2, q)


def brute_force_norm(T, p: float, q: float) -> float:
    """Induced lp -> lq norm of the 2x2 matrix T by grid scan and zoom.

    The unit sphere modulo sign is four quarter arcs; on each, the mass
    grid is scanned and the best local maxima are zoomed by repeated finer
    uniform grids between their neighbours.
    """
    best = 0.0
    for half in (0, 1):
        for sgn in (1.0, -1.0):
            vals = _arc_values(T, p, q, _MASSES, half, sgn)
            n = len(vals)
            left = np.concatenate([[-np.inf], vals[:-1]])
            right = np.concatenate([vals[1:], [-np.inf]])
            peaks = np.nonzero((vals >= left) & (vals >= right))[0]
            peaks = peaks[np.argsort(vals[peaks])[::-1][:_ZOOM_PEAKS]]
            for i in peaks:
                lo, hi = _MASSES[max(i - 1, 0)], _MASSES[min(i + 1, n - 1)]
                top = float(vals[i])
                for _ in range(_ZOOM_LEVELS):
                    grid = np.linspace(lo, hi, _ZOOM_POINTS)
                    zv = _arc_values(T, p, q, grid, half, sgn)
                    j = int(np.argmax(zv))
                    top = max(top, float(zv[j]))
                    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, _ZOOM_POINTS - 1)]
                best = max(best, top)
    return best


def unit(x1: float, x2: float, p: float) -> tuple[float, float]:
    n = lp_norm(x1, x2, p)
    return (x1 / n, x2 / n)


def from_mass(mass: float, p: float) -> tuple[float, float]:
    """Unit vector of lp with first-coordinate mass `mass`, both entries >= 0."""
    return (mass ** (1.0 / p), (1.0 - mass) ** (1.0 / p))


def dual(x, p: float) -> tuple[float, float]:
    """Norming functional of a unit x: sgn(xi)|xi|^(p-1)."""
    return tuple(math.copysign(abs(v) ** (p - 1.0), v) if v else 0.0 for v in x)


def rotated_dual(x, p: float) -> tuple[float, float]:
    """The dual of x turned a quarter: (-x2*, x1*)."""
    d1, d2 = dual(x, p)
    return (-d2, d1)


def pinned(x, y, s: float, p: float, q: float) -> tuple[float, float, float, float]:
    """T_s = y (x) x* + s * J y* (x) J x, the family through the unit pair
    (x, y): it maps x to y, and its rank-one correction has scale s."""
    xs = dual(x, p)
    g = rotated_dual(y, q)
    xo = (-x[1], x[0])
    return (
        y[0] * xs[0] + s * g[0] * xo[0],
        y[0] * xs[1] + s * g[0] * xo[1],
        y[1] * xs[0] + s * g[1] * xo[0],
        y[1] * xs[1] + s * g[1] * xo[1],
    )


def balanced_scale(p: float, q: float) -> float:
    """Endpoint scale of the balanced pair (both masses 1/2) when p < q."""
    return math.sqrt((p - 1.0) / (q - 1.0)) * 2.0 ** (2.0 / p - 2.0 / q)


def canonical(x) -> tuple[tuple[float, float], float]:
    """Coordinatewise |x| sorted decreasing, and the determinant (+-1) of
    the signed permutation that does it."""
    a1, a2 = abs(x[0]), abs(x[1])
    det = (-1.0 if x[0] < 0.0 else 1.0) * (-1.0 if x[1] < 0.0 else 1.0)
    if a2 > a1:
        return (a2, a1), -det
    return (a1, a2), det


def witness_ratio(x, y, s: float, r, p: float, q: float, dps: int = 50) -> mpmath.mpf:
    """||T_s v||_q / ||v||_p at the curve point v = x + r J x*, at 50 digits.

    r may be math.inf for v = J x* itself. x and y are renormalised at full
    precision first, so the ratio is exact up to the given scale s.
    """
    with mpmath.workdps(dps):
        p_, q_ = mpmath.mpf(p), mpmath.mpf(q)

        def norm(v, e):
            return (abs(v[0]) ** e + abs(v[1]) ** e) ** (1 / e)

        def sdual(v, e):
            return [mpmath.sign(c) * abs(c) ** (e - 1) for c in v]

        xm = [mpmath.mpf(c) for c in x]
        ym = [mpmath.mpf(c) for c in y]
        nx, ny = norm(xm, p_), norm(ym, q_)
        xm = [c / nx for c in xm]
        ym = [c / ny for c in ym]
        xs = sdual(xm, p_)
        ys = sdual(ym, q_)
        jxs = [-xs[1], xs[0]]
        g = [-ys[1], ys[0]]
        xo = [-xm[1], xm[0]]
        if math.isinf(r):
            v = jxs
        else:
            v = [xm[0] + r * jxs[0], xm[1] + r * jxs[1]]
        sm = mpmath.mpf(s)
        a = xs[0] * v[0] + xs[1] * v[1]
        b = sm * (xo[0] * v[0] + xo[1] * v[1])
        w = [ym[0] * a + g[0] * b, ym[1] * a + g[1] * b]
        return norm(w, q_) / norm(v, p_)


def mp_margin(kind: str, p: float, q: float, r: float, x1p: float | None = None,
              dps: int = 50) -> float:
    """rhs - lhs of the named two-point inequality at 50 digits.

    lemma1: symmetric power means with curvature-matched scaling.
    corollary: the comparison at the band's right endpoint.
    lemma3: the weighted comparison for the matched pair whose domain
    vector has dominant mass x1p; the codomain mass solves the
    second-order matching equation
    (q-2)^2/(q-1) (1/(y1 y2)^q - 4) = (p-2)^2/(p-1) (1/(x1 x2)^p - 4).
    """
    with mpmath.workdps(dps):
        p, q, r = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(r)
        if kind == "lemma1":
            a = mpmath.sqrt((p - 1) / (q - 1))
            lhs = ((abs(1 + a * r) ** q + abs(1 - a * r) ** q) / 2) ** (1 / q)
            rhs = ((abs(1 + r) ** p + abs(1 - r) ** p) / 2) ** (1 / p)
        elif kind == "corollary":
            lhs = ((abs(1 + (p - 1) * r) ** q + (p - 1) * abs(1 - r) ** q) / p) ** (1 / q)
            rhs = ((abs(1 + (q - 1) * r) ** p + (q - 1) * abs(1 - r) ** p) / q) ** (1 / p)
        elif kind == "lemma3":
            a1 = mpmath.mpf(x1p)
            prod_x = a1 * (1 - a1)  # (x1 x2)^p
            # Solve the matching equation for m = b1 (1 - b1) = (y1 y2)^q.
            m = 1 / (4 + (1 / prod_x - 4) * (p - 2) ** 2 * (q - 1) / ((q - 2) ** 2 * (p - 1)))
            b1 = (1 + mpmath.sqrt(1 - 4 * m)) / 2
            u = (1 - a1) / a1
            v = (1 - b1) / b1
            al = mpmath.sqrt((p - 1) / (q - 1))
            su, sv = mpmath.sqrt(u), mpmath.sqrt(v)
            lhs = ((abs(1 + al * sv * r) ** q + v * abs(1 - al / sv * r) ** q) / (1 + v)) ** (1 / q)
            rhs = ((abs(1 + su * r) ** p + u * abs(1 - r / su) ** p) / (1 + u)) ** (1 / p)
        else:
            raise ValueError(f"no reference for inequality {kind!r}")
        return float(rhs - lhs)
