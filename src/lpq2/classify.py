"""Decision procedure for extreme contractions between lp_2 and lq_2.

A norm-one operator is an extreme point of the unit ball of operators
exactly when it either attains its norm on two linearly independent
directions, or belongs to one of the closed-form single-direction families
of its exponent region. The exponent plane splits into five settled
regions and five with only partial results, where a verdict of Unknown is
first class: no guessing happens there.

`settled_families` is the one statement of the single-direction families
of the settled regions: `classify` matches operators against it and
`mip` samples its members from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import canonical as cn
from .core import (
    SAME_EXPONENT_TOL, Exponent, LpVector, _dual_coords, _golden_min, _rotated_dual_coords,
    as_exponent, lp_norm,
)
from .opnorm import NormCertificate, Operator2x2, _scan_values, apply, op_norm, sphere_point
from .segment import extremal_scale, limit_scale, pinned_operator

# Verdicts
EXTREME_TYPE_A = "ExtremeTypeA"
EXTREME_TYPE_B = "ExtremeTypeB"
EXTREME_ISOMETRY = "ExtremeIsometry"
NOT_EXTREME = "NotExtreme"
UNKNOWN = "Unknown"

# Regions: both exponents 2; exactly the domain 2; exactly the codomain 2;
# equal away from 2; codomain < 2 < domain; and the five open configurations.
REGION_I = "i"
REGION_II = "ii"
REGION_III = "iii"
REGION_IV = "iv"
REGION_V = "v"
OPEN_B = "open_b"
OPEN_C = "open_c"
OPEN_D = "open_d"
OPEN_E = "open_e"
OPEN_F = "open_f"

CLOSED_REGIONS = (REGION_I, REGION_II, REGION_III, REGION_IV, REGION_V)

COORD_MATCH_TOL = 1e-7  # closed-form family matching on coordinates
NORM_ONE_TOL = 1e-8
DECOMP_RESIDUAL_TOL = 1e-8
INTERIOR_MARGIN = 1e-6


def region_of(p, q) -> str:
    """Exponent-plane region tag for (domain, codomain)."""
    pe, qe = as_exponent(p), as_exponent(q)
    pv, qv = pe.value, qe.value
    if pe.is_two and qe.is_two:
        return REGION_I
    if pe.is_two:
        return REGION_II
    if qe.is_two:
        return REGION_III
    if abs(pv - qv) <= SAME_EXPONENT_TOL:
        return REGION_IV
    if qv < 2.0 < pv:
        return REGION_V
    if pv < 2.0 and qv < 2.0:
        return OPEN_B if pv < qv else OPEN_E
    if pv > 2.0 and qv > 2.0:
        return OPEN_C if pv < qv else OPEN_F
    return OPEN_D  # pv < 2 < qv


DOMAIN = "domain"
CODOMAIN = "codomain"


@dataclass(frozen=True)
class Family:
    """Pinned operators T_s(x, y) whose vector on the `fixed` side is e1, or
    the balanced unit vector (both coordinate masses 1/2), with the other
    vector free and s one of `scales`. With `off_axes`, the member whose
    free vector is e1 too is not extreme."""

    fixed: str
    balanced: bool
    scales: tuple[float, ...]
    detail: str
    off_axes: bool = False

    def fixed_vector(self, e: Exponent) -> LpVector:
        return LpVector.from_mass(0.5, e) if self.balanced else LpVector(1.0, 0.0, e)


def settled_families(p, q) -> tuple[Family, ...]:
    """The single-direction extreme families of the settled region of (p, q),
    up to signed permutations on either side: none in region i, where only
    the isometries are extreme, and none in the open regions."""
    pe, qe = as_exponent(p), as_exponent(q)
    pv, qv = pe.value, qe.value
    region = region_of(pe, qe)
    onto_axis = Family(CODOMAIN, False, (0.0,), "rank-one onto a coordinate axis")
    from_axis = Family(DOMAIN, False, (0.0,), "rank-one from a coordinate axis")
    if region == REGION_II and qv > 2.0:
        sb = 1.0 / math.sqrt(qv - 1.0) * 2.0 ** ((qv - 2.0) / qv)
        return (Family(CODOMAIN, True, (sb, -sb),
                       "balanced image with matching correction scale"),)
    if region == REGION_III and pv < 2.0:
        sb = math.sqrt(pv - 1.0) * 2.0 ** ((2.0 - pv) / pv)
        return (Family(DOMAIN, True, (sb, -sb),
                       "balanced maximizer with matching correction scale"),)
    if region == REGION_IV and pv > 2.0:
        return (Family(DOMAIN, False, (0.0,),
                       "rank-one from a coordinate axis, interior image", True),)
    if region == REGION_IV:
        return (Family(CODOMAIN, False, (0.0,),
                       "rank-one onto a coordinate axis, interior maximizer", True),)
    return {REGION_II: (onto_axis,), REGION_III: (from_axis,),
            REGION_V: (onto_axis, from_axis)}.get(region, ())


@dataclass
class CanonicalForm:
    """Operator conjugated by signed permutations so the principal maximizer
    and its image have nonnegative, sorted coordinates.

    original = left_factor @ operator @ right_factor, exactly.
    """

    operator: Operator2x2
    left_factor: cn.Mat
    right_factor: cn.Mat
    maximizer: LpVector
    certificate: NormCertificate


def _conjugate(T: Operator2x2, L: cn.Mat, R: cn.Mat) -> Operator2x2:
    """L @ T @ R with the same space tags."""
    m = ((T.a11, T.a12), (T.a21, T.a22))
    out = cn.mat_mul(cn.mat_mul(L, m), R)
    return Operator2x2(
        out[0][0], out[0][1], out[1][0], out[1][1], T.domain, T.codomain
    )


def canonicalize(T: Operator2x2, cert: NormCertificate | None = None) -> CanonicalForm:
    """Conjugate T by signed permutations into canonical position.

    Requires norm one (within 1e-8). The factors are isometries of every
    lp space, so the conjugated operator has the same norm and the same
    extremality status.
    """
    if cert is None:
        cert = op_norm(T)
    if abs(cert.norm - 1.0) > NORM_ONE_TOL:
        raise ValueError(f"canonicalize requires a norm-one operator, got {cert.norm!r}")
    x0 = cert.maximizers[0]
    y0 = apply(T, x0)
    _, Sx = cn.canonical_vector(x0)
    _, Sy = cn.canonical_vector(y0)
    Tc = _conjugate(T, Sy, cn.transpose(Sx))
    xc_coords = cn.mat_vec(Sx, x0.coords())
    xc = LpVector(xc_coords[0], xc_coords[1], T.domain)
    return CanonicalForm(
        operator=Tc,
        left_factor=cn.transpose(Sy),
        right_factor=Sx,
        maximizer=xc,
        certificate=cert,
    )


@dataclass
class Classification:
    """Verdict plus the evidence that produced it."""

    verdict: str
    region: str
    detail: str
    norm_pair: tuple[LpVector, LpVector] | None = None
    scale: float | None = None
    endpoint_plus: float | None = None
    endpoint_minus: float | None = None


def is_isometry_sample(T: Operator2x2, n: int = 64, tol: float = 1e-9) -> bool:
    """Norm preservation checked on a sphere sample."""
    vals = _scan_values(T, math.pi * np.arange(n) / n)
    return bool(np.all(np.abs(vals - 1.0) <= tol))


def _is_signed_permutation(T: Operator2x2, tol: float = 1e-9) -> bool:
    e = T.entries()
    patterns = (
        (1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1),
        (0, 1, 1, 0), (0, 1, -1, 0), (0, -1, 1, 0), (0, -1, -1, 0),
    )
    return any(all(abs(a - b) <= tol for a, b in zip(e, pat)) for pat in patterns)


def _pinned_fit(T: Operator2x2, theta: float) -> tuple[LpVector, LpVector, float, float]:
    """Try to realize T as a pinned-family member whose maximizer sits at the
    given sphere angle; returns (x, y, s, reconstruction residual)."""
    v1, v2 = sphere_point(theta, T.domain)
    x = LpVector(v1, v2, T.domain)
    w = apply(T, x)
    y = LpVector.unit(w.x1, w.x2, T.codomain)
    dx = _rotated_dual_coords(x)
    z = (T.a11 * dx[0] + T.a12 * dx[1], T.a21 * dx[0] + T.a22 * dx[1])
    g = _rotated_dual_coords(y)
    gg = g[0] * g[0] + g[1] * g[1]
    s = (z[0] * g[0] + z[1] * g[1]) / gg
    rebuilt = pinned_operator(x, y, s)
    return x, y, s, rebuilt.max_entry_diff(T)


def _decompose(can: CanonicalForm) -> tuple[LpVector, LpVector, float]:
    """Read (x, y, s) off a canonicalized single-maximizer operator.

    The certificate fixes the maximizer only to the flatness of the norm
    peak (quartically flat for the single-direction families, so ~1e-4 at
    best), but the reconstruction residual is first-order sharp in the
    sphere angle; a short golden descent on it recovers the pair to near
    machine precision.
    """
    T = can.operator
    x0 = can.maximizer
    p = T.domain.value
    theta0 = math.atan2(
        max(x0.x2, 0.0) ** (p / 2.0), max(x0.x1, 0.0) ** (p / 2.0)
    )
    half = 2e-3

    def rho(theta: float) -> float:
        return _pinned_fit(T, theta)[3]

    theta_best, res_best = _golden_min(
        rho, max(0.0, theta0 - half), theta0 + half, 1e-14
    )
    if rho(theta0) <= res_best:
        theta_best = theta0
    x, y, s, resid = _pinned_fit(T, theta_best)
    if resid > DECOMP_RESIDUAL_TOL:
        raise ValueError(
            "single-maximizer operator does not decompose as a pinned-family "
            f"member (residual {resid:.3e})"
        )
    return x, y, s


def _symmetric_scale(p: float, q: float) -> float:
    """Single-direction family scale when both coordinate masses are 1/2."""
    return math.sqrt((p - 1.0) / (q - 1.0)) * 2.0 ** (2.0 / p - 2.0 / q)


def _matches_family(T: Operator2x2, x: LpVector, y: LpVector, s: float) -> bool:
    """Entrywise test of T against an exactly constructed family member.

    The norm certificate locates a degenerate-peak maximizer only to ~1e-4,
    so family membership is decided the other way around: hypothesize the
    family, reconstruct the member to machine precision, compare entries.
    """
    try:
        member = pinned_operator(x, y, s)
    except ValueError:
        return False
    return member.max_entry_diff(T) <= COORD_MATCH_TOL


def _dual_pullback(T: Operator2x2, y: LpVector) -> LpVector | None:
    """Candidate maximizer for image y: the adjoint sends the norming
    functional of y to that of x, which inverts coordinatewise."""
    f1, f2 = _dual_coords(y)
    w1 = T.a11 * f1 + T.a21 * f2
    w2 = T.a12 * f1 + T.a22 * f2
    inv = 1.0 / (T.domain.value - 1.0)
    x1 = math.copysign(abs(w1) ** inv, w1)
    x2 = math.copysign(abs(w2) ** inv, w2)
    if abs(lp_norm(x1, x2, T.domain) - 1.0) > 1e-5:
        return None
    return LpVector(x1, x2, T.domain)


def _image_vector(T: Operator2x2, x: LpVector) -> LpVector | None:
    w = apply(T, x)
    n = w.norm()
    if abs(n - 1.0) > 1e-5:
        return None
    return LpVector(w.x1 / n, w.x2 / n, T.codomain)


def classify(
    T: Operator2x2,
    cert: NormCertificate | None = None,
) -> Classification:
    """Classify a norm-one operator as extreme (and how), not extreme, or
    unknown (open-region cases beyond available results)."""
    if cert is None:
        cert = op_norm(T)
    if abs(cert.norm - 1.0) > NORM_ONE_TOL:
        raise ValueError(f"classify requires a norm-one operator, got norm {cert.norm!r}")
    p = T.domain.value
    q = T.codomain.value
    region = region_of(T.domain, T.codomain)

    if cert.independent_pair:
        x0 = cert.maximizers[0]
        pair = (x0, apply(T, x0))
        if region == REGION_I:
            if is_isometry_sample(T):
                return Classification(EXTREME_ISOMETRY, region, "isometry", pair)
            return Classification(
                NOT_EXTREME, region,
                "two independent maximizers but not an isometry", pair,
            )
        if region == REGION_IV and _is_signed_permutation(T):
            return Classification(EXTREME_ISOMETRY, region, "signed permutation", pair)
        return Classification(
            EXTREME_TYPE_A, region, "attains its norm on two independent directions",
            pair,
        )

    can = canonicalize(T, cert)
    Tc = can.operator
    x, y, s = _decompose(can)
    pair = (x, y)

    def not_extreme(detail: str) -> Classification:
        return Classification(NOT_EXTREME, region, detail, pair, s)

    def extreme_b(detail: str) -> Classification:
        return Classification(EXTREME_TYPE_B, region, detail, pair, s)

    if region == REGION_I:
        return not_extreme("single maximizer in the Hilbert case is interior")

    if region in CLOSED_REGIONS:
        for fam in settled_families(T.domain, T.codomain):
            if fam.fixed == DOMAIN:
                xf = fam.fixed_vector(T.domain)
                yf = _image_vector(Tc, xf)
            else:
                yf = fam.fixed_vector(T.codomain)
                xf = _dual_pullback(Tc, yf)
            if xf is None or yf is None:
                continue
            if any(_matches_family(Tc, xf, yf, ss) for ss in fam.scales):
                if fam.off_axes and _matches_family(
                    Tc, LpVector(1.0, 0.0, T.domain), LpVector(1.0, 0.0, T.codomain), 0.0
                ):
                    return not_extreme("axis-to-axis rank-one is interior")
                return extreme_b(fam.detail)
        return not_extreme("no single-direction family matches")

    # Open regions: only the settled families give a definite Extreme; a
    # strict interior scale gives NotExtreme; everything else is Unknown.
    if region in (OPEN_B, OPEN_C, OPEN_D):
        x_bal = LpVector.from_mass(0.5, T.domain)
        y_bal = LpVector.from_mass(0.5, T.codomain)
        s_sym = _symmetric_scale(p, q)
        if any(_matches_family(Tc, x_bal, y_bal, ss) for ss in (s_sym, -s_sym)):
            return extreme_b("balanced pair with matching correction scale")
    if region == OPEN_B and s > 0.0 and _band_family_match(Tc, x):
        return extreme_b("matched pair inside the proven parameter band")

    ep = extremal_scale(x, y, 1).value
    em = extremal_scale(x, y, -1).value
    interior = (em + INTERIOR_MARGIN < s) and (s < ep - INTERIOR_MARGIN)
    if interior:
        return Classification(
            NOT_EXTREME, region, "interior point of its pinned segment",
            pair, s, ep, em,
        )
    return Classification(
        UNKNOWN, region,
        "open-region single-direction case outside available results",
        pair, s, ep, em,
    )


def _band_family_match(Tc: Operator2x2, x_est: LpVector) -> bool:
    """Fit the proven-band family (dominant mass in [1/2, 1/q], matched
    image, positive limit scale) to Tc by minimizing the entrywise gap over
    the mass parameter."""
    from .inequality import solve_matched_pair

    p = Tc.domain.value
    q = Tc.codomain.value
    hi_edge = 1.0 / q

    def gap(mass: float) -> float:
        mass = min(max(mass, 0.5), hi_edge)
        xm = LpVector.from_mass(mass, Tc.domain)
        try:
            ym = solve_matched_pair(Tc.domain, Tc.codomain, xm)
            sm = limit_scale(xm, ym, 1)
            member = pinned_operator(xm, ym, sm)
        except (ValueError, OverflowError):
            return math.inf
        return member.max_entry_diff(Tc)

    m0 = min(max(x_est.x1 ** p, 0.5), hi_edge)
    lo = max(0.5, m0 - 0.02)
    hi = min(hi_edge, m0 + 0.02)
    if hi <= lo:
        lo, hi = max(0.5, hi_edge - 0.04), hi_edge
    _, best = _golden_min(gap, lo, hi, 1e-13)
    best = min(best, gap(0.5), gap(hi_edge))
    return best <= COORD_MATCH_TOL


def segment_endpoints(cls: Classification) -> tuple[float, float]:
    """(endpoint_plus, endpoint_minus) of the pinned segment through
    cls.norm_pair: the ones classify already solved for (open regions),
    else one solve per sign. Both equal pinned_segment's endpoints."""
    x, y = cls.norm_pair
    ep = cls.endpoint_plus if cls.endpoint_plus is not None else extremal_scale(x, y, 1).value
    em = cls.endpoint_minus if cls.endpoint_minus is not None else extremal_scale(x, y, -1).value
    return ep, em


def not_extreme_certificate(
    T: Operator2x2, cls: Classification | None = None
) -> tuple[Operator2x2, Operator2x2]:
    """Two distinct contractions averaging to T, witnessing non-extremality.

    Works for single-maximizer NotExtreme verdicts by stepping along the
    pinned segment on both sides of the decomposed scale.
    """
    if cls is None:
        cls = classify(T)
    if cls.verdict != NOT_EXTREME:
        raise ValueError("certificate only exists for NotExtreme operators")
    if cls.scale is None or cls.norm_pair is None:
        raise ValueError("no pinned-family decomposition available for this verdict")
    x, y = cls.norm_pair
    s = cls.scale
    ep, em = segment_endpoints(cls)
    room = min(ep - s, s - em)
    if room <= 0.0:
        raise ValueError("decomposed scale is not interior to its segment")
    delta = min(1e-3, room / 2.0)
    A = pinned_operator(x, y, s - delta)
    B = pinned_operator(x, y, s + delta)
    # Map back to the original orientation of T.
    can = canonicalize(T)
    L, R = can.left_factor, can.right_factor
    A2 = _conjugate(A, L, R)
    B2 = _conjugate(B, L, R)
    return A2, B2


def generate_extreme(x: LpVector, y: LpVector, sign: int) -> Operator2x2:
    """An endpoint of the pinned segment through (x, y): always extreme."""
    res = extremal_scale(x, y, sign)
    return pinned_operator(x, y, res.value)
