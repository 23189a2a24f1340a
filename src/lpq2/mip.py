"""Desk-scale evidence for failure of the ball-intersection property.

The dual of the projective tensor product of lp_2 and lq_2 is the space of
operators from lp_2 into the conjugate-exponent partner of lq_2. The
intersection property holds only if extreme points of the dual ball are
norm-dense in the dual sphere; the probes here measure how far the
rank-one norming functionals sit from the sampled extreme contractions,
and double-check by classifying a net of nearby unit-norm operators.

Everything is evidence, not proof: sampled minimum distances are upper
bounds on the true distance, and the net scan is a falsification check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (
    CLOSED_REGIONS,
    DOMAIN,
    EXTREME_ISOMETRY,
    EXTREME_TYPE_A,
    EXTREME_TYPE_B,
    REGION_I,
    REGION_IV,
    classify,
    generate_extreme,
    region_of,
    settled_families,
)
from .core import Exponent, LpVector, as_exponent
from .opnorm import Operator2x2, min_distance, norm_value
from .segment import extremal_scale, pinned_operator

FAILS_MIP = "FailsMIP"
OUT_OF_SCOPE = "OutOfScope"

GAP_EVIDENCE = "GapEvidence"
INCONCLUSIVE = "Inconclusive"

DEFAULT_GAP_THRESHOLD = 1e-2
DEFAULT_NET_RADIUS = 0.05
_CONJ_TOL = 1e-10

EXTREME_VERDICTS = (EXTREME_TYPE_A, EXTREME_TYPE_B, EXTREME_ISOMETRY)


def dual_space(p, q) -> tuple[Exponent, Exponent]:
    """Exponent pair of the operator space dual to the tensor product."""
    pe, qe = as_exponent(p), as_exponent(q)
    return pe, qe.conjugate


def mip_verdict(p, q) -> str:
    """FailsMIP for conjugate exponents, a factor equal to 2, or both
    factors above 2; OutOfScope otherwise."""
    pv, qv = as_exponent(p).value, as_exponent(q).value
    if abs(1.0 / pv + 1.0 / qv - 1.0) <= _CONJ_TOL:
        return FAILS_MIP
    if abs(pv - 2.0) <= _CONJ_TOL or abs(qv - 2.0) <= _CONJ_TOL:
        return FAILS_MIP
    if pv > 2.0 and qv > 2.0:
        return FAILS_MIP
    return OUT_OF_SCOPE


@dataclass
class ProbeReport:
    """Result of the dual-space gap probe around one rank-one target."""

    p: float
    q: float
    dual_q: float
    target: Operator2x2
    sampled_min_distance: float
    samples: int
    net_radius: float
    net_extreme_hits: int
    verdict: str
    net_points: int = 0
    max_net_distance: float = 0.0


def _family_members(p: Exponent, q: Exponent, grid: int) -> list[Operator2x2]:
    """The single-direction families of the region of (p, q)
    (`settled_families`), on a parameter grid, plus the signed-permutation
    isometries when they are extreme."""
    region = region_of(p, q)
    out: list[Operator2x2] = []
    masses = np.linspace(0.5, 1.0 - 1e-9, grid)

    if region == REGION_I:
        for t in np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False):
            c, s = math.cos(float(t)), math.sin(float(t))
            out.append(Operator2x2(c, -s, s, c, p, q))
            out.append(Operator2x2(c, s, s, -c, p, q))
        return out
    for fam in settled_families(p, q):
        fixed_e, free_e = (p, q) if fam.fixed == DOMAIN else (q, p)
        pins = [fam.fixed_vector(fixed_e)]
        if not fam.balanced:
            pins.append(LpVector(0.0, 1.0, fixed_e))
        for m in masses:
            # Masses stop short of 1, so both coordinates are positive.
            v = LpVector.from_mass(float(m), free_e)
            for w in (v, LpVector(v.x2, v.x1, free_e), LpVector(v.x1, -v.x2, free_e)):
                for pin in pins:
                    x, y = (pin, w) if fam.fixed == DOMAIN else (w, pin)
                    out.extend(pinned_operator(x, y, sc) for sc in fam.scales)
    if region == REGION_IV:
        for pat in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, 1, 0)):
            out.append(Operator2x2(*(float(v) for v in pat), p, q))
    return out


def _random_canonical_unit(rng: np.random.Generator, e: Exponent) -> LpVector:
    # Arcsine-distributed coordinate mass covers the boundary-heavy regions
    # where the extreme families live.
    mass = min(max(float(rng.beta(0.5, 0.5)), 1e-12), 1.0 - 1e-12)
    return LpVector.from_mass(max(mass, 1.0 - mass), e)


def _sample_endpoints(
    p: Exponent, q: Exponent, n_samples: int, rng: np.random.Generator
) -> list[Operator2x2]:
    """Segment endpoints through seeded random pairs, with random signs."""
    out = []
    for _ in range(n_samples):
        x = _random_canonical_unit(rng, p)
        y = _random_canonical_unit(rng, q)
        sign = 1 if rng.random() < 0.5 else -1
        out.append(generate_extreme(x, y, sign))
    return out


def _sample_extremes(
    p: Exponent, q: Exponent, n_samples: int, rng: np.random.Generator, grid: int = 256
) -> list[Operator2x2]:
    return _family_members(p, q, grid) + _sample_endpoints(p, q, n_samples, rng)


def density_probe(
    p,
    q,
    x: LpVector,
    y: LpVector,
    n_samples: int = 256,
    net_points: int = 2000,
    seed: int = 0,
    net_radius: float = DEFAULT_NET_RADIUS,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    family_grid: int = 256,
) -> ProbeReport:
    """Gap evidence around the rank-one norming functional built from (x, y).

    x lives in lp_2 and y in the conjugate-exponent partner of lq_2; both
    need all coordinates nonzero (the witness family of the failure
    argument). The verdict is GapEvidence when no sampled extreme or
    classified-extreme net point comes within gap_threshold of the target.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if net_points < 0:
        raise ValueError(f"net_points must be nonnegative, got {net_points}")
    if mip_verdict(pe, qe) != FAILS_MIP:
        raise ValueError(
            f"density_probe needs a FailsMIP pair, got ({pe.value:g}, {qe.value:g})"
        )
    dom, cod = dual_space(pe, qe)
    if x.exponent.value != dom.value or y.exponent.value != cod.value:
        raise ValueError("witness vectors must live in the dual operator space")
    if abs(x.norm() - 1.0) > 1e-10 or abs(y.norm() - 1.0) > 1e-10:
        raise ValueError("witness vectors must be unit")
    if x.x1 * x.x2 * y.x1 * y.x2 == 0.0 or min(
        abs(x.x1), abs(x.x2), abs(y.x1), abs(y.x2)
    ) <= 1e-9:
        raise ValueError("witness family requires all coordinates nonzero")

    target = pinned_operator(x, y, 0.0)
    rng = np.random.default_rng(seed)
    extremes = _sample_extremes(dom, cod, n_samples, rng, family_grid)
    if not extremes:
        raise ValueError(
            f"no extremes to sample: n_samples={n_samples}, family_grid={family_grid}"
        )
    min_dist = min_distance(extremes, target)

    hits = 0
    max_net = 0.0
    count = 0
    attempts = 0
    while count < net_points and attempts < 50 * net_points:
        attempts += 1
        delta = rng.normal(size=4)
        delta /= math.sqrt(float(delta @ delta))
        mag = float(rng.uniform(0.0, 0.45 * net_radius))
        Tn = target + Operator2x2(*(mag * delta), dom, cod)
        nv = norm_value(Tn)
        if nv <= 0.0:
            continue
        Tn = Tn.scaled(1.0 / nv)
        d = norm_value(Tn - target)
        if d > net_radius:
            continue
        count += 1
        max_net = max(max_net, d)
        verdict = classify(Tn).verdict
        if verdict in EXTREME_VERDICTS:
            hits += 1

    ok = hits == 0 and min_dist >= gap_threshold
    return ProbeReport(
        p=pe.value,
        q=qe.value,
        dual_q=cod.value,
        target=target,
        sampled_min_distance=min_dist,
        samples=len(extremes),
        net_radius=net_radius,
        net_extreme_hits=hits,
        verdict=GAP_EVIDENCE if ok else INCONCLUSIVE,
        net_points=count,
        max_net_distance=max_net,
    )


@dataclass
class ClosureProbeRow:
    """Observed distances from one diagonal target to the sampled extremes."""

    s: float
    distance_type_a: float
    distance_closed_form: float
    verdict_of_target: str


@dataclass
class ClosureReport:
    p: float
    s_values: list[float] = field(default_factory=list)
    rows: list[ClosureProbeRow] = field(default_factory=list)


def closure_probe(
    p,
    s_values,
    n_samples: int = 200,
    seed: int = 0,
    family_grid: int = 128,
) -> ClosureReport:
    """Distances from diag(1, s) targets to sampled extreme contractions in
    the equal-exponent space; purely observational (whether the diagonal
    operators with |s| < 1 lie in the closure is not settled)."""
    pe = as_exponent(p)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if pe.is_two:
        raise ValueError("closure_probe targets the equal-exponent spaces away from 2")
    rng = np.random.default_rng(seed)
    family = _family_members(pe, pe, family_grid)
    type_a = _sample_endpoints(pe, pe, n_samples, rng)

    report = ClosureReport(p=pe.value, s_values=[float(s) for s in s_values])
    for s in report.s_values:
        target = Operator2x2(1.0, 0.0, 0.0, s, pe, pe)
        da = min_distance(type_a, target)
        db = min_distance(family, target)
        nv = norm_value(target)
        verdict = classify(target.scaled(1.0 / nv)).verdict if nv > 0 else "degenerate"
        report.rows.append(
            ClosureProbeRow(
                s=s, distance_type_a=da, distance_closed_form=db,
                verdict_of_target=verdict,
            )
        )
    return report


@dataclass
class SequenceOutcome:
    x_limit: tuple[float, float]
    y_limit: tuple[float, float]
    sign: int
    scale_limit: float
    verdict: str


@dataclass
class ClosednessReport:
    p: float
    q: float
    region: str
    n_sequences: int
    non_extreme_limits: int
    outcomes: list[SequenceOutcome] = field(default_factory=list)


def closedness_check(
    p, q, n_sequences: int = 50, seed: int = 0
) -> ClosednessReport:
    """Classify the limits of sequences of extreme contractions.

    Each of the n_sequences seeded limit pairs (x, y) is an axis vector
    against a random unit vector, or two random unit vectors, and comes with
    a random sign. Endpoint scales vary continuously with the pair, so
    segment endpoints through pairs converging to (x, y) converge to the
    endpoint at (x, y). The function builds that limit operator from one
    endpoint solve at the limit pair, normalizes it and classifies it. In
    the settled regions other than the equal-exponent one, every limit must
    be extreme.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if n_sequences < 1:
        raise ValueError(f"n_sequences must be at least 1, got {n_sequences}")
    region = region_of(pe, qe)
    if region == REGION_IV:
        raise ValueError("the equal-exponent region is the known exception; rejected")
    if region not in CLOSED_REGIONS:
        raise ValueError(f"closedness_check runs on settled regions only, got {region}")
    rng = np.random.default_rng(seed)
    report = ClosednessReport(
        p=pe.value, q=qe.value, region=region, n_sequences=n_sequences,
        non_extreme_limits=0,
    )
    for k in range(n_sequences):
        kind = k % 3
        if kind == 0:
            x_lim = LpVector(1.0, 0.0, pe)
            y_lim = _random_canonical_unit(rng, qe)
        elif kind == 1:
            x_lim = _random_canonical_unit(rng, pe)
            y_lim = LpVector(1.0, 0.0, qe)
        else:
            x_lim = _random_canonical_unit(rng, pe)
            y_lim = _random_canonical_unit(rng, qe)
        sign = 1 if rng.random() < 0.5 else -1
        # Discarded draws: they keep each seed's stream, and so its limit
        # pairs and reports, as they were when these four normals set a
        # perturbation direction toward the limit pair.
        rng.normal(size=4)
        s_lim = extremal_scale(x_lim, y_lim, sign).value
        T_lim = pinned_operator(x_lim, y_lim, s_lim)
        nv = norm_value(T_lim)
        verdict = classify(T_lim.scaled(1.0 / nv)).verdict
        if verdict not in EXTREME_VERDICTS:
            report.non_extreme_limits += 1
        report.outcomes.append(
            SequenceOutcome(
                x_limit=x_lim.coords(), y_limit=y_lim.coords(), sign=sign,
                scale_limit=s_lim, verdict=verdict,
            )
        )
    return report
