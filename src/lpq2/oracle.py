"""Brute-force extremality oracle by perturbation search.

A norm-one operator fails to be extreme exactly when it is the midpoint of
a nondegenerate segment inside the unit ball. The probe scans directions
in the four-dimensional entry space for a usable segment; success refutes
extremality constructively, while failure to refute is reported as such
(the probe cannot certify extremality, that burden stays with classify).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import LpVector, _dual_coords, lp_norm
from .opnorm import (
    Operator2x2,
    apply,
    contraction_bound,
    is_contraction,
    norm_value,
    op_norm,
)

DEFAULT_N_DIRECTIONS = 720
DEFAULT_EPS_MIN = 1e-4
DEFAULT_TOL = 1e-9

CONSISTENT = "ConsistentWithExtreme"
NOT_EXTREME = "NotExtreme"


@dataclass
class OracleVerdict:
    """Outcome of the perturbation scan.

    For NotExtreme, witness is a unit-Frobenius direction D and epsilon the
    largest step found with both T + eps*D and T - eps*D contractions.
    ConsistentWithExtreme means no direction reached eps_min: a
    failure-to-refute, not a proof.
    """

    verdict: str
    witness: Operator2x2 | None
    epsilon: float


def _direction(T: Operator2x2, entries) -> Operator2x2 | None:
    e = [float(v) for v in entries]
    nrm = math.sqrt(sum(v * v for v in e))
    if nrm == 0.0:
        return None
    return Operator2x2(
        e[0] / nrm, e[1] / nrm, e[2] / nrm, e[3] / nrm, T.domain, T.codomain
    )


def _segment_direction(T: Operator2x2) -> Operator2x2 | None:
    """Direction of the pinned family through T's norm-attaining pair, when a
    clean single-maximizer decomposition exists."""
    from .classify import canonicalize, _decompose, _conjugate
    from .core import _rotated_dual_coords

    try:
        can = canonicalize(T)
        if can.certificate.independent_pair:
            return None
        x, y, _ = _decompose(can)
    except ValueError:
        return None
    dy = _rotated_dual_coords(y)
    xo = (-x.x2, x.x1)
    D = Operator2x2(
        dy[0] * xo[0], dy[0] * xo[1], dy[1] * xo[0], dy[1] * xo[1],
        T.domain, T.codomain,
    )
    # The decomposition lives in the canonical frame; conjugate back.
    D = _conjugate(D, can.left_factor, can.right_factor)
    return _direction(T, D.entries())


# A genuine witness segment lies exactly on the unit sphere (the norm is
# convex, <= 1 on the segment and = 1 at its midpoint, hence constant), so
# the measured excess along it is pure roundoff. Directions along which the
# norm creeps above 1 at a rate flatter than the contraction tolerance are
# not witnesses, just tolerance leakage; they show excess ~ tol at the
# bisected step and get rejected here.
WITNESS_NOISE_TOL = 1e-12

# The screen's bound f(Tx) + eps |f(Dx)| holds exactly for ||x||_p = 1 and
# ||f||_q' = 1. The slack covers the rounding of both norms (a few ulps
# times the exponent) and the golden-refinement error by which norm_value
# can fall short of the true norm, so the screen rejects only directions
# the sphere scans would reject too.
SCREEN_SLACK = 1e-12


_Pairs = list[tuple[tuple[float, float, float, float], float]]


def _norming_pairs(T: Operator2x2, maximizers: list[LpVector]) -> _Pairs:
    """For each unit x, the entries of f (x) x and the value f(Tx).

    f is the norming functional of Tx / ||Tx||_q, a unit vector of the
    conjugate space, so f(Sx) = sum_ij f_i x_j S_ij bounds ||S|| from below
    for every operator S.
    """
    pairs = []
    for x in maximizers:
        w = apply(T, x)
        n = lp_norm(w.x1, w.x2, T.codomain)
        f1, f2 = _dual_coords(LpVector(w.x1 / n, w.x2 / n, T.codomain))
        g = (f1 * x.x1, f1 * x.x2, f2 * x.x1, f2 * x.x2)
        pairs.append((g, _pairing(g, T)))
    return pairs


def _pairing(g: tuple, S: Operator2x2) -> float:
    return g[0] * S.a11 + g[1] * S.a12 + g[2] * S.a21 + g[3] * S.a22


def _screen_rejects(
    D: Operator2x2, eps: float, tol: float, norming: _Pairs
) -> bool:
    """True when some pair proves max(||T + eps D||, ||T - eps D||) above the
    contraction bound: that maximum is at least f(Tx) + eps |f(Dx)|."""
    limit = contraction_bound(tol) + SCREEN_SLACK
    return any(gT + eps * abs(_pairing(g, D)) > limit for g, gT in norming)


def _feasible(
    T: Operator2x2, D: Operator2x2, eps: float, tol: float, norming: _Pairs
) -> bool:
    """Both T + eps*D and T - eps*D are contractions within tol.

    The screen over the norming pairs rejects most directions without a
    sphere scan; it never rejects one that the two scans accept.
    """
    if _screen_rejects(D, eps, tol, norming):
        return False
    return is_contraction(T + D.scaled(eps), tol) and is_contraction(
        T + D.scaled(-eps), tol
    )


def _excess(T: Operator2x2, D: Operator2x2, eps: float) -> float:
    return (
        max(norm_value(T + D.scaled(eps)), norm_value(T + D.scaled(-eps))) - 1.0
    )


def extremality_probe(
    T: Operator2x2,
    n_directions: int = DEFAULT_N_DIRECTIONS,
    eps_min: float = DEFAULT_EPS_MIN,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    bisect_iters: int = 40,
) -> OracleVerdict:
    """Scan unit directions for a symmetric feasible perturbation of T.

    Directions: the pinned-segment direction (when available), the eight
    axis-aligned entry directions, then n_directions seeded uniform draws
    from the entry-space sphere. The first direction (lowest index) that
    admits eps >= eps_min and survives the on-sphere witness validation
    wins; by convexity of eps -> max(||T + eps D||, ||T - eps D||),
    checking feasibility at eps_min is equivalent to the maximal feasible
    step reaching it.

    Every feasibility check (at eps_min, at eps = 1 and at each bisection
    step) first runs an exact screen. For each maximizer x in the op_norm
    certificate and the norming functional f of Tx / ||Tx||_q,
    max(||T + eps D||, ||T - eps D||) >= f(Tx) + eps |f(Dx)|, by convexity
    alone. When that bound exceeds the contraction bound by more than
    SCREEN_SLACK, the direction is infeasible and no sphere scan runs.
    The screen rejects only directions the scans reject, so verdict, step
    and witness are those of the scans alone; on an extreme operator it
    turns away nearly every direction at eps_min.
    """
    cert = op_norm(T)
    if abs(cert.norm - 1.0) > 1e-8:
        raise ValueError(f"extremality_probe requires norm one, got {cert.norm!r}")
    T = T.scaled(1.0 / cert.norm)
    norming = _norming_pairs(T, cert.maximizers)

    directions: list[Operator2x2 | None] = [_segment_direction(T)]
    for k in range(4):
        for sgn in (1.0, -1.0):
            e = [0.0, 0.0, 0.0, 0.0]
            e[k] = sgn
            directions.append(_direction(T, e))
    raw = np.random.default_rng(seed).normal(size=(n_directions, 4))
    # The drawn directions are built only as the scan reaches them: most
    # refutations stop at the first few.
    drawn = (_direction(T, row) for row in raw)

    for D in itertools.chain(directions, drawn):
        if D is None or not _feasible(T, D, eps_min, tol, norming):
            continue
        lo, hi = eps_min, 1.0
        if _feasible(T, D, hi, tol, norming):
            lo = hi
        else:
            for _ in range(bisect_iters):
                mid = 0.5 * (lo + hi)
                if _feasible(T, D, mid, tol, norming):
                    lo = mid
                else:
                    hi = mid
        # Validate slightly inside the feasible range: the bisection stops at
        # the tolerance boundary, where even a genuine witness shows excess
        # close to tol.
        eps_check = max(eps_min, lo - max(1e-6, 1e-3 * lo))
        if _excess(T, D, eps_check) <= WITNESS_NOISE_TOL:
            return OracleVerdict(NOT_EXTREME, D, eps_check)
    return OracleVerdict(CONSISTENT, None, 0.0)


def midpoint_check(
    T: Operator2x2, A: Operator2x2, B: Operator2x2, tol: float = DEFAULT_TOL
) -> bool:
    """True when A and B form a genuine segment with midpoint T: distinct,
    both contractions, and averaging entrywise to T within tol."""
    if A.max_entry_diff(B) <= tol:
        return False
    if not (is_contraction(A, tol) and is_contraction(B, tol)):
        return False
    mid = (A + B).scaled(0.5)
    return mid.max_entry_diff(T) <= tol
