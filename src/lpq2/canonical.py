"""Signed-permutation canonicalization of vectors and operator factors.

Signed permutations are isometries of every lp space, so conjugating by
them changes neither norms nor extremality; they let every computation
assume coordinates are nonnegative and sorted.
"""

from __future__ import annotations

from .core import LpVector

Mat = tuple[tuple[float, float], tuple[float, float]]


def mat_vec(S: Mat, v: tuple[float, float]) -> tuple[float, float]:
    return (
        S[0][0] * v[0] + S[0][1] * v[1],
        S[1][0] * v[0] + S[1][1] * v[1],
    )


def mat_mul(A: Mat, B: Mat) -> Mat:
    return (
        (
            A[0][0] * B[0][0] + A[0][1] * B[1][0],
            A[0][0] * B[0][1] + A[0][1] * B[1][1],
        ),
        (
            A[1][0] * B[0][0] + A[1][1] * B[1][0],
            A[1][0] * B[0][1] + A[1][1] * B[1][1],
        ),
    )


def transpose(S: Mat) -> Mat:
    return ((S[0][0], S[1][0]), (S[0][1], S[1][1]))


def det(S: Mat) -> float:
    return S[0][0] * S[1][1] - S[0][1] * S[1][0]


def canonical_vector(x: LpVector) -> tuple[LpVector, Mat]:
    """Signed permutation S with S x coordinatewise nonnegative and sorted.

    Returns (S x, S); the inverse of S is its transpose.
    """
    s1 = -1.0 if x.x1 < 0.0 else 1.0
    s2 = -1.0 if x.x2 < 0.0 else 1.0
    a1, a2 = s1 * x.x1, s2 * x.x2
    if a2 > a1:
        S: Mat = ((0.0, s2), (s1, 0.0))
        xc = LpVector(a2, a1, x.exponent)
    else:
        S = ((s1, 0.0), (0.0, s2))
        xc = LpVector(a1, a2, x.exponent)
    return xc, S


def canonical_pair(x: LpVector, y: LpVector) -> tuple[LpVector, LpVector, float]:
    """Canonical representatives of a domain/codomain pair plus orientation.

    The orientation is det(Sx) * det(Sy); it tells how the sign of the
    rank-one correction flips when the pair is canonicalized.
    """
    xc, Sx = canonical_vector(x)
    yc, Sy = canonical_vector(y)
    return xc, yc, det(Sx) * det(Sy)
