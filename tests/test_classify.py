import math

import numpy as np
import pytest

from lpq2.canonical import mat_mul
from lpq2.classify import (
    EXTREME_ISOMETRY,
    EXTREME_TYPE_A,
    EXTREME_TYPE_B,
    NOT_EXTREME,
    UNKNOWN,
    canonicalize,
    classify,
    generate_extreme,
    not_extreme_certificate,
    region_of,
    settled_families,
)
from lpq2.core import Exponent, LpVector
from lpq2.inequality import solve_matched_pair
from lpq2.mip import _family_members
from lpq2.opnorm import Operator2x2, adjoint, norm_value
from lpq2.oracle import midpoint_check
from lpq2.segment import limit_scale, pinned_operator

EXTREMES = (EXTREME_TYPE_A, EXTREME_TYPE_B, EXTREME_ISOMETRY)


def e1(p):
    return LpVector(1.0, 0.0, p)


class TestRegionOf:
    @pytest.mark.parametrize(
        "pq,want",
        [
            ((2, 2), "i"),
            ((2, 4), "ii"),
            ((2, 1.5), "ii"),
            ((3, 2), "iii"),
            ((1.5, 2), "iii"),
            ((3, 3), "iv"),
            ((1.5, 1.5), "iv"),
            ((3, 1.5), "v"),
            ((1.5, 1.8), "open_b"),
            ((2.5, 3), "open_c"),
            ((1.5, 3), "open_d"),
            ((1.8, 1.5), "open_e"),
            ((4, 3), "open_f"),
        ],
    )
    def test_table(self, pq, want):
        assert region_of(*pq) == want


class TestSettledFamilies:
    def test_none_in_hilbert_and_open_regions(self):
        for pq in ((2, 2), (1.5, 1.8), (2.5, 3), (1.5, 3), (1.8, 1.5), (4, 3)):
            assert settled_families(*pq) == ()

    @pytest.mark.parametrize(
        "pq",
        [(2, 1.5), (2, 3), (3, 2), (1.5, 2), (3, 3), (1.5, 1.5), (1.2, 1.2),
         (3, 1.5), (6, 1.2)],
    )
    def test_generated_members_are_recognised(self, pq):
        # mip samples the members of the table and classify matches against
        # it: every member is extreme, and a single-direction one is named
        # by the detail of a family of its region.
        details = {fam.detail for fam in settled_families(*pq)}
        for T in _family_members(Exponent(pq[0]), Exponent(pq[1]), 12):
            cls = classify(T)
            assert cls.verdict in EXTREMES
            if cls.verdict == EXTREME_TYPE_B:
                assert cls.detail in details

    @pytest.mark.parametrize("p,entry", [(1.05, 0.373), (1.2, 1e-4), (1.5, 1e-6)])
    def test_region_iv_axis_exception_reads_entries(self, p, entry):
        # For p < 2 the entry of the rank-one operator onto e1 is x2^(p-1),
        # not x2, so a small maximizer coordinate is no axis-to-axis member.
        T = Operator2x2(1.0, entry, 0.0, 0.0, p, p)
        cls = classify(T.scaled(1.0 / norm_value(T)))
        assert cls.verdict == EXTREME_TYPE_B
        assert cls.detail == "rank-one onto a coordinate axis, interior maximizer"

    def test_axis_to_axis_stays_interior_below_two(self):
        cls = classify(Operator2x2(1.0, 0.0, 0.0, 0.0, 1.5, 1.5))
        assert cls.verdict == NOT_EXTREME
        assert cls.detail == "axis-to-axis rank-one is interior"


class TestCanonicalize:
    def test_already_canonical(self):
        x = LpVector.from_mass(0.7, 3)
        y = LpVector.from_mass(0.8, 1.5)
        T = pinned_operator(x, y, 0.0)
        can = canonicalize(T)
        assert can.left_factor == ((1.0, 0.0), (0.0, 1.0))
        assert can.right_factor == ((1.0, 0.0), (0.0, 1.0))

    def test_sign_flip_recovery(self):
        T = Operator2x2(-1.0, 0.0, 0.0, 0.3, 3, 3)
        can = canonicalize(T)
        assert can.operator.entries()[0] == pytest.approx(1.0)
        assert can.maximizer.x1 >= can.maximizer.x2 >= 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
            T = T.scaled(1.0 / norm_value(T))
            can = canonicalize(T)
            m = mat_mul(mat_mul(can.left_factor, (
                (can.operator.a11, can.operator.a12),
                (can.operator.a21, can.operator.a22),
            )), can.right_factor)
            rebuilt = Operator2x2(m[0][0], m[0][1], m[1][0], m[1][1], p, q)
            assert rebuilt.max_entry_diff(T) <= 1e-14

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError):
            canonicalize(Operator2x2(2.0, 0, 0, 0.5, 3, 3))


class TestClassifyAnchors:
    def test_hilbert_isometry(self):
        assert classify(Operator2x2(1, 0, 0, 1, 2, 2)).verdict == EXTREME_ISOMETRY
        c, s = math.cos(0.7), math.sin(0.7)
        assert classify(Operator2x2(c, -s, s, c, 2, 2)).verdict == EXTREME_ISOMETRY

    def test_hilbert_diagonal_interior(self):
        cls = classify(Operator2x2(1, 0, 0, 0.5, 2, 2))
        assert cls.verdict == NOT_EXTREME

    def test_equal_exponent_diagonal_interior(self):
        cls = classify(Operator2x2(1, 0, 0, 0.5, 3, 3))
        assert cls.verdict == NOT_EXTREME
        A, B = not_extreme_certificate(Operator2x2(1, 0, 0, 0.5, 3, 3), cls)
        assert midpoint_check(Operator2x2(1, 0, 0, 0.5, 3, 3), A, B, tol=1e-8)

    def test_balanced_image_family(self):
        q = 4.0
        y = LpVector.from_mass(0.5, q)
        x = LpVector.unit(0.6, 0.8, 2)
        s = (1.0 / math.sqrt(3.0)) * 2.0 ** 0.5
        assert classify(pinned_operator(x, y, s)).verdict == EXTREME_TYPE_B
        assert classify(pinned_operator(x, y, -s)).verdict == EXTREME_TYPE_B
        # A detuned scale leaves the family.
        assert classify(pinned_operator(x, y, 0.9 * s)).verdict == NOT_EXTREME

    def test_balanced_maximizer_family(self):
        p = 1.5
        x = LpVector.from_mass(0.5, p)
        y = LpVector.unit(0.3, -0.95, 2)
        s = math.sqrt(p - 1.0) * 2.0 ** ((2.0 - p) / p)
        assert classify(pinned_operator(x, y, s)).verdict == EXTREME_TYPE_B

    def test_axis_rank_one_region_iii(self):
        y = LpVector.unit(0.6, 0.8, 2)
        assert classify(pinned_operator(e1(3), y, 0.0)).verdict == EXTREME_TYPE_B

    def test_region_iv_families(self):
        y = LpVector.unit(0.6, 0.8, 3)
        assert classify(pinned_operator(e1(3), y, 0.0)).verdict == EXTREME_TYPE_B
        x = LpVector.unit(0.6, 0.8, 1.5)
        assert classify(pinned_operator(x, e1(1.5), 0.0)).verdict == EXTREME_TYPE_B
        # Axis-to-axis rank-one sits strictly inside the diagonal segment.
        assert classify(pinned_operator(e1(3), e1(3), 0.0)).verdict == NOT_EXTREME

    def test_region_v(self):
        p, q = 3.0, 1.5
        x = LpVector.unit(0.7, (1 - 0.7 ** 3) ** (1 / 3), p)
        y = LpVector.unit(0.8, (1 - 0.8 ** q) ** (1 / q), q)
        c_in = classify(pinned_operator(x, y, 0.0))
        assert c_in.verdict == NOT_EXTREME
        assert classify(pinned_operator(x, e1(q), 0.0)).verdict == EXTREME_TYPE_B
        assert classify(pinned_operator(e1(p), y, 0.0)).verdict == EXTREME_TYPE_B

    def test_open_region_families(self):
        for p, q in [(1.5, 1.8), (2.5, 3.5), (1.5, 3.0)]:
            x = LpVector.from_mass(0.5, p)
            y = LpVector.from_mass(0.5, q)
            s = math.sqrt((p - 1) / (q - 1)) * 2 ** (2 / p - 2 / q)
            assert classify(pinned_operator(x, y, s)).verdict == EXTREME_TYPE_B
            assert classify(pinned_operator(x, y, -s)).verdict == EXTREME_TYPE_B

    def test_band_family(self):
        p, q = 1.3, 1.7
        for mass in (0.52, 1.0 / q):
            x = LpVector.from_mass(mass, p)
            y = solve_matched_pair(p, q, x)
            s = limit_scale(x, y, 1)
            assert classify(pinned_operator(x, y, s)).verdict == EXTREME_TYPE_B

    def test_open_region_interior(self):
        T = pinned_operator(
            LpVector.unit(0.8, 0.5, 1.5), LpVector.unit(0.75, 0.58, 1.8), 0.05
        )
        assert classify(T).verdict == NOT_EXTREME

    def test_open_region_unknown(self):
        # Above the proven band in the small-exponent open region.
        p, q = 1.3, 1.7
        mass = 0.5 * (1.0 / q + 0.5 * (1 + math.sqrt((q - 2) * (p * q - p - q + 2) / (q * (p * q - p - q)))))
        x = LpVector.from_mass(mass, p)
        y = solve_matched_pair(p, q, x)
        s = limit_scale(x, y, 1)
        T = pinned_operator(x, y, s)
        if abs(norm_value(T) - 1.0) <= 1e-8:
            assert classify(T).verdict in (UNKNOWN, NOT_EXTREME)

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError):
            classify(Operator2x2(1.5, 0, 0, 0.2, 3, 3))


class TestInvariances:
    def _conjugates(self, T):
        perms = [
            ((1.0, 0.0), (0.0, 1.0)), ((-1.0, 0.0), (0.0, 1.0)),
            ((0.0, 1.0), (1.0, 0.0)), ((0.0, -1.0), (-1.0, 0.0)),
        ]
        for L in perms:
            for R in perms:
                m = mat_mul(mat_mul(L, ((T.a11, T.a12), (T.a21, T.a22))), R)
                yield Operator2x2(
                    m[0][0], m[0][1], m[1][0], m[1][1], T.domain, T.codomain
                )

    def test_isometry_conjugation_invariance(self):
        rng = np.random.default_rng(1)
        samples = []
        q4 = LpVector.from_mass(0.5, 4.0)
        samples.append(pinned_operator(LpVector.unit(0.6, 0.8, 2), q4,
                                       (1 / math.sqrt(3)) * 2 ** 0.5))
        samples.append(pinned_operator(
            LpVector.unit(0.7, (1 - 0.7 ** 3) ** (1 / 3), 3), e1(1.5), 0.0))
        T = Operator2x2(*(float(v) for v in rng.normal(size=4)), 3.0, 1.5)
        samples.append(T.scaled(1.0 / norm_value(T)))
        for T in samples:
            base = classify(T).verdict
            for S in self._conjugates(T):
                assert classify(S).verdict == base

    def test_adjoint_duality_of_verdicts(self):
        rng = np.random.default_rng(2)
        cases = []
        q4 = LpVector.from_mass(0.5, 4.0)
        cases.append(pinned_operator(LpVector.unit(0.6, 0.8, 2), q4,
                                     (1 / math.sqrt(3)) * 2 ** 0.5))
        cases.append(pinned_operator(e1(3.0), LpVector.unit(0.6, 0.8, 3.0), 0.0))
        cases.append(pinned_operator(
            LpVector.unit(0.7, (1 - 0.7 ** 3) ** (1 / 3), 3.0), e1(1.5), 0.0))
        for _ in range(6):
            p, q = [float(rng.uniform(1.4, 4.0)) for _ in range(2)]
            T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
            T = T.scaled(1.0 / norm_value(T))
            if region_of(p, q).startswith("open"):
                continue
            cases.append(T)
        for T in cases:
            if region_of(T.domain, T.codomain).startswith("open"):
                continue
            v1 = classify(T).verdict
            v2 = classify(adjoint(T)).verdict
            if v1 == EXTREME_ISOMETRY or v2 == EXTREME_ISOMETRY:
                assert {v1, v2} <= {EXTREME_ISOMETRY, EXTREME_TYPE_A}
            else:
                assert v1 == v2


class TestGenerateExtreme:
    def test_hilbert_gives_isometry(self):
        rng = np.random.default_rng(3)
        x = LpVector.unit(float(rng.normal()), float(rng.normal()), 2)
        y = LpVector.unit(float(rng.normal()), float(rng.normal()), 2)
        T = generate_extreme(x, y, 1)
        assert classify(T).verdict == EXTREME_ISOMETRY

    def test_outputs_classify_extreme(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            x = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), p)
            y = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), q)
            sign = 1 if rng.random() < 0.5 else -1
            T = generate_extreme(x, y, sign)
            assert norm_value(T) == pytest.approx(1.0, abs=1e-8)
            if not region_of(p, q).startswith("open"):
                assert classify(T).verdict in EXTREMES

    def test_certificates_for_not_extreme(self):
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(10):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
            T = T.scaled(1.0 / norm_value(T))
            cls = classify(T)
            if cls.verdict != NOT_EXTREME or cls.scale is None:
                continue
            A, B = not_extreme_certificate(T, cls)
            assert midpoint_check(T, A, B, tol=1e-8)
            count += 1
        assert count >= 5


class TestVerdictDomains:
    def test_no_unknown_in_settled_regions(self):
        rng = np.random.default_rng(6)
        region_pairs = [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0), (3.0, 1.5)]
        for p, q in region_pairs:
            for _ in range(8):
                T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
                T = T.scaled(1.0 / norm_value(T))
                cls = classify(T)
                assert cls.verdict != UNKNOWN

    def test_isometry_verdict_confined(self):
        rng = np.random.default_rng(7)
        seen = set()
        for p, q in [(2.0, 2.0), (2.0, 3.0), (3.0, 1.5), (3.0, 3.0), (1.5, 1.8)]:
            for _ in range(6):
                T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
                T = T.scaled(1.0 / norm_value(T))
                cls = classify(T)
                if cls.verdict == EXTREME_ISOMETRY:
                    seen.add(cls.region)
        assert seen <= {"i", "iv"}
