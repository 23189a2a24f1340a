import math

import numpy as np
import pytest

from lpq2.core import LpVector, R_INFINITY, RInfinity, curve_norm_power, curve_through
from lpq2.opnorm import Operator2x2, apply, is_contraction, norm_value
from lpq2.segment import (
    _tight_roots,
    extremal_scale,
    limit_scale,
    pinned_operator,
    pinned_segment,
    scale_at_infinity,
    tight_scale,
)

from oracles import (
    canonical,
    diag_norm_closed,
    limit_numeric,
    mp_extremal_scale,
    mp_tight_scale,
    verify_limit_scale,
)


def e1(p):
    return LpVector(1.0, 0.0, p)


def interior_pair(rng, plo=1.3, phi=5.0):
    p = float(rng.uniform(plo, phi))
    q = float(rng.uniform(plo, phi))
    x = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), p)
    y = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), q)
    return x, y


class TestPinnedOperator:
    def test_axis_pair_is_diagonal(self):
        for s in (-1.0, 0.0, 0.5, 2.0):
            T = pinned_operator(e1(3), e1(3), s)
            assert T.entries() == (1.0, 0.0, 0.0, s)

    def test_symmetric_pair_identity(self):
        c = 2.0 ** (-1.0 / 3.0)
        x = LpVector.unit(c, c, 3)
        T = pinned_operator(x, x, 1.0)
        ident = Operator2x2(1, 0, 0, 1, 3, 3)
        assert T.max_entry_diff(ident) <= 1e-14

    def test_zero_scale_is_rank_one(self):
        rng = np.random.default_rng(0)
        x, y = interior_pair(rng)
        T = pinned_operator(x, y, 0.0)
        assert abs(T.a11 * T.a22 - T.a12 * T.a21) <= 1e-14

    def test_maps_x_to_y(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = float(rng.uniform(1.1, 7.0))
            q = float(rng.uniform(1.1, 7.0))
            x = LpVector.unit(float(rng.normal()), float(rng.normal()), p)
            y = LpVector.unit(float(rng.normal()), float(rng.normal()), q)
            T = pinned_operator(x, y, float(rng.normal()))
            im = apply(T, x)
            assert abs(im.x1 - y.x1) <= 1e-12 and abs(im.x2 - y.x2) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            pinned_operator(LpVector(0.5, 0.5, 2), e1(2), 0.0)

    def test_curve_intertwining(self):
        # The pinned family sends the domain curve at r to the codomain
        # curve at r*s.
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = interior_pair(rng)
            s = float(rng.uniform(-1.5, 1.5))
            r = float(rng.uniform(-3.0, 3.0))
            T = pinned_operator(x, y, s)
            lhs = apply(T, curve_through(x, r))
            rhs = curve_through(y, r * s)
            assert abs(lhs.x1 - rhs.x1) <= 1e-12
            assert abs(lhs.x2 - rhs.x2) <= 1e-12


class TestTightScale:
    def test_equal_exponent_axis_pair(self):
        for r in (1e-4, 0.3, 7.0, -2.0):
            assert tight_scale(e1(3), e1(3), r, 1) == pytest.approx(1.0, abs=1e-12)
            assert tight_scale(e1(3), e1(3), r, -1) == pytest.approx(-1.0, abs=1e-12)

    def test_infinite_parameter(self):
        assert tight_scale(e1(2), e1(2), R_INFINITY, 1) == pytest.approx(1.0)
        assert tight_scale(e1(2), e1(2), math.inf, -1) == pytest.approx(-1.0)
        x = LpVector.from_mass(0.7, 3)
        y = LpVector.from_mass(0.6, 1.5)
        got = tight_scale(x, y, R_INFINITY, 1)
        assert got == pytest.approx(scale_at_infinity(x, y, 1), rel=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tight_scale(e1(2), e1(2), 0.0, 1)

    def test_substitution_residual(self):
        x = e1(2)
        y = LpVector.unit(0.9, (1.0 - 0.9 ** 3) ** (1.0 / 3.0), 3)
        s = tight_scale(x, y, 0.7, 1)
        target = curve_norm_power(x, 0.7, 3.0)  # domain norm power q/p-scaled
        got = curve_norm_power(y, 0.7 * s)
        assert abs(got - target) <= 1e-10

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x, y = interior_pair(rng)
            r = float(rng.uniform(0.05, 5.0)) * (1 if rng.random() < 0.5 else -1)
            sign = 1 if rng.random() < 0.5 else -1
            s = tight_scale(x, y, r, sign)
            q = y.exponent.value
            target = curve_norm_power(x, r, q)
            got = curve_norm_power(y, r * s)
            assert abs(got - target) <= 1e-10 * max(1.0, target)


class TestExtremalScale:
    def test_hilbert_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            x = LpVector.unit(float(rng.normal()), float(rng.normal()), 2)
            y = LpVector.unit(float(rng.normal()), float(rng.normal()), 2)
            assert extremal_scale(x, y, 1).value == pytest.approx(1.0, abs=1e-8)
            assert extremal_scale(x, y, -1).value == pytest.approx(-1.0, abs=1e-8)

    def test_axis_pair_small_codomain(self):
        res = extremal_scale(e1(3), e1(1.5), 1)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert res.witness is None

    def test_axis_pair_large_codomain(self):
        res = extremal_scale(e1(1.5), e1(3), 1)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert isinstance(res.witness, RInfinity)
        T1 = pinned_operator(e1(1.5), e1(3), 1.0)
        assert T1.max_entry_diff(Operator2x2(1, 0, 0, 1, 1.5, 3)) <= 1e-12

    def test_axis_pair_top_of_range(self):
        # e1 -> e1 into l^64: diag(1, s) has norm max(1, |s|), so the
        # endpoints are +-1, attained only at the infinite parameter.
        for p in (1.05, 1.2, 1.5, 2.0, 3.0):
            seg = pinned_segment(e1(p), e1(64))
            assert seg.endpoint_plus == pytest.approx(1.0, abs=1e-12)
            assert seg.endpoint_minus == pytest.approx(-1.0, abs=1e-12)
            assert isinstance(seg.witness_plus, RInfinity)
            assert isinstance(seg.witness_minus, RInfinity)
            for s in (seg.endpoint_plus, seg.endpoint_minus):
                T = pinned_operator(e1(p), e1(64), s)
                assert (T.a12, T.a21) == (0.0, 0.0)
                assert diag_norm_closed(T.a11, T.a22, p, 64) == pytest.approx(1.0, abs=1e-12)

    def test_non_canonical_orientation(self):
        # Mirrored pairs must map back coherently to the input orientation.
        x = LpVector(1.0, 0.0, 2)
        y = LpVector(0.0, 1.0, 2)
        assert extremal_scale(x, y, 1).value == pytest.approx(1.0, abs=1e-8)
        assert extremal_scale(x, y, -1).value == pytest.approx(-1.0, abs=1e-8)
        T = pinned_operator(x, y, extremal_scale(x, y, 1).value)
        assert norm_value(T) == pytest.approx(1.0, abs=1e-9)


def _balanced(p):
    return LpVector.unit(1.0, 1.0, p)


# Endpoints against 50-digit references: closed-form pairs with their
# witnesses, and pairs attained at a finite r with p or q at the bottom of
# the range (mass-parametrised, some off the canonical orientation).
CLOSED_FORM_PAIRS = (
    # (x, y, |endpoint| or None for the r -> 0 limit, witness)
    (e1(3.0), e1(6.0), 1.0, R_INFINITY),
    (e1(6.0), e1(3.0), 0.0, None),
    (e1(64.0), e1(64.0), 1.0, R_INFINITY),
    (LpVector.unit(0.6, -0.8, 2), LpVector.unit(0.3, 0.9, 2), 1.0, R_INFINITY),
    (_balanced(1.3), _balanced(1.6), None, None),  # lpq2 sstar --x 1,1 --y 1,1
)
FINITE_PAIRS = (
    (0.7, 1.05, 0.6, 3.0),
    (0.8, 3.0, 0.3, 1.05),
    (0.9, 1.05, 0.6, 1.05),
    (0.7, 1.05, 0.2, 64.0),
    (0.35, 6.0, 0.75, 1.05),
    (0.6, 1.05, 0.5, 1.5),
)


class TestEndpointsAgainstMpmath:
    def test_closed_form_pairs(self):
        for x, y, mag, witness in CLOSED_FORM_PAIRS:
            if mag is None:  # the r -> 0 limit: s is even in r, so s(1e-12) is within 1e-24
                p, q = x.exponent.value, y.exponent.value
                mag = float(mp_tight_scale(x.coords(), y.coords(), p, q, 1e-12, 1))
            seg = pinned_segment(x, y)
            assert (seg.endpoint_plus, seg.endpoint_minus) == pytest.approx(
                (mag, -mag), rel=1e-15, abs=0.0
            )
            assert seg.witness_plus is witness and seg.witness_minus is witness

    def test_finite_witness_pairs(self):
        for mx, p, my, q in FINITE_PAIRS:
            x = LpVector.from_mass(mx, p)
            y = LpVector.from_mass(my, q)
            y = LpVector(-y.x2, y.x1, q) if mx < 0.5 else y
            for sign in (1, -1):
                res = extremal_scale(x, y, sign)
                ref, _ = mp_extremal_scale(x.coords(), y.coords(), p, q, sign)
                assert abs(res.value) == pytest.approx(float(ref), rel=3e-14, abs=0.0)
                assert isinstance(res.witness, float)
                # The reported witness, a parameter of the canonical pair,
                # attains the reported value.
                (xc, dx), (yc, dy) = canonical(x.coords()), canonical(y.coords())
                at_witness = mp_tight_scale(xc, yc, p, q, res.witness, sign * dx * dy)
                assert abs(res.value) == pytest.approx(abs(float(at_witness)), rel=3e-14, abs=0.0)


class TestLimitScale:
    def test_balanced_anchor(self):
        y = LpVector.from_mass(0.5, 4)
        got = limit_scale(e1(2), y, 1)
        assert got == pytest.approx((1.0 / math.sqrt(3.0)) * 2.0 ** 0.5, rel=1e-12)

    def test_equal_exponent_interior(self):
        x = LpVector.from_mass(0.7, 3)
        assert limit_scale(x, x, 1) == pytest.approx(1.0, rel=1e-14)
        assert limit_scale(x, x, -1) == pytest.approx(-1.0, rel=1e-14)

    def test_divergent_case(self):
        # Domain exponent below 2 with an axis maximizer: no finite limit.
        y = LpVector.from_mass(0.7, 3)
        assert limit_scale(e1(1.5), y, 1) == math.inf

    def test_numeric_agrees_with_closed_form(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(50):
            x, y = interior_pair(rng, 1.3, 4.5)
            p, q = x.exponent.value, y.exponent.value
            closed = limit_scale(x, y, 1)
            est, diverging = limit_numeric(x.coords(), y.coords(), p, q, 1)
            assert not diverging
            assert abs(est - closed) <= 1e-6 * max(1.0, abs(closed))
            checked += 1
        assert checked == 50

    def test_verify_mode_passes_on_admissible(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = interior_pair(rng, 1.4, 4.0)
            p, q = x.exponent.value, y.exponent.value
            for sign in (1, -1):
                verify_limit_scale(limit_scale(x, y, sign), x.coords(), y.coords(), p, q, sign)


class TestPinnedSegment:
    def test_ordering_chain(self):
        rng = np.random.default_rng(7)
        for k in range(20):
            if k % 4 == 0:
                p = float(rng.uniform(1.2, 5.0))
                q = float(rng.uniform(1.2, 5.0))
                x = e1(p)
                y = LpVector.from_mass(float(rng.uniform(0.5, 1.0)), q)
            else:
                x, y = interior_pair(rng)
            seg = pinned_segment(x, y)
            assert seg.limit_minus <= seg.endpoint_minus
            assert seg.endpoint_minus <= 0.0 <= seg.endpoint_plus
            assert seg.endpoint_plus <= seg.limit_plus

    def test_contraction_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            x, y = interior_pair(rng)
            seg = pinned_segment(x, y)
            up = pinned_operator(x, y, seg.endpoint_plus)
            dn = pinned_operator(x, y, seg.endpoint_minus)
            assert is_contraction(up, 1e-8)
            assert is_contraction(dn, 1e-8)
            over = pinned_operator(x, y, seg.endpoint_plus + 1e-4)
            under = pinned_operator(x, y, seg.endpoint_minus - 1e-4)
            if seg.witness_plus is not None and not isinstance(seg.witness_plus, RInfinity):
                assert norm_value(over) > 1.0 + 1e-9
            if seg.witness_minus is not None and not isinstance(seg.witness_minus, RInfinity):
                assert norm_value(under) > 1.0 + 1e-9

    def test_hilbert_segment(self):
        x = LpVector.unit(0.6, 0.8, 2)
        y = LpVector.unit(-0.8, 0.6, 2)
        seg = pinned_segment(x, y)
        assert seg.endpoint_plus == pytest.approx(1.0, abs=1e-8)
        assert seg.endpoint_minus == pytest.approx(-1.0, abs=1e-8)

    def test_degenerate_axis_segment(self):
        seg = pinned_segment(e1(3), e1(1.5))
        assert seg.endpoint_plus == pytest.approx(0.0, abs=1e-6)
        assert seg.endpoint_minus == pytest.approx(0.0, abs=1e-6)

    def test_scale_monotone_violation(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x, y = interior_pair(rng)
            seg = pinned_segment(x, y)
            for s in (seg.endpoint_plus + 0.01, seg.endpoint_minus - 0.01):
                assert norm_value(pinned_operator(x, y, s)) > 1.0 + 1e-9

    def test_tight_scale_continuity(self):
        # Adjacent log-grid evaluations differ by O(grid step) away from 0.
        rng = np.random.default_rng(10)
        for _ in range(5):
            x, y = interior_pair(rng)
            grid = np.logspace(-3, 3, 600)
            vals = _tight_roots(x, y, grid, 1)[0]
            steps = np.abs(np.diff(vals))
            dlog = math.log(grid[1] / grid[0])
            assert steps.max() <= 50.0 * dlog * max(1.0, np.abs(vals).max())
