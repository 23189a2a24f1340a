import numpy as np
import pytest

from lpq2.core import Exponent, LpVector
from lpq2 import opnorm
from lpq2.opnorm import (
    Operator2x2,
    _grid_scan,
    _image_norms,
    _scan_values,
    _screen_bounds,
    _sphere_table,
    _theta_grid,
    adjoint,
    apply,
    contraction_bound,
    is_contraction,
    min_distance,
    norm_value,
    op_norm,
)
from lpq2.segment import pinned_operator

from oracles import (
    brute_force_norm,
    brute_force_second_maximizer,
    diag_norm_closed,
    mp_apply,
)


def random_operator(rng, p=None, q=None) -> Operator2x2:
    p = p if p is not None else float(rng.uniform(1.2, 6.0))
    q = q if q is not None else float(rng.uniform(1.2, 6.0))
    e = rng.normal(size=4)
    return Operator2x2(*(float(v) for v in e), p, q)


class TestApply:
    def test_identity(self):
        T = Operator2x2(1, 0, 0, 1, 3, 3)
        v = LpVector.unit(0.3, -0.9, 3)
        w = apply(T, v)
        assert w.coords() == v.coords()
        assert w.exponent.value == 3.0

    def test_pinned_maps_x_to_y(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = float(rng.uniform(1.2, 6.0))
            q = float(rng.uniform(1.2, 6.0))
            x = LpVector.unit(float(rng.normal()), float(rng.normal()), p)
            y = LpVector.unit(float(rng.normal()), float(rng.normal()), q)
            T = pinned_operator(x, y, float(rng.normal()))
            w = apply(T, x)
            assert abs(w.x1 - y.x1) <= 1e-12
            assert abs(w.x2 - y.x2) <= 1e-12

    def test_high_precision(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            T = random_operator(rng)
            v = LpVector(float(rng.normal()), float(rng.normal()), T.domain)
            w = apply(T, v)
            hp = mp_apply(T.entries(), v.coords())
            assert w.x1 == pytest.approx(hp[0], rel=1e-14, abs=1e-14)
            assert w.x2 == pytest.approx(hp[1], rel=1e-14, abs=1e-14)

    def test_exponent_mismatch(self):
        T = Operator2x2(1, 0, 0, 1, 3, 3)
        with pytest.raises(ValueError):
            apply(T, LpVector(1.0, 0.0, 2))


class TestOpNorm:
    def test_identity(self):
        cert = op_norm(Operator2x2(1, 0, 0, 1, 2, 2))
        assert cert.norm == pytest.approx(1.0, abs=1e-12)
        assert cert.independent_pair
        assert len(cert.maximizers) >= 2

    def test_rank_one_unique_maximizer(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            x = LpVector.from_mass(float(rng.uniform(0.55, 0.95)), p)
            y = LpVector.unit(float(rng.normal()), float(rng.normal()), q)
            T = pinned_operator(x, y, 0.0)
            cert = op_norm(T)
            assert cert.norm == pytest.approx(1.0, abs=1e-9)
            assert not cert.independent_pair
            m = cert.maximizers[0]
            align = min(
                max(abs(m.x1 - x.x1), abs(m.x2 - x.x2)),
                max(abs(m.x1 + x.x1), abs(m.x2 + x.x2)),
            )
            assert align <= 1e-5

    def test_diagonal_example(self):
        cert = op_norm(Operator2x2(1, 0, 0, 0.5, 3, 3))
        assert cert.norm == pytest.approx(1.0, abs=1e-12)
        assert len(cert.maximizers) == 1
        assert cert.maximizers[0].x1 == pytest.approx(1.0, abs=1e-9)
        bf, t_at, _ = brute_force_norm((1, 0, 0, 0.5), 3, 3, n=1_000_000)
        assert cert.norm == pytest.approx(bf, abs=1e-9)
        assert t_at == pytest.approx(1.0, abs=1e-5)

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            T = random_operator(rng)
            got = norm_value(T)
            bf, _, _ = brute_force_norm(
                T.entries(), T.domain.value, T.codomain.value, n=200_000
            )
            assert got >= bf - 1e-9
            assert got == pytest.approx(bf, rel=1e-7)

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = float(rng.uniform(1.2, 6.0))
            q = float(rng.uniform(1.2, 6.0))
            d1, d2 = rng.uniform(0.2, 2.0, size=2)
            T = Operator2x2(float(d1), 0, 0, float(d2), p, q)
            want = diag_norm_closed(d1, d2, p, q)
            assert norm_value(T) == pytest.approx(want, rel=1e-11)

    def test_column_lower_bound_and_diag_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            T = random_operator(rng)
            q = T.codomain
            c1 = apply(T, LpVector(1.0, 0.0, T.domain)).norm()
            c2 = apply(T, LpVector(0.0, 1.0, T.domain)).norm()
            assert norm_value(T) >= max(c1, c2) - 1e-9
        for _ in range(15):
            p = float(rng.uniform(1.2, 5.0))
            q = float(rng.uniform(p, 6.0))
            d1, d2 = rng.uniform(0.2, 2.0, size=2)
            T = Operator2x2(float(d1), 0, 0, float(d2), p, q)
            assert norm_value(T) == pytest.approx(max(d1, d2), abs=1e-9)

    def test_signed_permutation_invariance(self):
        rng = np.random.default_rng(6)
        perms = [
            ((1, 0), (0, 1)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)),
            ((0, 1), (1, 0)), ((0, -1), (1, 0)),
        ]
        for _ in range(10):
            T = random_operator(rng)
            base = norm_value(T)
            for L in perms:
                for R in perms:
                    M = np.array(L) @ T.as_matrix() @ np.array(R)
                    S = Operator2x2(
                        float(M[0, 0]), float(M[0, 1]), float(M[1, 0]), float(M[1, 1]),
                        T.domain, T.codomain,
                    )
                    assert norm_value(S) == pytest.approx(base, abs=1e-11 * max(1, base))

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            T = random_operator(rng)
            c = float(rng.uniform(0.1, 10.0)) * (1 if rng.random() < 0.5 else -1)
            assert norm_value(T.scaled(c)) == pytest.approx(
                abs(c) * norm_value(T), rel=1e-12
            )

    def test_maximizers_reproduce_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            T = random_operator(rng)
            cert = op_norm(T)
            for m in cert.maximizers:
                assert abs(apply(T, m).norm() - cert.norm) <= 1e-9 * max(1, cert.norm)

    def test_independent_pair_vs_brute_force(self):
        rng = np.random.default_rng(9)
        for k in range(12):
            if k % 3 == 0:
                # Norm-one operators attaining twice, from segment endpoints.
                p = float(rng.uniform(1.3, 4.0))
                q = float(rng.uniform(1.3, 4.0))
                x = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), p)
                y = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), q)
                from lpq2.classify import generate_extreme

                T = generate_extreme(x, y, 1)
            else:
                T = random_operator(rng)
                T = T.scaled(1.0 / norm_value(T))
            cert = op_norm(T)
            bf = brute_force_second_maximizer(
                T.entries(), T.domain.value, T.codomain.value, cert.norm, n=100_000
            )
            if bf:
                assert cert.independent_pair
            if not cert.independent_pair:
                assert not bf


class TestAdjoint:
    def test_involution(self):
        rng = np.random.default_rng(10)
        T = random_operator(rng)
        back = adjoint(adjoint(T))
        assert back.entries() == T.entries()
        assert back.domain.value == pytest.approx(T.domain.value, rel=1e-15)
        assert back.codomain.value == pytest.approx(T.codomain.value, rel=1e-15)

    def test_symmetric_hilbert(self):
        T = Operator2x2(1.0, 0.3, 0.3, -0.7, 2, 2)
        A = adjoint(T)
        assert A.entries() == T.entries()
        assert A.domain.value == 2.0 and A.codomain.value == 2.0

    def test_norm_duality(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            T = random_operator(rng)
            assert norm_value(adjoint(T)) == pytest.approx(
                norm_value(T), abs=1e-9 * max(1.0, norm_value(T))
            )


class TestIsContraction:
    def test_identity(self):
        assert is_contraction(Operator2x2(1, 0, 0, 1, 2, 2), 0.0)

    def test_scaled_identity(self):
        assert not is_contraction(Operator2x2(1.01, 0, 0, 1.01, 2, 2), 1e-6)

    def test_segment_endpoint(self):
        rng = np.random.default_rng(12)
        from lpq2.segment import extremal_scale

        for _ in range(5):
            p = float(rng.uniform(1.3, 4.0))
            q = float(rng.uniform(1.3, 4.0))
            x = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), p)
            y = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), q)
            s = extremal_scale(x, y, 1).value
            assert is_contraction(pinned_operator(x, y, s), 1e-8)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            is_contraction(Operator2x2(1, 0, 0, 1, 2, 2), -1.0)

    def test_scan_shortcut_matches_refined_norm(self):
        # A scan maximum above the bound decides without refinement; both
        # branches must give the refined norm's answer.
        rng = np.random.default_rng(21)
        shortcut = refined = 0
        # Diagonal operators with p <= q attain their norm at e1, a grid
        # point, so their scan maximum is the norm itself.
        ops = [random_operator(rng) for _ in range(8)]
        ops += [Operator2x2(1.0, 0.0, 0.0, float(rng.uniform(-0.9, 0.9)), p, 2.0 * p)
                for p in (1.2, 1.5, 2.0, 3.0)]
        for T in ops:
            T = T.scaled(1.0 / norm_value(T))
            for rel in (1e-12, 1e-9, 1e-6, 1e-4):
                for S in (T.scaled(1.0 + rel), T.scaled(1.0 - rel)):
                    for tol in (0.0, 1e-9):
                        bound = contraction_bound(tol)
                        assert is_contraction(S, tol) == (norm_value(S) <= bound)
                        if _grid_scan(S, 1024)[1].max() > bound:
                            shortcut += 1
                        else:
                            refined += 1
        assert shortcut and refined


SCAN_EXPONENTS = (1.05, 1.5, 2.0, 3.0, 64.0)


def scan_corpus(rng) -> np.ndarray:
    """Gaussian rows plus axis-aligned, rank-one and zero operators."""
    rows = [rng.normal(size=4) for _ in range(12)]
    rows += [np.eye(4)[k] * s for k in range(4) for s in (1.0, -2.5)]
    rows += [np.outer(rng.normal(size=2), rng.normal(size=2)).ravel() for _ in range(4)]
    rows += [np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, 3.0, -3.0, 0.0]), np.zeros(4)]
    return np.array(rows)


class TestScanKernel:
    @pytest.mark.parametrize("p", SCAN_EXPONENTS)
    def test_batched_rows_equal_single_scans(self, p):
        rng = np.random.default_rng(int(p * 100))
        E = scan_corpus(rng)
        for q in SCAN_EXPONENTS:
            thetas, v1, v2 = _sphere_table(1024, p)
            rows = _image_norms(*E.T[..., None], v1, v2, q)
            for row, e in zip(rows, E):
                T = Operator2x2(*(float(v) for v in e), p, q)
                assert np.array_equal(row, _scan_values(T, thetas))

    def test_sphere_table_is_read_only(self):
        thetas, v1, v2 = _sphere_table(1024, 3.0)
        assert thetas is _theta_grid(1024)
        for a in (thetas, v1, v2):
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("p", SCAN_EXPONENTS)
    def test_screen_bounds_stay_under_norm_value_grid(self, p):
        # The bound of each row is at most the maximum of the very grid that
        # norm_value scans, so it never exceeds norm_value.
        E = scan_corpus(np.random.default_rng(7))
        for q in SCAN_EXPONENTS:
            bounds = _screen_bounds(E, p, q)
            for b, e in zip(bounds, E):
                T = Operator2x2(*(float(v) for v in e), p, q)
                assert b <= _grid_scan(T, 1024)[1].max()
                assert b <= norm_value(T)


def plain_min_distance(ops, target) -> float:
    return min(norm_value(E - target) for E in ops)


class TestMinDistance:
    @pytest.mark.parametrize("pq", [(2.0, 3.0), (3.0, 2.0), (3.0, 3.0), (3.0, 1.5)])
    def test_equals_plain_loop_on_family_sets(self, pq):
        from lpq2.mip import _family_members

        p, q = pq
        ops = _family_members(Exponent(p), Exponent(q), 16)
        rng = np.random.default_rng(int(10 * p + q))
        for _ in range(2):
            x = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), p)
            y = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), q)
            for target in (pinned_operator(x, y, 0.0), random_operator(rng, p, q)):
                assert min_distance(ops, target) == plain_min_distance(ops, target)

    def test_ties_target_member_and_single_operator(self):
        rng = np.random.default_rng(4)
        ops = [random_operator(rng, 3.0, 1.5) for _ in range(5)]
        target = random_operator(rng, 3.0, 1.5)
        doubled = ops + ops[::-1]
        assert min_distance(doubled, target) == plain_min_distance(doubled, target)
        assert min_distance(ops + [target], target) == 0.0
        assert min_distance(ops[:1], target) == norm_value(ops[0] - target)

    def test_bounds_within_slack_keep_the_minimiser(self, monkeypatch):
        # If the array scan read a tenth of the slack high (a pow loop that
        # rounds differently), a nearer operator whose bound lands just above
        # the running minimum must still be refined.
        Y = Operator2x2(1.0, 0.0, 0.0, 1.0, 3.0, 3.0)  # constant on the sphere
        X = Operator2x2(0.6, 0.8, -0.8, 0.6, 3.0, 3.0)
        X = X.scaled(norm_value(Y) * (1.0 + 5e-14) / norm_value(X))
        zero = Operator2x2(0.0, 0.0, 0.0, 0.0, 3.0, 3.0)
        assert norm_value(Y) < norm_value(X)
        screen = opnorm._screen_bounds
        high = lambda *args: screen(*args) * (1.0 + opnorm._SCREEN_SLACK / 10)
        monkeypatch.setattr(opnorm, "_screen_bounds", high)
        bounds = high(np.array([X.entries(), Y.entries()]), 3.0, 3.0)
        assert bounds[0] < bounds[1]  # X is refined first
        assert min_distance([X, Y], zero) == norm_value(Y)

    def test_rejects_empty_and_mixed_sets(self):
        target = Operator2x2(1.0, 0.0, 0.0, 1.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            min_distance([], target)
        with pytest.raises(ValueError):
            min_distance([Operator2x2(1.0, 0.0, 0.0, 1.0, 3.0, 2.0)], target)
