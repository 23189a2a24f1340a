import numpy as np
import pytest

from lpq2.core import LpVector
from lpq2.mip import (
    FAILS_MIP,
    GAP_EVIDENCE,
    OUT_OF_SCOPE,
    _sample_extremes,
    closedness_check,
    closure_probe,
    density_probe,
    dual_space,
    mip_verdict,
)
from lpq2.opnorm import norm_value
from lpq2.oracle import CONSISTENT, extremality_probe


class TestDualSpace:
    def test_hilbert(self):
        d, c = dual_space(2, 2)
        assert d.value == 2.0 and c.value == 2.0

    def test_conjugate_arithmetic(self):
        d, c = dual_space(3, 1.5)
        assert d.value == 3.0
        assert c.value == pytest.approx(3.0)

    def test_mixed(self):
        d, c = dual_space(4, 3)
        assert d.value == 4.0
        assert c.value == pytest.approx(1.5)


class TestMipVerdict:
    @pytest.mark.parametrize(
        "pq,want",
        [
            ((3, 1.5), FAILS_MIP),    # conjugate exponents
            ((2, 7), FAILS_MIP),      # a factor equal to 2
            ((7, 2), FAILS_MIP),
            ((3, 4), FAILS_MIP),      # both above 2
            ((1.5, 1.8), OUT_OF_SCOPE),
            ((1.5, 2.5), OUT_OF_SCOPE),
        ],
    )
    def test_table(self, pq, want):
        assert mip_verdict(*pq) == want

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = float(rng.uniform(1.1, 6.0))
            q = float(rng.uniform(1.1, 6.0))
            assert mip_verdict(p, q) == mip_verdict(q, p)


class TestDensityProbe:
    def test_gap_in_equal_exponent_dual(self):
        dom, cod = dual_space(3, 1.5)
        x = LpVector.from_mass(0.55, dom)
        y = LpVector.from_mass(0.6, cod)
        rep = density_probe(3, 1.5, x, y, n_samples=48, net_points=120, seed=1,
                            family_grid=48)
        assert rep.verdict == GAP_EVIDENCE
        assert rep.net_extreme_hits == 0
        assert rep.sampled_min_distance >= 1e-2
        assert rep.dual_q == pytest.approx(3.0)

    def test_hilbert_distance_large(self):
        # Rank-one target among isometries: the sampled distance stays well
        # above the evidence threshold.
        dom, cod = dual_space(2, 2)
        x = LpVector.from_mass(0.5, dom)
        y = LpVector.from_mass(0.5, cod)
        rep = density_probe(2, 2, x, y, n_samples=48, net_points=60, seed=2,
                            family_grid=64)
        assert rep.sampled_min_distance > 0.1

    def test_rejects_axis_witness(self):
        dom, cod = dual_space(3, 1.5)
        with pytest.raises(ValueError):
            density_probe(3, 1.5, LpVector(1.0, 0.0, dom),
                          LpVector.from_mass(0.6, cod), n_samples=8, net_points=8)

    def test_rejects_out_of_scope(self):
        dom, cod = dual_space(1.5, 1.8)
        with pytest.raises(ValueError):
            density_probe(1.5, 1.8, LpVector.from_mass(0.6, dom),
                          LpVector.from_mass(0.6, cod))

    @pytest.mark.parametrize(
        "counts,name",
        [({"n_samples": -1}, "n_samples"), ({"net_points": -1}, "net_points"),
         ({"n_samples": 0, "family_grid": 0}, "family_grid")],
    )
    def test_rejects_bad_counts(self, counts, name):
        # The dual (2, 1.5) has no extremes beyond its sampled families.
        dom, cod = dual_space(2, 3)
        with pytest.raises(ValueError, match=name):
            density_probe(2, 3, LpVector.from_mass(0.6, dom),
                          LpVector.from_mass(0.6, cod), **counts)

    def test_sampled_extremes_are_extreme(self):
        rng = np.random.default_rng(3)
        dom, cod = dual_space(2, 4)
        ops = _sample_extremes(dom, cod, 20, rng, grid=16)
        for T in ops:
            assert abs(norm_value(T) - 1.0) <= 1e-8
        subsample = [ops[i] for i in rng.choice(len(ops), size=max(2, len(ops) // 10),
                                                replace=False)]
        for T in subsample:
            assert extremality_probe(T, n_directions=48, seed=5).verdict == CONSISTENT

    def test_seed_determinism(self):
        dom, cod = dual_space(2, 4)
        x = LpVector.from_mass(0.5, dom)
        y = LpVector.from_mass(0.5, cod)
        reps = [
            density_probe(2, 4, x, y, n_samples=16, net_points=40, seed=9,
                          family_grid=16)
            for _ in range(2)
        ]
        assert reps[0].sampled_min_distance == reps[1].sampled_min_distance
        assert reps[0].max_net_distance == reps[1].max_net_distance

    def test_sign_conjugate_targets_agree(self):
        # Targets built from sign-flipped witnesses are isometric images of
        # each other; the sampled distances agree up to sampling noise.
        dom, cod = dual_space(3, 1.5)
        x = LpVector.from_mass(0.6, dom)
        y = LpVector.from_mass(0.7, cod)
        x_flip = LpVector(x.x1, -x.x2, dom)
        y_flip = LpVector(y.x1, -y.x2, cod)
        d0 = density_probe(3, 1.5, x, y, n_samples=64, net_points=10, seed=3,
                           family_grid=64).sampled_min_distance
        d1 = density_probe(3, 1.5, x_flip, y_flip, n_samples=64, net_points=10,
                           seed=3, family_grid=64).sampled_min_distance
        assert d0 == pytest.approx(d1, abs=0.08)


class TestClosureProbe:
    def test_isometry_targets_have_zero_distance(self):
        rep = closure_probe(3, [1.0, -1.0], n_samples=24, seed=0, family_grid=24)
        for row in rep.rows:
            assert min(row.distance_type_a, row.distance_closed_form) <= 1e-7

    def test_rank_one_target_not_extreme(self):
        rep = closure_probe(3, [0.0], n_samples=16, seed=0, family_grid=16)
        assert rep.rows[0].verdict_of_target == "NotExtreme"

    def test_interior_diagonal_positive_distance(self):
        rep = closure_probe(3, [0.5], n_samples=36, seed=1, family_grid=24)
        row = rep.rows[0]
        assert row.distance_type_a > 0.0
        assert row.distance_closed_form > 0.0

    def test_rejects_hilbert(self):
        with pytest.raises(ValueError):
            closure_probe(2, [0.5])

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            closure_probe(3, [0.5], n_samples=0)


class TestClosednessCheck:
    @pytest.mark.parametrize("pq", [(2.0, 3.0), (3.0, 2.0), (3.0, 1.5)])
    def test_zero_non_extreme_limits(self, pq):
        rep = closedness_check(*pq, n_sequences=9, seed=4)
        assert rep.non_extreme_limits == 0
        assert len(rep.outcomes) == 9

    def test_one_endpoint_solve_per_sequence(self, endpoint_solves):
        closedness_check(3.0, 1.5, n_sequences=3)
        assert len(endpoint_solves) == 3

    def test_rejects_equal_exponents(self):
        with pytest.raises(ValueError):
            closedness_check(3.0, 3.0, n_sequences=2)

    def test_rejects_open_region(self):
        with pytest.raises(ValueError):
            closedness_check(1.5, 1.8, n_sequences=2)

    def test_rejects_no_sequences(self):
        with pytest.raises(ValueError, match="n_sequences"):
            closedness_check(3.0, 1.5, n_sequences=0)

    def test_hilbert_allowed(self):
        rep = closedness_check(2.0, 2.0, n_sequences=4, seed=5)
        assert rep.non_extreme_limits == 0
