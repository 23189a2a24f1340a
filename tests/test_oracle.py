import numpy as np
import pytest

from lpq2 import oracle
from lpq2.classify import classify, generate_extreme, NOT_EXTREME as CLS_NOT_EXTREME
from lpq2.core import LpVector
from lpq2.opnorm import Operator2x2, contraction_bound, norm_value, op_norm
from lpq2.oracle import (
    CONSISTENT,
    NOT_EXTREME,
    extremality_probe,
    midpoint_check,
)
from lpq2.segment import extremal_scale, pinned_operator

from oracles import brute_force_norm


def e1(p):
    return LpVector(1.0, 0.0, p)


class TestProbeAnchors:
    def test_interior_diagonal(self):
        T = Operator2x2(1, 0, 0, 0.5, 3, 3)
        v = extremality_probe(T, n_directions=64)
        assert v.verdict == NOT_EXTREME
        assert v.epsilon >= 1e-4
        # The witness should be dominated by the free diagonal entry.
        w = v.witness
        assert abs(w.a22) > 0.9

    def test_hilbert_isometry(self):
        T = Operator2x2(1, 0, 0, 1, 2, 2)
        assert extremality_probe(T, n_directions=64).verdict == CONSISTENT

    def test_degenerate_axis_rank_one(self):
        T = pinned_operator(e1(3), e1(1.5), 0.0)
        assert extremality_probe(T, n_directions=128).verdict == CONSISTENT

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError):
            extremality_probe(Operator2x2(2, 0, 0, 0.1, 3, 3))


class TestMidpointCheck:
    def test_degenerate_pair(self):
        T = Operator2x2(1, 0, 0, 0.5, 3, 3)
        assert not midpoint_check(T, T, T)

    def test_segment_triple(self):
        rng = np.random.default_rng(0)
        p = float(rng.uniform(1.4, 4.0))
        q = float(rng.uniform(1.4, 4.0))
        x = LpVector.from_mass(0.7, p)
        y = LpVector.from_mass(0.8, q)
        ep = extremal_scale(x, y, 1).value
        em = extremal_scale(x, y, -1).value
        s = 0.3 * em + 0.7 * ep
        d = min(ep - s, s - em) / 2.0
        T = pinned_operator(x, y, s)
        A = pinned_operator(x, y, s - d)
        B = pinned_operator(x, y, s + d)
        assert midpoint_check(T, A, B, tol=1e-8)

    def test_non_contraction_rejected(self):
        T = Operator2x2(1, 0, 0, 0.5, 3, 3)
        A = Operator2x2(1, 0, 0, 0.4, 3, 3)
        B = Operator2x2(1, 0, 0, 0.6, 3, 3).scaled(1.1)
        assert not midpoint_check(T, A, B)


class TestSoundness:
    def test_not_extreme_witnesses_are_midpoints(self):
        rng = np.random.default_rng(1)
        found = 0
        for _ in range(12):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
            T = T.scaled(1.0 / norm_value(T))
            v = extremality_probe(T, n_directions=32, seed=7)
            if v.verdict != NOT_EXTREME:
                continue
            found += 1
            A = T + v.witness.scaled(v.epsilon)
            B = T + v.witness.scaled(-v.epsilon)
            assert midpoint_check(T, A, B, tol=1e-8)
        assert found >= 8

    def test_completeness_on_segment_interior(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            x = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), p)
            y = LpVector.from_mass(float(rng.uniform(0.55, 0.9)), q)
            ep = extremal_scale(x, y, 1).value
            em = extremal_scale(x, y, -1).value
            if ep - em < 0.05:
                continue
            s = 0.5 * (ep + em)
            if min(ep - s, s - em) < 1e-2:
                continue
            T = pinned_operator(x, y, s)
            v = extremality_probe(T, n_directions=16, seed=3)
            assert v.verdict == NOT_EXTREME

    def test_agreement_with_classifier(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.3, 5.0))
            if rng.random() < 0.4:
                x = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), p)
                y = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), q)
                T = generate_extreme(x, y, 1 if rng.random() < 0.5 else -1)
            else:
                T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
                T = T.scaled(1.0 / norm_value(T))
            verdict = classify(T).verdict
            probe = extremality_probe(T, n_directions=96, seed=11)
            if probe.verdict == NOT_EXTREME:
                assert verdict in (CLS_NOT_EXTREME, "Unknown")


# The ten regions, then the four corners of the exponent range [1.05, 21].
SCREEN_PAIRS = (
    (2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0), (3.0, 1.5),
    (1.2, 1.5), (3.0, 6.0), (1.5, 3.0), (1.5, 1.2), (6.0, 3.0),
    (1.05, 1.05), (1.05, 21.0), (21.0, 1.05), (21.0, 21.0),
)
SCREEN_EPS = (1e-4, 1e-3, 1e-2)


def _screen_corpus(rng):
    """Two Gaussian norm-one operators and both endpoints of one pinned
    segment per pair, each rescaled and paired as extremality_probe does."""
    for p, q in SCREEN_PAIRS:
        ops = []
        for _ in range(2):
            T = Operator2x2(*(float(v) for v in rng.normal(size=4)), p, q)
            ops.append(T.scaled(1.0 / norm_value(T)))
        x = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), p)
        y = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), q)
        ops += [generate_extreme(x, y, 1), generate_extreme(x, y, -1)]
        for T in ops:
            cert = op_norm(T)
            T = T.scaled(1.0 / cert.norm)
            yield T, oracle._norming_pairs(T, cert.maximizers)


def _probe_answer(T, **kw):
    v = extremality_probe(T, **kw)
    return v.verdict, None if v.witness is None else v.witness.entries(), v.epsilon


class TestScreen:
    def test_never_rejects_a_feasible_direction(self):
        # Half the directions are seeded draws; the other half are tangent to
        # the first norming pair, then tilted so that the screen's bound
        # lands near the contraction bound, where a wrong screen would show.
        rng = np.random.default_rng(5)
        tol = oracle.DEFAULT_TOL
        drawn_rejections = []
        rejected = 0
        for T, norming in _screen_corpus(rng):
            G = np.array([g for g, _ in norming])
            basis = np.linalg.qr(G.T)[0]
            for i in range(40):
                r = rng.normal(size=4)
                tangent = r - basis @ (basis.T @ r)
                tangent /= np.linalg.norm(tangent)
                tilt = (0.5, 1.0, 1.001, 1.01, 2.0)[i % 5]
                for eps in SCREEN_EPS:
                    entries = r
                    if i % 2:
                        entries = tangent + (tilt * tol / eps) * G[0] / (G[0] @ G[0])
                    D = oracle._direction(T, entries)
                    if not oracle._screen_rejects(D, eps, tol, norming):
                        continue
                    rejected += 1
                    # An empty pair list leaves only the two sphere scans.
                    assert not oracle._feasible(T, D, eps, tol, [])
                    if not i % 2:
                        drawn_rejections.append((T, D, eps))
        assert rejected > 3000
        # Independently of the library's scans: one of T +- eps*D has
        # brute-force norm above 1 + tol.
        for T, D, eps in drawn_rejections[::15]:
            p, q = T.domain.value, T.codomain.value
            assert max(
                brute_force_norm((T + D.scaled(s * eps)).entries(), p, q)[0]
                for s in (1.0, -1.0)
            ) > 1.0 + tol

    def test_probe_answers_unchanged(self, monkeypatch):
        rng = np.random.default_rng(9)
        x, y = LpVector.from_mass(0.7, 3.0), LpVector.from_mass(0.6, 2.0)
        u, v = LpVector.from_mass(0.8, 1.5), LpVector.from_mass(0.65, 3.0)
        gauss = [
            Operator2x2(*(float(t) for t in rng.normal(size=4)), p, q)
            for p, q in ((2.0, 6.0), (1.5, 1.2), (3.0, 6.0))
        ]
        cases = [
            (Operator2x2(1, 0, 0, 0.5, 3, 3), {}),
            (Operator2x2(0.6, -0.8, 0.8, 0.6, 2, 2), {}),
            (generate_extreme(x, y, 1), {}),
            (generate_extreme(u, v, -1), {}),
        ] + [(T.scaled(1.0 / norm_value(T)), {}) for T in gauss]
        # The identity of l^2 with eps_min and tol chosen so that, for the
        # first axis direction, the screen's bound equals the contraction
        # bound exactly while the scans accept it: a screen that rejects at
        # equality, or subtracts its slack, picks another answer here.
        I = Operator2x2(1.0, 0.0, 0.0, 1.0, 2.0, 2.0)
        eps_min = 2.0 ** -43
        edge = I.scaled(1.0 / op_norm(I).norm).a11 + eps_min
        lo, hi = 0.0, 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if contraction_bound(mid) >= edge else (mid, hi)
        assert contraction_bound(hi) == edge
        cases.append((I, {"eps_min": eps_min, "tol": hi}))

        kw = {"n_directions": 96, "seed": 4}
        screened = [_probe_answer(T, **kw, **extra) for T, extra in cases]
        feasible = oracle._feasible

        def unscreened(T, D, eps, tol, norming):
            # With no norming pairs, _feasible is the two sphere scans alone.
            return feasible(T, D, eps, tol, [])

        monkeypatch.setattr(oracle, "_feasible", unscreened)
        plain = [_probe_answer(T, **kw, **extra) for T, extra in cases]
        assert screened == plain
        verdicts = [a[0] for a in plain]
        assert verdicts.count(NOT_EXTREME) >= 3
        assert verdicts.count(CONSISTENT) >= 3
