"""The acceptance checks, runnable at full or reduced sample scale.

Each check pins its tolerances here; the scale parameter only shrinks
sample counts (never tolerances) so the fast variant exercises the same
criteria. The pytest acceptance module runs everything at full scale; the
CLI selftest defaults to the fast variant for a quick deterministic
health report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (
    EXTREME_TYPE_B,
    NOT_EXTREME,
    classify,
    generate_extreme,
    not_extreme_certificate,
)
from .core import LpVector, R_INFINITY, curve_norm_power, curve_taylor
from .fdcheck import taylor_by_differences
from .inequality import (
    band_margin,
    default_r_grid,
    power_mean_margin,
    solve_matched_pair,
    substitution_frame,
    threshold_mean_margin,
)
from .mip import GAP_EVIDENCE, closedness_check, density_probe, dual_space
from .opnorm import Operator2x2, norm_value, op_norm
from .oracle import CONSISTENT, NOT_EXTREME as ORACLE_NOT_EXTREME, extremality_probe, midpoint_check
from .segment import extremal_scale, pinned_operator

FULL = "full"
FAST = "fast"


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _n(scale: str, full: int, fast: int) -> int:
    return full if scale == FULL else fast


def _random_unit(rng: np.random.Generator, p) -> LpVector:
    a, b = rng.normal(size=2)
    return LpVector.unit(float(a), float(b), p)


def check_case_one_anchors(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Equal exponents give unit endpoints; axis pairs give the degenerate
    or infinite-parameter endpoints with the identity realization."""
    rng = np.random.default_rng(seed)
    n_pairs = _n(scale, 20, 6)
    worst = 0.0
    for _ in range(n_pairs):
        x = _random_unit(rng, 2)
        y = _random_unit(rng, 2)
        worst = max(
            worst,
            abs(extremal_scale(x, y, 1).value - 1.0),
            abs(extremal_scale(x, y, -1).value + 1.0),
        )
    ok_hilbert = worst <= 1e-8

    e1a = LpVector(1.0, 0.0, 3.0)
    e1b = LpVector(1.0, 0.0, 1.5)
    res_p = extremal_scale(e1a, e1b, 1)
    res_m = extremal_scale(e1a, e1b, -1)
    ok_degenerate = abs(res_p.value) <= 1e-6 and abs(res_m.value) <= 1e-6
    t0 = pinned_operator(e1a, e1b, 0.0)
    ok_oracle = extremality_probe(t0, n_directions=_n(scale, 720, 96)).verdict == CONSISTENT

    e1c = LpVector(1.0, 0.0, 1.5)
    e1d = LpVector(1.0, 0.0, 3.0)
    rp = extremal_scale(e1c, e1d, 1)
    rm = extremal_scale(e1c, e1d, -1)
    ok_inf = (
        abs(rp.value - 1.0) <= 1e-8
        and abs(rm.value + 1.0) <= 1e-8
        and rp.witness is R_INFINITY
        and rm.witness is R_INFINITY
    )
    t1 = pinned_operator(e1c, e1d, 1.0)
    ident = Operator2x2(1.0, 0.0, 0.0, 1.0, e1c.exponent, e1d.exponent)
    ok_identity = t1.max_entry_diff(ident) <= 1e-12

    passed = ok_hilbert and ok_degenerate and ok_oracle and ok_inf and ok_identity
    return CheckResult(
        1, "case-one-anchors", passed,
        {
            "hilbert_worst": worst,
            "degenerate_plus": res_p.value,
            "degenerate_oracle_ok": ok_oracle,
            "infinite_witness_ok": ok_inf,
            "identity_ok": ok_identity,
            "pairs": n_pairs,
        },
    )


def check_balanced_image_anchor(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Domain exponent 2, codomain 4: the balanced-image family member has
    norm one, a unique maximizer, classifies extreme, and survives the
    perturbation probe."""
    q = 4.0
    y = LpVector.from_mass(0.5, q)
    x = LpVector.unit(0.6, 0.8, 2)
    s = (1.0 / math.sqrt(3.0)) * 2.0 ** 0.5
    T = pinned_operator(x, y, s)
    cert = op_norm(T)
    ok_norm = abs(cert.norm - 1.0) <= 1e-7
    ok_unique = len(cert.maximizers) == 1 and not cert.independent_pair
    m = cert.maximizers[0]
    align = min(
        max(abs(m.x1 - x.x1), abs(m.x2 - x.x2)),
        max(abs(m.x1 + x.x1), abs(m.x2 + x.x2)),
    )
    ok_max = align <= 1e-3  # the peak is quartically flat; position is fuzzy
    verdict = classify(T).verdict
    ok_classify = verdict == EXTREME_TYPE_B
    probe = extremality_probe(T, n_directions=_n(scale, 720, 96), eps_min=1e-4)
    ok_probe = probe.verdict == CONSISTENT
    passed = ok_norm and ok_unique and ok_max and ok_classify and ok_probe
    return CheckResult(
        2, "balanced-image-anchor", passed,
        {
            "norm": cert.norm,
            "unique": ok_unique,
            "maximizer_align": align,
            "verdict": verdict,
            "probe": probe.verdict,
        },
    )


def check_rank_one_anchors(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Codomain below 2, domain above: interior rank-ones are midpoints,
    axis rank-ones are extreme."""
    p, q = 3.0, 1.5
    x = LpVector.unit(0.7, (1.0 - 0.7 ** 3) ** (1.0 / 3.0), p)
    y = LpVector.unit(0.8, (1.0 - 0.8 ** q) ** (1.0 / q), q)
    T0 = pinned_operator(x, y, 0.0)
    c0 = classify(T0)
    ok_not = c0.verdict == NOT_EXTREME
    ok_cert = False
    if ok_not:
        A, B = not_extreme_certificate(T0, c0)
        ok_cert = midpoint_check(T0, A, B, tol=1e-8)
    Te = pinned_operator(x, LpVector(1.0, 0.0, q), 0.0)
    ce = classify(Te)
    ok_axis = ce.verdict == EXTREME_TYPE_B
    probe = extremality_probe(Te, n_directions=_n(scale, 720, 96), eps_min=1e-4)
    ok_probe = probe.verdict == CONSISTENT
    passed = ok_not and ok_cert and ok_axis and ok_probe
    return CheckResult(
        3, "rank-one-anchors", passed,
        {
            "interior_verdict": c0.verdict,
            "midpoint_ok": ok_cert,
            "axis_verdict": ce.verdict,
            "probe": probe.verdict,
        },
    )


def check_taylor_coefficients(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Closed-form Taylor coefficients match finite differences."""
    rng = np.random.default_rng(seed)
    n = _n(scale, 100, 25)
    worst = 0.0
    for _ in range(n):
        p = float(rng.uniform(1.3, 5.0))
        q = float(rng.uniform(1.3, 5.0))
        x = LpVector.from_mass(float(rng.uniform(0.25, 0.75)), p)
        for power in (None, q):
            pw = p if power is None else power
            closed = curve_taylor(x, pw).as_tuple()
            fd = taylor_by_differences(lambda r: curve_norm_power(x, r, pw))
            for c, d in zip(closed, fd):
                err = abs(c - d) / max(1.0, abs(c))
                worst = max(worst, err)
    passed = worst <= 1e-5
    return CheckResult(
        4, "taylor-coefficients", passed, {"worst_rel_err": worst, "draws": n}
    )


def check_inequality_sweeps(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Margin grids: symmetric comparison, threshold comparison, band
    comparison, and the frame identities."""
    anchor = (1.2, 1.5, 2.0, 3.0, 6.0)
    rs = np.linspace(-100.0, 100.0, _n(scale, 2001, 501))
    min_margin = math.inf
    min_strict = math.inf
    for p in anchor:
        for q in anchor:
            if p > q:
                continue
            for r in rs:
                m = power_mean_margin(p, q, float(r)).margin
                min_margin = min(min_margin, m)
                if p < q and abs(r) >= 0.1:
                    min_strict = min(min_strict, m)
    ok_symmetric = min_margin >= -1e-12 and min_strict > 1e-6

    cor_pairs = [(1.2, 1.5), (1.2, 2.0), (1.5, 1.8), (1.5, 2.0), (1.8, 2.0)]
    ts = np.linspace(-50.0, 50.0, _n(scale, 1001, 301))
    min_cor = min(
        threshold_mean_margin(p, q, float(t)).margin for p, q in cor_pairs for t in ts
    )
    ok_cor = min_cor >= -1e-12

    rng = np.random.default_rng(seed)
    n_draws = _n(scale, 10, 4)
    grid = default_r_grid(100.0, _n(scale, 2001, 501))
    min_band = math.inf
    worst_frame = 0.0
    for _ in range(n_draws):
        p = float(rng.uniform(1.1, 1.7))
        q = float(rng.uniform(p + 0.05, 1.95))
        x1p = float(rng.uniform(0.5, 1.0 / q))
        for r in grid:
            min_band = min(min_band, band_margin(p, q, x1p, float(r)).margin)
        x = LpVector.from_mass(x1p, p)
        y = solve_matched_pair(p, q, x)
        fr = substitution_frame(p, q, x, y, 1)
        worst_frame = max(
            worst_frame,
            abs(fr.A + fr.D + fr.B - fr.v * (1.0 + fr.u) ** 2),
            abs(fr.A + fr.u ** 2 * fr.D - fr.u * fr.B + fr.c ** 2 * (1.0 + fr.u) ** 2),
        )
    ok_band = min_band >= -1e-12
    ok_frames = worst_frame <= 1e-12
    passed = ok_symmetric and ok_cor and ok_band and ok_frames
    return CheckResult(
        5, "inequality-sweeps", passed,
        {
            "min_symmetric_margin": min_margin,
            "min_strict_margin": min_strict,
            "min_threshold_margin": min_cor,
            "min_band_margin": min_band,
            "worst_frame_identity": worst_frame,
        },
    )


def check_matched_pair_solver(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Equal exponents reproduce the input; random band draws have small
    matching residual."""
    from .inequality import matching_residual

    rng = np.random.default_rng(seed)
    worst_same = 0.0
    for _ in range(_n(scale, 25, 8)):
        p = float(rng.uniform(1.2, 4.0))
        if abs(p - 2.0) < 1e-3:
            continue
        x = LpVector.from_mass(float(rng.uniform(0.5, 0.95)), p)
        y = solve_matched_pair(p, p, x)
        worst_same = max(worst_same, abs(y.x1 - x.x1), abs(y.x2 - x.x2))
    ok_same = worst_same <= 1e-12

    worst_resid = 0.0
    for _ in range(_n(scale, 50, 15)):
        p = float(rng.uniform(1.1, 1.8))
        q = float(rng.uniform(p + 0.05, 1.95))
        x = LpVector.from_mass(float(rng.uniform(0.5, 0.98)), p)
        y = solve_matched_pair(p, q, x)
        worst_resid = max(worst_resid, abs(matching_residual(p, q, x, y)))
    ok_resid = worst_resid <= 1e-10
    passed = ok_same and ok_resid
    return CheckResult(
        6, "matched-pair-solver", passed,
        {"worst_equal_exponent": worst_same, "worst_residual": worst_resid},
    )


def _agreement_operators(rng: np.random.Generator, scale: str) -> list[Operator2x2]:
    """Seeded unit-norm operators spread over the five settled regions."""
    region_pairs = [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0), (3.0, 3.0), (3.0, 1.5)]
    per_region = _n(scale, 40, 12)
    ops: list[Operator2x2] = []
    for p, q in region_pairs:
        n_random = per_region - per_region // 4
        for _ in range(n_random):
            entries = rng.normal(size=4)
            T = Operator2x2(*(float(v) for v in entries), p, q)
            nv = norm_value(T)
            if nv <= 1e-12:
                continue
            ops.append(T.scaled(1.0 / nv))
        for _ in range(per_region // 4):
            x = _random_unit(rng, p)
            y = _random_unit(rng, q)
            sign = 1 if rng.random() < 0.5 else -1
            ops.append(generate_extreme(x, y, sign))
    return ops


def check_classifier_oracle_agreement(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """The probe never refutes a classified extreme, and a probe refutation
    never lands on a classified extreme."""
    rng = np.random.default_rng(seed)
    ops = _agreement_operators(rng, scale)
    n_dirs = _n(scale, 720, 64)
    contradictions = 0
    extremes = 0
    for k, T in enumerate(ops):
        verdict = classify(T).verdict
        probe = extremality_probe(T, n_directions=n_dirs, seed=seed + k)
        if verdict in ("ExtremeTypeA", "ExtremeTypeB", "ExtremeIsometry"):
            extremes += 1
            if probe.verdict == ORACLE_NOT_EXTREME:
                contradictions += 1
        # A probe failure to refute puts no constraint on the classifier.
    passed = contradictions == 0
    return CheckResult(
        7, "classifier-oracle-agreement", passed,
        {"operators": len(ops), "extremes_seen": extremes, "contradictions": contradictions},
    )


def check_closedness(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Limits of extreme sequences stay extreme in the settled regions away
    from equal exponents."""
    n_seq = _n(scale, 50, 12)
    bad = 0
    reports = {}
    for p, q in [(2.0, 3.0), (3.0, 2.0), (3.0, 1.5)]:
        rep = closedness_check(p, q, n_sequences=n_seq, seed=seed)
        reports[f"{p:g}->{q:g}"] = rep.non_extreme_limits
        bad += rep.non_extreme_limits
    return CheckResult(
        8, "closedness", bad == 0, {"non_extreme_limits": reports, "sequences": n_seq}
    )


def check_gap_evidence(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Gap probes at the three anchor tensor pairs."""
    results = {}
    ok = True
    for p, q in [(3.0, 1.5), (2.0, 4.0), (4.0, 3.0)]:
        dom, cod = dual_space(p, q)
        x = LpVector.from_mass(0.5, dom)
        y = LpVector.from_mass(0.5, cod)
        rep = density_probe(
            p, q, x, y,
            n_samples=_n(scale, 256, 64),
            net_points=_n(scale, 2000, 300),
            seed=seed,
            family_grid=_n(scale, 256, 64),
        )
        results[f"{p:g}x{q:g}"] = {
            "verdict": rep.verdict,
            "min_distance": rep.sampled_min_distance,
            "net_extreme_hits": rep.net_extreme_hits,
        }
        ok = ok and rep.verdict == GAP_EVIDENCE and rep.sampled_min_distance >= 1e-2
    return CheckResult(9, "gap-evidence", ok, results)


def check_determinism(scale: str = FULL, seed: int = 2024) -> CheckResult:
    """Identical seeds give identical results for the seeded pipelines."""
    dom, cod = dual_space(3.0, 1.5)
    x = LpVector.from_mass(0.55, dom)
    y = LpVector.from_mass(0.6, cod)
    reps = [
        density_probe(3.0, 1.5, x, y, n_samples=24, net_points=40, seed=seed)
        for _ in range(2)
    ]
    same = (
        reps[0].sampled_min_distance == reps[1].sampled_min_distance
        and reps[0].net_extreme_hits == reps[1].net_extreme_hits
        and reps[0].max_net_distance == reps[1].max_net_distance
    )
    return CheckResult(
        10, "determinism", same,
        {"min_distance": reps[0].sampled_min_distance},
    )


ALL_CHECKS = (
    check_case_one_anchors,
    check_balanced_image_anchor,
    check_rank_one_anchors,
    check_taylor_coefficients,
    check_inequality_sweeps,
    check_matched_pair_solver,
    check_classifier_oracle_agreement,
    check_closedness,
    check_gap_evidence,
    check_determinism,
)


def run_selftest(scale: str = FAST, seed: int = 2024) -> dict:
    """Run every acceptance check; returns a JSON-ready report."""
    results = []
    for chk in ALL_CHECKS:
        res = chk(scale=scale, seed=seed)
        results.append(res)
    report = {
        "scale": scale,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
    }
    return report
