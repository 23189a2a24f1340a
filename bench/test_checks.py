"""Each check accepts a right answer and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import oracles as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def rejects(fn, *args, **kwargs) -> None:
    with pytest.raises(checks.CheckError):
        fn(*args, **kwargs)


def segment(op) -> dict:
    return workloads.segment_answer(op.run())


def perturbed(seg: dict, **changes) -> dict:
    return {**seg, **changes}


# ---------------------------------------------------------------- oracles


def test_brute_force_norm_closed_forms():
    # diag(d1, d2) from lp to lq: max entry for p <= q, interpolation mean otherwise.
    assert abs(ref.brute_force_norm((0.3, 0.0, 0.0, -0.7), 1.5, 3.0) - 0.7) < 1e-15
    w = 3.0 * 1.5 / (3.0 - 1.5)
    want = (0.3 ** w + 0.7 ** w) ** (1.0 / w)
    assert abs(ref.brute_force_norm((0.3, 0.0, 0.0, 0.7), 3.0, 1.5) - want) < 1e-13


def test_pinned_maps_x_to_y():
    x, y = ref.unit(0.3, -0.8, 3.0), ref.unit(0.9, 0.2, 1.5)
    a11, a12, a21, a22 = ref.pinned(x, y, 0.37, 3.0, 1.5)
    assert abs(a11 * x[0] + a12 * x[1] - y[0]) < 1e-15
    assert abs(a21 * x[0] + a22 * x[1] - y[1]) < 1e-15


def test_mp_margin_lemma3_matches_band_equality_at_zero():
    assert abs(ref.mp_margin("lemma3", 1.3, 1.6, 0.0, x1p=0.55)) < 1e-40


# ---------------------------------------------------------------- endpoints


def test_segment_random_pair():
    rng = np.random.default_rng(5)
    x, y = workloads._segment_pair(rng, 1.5, 3.0, "random")
    seg = segment(workloads._segment_op(1.5, 3.0, x, y, "random"))
    assert isinstance(seg["witness_plus"], float)
    checks.check_segment(1.5, 3.0, x, y, seg, "random")
    ep, em = seg["endpoint_plus"], seg["endpoint_minus"]
    rejects(checks.check_segment, 1.5, 3.0, x, y, perturbed(seg, endpoint_minus=-em), "random")
    rejects(checks.check_segment, 1.5, 3.0, x, y, perturbed(seg, endpoint_plus=ep * 1.001), "random")
    # Short of the endpoint the operator still has norm one, but at the
    # witness a scale past the reported one is a contraction.
    rejects(checks.check_segment, 1.5, 3.0, x, y, perturbed(seg, endpoint_plus=ep * 0.999), "random")


def test_segment_closed_forms():
    x, y = (1.0, 0.0), (0.0, -1.0)
    axis = segment(workloads._segment_op(1.5, 3.0, x, y, "axis"))
    checks.check_segment(1.5, 3.0, x, y, axis, "axis")
    rejects(checks.check_segment, 1.5, 3.0, x, y, perturbed(axis, witness_plus=5.0), "axis")
    rejects(checks.check_segment, 1.5, 3.0, x, y, perturbed(axis, endpoint_minus=-0.999), "axis")

    x, y = ref.from_mass(0.5, 1.2), ref.from_mass(0.5, 1.5)
    c = ref.balanced_scale(1.2, 1.5)
    balanced = {"endpoint_plus": c, "endpoint_minus": -c, "limit_plus": c, "limit_minus": -c,
                "witness_plus": None, "witness_minus": None}
    checks.check_segment(1.2, 1.5, x, y, balanced, "balanced")
    rejects(checks.check_segment, 1.2, 1.5, x, y,
            perturbed(balanced, endpoint_plus=c * (1.0 - 1e-6)), "balanced")
    # The library's answer today: understated by a few 1e-10, with a
    # finite witness near r = 1e-6 where the r -> 0 limit is meant.
    rejects(checks.check_segment, 1.2, 1.5, x, y,
            perturbed(balanced, endpoint_plus=c * (1.0 - 4e-10)), "balanced")
    rejects(checks.check_segment, 1.2, 1.5, x, y,
            perturbed(balanced, witness_plus=1.06e-6), "balanced")

    x, y = ref.unit(0.6, -0.2, 2.0), ref.unit(0.1, 0.9, 2.0)
    hilbert = {"endpoint_plus": 1.0, "endpoint_minus": -1.0, "limit_plus": 1.0,
               "limit_minus": -1.0, "witness_plus": 0.5, "witness_minus": math.inf}
    checks.check_segment(2.0, 2.0, x, y, hilbert, "random")
    rejects(checks.check_segment, 2.0, 2.0, x, y, perturbed(hilbert, endpoint_plus=0.99), "random")
    rejects(checks.check_segment, 2.0, 2.0, x, y,
            perturbed(hilbert, endpoint_plus=1.0 - 3e-10), "random")


def test_fault_inputs_do_not_depend_on_the_seed():
    def fixed(round_):
        return [(op.kind, op.fault, op.run) for op in round_ if op.fault]

    a = workloads.endpoints_round(np.random.default_rng(1))
    b = workloads.endpoints_round(np.random.default_rng(2))
    assert len(fixed(a)) == 15
    for (kind, fault, run_a), (_, _, run_b) in zip(fixed(a), fixed(b)):
        cells = [c.cell_contents for c in run_a.__closure__]
        assert cells == [c.cell_contents for c in run_b.__closure__], (kind, fault)


# ---------------------------------------------------------------- verdicts


def test_verdict_witness_and_families():
    rng = np.random.default_rng(2)
    T = workloads._normalized(rng, 3.0, 3.0)
    verdict, probe, witness, eps = workloads._verdict_op(3.0, 3.0, T, "random").run()
    assert witness is not None
    checks.check_verdict(3.0, 3.0, T, verdict, probe, witness, eps, False)
    rejects(checks.check_verdict, 3.0, 3.0, T, verdict, probe, witness, eps * 50.0, False)
    rejects(checks.check_verdict, 3.0, 3.0, T, "ExtremeTypeB", probe, witness, eps, False)
    rejects(checks.check_verdict, 3.0, 3.0, T, "Extreme", probe, witness, eps, False)
    rejects(checks.check_verdict, 3.0, 3.0, T, verdict, "ConsistentWithExtreme", witness, eps, False)

    F = workloads.extreme_family(rng, 3.0, 1.5)
    checks.check_verdict(3.0, 1.5, F, "ExtremeTypeB", "ConsistentWithExtreme", None, 0.0, True)
    rejects(checks.check_verdict, 3.0, 1.5, F, "NotExtreme", "ConsistentWithExtreme", None, 0.0, True)


def test_only_closed_forms_must_classify_extreme():
    # A generic operator, such as the l^30 ones, may be NotExtreme once
    # classify stops crashing on it; a family member may not.
    ops = {op.kind: op for op in workloads.verdicts_round(np.random.default_rng(3))}
    answer = ("NotExtreme", "ConsistentWithExtreme", None, 0.0)
    ops["classify+probe/l30"].check(answer)
    ops["classify+probe/random"].check(answer)
    rejects(ops["classify+probe/family"].check, answer)
    rejects(ops["classify+probe/isometry"].check, answer)


# ---------------------------------------------------------------- cli


def dump(obj) -> str:
    return json.dumps(obj) + "\n"


def test_cli_exit_and_format():
    rejects(checks.check_cli, ["norm"], 2, "", {})
    rejects(checks.parse_json, '{"norm": NaN}')
    rejects(checks.parse_json, "norm = 1")
    checks.parse_csv("r,margin\n0,0\n")
    rejects(checks.parse_csv, "r,margin\r\n0,0\r\n")
    rejects(checks.parse_csv, "r,margin\n0\n")


def test_cli_norm():
    T = (0.3, 0.7, -0.2, 0.5)
    n = ref.brute_force_norm(T, 3.0, 1.5)
    extra = {"T": T, "p": 3.0, "q": 1.5}
    checks.check_cli(["norm"], 0, dump({"norm": n}), extra)
    rejects(checks.check_cli, ["norm"], 0, dump({"norm": n * (1.0 + 1e-7)}), extra)


def test_cli_classify_oracle():
    ok = {"verdict": "NotExtreme", "consistent": True}
    checks.check_cli(["classify", "--oracle"], 0, dump(ok), {})
    rejects(checks.check_cli, ["classify", "--oracle"], 0, dump({**ok, "consistent": False}), {})


@pytest.mark.parametrize("kind,p,q,x1p", [
    ("lemma1", 1.5, 3.0, None), ("lemma3", 1.3, 1.7, 0.56), ("corollary", 1.2, 1.9, None)])
def test_cli_ineq(kind, p, q, x1p):
    rs = np.linspace(-10.0, 10.0, 41)
    rows = [{"r": float(r), "margin": ref.mp_margin(kind, p, q, float(r), x1p)} for r in rs]
    extra = {"kind": kind, "p": p, "q": q, "x1p": x1p}
    report = {"min_margin": min(r["margin"] for r in rows), "rows": rows}
    checks.check_cli(["ineq", kind], 0, dump(report), extra)
    bad = [dict(r) for r in rows]
    bad[0]["margin"] += 1e-9
    rejects(checks.check_cli, ["ineq", kind], 0,
            dump({"min_margin": report["min_margin"], "rows": bad}), extra)
    csv = "r,margin\n" + "".join(f"{r['r']!r},{r['margin']!r}\n" for r in rows)
    checks.check_cli(["ineq", kind, "--format", "csv"], 0, csv, extra)
    rejects(checks.check_cli, ["ineq", kind, "--format", "csv"], 0,
            csv.replace(f"{rows[20]['margin']!r}", "-1e-9"), extra)


def test_cli_sstar():
    x, y = ref.unit(0.6, -0.2, 2.0), ref.unit(0.1, 0.9, 2.0)
    rep = {"x": {"x1": x[0], "x2": x[1]}, "y": {"x1": y[0], "x2": y[1]},
           "endpoint_plus": 1.0, "endpoint_minus": -1.0, "witness_plus": "inf",
           "witness_minus": 0.3, "limit_plus": 1.0, "limit_minus": -1.0}
    extra = {"p": 2.0, "q": 2.0, "kind": "random"}
    checks.check_cli(["sstar"], 0, dump(rep), extra)
    rejects(checks.check_cli, ["sstar"], 0, dump({**rep, "endpoint_minus": -0.9}), extra)


def test_cli_mip_closure_closedness():
    gap = {"verdict": "GapEvidence", "sampled_min_distance": 0.2}
    checks.check_cli(["mip"], 0, dump(gap), {})
    rejects(checks.check_cli, ["mip"], 0, dump({**gap, "verdict": "Inconclusive"}), {})
    rejects(checks.check_cli, ["mip"], 0, dump({**gap, "sampled_min_distance": 0.005}), {})

    rows = [{"s": 1.0, "distance_type_a": 0.1, "distance_closed_form": 0.0,
             "verdict_of_target": "ExtremeIsometry"},
            {"s": 0.5, "distance_type_a": 0.1, "distance_closed_form": 0.2,
             "verdict_of_target": "NotExtreme"}]
    checks.check_cli(["closure"], 0, dump({"rows": rows}), {})
    for i, verdict in ((0, "NotExtreme"), (1, "ExtremeTypeB")):
        bad = [dict(r) for r in rows]
        bad[i]["verdict_of_target"] = verdict
        rejects(checks.check_cli, ["closure"], 0, dump({"rows": bad}), {})

    rep = {"sequences": 1, "non_extreme_limits": 0, "rows": [{}]}
    checks.check_cli(["closedness"], 0, dump(rep), {})
    rejects(checks.check_cli, ["closedness"], 0, dump({**rep, "non_extreme_limits": 1}), {})


# ---------------------------------------------------------------- contract


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
