"""Answer checks for the three workloads.

Each check takes the library's answer as plain values and raises
CheckError when the answer is wrong. The references are the computations
in oracles.py and properties every correct answer has; no check compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import oracles as ref

NORM_TOL = 1e-9          # brute-force norm against an exact 1, or a library norm
SCALE_TOL = 1e-12        # closed-form scales, relative
AXIS_ZERO_TOL = 1e-9     # vanishing endpoints of axis pairs
PUSH_STEP = 1e-6         # relative step past an endpoint at its witness
WITNESS_EPS_MIN = 1e-4   # the probe's smallest reported step
MARGIN_TOL = 1e-12       # ineq margins: floor, and distance from the 50-digit value
GAP_MIN = 1e-2           # smallest sampled distance behind GapEvidence
MARGIN_ROWS = 20         # ineq rows compared with the 50-digit value

EXTREME = ("ExtremeTypeA", "ExtremeTypeB", "ExtremeIsometry")
VERDICTS = EXTREME + ("NotExtreme", "Unknown")


class CheckError(AssertionError):
    """The library's answer failed a check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------- segments


def check_segment(p: float, q: float, x, y, seg: dict, kind: str) -> None:
    """Endpoints of the pinned segment through the unit pair (x, y).

    seg holds endpoint_plus/minus, limit_plus/minus and witness_plus/minus
    (a float, math.inf, or None for the r -> 0 limit). kind is "axis",
    "near", "balanced" or "random"; axis pairs, balanced pairs with p < q
    and Hilbert pairs also meet their closed forms.
    """
    ep, em = seg["endpoint_plus"], seg["endpoint_minus"]
    lp, lm = seg["limit_plus"], seg["limit_minus"]
    require(lm <= em <= 0.0 <= ep <= lp, f"chain broken: {lm!r} {em!r} {ep!r} {lp!r}")
    for s in (ep, em):
        n = ref.brute_force_norm(ref.pinned(x, y, s, p, q), p, q)
        require(abs(n - 1.0) <= NORM_TOL, f"operator at endpoint {s!r} has norm {n!r}")

    if p == 2.0 and q == 2.0:
        expect = (1.0, -1.0)
    elif kind == "axis" and p > q:
        expect = (0.0, 0.0)
    elif kind == "axis" and p < q:
        expect = (1.0, -1.0)
        require(
            seg["witness_plus"] == math.inf and seg["witness_minus"] == math.inf,
            "axis pair with p < q needs the infinite witness",
        )
    elif kind == "balanced" and p < q:
        c = ref.balanced_scale(p, q)
        expect = (c, -c)
        # The closed form is the r -> 0 limit, so no finite witness attains it.
        require(
            seg["witness_plus"] is None and seg["witness_minus"] is None,
            f"balanced pair with p < q needs the r -> 0 limit, got witnesses "
            f"{seg['witness_plus']!r} {seg['witness_minus']!r}",
        )
    else:
        expect = None
    if expect is not None:
        for got, want in zip((ep, em), expect):
            tol = AXIS_ZERO_TOL if want == 0.0 else SCALE_TOL * abs(want)
            require(abs(got - want) <= tol, f"endpoint {got!r}, closed form {want!r}")

    # Witnesses refer to the canonical pair: |coordinates| sorted down. The
    # canonical scale of an endpoint is its value times the orientation.
    xc, dx = ref.canonical(x)
    yc, dy = ref.canonical(y)
    for s, w in ((ep, seg["witness_plus"]), (em, seg["witness_minus"])):
        if w is None:
            continue
        require(s != 0.0, "zero endpoint with a witness")
        ratio = ref.witness_ratio(xc, yc, dx * dy * s * (1.0 + PUSH_STEP), w, p, q)
        require(ratio > 1, f"scale past endpoint {s!r} stays a contraction at r={w!r}")


# ---------------------------------------------------------------- verdicts


def check_verdict(p: float, q: float, T, verdict: str, probe: str,
                  witness, epsilon: float, must_be_extreme: bool) -> None:
    """classify and extremality_probe on the norm-one operator T.

    witness is the probe's direction D as a 4-tuple, or None.
    """
    require(verdict in VERDICTS, f"unknown verdict {verdict!r}")
    if must_be_extreme:
        require(verdict in EXTREME, f"closed-form extreme classified {verdict}")
    if witness is None:
        require(probe == "ConsistentWithExtreme", f"probe {probe} without a witness")
        return
    require(probe == "NotExtreme", f"probe {probe} with a witness")
    require(verdict not in EXTREME, f"probe refutes a classified {verdict}")
    require(epsilon >= WITNESS_EPS_MIN, f"witness step {epsilon!r} below the minimum")
    for sgn in (1.0, -1.0):
        A = tuple(t + sgn * epsilon * d for t, d in zip(T, witness))
        n = ref.brute_force_norm(A, p, q)
        require(n <= 1.0 + NORM_TOL, f"T {'+-'[sgn < 0]} eps D has norm {n!r}")


# ---------------------------------------------------------------- cli


def parse_json(text: str) -> dict:
    """Strict JSON: no NaN or Infinity literals."""

    def reject(name):
        raise CheckError(f"non-JSON constant {name}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def parse_csv(text: str) -> list[dict]:
    """Header row, comma separators, LF endings, a float in every cell."""
    require(text.endswith("\n") and "\r" not in text, "CSV must end in LF without CR")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(header), f"CSV row width {len(cells)} != {len(header)}")
        try:
            rows.append({k: float(v) for k, v in zip(header, cells)})
        except ValueError as exc:
            raise CheckError(f"CSV cell is not a number: {exc}") from None
    return rows


def _scalar(v):
    """Report value back to a float: "inf"/"-inf" strings, null stays None."""
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return v


def check_cli(args: list[str], code: int, out: str, extra: dict) -> None:
    """One lpq2 invocation: exit code 0, strict output, and the per-command
    property. extra carries what the session knows about the input."""
    require(code == 0, f"exit code {code}")
    cmd = args[0]
    if "csv" in args:
        rows = parse_csv(out)
        require(len(rows) > 0, "empty CSV")
        if cmd == "ineq":
            _check_margins(extra, [(r["r"], r["margin"]) for r in rows])
        return
    rep = parse_json(out)
    if cmd == "norm":
        n = ref.brute_force_norm(extra["T"], extra["p"], extra["q"])
        require(abs(rep["norm"] - n) <= NORM_TOL * max(1.0, n), f"norm {rep['norm']!r} vs {n!r}")
    elif cmd == "classify":
        require(rep["verdict"] in VERDICTS, f"unknown verdict {rep['verdict']!r}")
        if "--oracle" in args:
            require(rep["consistent"] is True, "classifier and oracle disagree")
    elif cmd == "sstar":
        seg = {k: _scalar(rep[k]) for k in (
            "endpoint_plus", "endpoint_minus", "limit_plus", "limit_minus",
            "witness_plus", "witness_minus")}
        x = (rep["x"]["x1"], rep["x"]["x2"])
        y = (rep["y"]["x1"], rep["y"]["x2"])
        check_segment(extra["p"], extra["q"], x, y, seg, extra["kind"])
    elif cmd == "ineq":
        _check_margins(extra, [(r["r"], r["margin"]) for r in rep["rows"]])
        require(rep["min_margin"] == min(r["margin"] for r in rep["rows"]),
                "min_margin is not the smallest row")
    elif cmd == "mip":
        require(rep["verdict"] == "GapEvidence", f"mip verdict {rep['verdict']}")
        require(rep["sampled_min_distance"] >= GAP_MIN,
                f"sampled distance {rep['sampled_min_distance']!r} below {GAP_MIN}")
    elif cmd == "closure":
        for row in rep["rows"]:
            # diag(1, 1) is an isometry, hence extreme and one of the closed
            # forms; diag(1, s) with |s| < 1 lies strictly between the
            # contractions diag(1, 1) and diag(1, -1), hence is not extreme.
            if row["s"] == 1.0:
                require(row["verdict_of_target"] == "ExtremeIsometry", "identity not an isometry")
                require(row["distance_closed_form"] == 0.0, "identity missing from the families")
            else:
                require(row["verdict_of_target"] == "NotExtreme",
                        f"diag(1, {row['s']}) classified {row['verdict_of_target']}")
            require(row["distance_type_a"] >= 0.0, "negative distance")
    elif cmd == "closedness":
        require(rep["non_extreme_limits"] == 0, f"{rep['non_extreme_limits']} non-extreme limits")
        require(len(rep["rows"]) == rep["sequences"], "one row per sequence")


def _check_margins(extra: dict, rows: list[tuple[float, float]]) -> None:
    """Every margin is >= -1e-12; a spread of rows matches the 50-digit value."""
    require(len(rows) > 0, "no margin rows")
    require(min(m for _, m in rows) >= -MARGIN_TOL, "negative margin")
    step = max(1, len(rows) // MARGIN_ROWS)
    for r, m in rows[::step]:
        want = ref.mp_margin(extra["kind"], extra["p"], extra["q"], r, extra.get("x1p"))
        require(abs(m - want) <= MARGIN_TOL * max(1.0, abs(r)),
                f"margin at r={r!r}: {m!r} vs 50-digit {want!r}")
