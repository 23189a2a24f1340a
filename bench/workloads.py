"""The three workloads: seeded corpora of operations on the public lpq2 API.

A workload builds one round of at least 100 operations from the run's
seed; a run repeats that round, so it attempts whole rounds of the same
operations and the share of failed operations is fixed. Every round of a
workload has the same make-up of operation kinds; the seed draws only the
numbers.

Some operations meet a fault of the library (see README.md). Their `fault`
names it, and their inputs are fixed rather than drawn from the seed, so
they fail in every run and count as failed operations; a fix moves them to
the passed ones.

Library functions are looked up on the package at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lpq2
import lpq2.cli

import checks
import oracles as ref

ANCHORS = (1.2, 1.5, 2.0, 3.0, 6.0)
FIXED_SEED = 0  # draws the inputs of the operations that meet a known fault
ROUND_MIN = 100  # operations in a round, so that ten lie beyond its 90th percentile


@dataclass
class Op:
    """One timed operation: `run` calls the library, `check` judges its answer."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None


def _signed(rng: np.random.Generator, v) -> tuple[float, float]:
    """v under a random signed permutation, an isometry of every lp."""
    a, b = v
    if rng.random() < 0.5:
        a, b = b, a
    return (float(a * rng.choice((-1.0, 1.0))), float(b * rng.choice((-1.0, 1.0))))


def _signed_op(rng: np.random.Generator, T) -> tuple[float, float, float, float]:
    """L T R for random signed permutations L and R."""
    a11, a12, a21, a22 = T
    if rng.random() < 0.5:
        a11, a12, a21, a22 = a21, a22, a11, a12
    if rng.random() < 0.5:
        a11, a12, a21, a22 = a12, a11, a22, a21
    r1, r2, c1, c2 = (float(rng.choice((-1.0, 1.0))) for _ in range(4))
    return (r1 * c1 * a11, r1 * c2 * a12, r2 * c1 * a21, r2 * c2 * a22)


def _scaled(M, p: float, q: float) -> tuple[float, ...]:
    """The matrix M scaled to brute-force norm one."""
    n = ref.brute_force_norm(M, p, q)
    return tuple(v / n for v in M)


def _normalized(rng: np.random.Generator, p: float, q: float) -> tuple[float, ...]:
    """A Gaussian matrix scaled to brute-force norm one."""
    return _scaled(tuple(float(v) for v in rng.normal(size=4)), p, q)


def _mass(rng: np.random.Generator) -> float:
    # Arcsine-distributed coordinate mass: dense near the axes.
    return float(rng.beta(0.5, 0.5))


# ---------------------------------------------------------------- endpoints

# All ten exponent regions, the anchors and both range edges.
ENDPOINT_PAIRS = (
    (2.0, 2.0),                  # i
    (2.0, 1.5), (2.0, 6.0),      # ii
    (3.0, 2.0), (1.2, 2.0),      # iii
    (3.0, 3.0), (1.05, 1.05),    # iv
    (6.0, 1.5), (64.0, 1.2),     # v
    (1.2, 1.5),                  # open_b
    (1.5, 1.05),                 # open_e
    (3.0, 6.0),                  # open_c
    (64.0, 3.0),                 # open_f
    (1.5, 3.0), (1.05, 64.0),    # open_d
)
AXIS_FAULTS = {
    (3.0, 6.0): "finite witness where the axis pair needs the infinite parameter",
    (1.05, 64.0): "OverflowError in segment._pow_offset_s",
}
BISECTION_FAULT = "endpoint understated near r = 1e-6 by the absolute bisection width"


def segment_fault(p: float, q: float, kind: str) -> str | None:
    """The known fault a closed-form pair meets today, if any."""
    if kind == "axis" and (p, q) in AXIS_FAULTS:
        return AXIS_FAULTS[(p, q)]
    if p == q == 2.0 or (kind == "balanced" and p < q):
        return BISECTION_FAULT
    return None


def segment_answer(seg) -> dict:
    """A PinnedSegment as the plain values checks.check_segment takes."""

    def witness(w):
        if w is None:
            return None
        return math.inf if w is lpq2.R_INFINITY else w

    return {
        "endpoint_plus": seg.endpoint_plus, "endpoint_minus": seg.endpoint_minus,
        "limit_plus": seg.limit_plus, "limit_minus": seg.limit_minus,
        "witness_plus": witness(seg.witness_plus), "witness_minus": witness(seg.witness_minus),
    }


def _segment_op(p: float, q: float, x, y, kind: str, fault: str | None = None) -> Op:
    def run():
        return lpq2.pinned_segment(lpq2.LpVector(*x, p), lpq2.LpVector(*y, q))

    def check(seg):
        checks.check_segment(p, q, x, y, segment_answer(seg), kind)

    return Op(f"pinned_segment/{kind}", run, check, fault)


def _segment_pair(rng: np.random.Generator, p: float, q: float, kind: str):
    if kind == "axis":
        x, y = (1.0, 0.0), (1.0, 0.0)
    elif kind == "balanced":
        x, y = ref.from_mass(0.5, p), ref.from_mass(0.5, q)
    elif kind == "near":
        near, other = 1.0 - 1e-9, _mass(rng)
        if rng.random() < 0.5:
            x, y = ref.from_mass(near, p), ref.from_mass(other, q)
        else:
            x, y = ref.from_mass(other, p), ref.from_mass(near, q)
    else:
        x, y = ref.from_mass(_mass(rng), p), ref.from_mass(_mass(rng), q)
    return _signed(rng, x), _signed(rng, y)


ENDPOINT_KINDS = ("axis", "balanced", "near", "near", "random", "random", "random")


def endpoints_round(rng: np.random.Generator) -> list[Op]:
    ops = []
    for p, q in ENDPOINT_PAIRS:
        for i, kind in enumerate(ENDPOINT_KINDS):
            fault = segment_fault(p, q, kind)
            draw = np.random.default_rng([FIXED_SEED, i]) if fault else rng
            x, y = _segment_pair(draw, p, q, kind)
            ops.append(_segment_op(p, q, x, y, kind, fault))
    return ops


# ---------------------------------------------------------------- verdicts

SETTLED_PAIRS = (
    (2.0, 2.0),                                       # i
    (2.0, 1.5), (2.0, 6.0),                           # ii
    (3.0, 2.0), (1.2, 2.0),                           # iii
    (3.0, 3.0), (1.5, 1.5), (6.0, 6.0), (1.2, 1.2),   # iv
    (3.0, 1.5), (6.0, 1.2),                           # v
)
# Random operators avoid domains below 1.5, where classify fails to
# decompose a few in a hundred of them; a fixed Gaussian matrix (before
# scaling to norm one) for each such pair stands for that fault instead.
RANDOM_PAIRS = tuple((p, q) for p, q in SETTLED_PAIRS if p >= 1.5) + ((1.5, 2.0),)
DECOMPOSE_FAULTS = (
    (1.2, 2.0, (0.15511524383970243, -0.07333196591641422,
                -0.006590106659430104, -0.8307871123162506)),
    (1.2, 1.2, (1.0288568739519013, 1.6419200406711503,
                1.1467195295966137, -0.9731795154745656)),
    (1.05, 1.05, (1.8102855742952833, 0.7508434731539183,
                  0.6397595539314624, -0.7313225212292476)),
)
DECOMPOSE_FAULT = "single-maximizer operator does not decompose as a pinned-family member"
# Norm-one operators with domain l^30: classify crashes on them today
# because the conjugate exponent 30/29 falls below the supported range.
L30_MATRIX = (1.0, 0.5, 0.2, 0.7)
L30_CODOMAINS = (2.0, 30.0, 1.5)
L30_FAULT = "conjugate of 30 below the supported exponent range"


def extreme_family(rng: np.random.Generator, p: float, q: float) -> tuple[float, ...]:
    """A member of the closed-form extreme family of a settled region,
    built from its formula (no root solve)."""
    e1 = (1.0, 0.0)

    def interior(e):
        return ref.from_mass(float(rng.uniform(0.05, 0.95)), e)

    def onto_axis():
        return ref.pinned(interior(p), e1, 0.0, p, q)

    def from_axis():
        return ref.pinned(e1, interior(q), 0.0, p, q)

    def balanced_scale():
        return float(rng.choice((-1.0, 1.0))) * ref.balanced_scale(p, q)

    if p == 2.0 and q == 2.0:  # rotations and reflections
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        c, s = math.cos(a), math.sin(a)
        return (c, -s, s, c) if rng.random() < 0.5 else (c, s, s, -c)
    if p == 2.0 and q > 2.0:  # balanced image
        T = ref.pinned(interior(p), ref.from_mass(0.5, q), balanced_scale(), p, q)
    elif q == 2.0 and p < 2.0:  # balanced maximizer
        T = ref.pinned(ref.from_mass(0.5, p), interior(q), balanced_scale(), p, q)
    elif p == 2.0 or p == q < 2.0:
        T = onto_axis()
    elif q == 2.0 or p == q:
        T = from_axis()
    else:  # region v: either
        T = onto_axis() if rng.random() < 0.5 else from_axis()
    return _signed_op(rng, T)


def _verdict_op(p: float, q: float, T, kind: str, fault: str | None = None) -> Op:
    def run():
        try:
            op = lpq2.Operator2x2(*T, p, q)
        except ValueError:
            return None  # rejected up front: outside the advertised domain
        cls = lpq2.classify(op)
        probe = lpq2.extremality_probe(op)
        witness = None if probe.witness is None else probe.witness.entries()
        return cls.verdict, probe.verdict, witness, probe.epsilon

    def check(ans):
        if ans is not None:
            checks.check_verdict(p, q, T, *ans,
                                 must_be_extreme=kind in ("family", "isometry"))

    return Op(f"classify+probe/{kind}", run, check, fault)


def verdicts_round(rng: np.random.Generator) -> list[Op]:
    ops = []
    for p, q in RANDOM_PAIRS:
        for _ in range(7):
            ops.append(_verdict_op(p, q, _normalized(rng, p, q), "random"))
    for p, q in SETTLED_PAIRS:
        for _ in range(2):
            ops.append(_verdict_op(p, q, extreme_family(rng, p, q), "family"))
    for p in (1.5, 3.0):
        ops.append(_verdict_op(p, p, _signed_op(rng, (1.0, 0.0, 0.0, 1.0)), "isometry"))
    for q in L30_CODOMAINS:
        ops.append(_verdict_op(30.0, q, _scaled(L30_MATRIX, 30.0, q), "l30", L30_FAULT))
    for p, q, M in DECOMPOSE_FAULTS:
        ops.append(_verdict_op(p, q, _scaled(M, p, q), "random", DECOMPOSE_FAULT))
    return ops


# ---------------------------------------------------------------- cli_session

# The make-up of a session is fixed; the seed draws only the numbers. 33
# commands are quicker than any open-region classify, and seven slower. The
# 60 open-region classify calls (four root solves each, six on each of two
# pairs in each open region) take ranks 34 to 93 of 100, so the median and
# the 90th percentile both fall inside that group of similar commands.
NORM_PAIRS = ((1.5, 3.0), (6.0, 1.2), (2.0, 4.0), (3.0, 3.0), (1.2, 1.5))
CLASSIFY_SETTLED = ((3.0, 3.0), (2.0, 6.0), (2.0, 1.5), (3.0, 1.5), (1.5, 1.5))
SESSION_REPEATS = {"norm": 2, "ineq": 3, "settled": 2, "open": 6, "oracle": 2}
OPEN_PAIRS = ((1.5, 1.8), (1.6, 1.9),   # open_b
              (3.0, 6.0), (2.5, 4.0),   # open_c
              (1.5, 3.0), (1.5, 6.0),   # open_d
              (1.5, 1.2), (1.8, 1.5),   # open_e
              (6.0, 3.0), (4.0, 2.5))   # open_f
ORACLE_RANDOM = (1.5, 2.0)
ORACLE_FAMILY = ((3.0, 2.0), (2.0, 1.5))
SSTAR = (((1.5, 3.0), "random"), ((1.2, 1.5), "balanced"))
MIP_ANCHORS = ((3.0, 1.5), (2.0, 4.0), (4.0, 3.0))
CLOSURE_P = 3.0
CLOSEDNESS_PAIR = (3.0, 1.5)


def invoke(args: list[str]) -> tuple[int, str]:
    """Run `lpq2 <args>` in-process; returns (exit code, stdout).

    Usage errors exit 2 as on the command line; any other exception
    escapes, as it would reach the user as a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            lpq2.cli.main.main(args=args, prog_name="lpq2", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code
    if code:
        print(f"lpq2 {' '.join(args)}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def _cli_op(args: list[str], fault: str | None = None, **extra) -> Op:
    def check(ans):
        code, out = ans
        checks.check_cli(args, code, out, extra)

    return Op(f"lpq2 {args[0]}", lambda: invoke(args), check, fault)


def _csv(values) -> str:
    """Matrix or vector entries as typed on the command line, all digits."""
    return ",".join(repr(v) for v in values)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2 ** 31)))


def cli_round(rng: np.random.Generator) -> list[Op]:
    ops = []
    for p, q in NORM_PAIRS * SESSION_REPEATS["norm"]:
        M = tuple(float(v) for v in rng.normal(size=4))
        ops.append(_cli_op(["norm", "--p", repr(p), "--q", repr(q), "--m", _csv(M)], T=M, p=p, q=q))

    for _ in range(SESSION_REPEATS["ineq"]):
        p, q = sorted(float(v) for v in rng.choice(ANCHORS, size=2, replace=False))
        ops.append(_cli_op(["ineq", "lemma1", "--p", repr(p), "--q", repr(q), "--r-max", "10",
                            "--format", "csv"], kind="lemma1", p=p, q=q))
        p, q = round(float(rng.uniform(1.1, 1.45)), 2), round(float(rng.uniform(1.5, 1.9)), 2)
        x1p = round(float(rng.uniform(0.5, 1.0 / q)), 4)
        ops.append(_cli_op(["ineq", "lemma3", "--p", repr(p), "--q", repr(q), "--x1p", repr(x1p),
                            "--r-max", "10"], kind="lemma3", p=p, q=q, x1p=x1p))
        p, q = round(float(rng.uniform(1.1, 1.5)), 2), round(float(rng.uniform(1.55, 2.0)), 2)
        ops.append(_cli_op(["ineq", "corollary", "--p", repr(p), "--q", repr(q), "--r-max", "10"],
                           kind="corollary", p=p, q=q))

    for (p, q), kind in SSTAR:
        fault = segment_fault(p, q, kind)
        x, y = _segment_pair(np.random.default_rng(FIXED_SEED) if fault else rng, p, q, kind)
        ops.append(_cli_op(["sstar", "--p", repr(p), "--q", repr(q), "--x", _csv(x), "--y", _csv(y)],
                           fault, p=p, q=q, kind=kind))

    pairs = (CLASSIFY_SETTLED * SESSION_REPEATS["settled"]
             + OPEN_PAIRS * SESSION_REPEATS["open"])
    for p, q in pairs:
        ops.append(_cli_op(["classify", "--p", repr(p), "--q", repr(q),
                            "--m", _csv(_normalized(rng, p, q))]))
    p, q = ORACLE_RANDOM
    for _ in range(SESSION_REPEATS["oracle"]):
        ops.append(_cli_op(["classify", "--p", repr(p), "--q", repr(q),
                            "--m", _csv(_normalized(rng, p, q)), "--oracle"]))
    for p, q in ORACLE_FAMILY:
        ops.append(_cli_op(["classify", "--p", repr(p), "--q", repr(q),
                            "--m", _csv(extreme_family(rng, p, q)), "--oracle"]))

    for p, q in MIP_ANCHORS:
        ops.append(_cli_op(["mip", "--p", repr(p), "--q", repr(q),
                            "--x", f"{rng.uniform(0.55, 0.85):.3f}",
                            "--y", f"{rng.uniform(0.55, 0.85):.3f}",
                            "--samples", "4", "--net-points", "30", "--seed", _seed(rng)]))
    s_vals = ["1"] + [f"{v:.3f}" for v in rng.uniform(-0.95, 0.95, size=2)]
    ops.append(_cli_op(["closure", "--p", repr(CLOSURE_P), "--s", ",".join(s_vals),
                        "--samples", "4", "--seed", _seed(rng)]))
    p, q = CLOSEDNESS_PAIR
    ops.append(_cli_op(["closedness", "--p", repr(p), "--q", repr(q), "--sequences", "3",
                        "--seed", _seed(rng)]))
    return ops


ROUNDS = {
    "endpoints": endpoints_round,
    "verdicts": verdicts_round,
    "cli_session": cli_round,
}
