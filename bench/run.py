"""Benchmark of the public lpq2 API: one workload per run, one thread, closed loop.

    python3 bench/run.py --workload endpoints --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src` directory. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run instead replays a fixed
corpus with a span around each public layer function and reports per-layer
calls and self time (see README.md).

A run repeats one round of operations drawn from the seed. Each operation
is timed on every repeat and its time is the least of them, as timeit
does: the host this benchmark runs on slows every process down for
stretches of seconds, and the least time of work spread over the whole
run is the one such a stretch leaves out.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"  # raw run outputs and trace files

WORKLOADS = ("endpoints", "verdicts", "cli_session")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_ROUNDS = 2        # repeats of the round, so that each operation has a least time
SETUP_REPEATS = 5     # fresh interpreters timed for setup_s, spread over the run

# What the traced run requires: layers each workload must reach, and the
# zero-call controls.
MUST_CALL = {
    "endpoints": ("segment.pinned_segment", "segment.extremal_scale", "segment.limit_scale"),
    "verdicts": ("classify.settled", "oracle.extremality_probe", "opnorm.op_norm",
                 "opnorm.norm_value", "opnorm.is_contraction", "segment.pinned_operator"),
    "cli_session": tracing.SPAN_NAMES + tracing.COUNT_NAMES,
}
MUST_NOT_CALL = {
    "endpoints": ("opnorm.norm_value",),
    "verdicts": ("segment.extremal_scale",),
}


def set_up(workload: str, seed: int):
    """Import, corpus generation and one warm-up operation; returns the round."""
    import numpy as np
    import workloads

    round_ = workloads.ROUNDS[workload](np.random.default_rng(seed))
    assert len(round_) >= workloads.ROUND_MIN, len(round_)
    round_[0].run()
    return round_


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter from its start to the end of set_up."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
            "run.set_up(sys.argv[3], int(sys.argv[4]))")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH), workload, str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lpq2" / "__init__.py").is_file():
        print(f"no lpq2 sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("CLAB_")]:
        del os.environ[var]  # the CLI reads its configuration from CLAB_*
    sys.path[:0] = [str(SRC), str(BENCH)]

    import lpq2

    if Path(lpq2.__file__).resolve().parent != SRC / "lpq2":
        print(f"lpq2 imported from {lpq2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    round_ = set_up(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    setups: list[float] = []
    times: list[list[float]] = []  # per round, per operation
    passed = failed = 0
    correct = True
    failures: collections.Counter = collections.Counter()

    def fail(op, what: str, crash: Exception | None = None) -> None:
        nonlocal failed
        failed += 1
        if crash is not None and not op.fault and (op.kind, what) not in failures:
            traceback.print_exception(crash, file=sys.stderr, limit=-3)
        failures[(op.kind, what)] += 1

    def finished() -> bool:
        if tracer:  # a fixed amount of work, so that call counts repeat exactly
            return len(times) == 1
        if len(times) < MIN_ROUNDS:
            return False
        # End at the round boundary nearest to --seconds.
        return sum(map(sum, times)) + sum(times[-1]) / 2 >= args.seconds

    while not finished():
        if not tracer and len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(args.workload, args.seed))
        times.append([])
        for op in round_:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                answer, crash = op.run(), None
            except Exception as exc:  # a crash is a failed operation, not a stop
                answer, crash = None, exc
            times[-1].append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
            if crash is not None:
                fail(op, f"{type(crash).__name__}: {crash}", crash)
                continue
            try:
                op.check(answer)
                passed += 1
            except checks.CheckError as exc:
                if op.fault:  # a known fault: a failed operation, not a wrong check
                    fail(op, f"{op.fault}: {exc}")
                else:
                    correct = False
                    print(f"check failed: {op.kind}: {exc}", file=sys.stderr)

    while not tracer and len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(args.workload, args.seed))
    timed = sum(map(sum, times))
    attempted = len(times) * len(round_)
    best = [min(ts) for ts in zip(*times)]  # each operation's least time
    for (kind, what), n in sorted(failures.items()):
        print(f"failed {n}x {kind}: {what}")
    if tracer:
        layer = tracer.summary()
        for name in MUST_CALL.get(args.workload, ()):
            if layer[f"{name}.calls"] == 0:
                correct = False
                print(f"traced run: {name} was never called", file=sys.stderr)
        for name in MUST_NOT_CALL.get(args.workload, ()):
            if layer[f"{name}.calls"] != 0:
                correct = False
                print(f"traced run: {name} called {layer[f'{name}.calls']} times", file=sys.stderr)
        out_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out_path)
        print(f"traced ops_per_s {passed / timed:.6g} over {attempted} operations; "
              f"{len(tracer.spans)} spans in {out_path.relative_to(ROOT)}")
        metrics = {n: {"value": v, "unit": "count" if n.endswith(".calls") else "ms"}
                   for n, v in layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            # passed operations per round, over a round at each operation's least time
            "ops_per_s": passed / len(times) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"{args.workload}: {len(times)} rounds of {len(round_)} operations, "
              f"{timed:.3f} s timed; passed per second of all timed rounds "
              f"{passed / timed:.6g}")
        OUT.mkdir(exist_ok=True)
        raw = {"setup_s": setups, "kinds": [op.kind for op in round_], "times": times}
        (OUT / f"run-{args.workload}-{args.seed}.json").write_text(json.dumps(raw) + "\n")
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
