"""Spans around the public functions of each lpq2 layer, for the traced run.

The wrappers live here, in the benchmark, and replace each listed function
in every lpq2 module namespace that binds it: `classify` binds
`extremal_scale`, and so do `mip` and `selftest`. Modules are reached
through sys.modules because the package re-exports `classify` under the
module's own name, so the attribute `lpq2.classify` is the function.

A span is (name, start, end, parent index). Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, function): metrics `<module>.<function>.calls` and `.self_ms`,
# except that `classify` is split by region into classify.settled/.open.
TRACED = (
    ("opnorm", "norm_value"),
    ("opnorm", "op_norm"),
    ("segment", "extremal_scale"),
    ("segment", "limit_scale"),
    ("segment", "pinned_segment"),
    ("segment", "pinned_operator"),
    ("classify", "classify"),
    ("classify", "generate_extreme"),
    ("oracle", "extremality_probe"),
    ("inequality", "sweep_margins"),
    ("mip", "density_probe"),
    ("mip", "closedness_check"),
    ("mip", "closure_probe"),
)
COUNTED = (("opnorm", "is_contraction"),)  # calls only, no span
CLI = "cli.command"

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED if f != "classify") + (
    "classify.settled", "classify.open", CLI)
COUNT_NAMES = tuple(f"{m}.{f}" for m, f in COUNTED)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for n in SPAN_NAMES:
        names += [f"{n}.calls", f"{n}.self_ms"]
    return names + [f"{n}.calls" for n in COUNT_NAMES]


class Tracer:
    """Records spans while `active`; installs itself over the lpq2 modules."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts = {n: 0 for n in COUNT_NAMES}
        self._stack: list[int] = []

    def _span(self, name_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name_of(args, kwargs), time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in the lpq2 modules."""
        mods = [m for k, m in sys.modules.items() if k == "lpq2" or k.startswith("lpq2.")]
        home = sys.modules["lpq2.classify"]
        region_of, closed = home.region_of, home.CLOSED_REGIONS

        def classify_name(args, kwargs):
            T = args[0] if args else kwargs["T"]
            settled = region_of(T.domain, T.codomain) in closed
            return "classify.settled" if settled else "classify.open"

        for m, f in TRACED + COUNTED:
            orig = getattr(sys.modules["lpq2." + m], f)
            name = f"{m}.{f}"
            if (m, f) in COUNTED:
                wrapper = self._counter(name, orig)
            elif f == "classify":
                wrapper = self._span(classify_name, orig)
            else:
                wrapper = self._span(lambda a, k, n=name: n, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
        # The click group's entry point: parsing, configuration, rendering.
        group = sys.modules["lpq2.cli"].main
        group.main = self._span(lambda a, k: CLI, group.main)

    def summary(self) -> dict[str, float]:
        """calls and self_ms per span name, calls per counted function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {n: 0 for n in SPAN_NAMES}
        self_s = {n: 0.0 for n in SPAN_NAMES}
        for (name, start, end, _), c in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - c
        out = {}
        for n in SPAN_NAMES:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_ms"] = self_s[n] * 1e3
        for n in COUNT_NAMES:
            out[f"{n}.calls"] = self.counts[n]
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start and end in seconds, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
