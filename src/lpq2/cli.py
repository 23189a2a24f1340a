"""Command-line frontend: norms, classification, segment scales, inequality
sweeps, gap probes, closure reports, and the selftest.

Reports serialize deterministically: fixed field order, floats at 17
significant digits, LF-terminated CSV. Exit codes: 0 success, 2 usage
error, 3 a sweep found a genuinely negative margin, 4 internal
inconsistency between the classifier and the perturbation oracle.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import click

from .classify import classify, segment_endpoints
from .core import LpVector, RInfinity, as_exponent
from .inequality import default_r_grid, sweep_margins
from .mip import closedness_check, closure_probe, density_probe, dual_space, mip_verdict
from .opnorm import Operator2x2, op_norm
from .oracle import NOT_EXTREME as ORACLE_NOT_EXTREME, extremality_probe
from .segment import pinned_segment
from .selftest import FAST, FULL, run_selftest

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MARGIN = 3
EXIT_INCONSISTENT = 4

ENV_PREFIX = "CLAB_"


@dataclass
class RunConfig:
    """Tolerances, grid sizes, seed, and output routing for one invocation."""

    tol_attain: float = 1e-9
    tol_oracle: float = 1e-9
    eps_min: float = 1e-4
    gap_threshold: float = 1e-2
    sphere_scan: int = 4096
    margin_grid: int = 2001
    seed: int = 0
    output_format: str = "json"
    output_path: str = "-"

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if not getattr(self, name) > 0.0:  # NaN is not positive either
                raise ValueError(f"{name} must be positive")
        for name in ("sphere_scan", "margin_grid"):
            if getattr(self, name) < 16:
                raise ValueError(f"{name} must be at least 16")
        self.seed = int(self.seed) & (2 ** 64 - 1)
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")


_FLOAT_FIELDS = ("tol_attain", "tol_oracle", "eps_min", "gap_threshold")
_INT_FIELDS = ("sphere_scan", "margin_grid", "seed")
_STR_FIELDS = ("output_format", "output_path")


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Assemble the run configuration: flags > environment (CLAB_*) > config
    file (key=value lines) > defaults. A key that names no field, in the
    file or in a CLAB_* variable, or a value that does not convert to its
    field's type, is a usage error."""
    fields = _FLOAT_FIELDS + _INT_FIELDS + _STR_FIELDS
    values: dict = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or "=" not in line:
                        continue
                    key, _, raw = line.partition("=")
                    key = key.strip()
                    if key not in fields:
                        raise click.UsageError(
                            f"unknown key {key!r} in config file {config_path}"
                        )
                    values[key] = raw.strip()
        except OSError as exc:
            raise click.UsageError(f"cannot read config file: {exc}")
    env_fields = {ENV_PREFIX + name.upper(): name for name in fields}
    for var, env in os.environ.items():
        if var.startswith(ENV_PREFIX):
            if var not in env_fields:
                raise click.UsageError(f"unknown configuration variable {var}")
            values[env_fields[var]] = env
    for k, v in overrides.items():
        if v is not None:
            values[k] = v
    kwargs: dict = {}
    for names, kind in ((_FLOAT_FIELDS, float), (_INT_FIELDS, int), (_STR_FIELDS, str)):
        for name in names:
            if name in values:
                try:
                    kwargs[name] = kind(values[name])
                except ValueError:
                    raise click.UsageError(
                        f"{name} must be {kind.__name__}, got {values[name]!r}"
                    )
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def fmt_float(x) -> str:
    """17-significant-digit rendering, fixed across platforms for diffing."""
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, floats via fmt_float."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad2}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad2}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return render_json(str(obj), indent)


def render_csv(rows: list[dict]) -> str:
    """Comma-separated, header row, LF line endings, floats at 17 digits."""
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    out = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            v = row.get(key)
            if isinstance(v, float):
                cells.append(format(v, ".17g") if math.isfinite(v) else str(v))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def emit(report, cfg: RunConfig, rows: list[dict] | None = None) -> None:
    if cfg.output_format == "csv":
        if rows is None:
            rows = [flatten(report)]
        text = render_csv(rows)
    else:
        text = render_json(report) + "\n"
    if cfg.output_path in ("-", ""):
        # Not click.echo: click caches every stream it has written to, keyed
        # weakly on the stream but holding it strongly, so each redirected
        # in-process buffer would stay alive.
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def flatten(obj, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, (dict, list, tuple)):
                out.update(flatten(v, key))
            else:
                out[key] = v
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            key = f"{prefix}.{i}" if prefix else str(i)
            if isinstance(v, (dict, list, tuple)):
                out.update(flatten(v, key))
            else:
                out[key] = v
    else:
        out[prefix or "value"] = obj
    return out


def _parse_matrix(text: str) -> tuple[float, float, float, float]:
    parts = [t for t in text.replace(";", ",").split(",") if t.strip()]
    if len(parts) != 4:
        raise click.UsageError(
            f"matrix must be four comma-separated entries a11,a12,a21,a22, got {text!r}"
        )
    try:
        vals = tuple(float(t) for t in parts)
    except ValueError as exc:
        raise click.UsageError(f"bad matrix entry: {exc}")
    if any(not math.isfinite(v) for v in vals):
        raise click.UsageError("matrix entries must be finite")
    return vals


def _parse_vector(text: str, p) -> LpVector:
    parts = [t for t in text.split(",") if t.strip()]
    if len(parts) != 2:
        raise click.UsageError(f"vector must be two comma-separated entries, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise click.UsageError(f"bad vector entry: {exc}")
    try:
        return LpVector.unit(a, b, p)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _exponent(v: float):
    try:
        return as_exponent(v)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _vec_json(v: LpVector) -> dict:
    return {"x1": v.x1, "x2": v.x2, "exponent": v.exponent.value}


def _op_json(T: Operator2x2) -> dict:
    return {
        "a11": T.a11, "a12": T.a12, "a21": T.a21, "a22": T.a22,
        "domain": T.domain.value, "codomain": T.codomain.value,
    }


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, RInfinity):
        return "inf"
    return w


def common_options(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="Config file with key=value lines.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Random seed.")(fn)
    fn = click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
                      default=None, help="Output format.")(fn)
    fn = click.option("--output", "output_path", type=str, default=None,
                      help="Output path ('-' for stdout).")(fn)
    return fn


def _cfg(config_path, **overrides) -> RunConfig:
    return load_config(config_path, overrides)


@click.group()
def main():
    """Extreme contractions between two-dimensional lp spaces: norms,
    classification, segment endpoints, inequality margins, and
    intersection-property probes."""


@main.command("norm")
@click.option("--p", required=True, type=float, help="Domain exponent.")
@click.option("--q", required=True, type=float, help="Codomain exponent.")
@click.option("--m", "matrix", required=True, type=str, help="Entries a11,a12,a21,a22.")
@common_options
def cmd_norm(p, q, matrix, config_path, seed, output_format, output_path):
    """Induced operator norm with its attaining directions."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    T = Operator2x2(*_parse_matrix(matrix), pe, qe)
    cert = op_norm(T, scan=cfg.sphere_scan, tol_attain=cfg.tol_attain)
    report = {
        "norm": cert.norm,
        "maximizers": [_vec_json(v) for v in cert.maximizers],
        "independent_pair": cert.independent_pair,
        "operator": _op_json(T),
    }
    rows = [
        {"norm": cert.norm, "max_index": i, "x1": v.x1, "x2": v.x2,
         "independent_pair": cert.independent_pair}
        for i, v in enumerate(cert.maximizers)
    ]
    emit(report, cfg, rows)


@main.command("classify")
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--m", "matrix", required=True, type=str, help="Entries a11,a12,a21,a22.")
@click.option("--oracle", "with_oracle", is_flag=True, help="Cross-check with the perturbation probe.")
@common_options
def cmd_classify(p, q, matrix, with_oracle, config_path, seed, output_format, output_path):
    """Extremality verdict for a norm-one operator."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    T = Operator2x2(*_parse_matrix(matrix), pe, qe)
    try:
        cls = classify(T)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = {
        "verdict": cls.verdict,
        "region": cls.region,
        "detail": cls.detail,
    }
    if cls.norm_pair is not None:
        report["x"] = _vec_json(cls.norm_pair[0])
        report["y"] = _vec_json(cls.norm_pair[1])
    if cls.scale is not None:
        report["scale"] = cls.scale
        report["endpoint_plus"], report["endpoint_minus"] = segment_endpoints(cls)
    inconsistent = False
    if with_oracle:
        probe = extremality_probe(
            T, eps_min=cfg.eps_min, tol=cfg.tol_oracle, seed=cfg.seed
        )
        report["oracle"] = {
            "verdict": probe.verdict,
            "epsilon": probe.epsilon,
        }
        if probe.witness is not None:
            report["oracle"]["witness"] = _op_json(probe.witness)
        inconsistent = (
            probe.verdict == ORACLE_NOT_EXTREME
            and cls.verdict in ("ExtremeTypeA", "ExtremeTypeB", "ExtremeIsometry")
        )
        report["consistent"] = not inconsistent
    emit(report, cfg)
    if inconsistent:
        sys.exit(EXIT_INCONSISTENT)


@main.command("sstar")
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--x", "xs", required=True, type=str, help="Domain unit vector x1,x2.")
@click.option("--y", "ys", required=True, type=str, help="Codomain unit vector y1,y2.")
@common_options
def cmd_sstar(p, q, xs, ys, config_path, seed, output_format, output_path):
    """Endpoints and small-r limits of the pinned segment through (x, y)."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    x = _parse_vector(xs, pe)
    y = _parse_vector(ys, qe)
    seg = pinned_segment(x, y)
    report = {
        "x": _vec_json(seg.x),
        "y": _vec_json(seg.y),
        "endpoint_plus": seg.endpoint_plus,
        "endpoint_minus": seg.endpoint_minus,
        "witness_plus": _witness_json(seg.witness_plus),
        "witness_minus": _witness_json(seg.witness_minus),
        "limit_plus": seg.limit_plus,
        "limit_minus": seg.limit_minus,
    }
    emit(report, cfg)


@main.command("ineq")
@click.argument("kind", type=click.Choice(["lemma1", "e18", "lemma3", "corollary"]))
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--r-max", type=float, default=100.0, help="Half-width of the parameter grid.")
@click.option("--x1p", type=float, default=None, help="Dominant coordinate mass (lemma3).")
@click.option("--x", "xs", type=str, default=None, help="Domain unit vector (e18).")
@click.option("--y", "ys", type=str, default=None, help="Codomain unit vector (e18).")
@click.option("--sign", type=int, default=1, help="Sign of the correction scale (e18).")
@common_options
def cmd_ineq(kind, p, q, r_max, x1p, xs, ys, sign, config_path, seed,
             output_format, output_path):
    """Sweep a named inequality and emit (parameter, margin) rows.

    Exits 3 when any margin falls below -1e-12: either a bug or a genuine
    violation region.
    """
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    rs = default_r_grid(r_max, cfg.margin_grid, tails=False)
    kwargs = {}
    if kind == "lemma3":
        if x1p is None:
            x1p = 1.0 / qe.value
        kwargs["x1p"] = x1p
    if kind == "e18":
        if xs is None or ys is None:
            raise click.UsageError("e18 needs --x and --y")
        kwargs["x"] = _parse_vector(xs, pe)
        kwargs["y"] = _parse_vector(ys, qe)
        kwargs["sign"] = 1 if sign >= 0 else -1
    try:
        margins = sweep_margins(kind, pe, qe, rs, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [{"r": float(r), "margin": float(mv)} for r, mv in zip(rs, margins)]
    worst = float(min(margins))
    report = {
        "kind": kind,
        "p": pe.value,
        "q": qe.value,
        "min_margin": worst,
        "rows": rows,
    }
    emit(report, cfg, rows)
    if worst < -1e-12:
        sys.exit(EXIT_MARGIN)


@main.command("mip")
@click.option("--p", required=True, type=float, help="First tensor factor exponent.")
@click.option("--q", required=True, type=float, help="Second tensor factor exponent.")
@click.option("--x", "x1", required=True, type=float, help="First coordinate of the domain witness.")
@click.option("--y", "y1", required=True, type=float, help="First coordinate of the codomain witness.")
@click.option("--samples", type=click.IntRange(min=0), default=256,
              help="Sampled extreme contractions.")
@click.option("--net-points", type=click.IntRange(min=0), default=2000,
              help="Unit-norm net size.")
@click.option("--net-radius", type=float, default=0.05)
@common_options
def cmd_mip(p, q, x1, y1, samples, net_points, net_radius, config_path, seed,
            output_format, output_path):
    """Gap evidence between rank-one norming functionals and the extreme
    contractions of the dual operator space."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    verdict = mip_verdict(pe, qe)
    dom, cod = dual_space(pe, qe)
    report = {
        "p": pe.value,
        "q": qe.value,
        "mip_verdict": verdict,
        "dual_domain": dom.value,
        "dual_codomain": cod.value,
    }
    if verdict == "FailsMIP":
        try:
            xv = LpVector.unit(x1, (1.0 - abs(x1) ** dom.value) ** (1.0 / dom.value), dom)
            yv = LpVector.unit(y1, (1.0 - abs(y1) ** cod.value) ** (1.0 / cod.value), cod)
        except ValueError as exc:
            raise click.UsageError(f"bad witness coordinate: {exc}")
        try:
            probe = density_probe(
                pe, qe, xv, yv,
                n_samples=samples,
                net_points=net_points,
                seed=cfg.seed,
                net_radius=net_radius,
                gap_threshold=cfg.gap_threshold,
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        report.update(
            {
                "verdict": probe.verdict,
                "sampled_min_distance": probe.sampled_min_distance,
                "samples": probe.samples,
                "net_points": probe.net_points,
                "net_radius": probe.net_radius,
                "net_extreme_hits": probe.net_extreme_hits,
                "max_net_distance": probe.max_net_distance,
                "target": _op_json(probe.target),
            }
        )
    emit(report, cfg)


@main.command("closure")
@click.option("--p", required=True, type=float, help="Common exponent of both spaces.")
@click.option("--s", "s_list", required=True, type=str, help="Comma-separated diagonal values.")
@click.option("--samples", type=click.IntRange(min=1), default=200)
@common_options
def cmd_closure(p, s_list, samples, config_path, seed, output_format, output_path):
    """Distances from diagonal operators to sampled extreme contractions."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe = _exponent(p)
    try:
        svals = [float(t) for t in s_list.split(",") if t.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad s value: {exc}")
    try:
        rep = closure_probe(pe, svals, n_samples=samples, seed=cfg.seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        {
            "s": row.s,
            "distance_type_a": row.distance_type_a,
            "distance_closed_form": row.distance_closed_form,
            "verdict_of_target": row.verdict_of_target,
        }
        for row in rep.rows
    ]
    report = {"p": rep.p, "rows": rows}
    emit(report, cfg, rows)


@main.command("closedness")
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--sequences", type=click.IntRange(min=1), default=50)
@common_options
def cmd_closedness(p, q, sequences, config_path, seed, output_format, output_path):
    """Classify limits of convergent sequences of extreme contractions."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    pe, qe = _exponent(p), _exponent(q)
    try:
        rep = closedness_check(pe, qe, n_sequences=sequences, seed=cfg.seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        {
            "x1": o.x_limit[0], "x2": o.x_limit[1],
            "y1": o.y_limit[0], "y2": o.y_limit[1],
            "sign": o.sign, "scale": o.scale_limit, "verdict": o.verdict,
        }
        for o in rep.outcomes
    ]
    report = {
        "p": rep.p,
        "q": rep.q,
        "region": rep.region,
        "sequences": rep.n_sequences,
        "non_extreme_limits": rep.non_extreme_limits,
        "rows": rows,
    }
    emit(report, cfg, rows)
    if rep.non_extreme_limits:
        sys.exit(EXIT_INCONSISTENT)


@main.command("selftest")
@click.option("--full", "full_scale", is_flag=True, help="Full acceptance sample sizes.")
@common_options
def cmd_selftest(full_scale, config_path, seed, output_format, output_path):
    """Run the acceptance checks; exits nonzero on any failure."""
    cfg = _cfg(config_path, seed=seed, output_format=output_format, output_path=output_path)
    report = run_selftest(scale=FULL if full_scale else FAST, seed=cfg.seed or 2024)
    emit(report, cfg)
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
