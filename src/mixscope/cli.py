"""Command-line front end: experiment configs, reports, and serialization.

One experiment per invocation.  Subcommands: stat-mix, sst-check, cycle,
decompose, counterexample.  Reports are deterministic for a fixed config
and seed: JSON is emitted with sorted keys and no whitespace, rationals as
"num/den" strings (or floats under --float), and the wall-clock duration
goes to stderr so payload bytes never depend on timing.  Exit codes:
0 success, 2 usage error, 3 enumeration budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .budget import CapacityError, enumeration_budget
from .cycle import (
    AlternatingSet,
    alternating_decomposition,
    check_alternating,
    check_red_dominance,
    chebyshev_time,
    compute_k,
    coverage_time_tail,
    distance_moved_tail,
    has_alternating_partition,
    max_gap,
    midpoints,
    parse_coloring,
    separation_profile,
    vertex_count_tail,
)
from .dist import (
    Distribution,
    EXACT,
    distribution_to_json,
    format_rational,
    separation_distance,
    state_to_json,
    total_variation,
)
from .shuffles import parse_statistic, stationary_statistic_distribution
from .verify import (
    CHAINS,
    InvariantError,
    check_strong_stationarity,
    count_nonnegative_paths,
    monte_carlo_conditional,
    parse_predicate,
    statistic_law_at,
    walk1_position_distribution,
)

MINIMALITY_SEARCH_CAP = 16


class UsageError(Exception):
    """Invalid configuration detected after argparse accepted the syntax."""


@dataclass
class ExperimentConfig:
    kind: str
    fmt: str = "json"
    out: str | None = None
    use_float: bool = False
    chain: str | None = None
    n: int | None = None
    t: int | None = None
    statistic: str | None = None
    predicate: str | None = None
    samples: int | None = None
    seed: int | None = None
    coloring: str | None = None
    x0: int | None = None
    horizon: int | None = None
    sets: str | None = None
    chebyshev: str | None = None
    check_minimality: bool = False
    p0: int | None = None

    @property
    def mode(self) -> str:
        return "monte-carlo" if self.samples is not None else "exact"

    def echo(self) -> dict:
        out = {"kind": self.kind, "mode": self.mode, "format": self.fmt,
               "float": self.use_float}
        for name in ("chain", "n", "t", "statistic", "predicate", "samples",
                     "seed", "coloring", "x0", "horizon", "sets", "chebyshev",
                     "check_minimality", "p0"):
            value = getattr(self, name)
            if value is not None and value is not False:
                out[name] = value
        return out


@dataclass
class Report:
    config: dict
    version: str
    results: dict
    duration_s: float = field(default=0.0, compare=False)

    def payload(self) -> dict:
        return {"config": self.config, "version": self.version, "results": self.results}


def _jsonable(value, use_float: bool):
    if isinstance(value, Distribution):
        d = distribution_to_json(value.to_float() if use_float else value)
        return d
    if isinstance(value, Fraction):
        return float(value) if use_float else format_rational(value)
    if isinstance(value, dict):
        return {k: _jsonable(v, use_float) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, use_float) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return state_to_json(value)


def render_json(report: Report, use_float: bool) -> str:
    payload = _jsonable(report.payload(), use_float)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        if value and all(isinstance(v, (str, int, float, bool, type(None))) for v in value):
            for i, v in enumerate(value):
                rows.append((prefix, str(i), v))
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "", value))


def render_csv(report: Report, use_float: bool) -> str:
    payload = _jsonable(report.payload(), use_float)
    rows: list = []
    for section in ("config", "version", "results"):
        _flatten(section, payload[section], rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", "key", "value"))
    for section, key, value in rows:
        writer.writerow((section, key, "" if value is None else value))
    return buf.getvalue()


# Subcommand runners

def _run_stat_mix(cfg: ExperimentConfig) -> dict:
    if cfg.chain not in CHAINS:
        raise UsageError(f"--chain must be one of {', '.join(CHAINS)}")
    statistic = parse_statistic(cfg.statistic, cfg.n)
    stationary = stationary_statistic_distribution(cfg.n, statistic)
    if cfg.mode == "exact":
        law = statistic_law_at(cfg.chain, cfg.n, cfg.t, statistic)
        return {
            "law": law,
            "stationary": stationary,
            "separation": separation_distance(law, stationary),
            "total_variation": total_variation(law, stationary),
        }
    predicate = parse_predicate("always", cfg.n, cfg.chain)
    mc = monte_carlo_conditional(cfg.chain, cfg.n, cfg.t, predicate, statistic,
                                 cfg.samples, cfg.seed)
    freq = [[state_to_json(v), f] for v, f in mc.conditional_freq.items()]
    return {
        "law_estimate": freq,
        "stationary": stationary,
        "samples": mc.samples,
        "seed": mc.seed,
        "certifies": False,
    }


def _run_sst_check(cfg: ExperimentConfig) -> dict:
    if cfg.chain not in CHAINS:
        raise UsageError(f"--chain must be one of {', '.join(CHAINS)}")
    statistic = parse_statistic(cfg.statistic, cfg.n)
    predicate = parse_predicate(cfg.predicate, cfg.n, cfg.chain)
    if cfg.mode == "exact":
        report = check_strong_stationarity(cfg.chain, cfg.n, cfg.t, predicate, statistic)
        return {
            "q": report.q,
            "conditional": report.conditional,
            "target": report.target,
            "is_strongly_stationary": report.is_strongly_stationary,
            "sep_bound": report.sep_bound,
            "max_pointwise_deviation": report.max_pointwise_deviation,
            "predicate_stable": report.predicate_stable,
        }
    mc = monte_carlo_conditional(cfg.chain, cfg.n, cfg.t, predicate, statistic,
                                 cfg.samples, cfg.seed)
    return {
        "samples": mc.samples,
        "seed": mc.seed,
        "satisfied": mc.satisfied,
        "q_hat": mc.q_hat,
        "q_interval_95": list(mc.q_interval),
        "conditional_freq": [[state_to_json(v), f] for v, f in mc.conditional_freq.items()],
        "certifies": False,
    }


def _parse_sets(raw: str | None):
    if raw is None:
        return None
    try:
        return [tuple(int(v) for v in part.split(",")) for part in raw.split(";") if part]
    except ValueError:
        raise UsageError(f"bad --sets value {raw!r}; expected e.g. 0,2;1,3")


def _run_cycle(cfg: ExperimentConfig) -> dict:
    coloring = parse_coloring(cfg.coloring)
    sets = _parse_sets(cfg.sets)
    horizon = cfg.horizon
    k = compute_k(coloring)
    if sets is None:
        members = [a.members for a in alternating_decomposition(coloring)]
    else:
        members = [tuple(sorted(s)) for s in sets]
    # Chebyshev times are read off the same sweep, which runs past the
    # horizon when a t* lies beyond it; only horizon + 1 values are reported.
    cs = []
    if cfg.chebyshev:
        try:
            cs = [float(c) for c in cfg.chebyshev.split(",")]
        except ValueError:
            raise UsageError(f"bad --chebyshev value {cfg.chebyshev!r}")
    t_stars = [math.ceil(chebyshev_time(k, c)) for c in cs]
    profile = separation_profile(coloring, cfg.x0, max([horizon, *t_stars]))
    seps = profile[:horizon + 1]
    cov = coverage_time_tail(coloring, cfg.x0, horizon, sets=sets)
    vtx = vertex_count_tail(coloring, cfg.x0, horizon)
    dst = distance_moved_tail(coloring, cfg.x0, horizon)
    bound_ok = [s <= c for s, c in zip(seps, cov)]
    first_bad = next((t for t, ok in enumerate(bound_ok) if not ok), None)
    dom = check_red_dominance(coloring, cfg.x0, horizon, sets=sets)
    results = {
        "k": k,
        "sets": [list(m) for m in members],
        "midpoints_half_units": [
            list(midpoints(AlternatingSet(m), len(coloring))) for m in members
        ],
        "separation": seps,
        "coverage_tail": cov,
        "vertex_count_tail": vtx,
        "distance_moved_tail": dst,
        "coverage_bound_ok_per_t": bound_ok,
        "coverage_bound_holds": first_bad is None,
        "first_coverage_violation_t": first_bad,
        "distance_bound_holds": all(s <= d for s, d in zip(seps, dst)),
        "dominance": {
            "sets_source": "explicit" if sets is not None else "canonical",
            "precondition_holds": dom.precondition_holds,
            "failing_sets": list(dom.failing_sets),
            "nearest": [
                {
                    "set": i,
                    "distance": rep.distance,
                    "color": rep.color if rep.color is not None else "ambiguous",
                    "vertices": list(rep.nearest),
                }
                for i, rep in enumerate(dom.nearest)
            ],
            "dominance_holds": dom.dominance_holds,
            "min_margin": dom.min_margin,
            "argmin_t": dom.argmin_t,
        },
    }
    if cfg.chebyshev:
        block = []
        for c, t_star in zip(cs, t_stars):
            sep_at = profile[t_star]
            block.append({
                "c": c,
                "t_star": t_star,
                "separation_at_t_star": sep_at,
                "guarantee": 1.0 / (c * c),
                "ok": float(sep_at) <= 1.0 / (c * c),
            })
        results["chebyshev"] = block
    return results


def _run_decompose(cfg: ExperimentConfig) -> dict:
    coloring = parse_coloring(cfg.coloring)
    size = len(coloring)
    k = compute_k(coloring)
    sets = alternating_decomposition(coloring)
    gaps = [max_gap(a, size) for a in sets]
    flat = sorted(v for a in sets for v in a.members)
    results = {
        "k": k,
        "sets": [list(a.members) for a in sets],
        "midpoints_half_units": [list(midpoints(a, size)) for a in sets],
        "max_gaps": gaps,
        "gap_bound": 2 * k - 1,
        "gaps_within_bound": all(g <= 2 * k - 1 for g in gaps),
        "partition_ok": flat == list(range(size)),
        "alternating_ok": all(check_alternating(coloring, a.members) for a in sets),
    }
    if cfg.check_minimality:
        if size > MINIMALITY_SEARCH_CAP:
            raise CapacityError(
                f"minimality search covers cycles up to {MINIMALITY_SEARCH_CAP} vertices"
            )
        results["minimal"] = not has_alternating_partition(coloring, k - 1)
    return results


def _run_counterexample(cfg: ExperimentConfig) -> dict:
    n = cfg.n if cfg.n is not None else 52
    t = cfg.t if cfg.t is not None else 10
    p0 = cfg.p0 if cfg.p0 is not None else n
    law = walk1_position_distribution(n, t, p0)
    pr_top = law.weight(1)
    lower = max(Fraction(0), 1 - pr_top * n)
    paths = count_nonnegative_paths(t)
    return {
        "n": n,
        "t": t,
        "p0": p0,
        "position_law": law,
        "pr_position_1": pr_top,
        "uniform_weight": Fraction(1, n),
        "separation_lower_bound": lower,
        "nonnegative_path_count": paths,
        "path_lower_bound": Fraction(paths, 2 ** t),
    }


RUNNERS = {
    "stat-mix": _run_stat_mix,
    "sst-check": _run_sst_check,
    "cycle": _run_cycle,
    "decompose": _run_decompose,
    "counterexample": _run_counterexample,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    started = time.monotonic()
    results = RUNNERS[cfg.kind](cfg)
    return Report(
        config=cfg.echo(),
        version=__version__,
        results=results,
        duration_s=time.monotonic() - started,
    )


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.samples is not None:
        if cfg.samples <= 0:
            raise UsageError("--samples must be positive")
        if cfg.seed is None:
            raise UsageError("monte-carlo mode requires --seed")
        if cfg.kind in ("cycle", "decompose", "counterexample"):
            raise UsageError(f"{cfg.kind} runs in exact mode only")
    for name in ("n", "t", "horizon"):
        value = getattr(cfg, name)
        if value is not None and value < 0:
            raise UsageError(f"--{name} must be nonnegative")
    if cfg.n is not None and cfg.n < 2 and cfg.kind in ("stat-mix", "sst-check"):
        raise UsageError("--n must be at least 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixscope",
        description="Exact separation-distance analysis of chain statistics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="kind", required=True)

    def common(sub, sampling: bool):
        sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None, help="write the report to this path")
        sub.add_argument("--float", dest="use_float", action="store_true",
                         help="render rationals as floats")
        if sampling:
            sub.add_argument("--exact", action="store_true", default=False,
                             help="exhaustive enumeration (the default)")
            sub.add_argument("--samples", type=int, default=None,
                             help="switch to seeded Monte-Carlo with this many samples")
            sub.add_argument("--seed", type=int, default=None)

    sm = subs.add_parser("stat-mix", help="law of a statistic at time t vs stationary")
    sm.add_argument("--chain", required=True)
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--t", type=int, required=True)
    sm.add_argument("--statistic", required=True)
    common(sm, sampling=True)

    sc = subs.add_parser("sst-check", help="certify or refute a conditional law")
    sc.add_argument("--chain", required=True)
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--t", type=int, required=True)
    sc.add_argument("--statistic", required=True)
    sc.add_argument("--predicate", required=True)
    common(sc, sampling=True)

    cy = subs.add_parser("cycle", help="coloring mixing profile and stopping tails")
    cy.add_argument("--coloring", required=True)
    cy.add_argument("--x0", type=int, required=True)
    cy.add_argument("--horizon", type=int, required=True)
    cy.add_argument("--sets", default=None,
                    help="explicit partition, e.g. 0,2;1,3 (default: canonical)")
    cy.add_argument("--chebyshev", default=None,
                    help="comma-separated c values to evaluate the tail-time guarantee at")
    common(cy, sampling=False)

    de = subs.add_parser("decompose", help="alternating decomposition of a coloring")
    de.add_argument("--coloring", required=True)
    de.add_argument("--check-minimality", dest="check_minimality", action="store_true")
    common(de, sampling=False)

    ce = subs.add_parser("counterexample", help="tracked-card law under walk1")
    ce.add_argument("--n", type=int, default=52)
    ce.add_argument("--t", type=int, default=10)
    ce.add_argument("--p0", type=int, default=None)
    common(ce, sampling=False)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f for f in ExperimentConfig.__dataclass_fields__}
    values = {k: v for k, v in vars(args).items() if k in fields}
    cfg = ExperimentConfig(**values)
    if getattr(args, "exact", False) and cfg.samples is not None:
        raise UsageError("--exact and --samples are mutually exclusive")
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mixscope-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _error_line(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enumeration_budget()
        cfg = _config_from_args(args)
        _validate(cfg)
        report = run_experiment(cfg)
        text = render_json(report, cfg.use_float) if cfg.fmt == "json" else \
            render_csv(report, cfg.use_float)
        _emit(text, cfg.out)
        sys.stderr.write(f"mixscope: {cfg.kind} finished in {report.duration_s:.3f}s\n")
        return 0
    except UsageError as exc:
        _error_line("usage", str(exc))
        return 2
    except InvariantError as exc:
        _error_line("internal", str(exc))
        return 4
    except (ValueError, KeyError) as exc:
        _error_line("usage", str(exc))
        return 2
    except CapacityError as exc:
        _error_line("capacity", str(exc))
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        _error_line("internal", f"{type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
