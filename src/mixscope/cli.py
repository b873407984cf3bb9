"""Command-line front end: one runner per subcommand, and serialization.

One report per invocation.  Subcommands: stat-mix, sst-check, cycle,
decompose, counterexample.  Each runner reads the parsed arguments
directly, and the report echoes them under "config".  Reports are
deterministic for fixed arguments and seed: JSON is emitted with sorted
keys and no whitespace, rationals as "num/den" strings (or floats under --float), and the wall-clock duration
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
from fractions import Fraction

from . import __version__
from .budget import CapacityError, enumeration_budget
from .cycle import (
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
from .dist import InvariantError, separation_distance, to_json, total_variation
from .shuffles import CHAINS, parse_statistic, stationary_statistic_distribution
from .verify import (
    ALWAYS,
    check_strong_stationarity,
    count_nonnegative_paths,
    monte_carlo_conditional,
    parse_predicate,
    statistic_law_at,
    walk1_position_distribution,
)

MINIMALITY_SEARCH_CAP = 16


class UsageError(Exception):
    """Invalid arguments, or an unwritable --out, found after argparse accepted them."""


# the config echo's rows after kind, mode, format and float, in this order
CONFIG_ECHO = ("chain", "n", "t", "statistic", "predicate", "samples", "seed", "coloring",
               "x0", "horizon", "sets", "chebyshev", "check_minimality", "p0")


def _config_echo(args: argparse.Namespace) -> dict:
    sampled = getattr(args, "samples", None) is not None
    out = {"kind": args.kind, "mode": "monte-carlo" if sampled else "exact",
           "format": args.fmt, "float": args.use_float}
    for name in CONFIG_ECHO:
        value = getattr(args, name, None)
        if value is not None and value is not False:
            out[name] = value
    return out


def render_json(payload: dict, use_float: bool) -> str:
    return json.dumps(to_json(payload, use_float), sort_keys=True, separators=(",", ":")) + "\n"


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


def render_csv(payload: dict, use_float: bool) -> str:
    payload = to_json(payload, use_float)
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

def _run_stat_mix(args: argparse.Namespace) -> dict:
    statistic = parse_statistic(args.statistic, args.n)
    stationary = stationary_statistic_distribution(args.n, statistic)
    if args.samples is None:
        law = statistic_law_at(args.chain, args.n, args.t, statistic, stationary)
        return {
            "law": law,
            "stationary": stationary,
            "separation": separation_distance(law, stationary),
            "total_variation": total_variation(law, stationary),
        }
    mc = monte_carlo_conditional(args.chain, args.n, args.t, ALWAYS, statistic,
                                 args.samples, args.seed)
    return {
        "law_estimate": [*mc.conditional_freq.items()],
        "stationary": stationary,
        "samples": mc.samples,
        "seed": mc.seed,
        "certifies": False,
    }


def _run_sst_check(args: argparse.Namespace) -> dict:
    statistic = parse_statistic(args.statistic, args.n)
    predicate = parse_predicate(args.predicate, args.n, args.chain)
    if args.samples is None:
        return vars(check_strong_stationarity(args.chain, args.n, args.t, predicate, statistic))
    mc = monte_carlo_conditional(args.chain, args.n, args.t, predicate, statistic,
                                 args.samples, args.seed)
    return {
        "samples": mc.samples,
        "seed": mc.seed,
        "satisfied": mc.satisfied,
        "q_hat": mc.q_hat,
        "q_interval_95": mc.q_interval,
        "conditional_freq": [*mc.conditional_freq.items()],
        "certifies": False,
    }


def _parse_sets(raw: str | None):
    if raw is None:
        return None
    try:
        return [tuple(int(v) for v in part.split(",")) for part in raw.split(";") if part]
    except ValueError:
        raise UsageError(f"bad --sets value {raw!r}; expected e.g. 0,2;1,3")


def _chebyshev_times(raw: str, k: int):
    """(c, whole-step time t*, guarantee 1/c^2) for each c of --chebyshev."""
    message = f"bad --chebyshev value {raw!r}"
    try:
        cs = [float(c) for c in raw.split(",")]
    except ValueError:
        raise UsageError(message)
    times = []
    for c in cs:
        t_star = chebyshev_time(k, c)
        guarantee = 1.0 / (c * c) if c * c else math.inf
        # nan, inf, so large a c that t* overflows, or so small a c that its
        # guarantee 1/c^2 divides by zero or overflows
        if not (math.isfinite(t_star) and math.isfinite(guarantee)):
            raise UsageError(message)
        times.append((c, math.ceil(t_star), guarantee))
    return times


def _run_cycle(args: argparse.Namespace) -> dict:
    coloring = parse_coloring(args.coloring)
    sets = _parse_sets(args.sets)
    horizon = args.horizon
    k = compute_k(coloring)
    # Chebyshev times are read off the same sweep, which runs past the
    # horizon when a t* lies beyond it; only horizon + 1 values are reported.
    times = _chebyshev_times(args.chebyshev, k) if args.chebyshev is not None else []
    # the tails charge the budget up front, so one they refuse costs no sweep
    cov = coverage_time_tail(coloring, args.x0, horizon, sets=sets)
    vtx = vertex_count_tail(coloring, args.x0, horizon)
    dst = distance_moved_tail(coloring, args.x0, horizon)
    profile = separation_profile(coloring, args.x0, max([horizon, *(t for _, t, _ in times)]))
    seps = profile[:horizon + 1]
    bound_ok = [s <= c for s, c in zip(seps, cov)]
    first_bad = next((t for t, ok in enumerate(bound_ok) if not ok), None)
    dom = check_red_dominance(coloring, args.x0, horizon, sets=sets)
    results = {
        "k": k,
        "sets": dom.sets,
        "midpoints_half_units": [midpoints(m, len(coloring)) for m in dom.sets],
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
            "failing_sets": dom.failing_sets,
            "nearest": [
                {
                    "set": i,
                    "distance": rep.distance,
                    "color": rep.color if rep.color is not None else "ambiguous",
                    "vertices": rep.nearest,
                }
                for i, rep in enumerate(dom.nearest)
            ],
            "dominance_holds": dom.dominance_holds,
            "min_margin": dom.min_margin,
            "argmin_t": dom.argmin_t,
        },
    }
    if args.chebyshev is not None:
        results["chebyshev"] = [
            {"c": c, "t_star": t_star, "separation_at_t_star": profile[t_star],
             "guarantee": guarantee, "ok": float(profile[t_star]) <= guarantee}
            for c, t_star, guarantee in times
        ]
    return results


def _run_decompose(args: argparse.Namespace) -> dict:
    coloring = parse_coloring(args.coloring)
    size = len(coloring)
    k = compute_k(coloring)
    sets = alternating_decomposition(coloring)
    gaps = [max_gap(a, size) for a in sets]
    flat = sorted(v for a in sets for v in a)
    results = {
        "k": k,
        "sets": sets,
        "midpoints_half_units": [midpoints(a, size) for a in sets],
        "max_gaps": gaps,
        "gap_bound": 2 * k - 1,
        "gaps_within_bound": all(g <= 2 * k - 1 for g in gaps),
        "partition_ok": flat == list(range(size)),
        "alternating_ok": all(check_alternating(coloring, a) for a in sets),
    }
    if args.check_minimality:
        if size > MINIMALITY_SEARCH_CAP:
            raise CapacityError(
                f"minimality search covers cycles up to {MINIMALITY_SEARCH_CAP} vertices"
            )
        results["minimal"] = not has_alternating_partition(coloring, k - 1)
    return results


def _run_counterexample(args: argparse.Namespace) -> dict:
    n, t = args.n, args.t
    p0 = args.p0 if args.p0 is not None else n
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


def _validate(args: argparse.Namespace) -> None:
    samples = getattr(args, "samples", None)
    if samples is not None:
        if samples <= 0:
            raise UsageError("--samples must be positive")
        if args.seed is None:
            raise UsageError("monte-carlo mode requires --seed")
    for name in ("n", "t", "horizon"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageError(f"--{name} must be nonnegative")
    if args.kind in ("stat-mix", "sst-check"):
        if args.n < 2:
            raise UsageError("--n must be at least 2")
        if args.chain not in CHAINS:
            raise UsageError(f"--chain must be one of {', '.join(CHAINS)}")


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mixscope-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _error_line(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


_parser = None  # built by the first main() call, reused by every later one


def main(argv=None) -> int:
    """Run one request and return its exit code.

    May be called any number of times in one process; the argument parser
    is built once, on the first call.  Returns 0 on success, 2 for a usage
    error found after parsing, 3 when the enumeration budget is exceeded
    and 4 for an internal error.  As with any argparse program, a syntax
    error raises SystemExit(2), and --help and --version raise SystemExit(0).
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        enumeration_budget()
        _validate(args)
        started = time.monotonic()
        payload = {"config": _config_echo(args), "version": __version__,
                   "results": RUNNERS[args.kind](args)}
        duration = time.monotonic() - started
        render = render_json if args.fmt == "json" else render_csv
        _emit(render(payload, args.use_float), args.out)
        sys.stderr.write(f"mixscope: {args.kind} finished in {duration:.3f}s\n")
        return 0
    except UsageError as exc:
        _error_line("usage", str(exc))
        return 2
    except InvariantError as exc:
        _error_line("internal", str(exc))
        return 4
    except ValueError as exc:
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
