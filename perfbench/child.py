"""Run one benchmark workload in this process and print its figures.

Started by run.py as a fresh interpreter per workload.  Imports mixscope
from the checkout's own src/ (it is not installed), drives every
invocation through ``mixscope.cli.main`` in-process, checks every payload
and prints one JSON object as its last line of standard output.

Timed mode (--trace 0) alternates a pass over the main list with a slice
of rounds over the quick (README-sized) list until the time is used, then
reports the pass time, the quick round latency and the peak RSS.

Traced mode (--trace 1) runs one untraced pass and two traced passes.
The per-layer figures come from the traced passes; their counts must
repeat exactly, and any count that differs is flagged.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from checks import check, load_digests, max_rational_digits
from tracer import Tracer
from workloads import WORKLOADS, main_invocations, quick_invocations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
QUICK_SHARE = 0.1  # quick-slice length after each pass, as a share of the pass
QUICK_ROUNDS = 100  # so that at least 10 rounds lie beyond the 90th percentile
MAX_PROBLEMS = 20


def import_checkout():
    """The checkout's mixscope.cli.main; refuses any other mixscope."""
    sys.path.insert(0, str(SRC))
    import mixscope
    import mixscope.cli

    location = Path(mixscope.__file__).resolve()
    if not location.is_relative_to(SRC.resolve()):
        raise SystemExit(f"mixscope imported from {location}, not from {SRC}")
    return mixscope.cli.main


class Runner:
    """Runs invocations in-process, checks each one and keeps the tally."""

    def __init__(self, cli_main, pins: dict):
        self.cli_main = cli_main
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list = []  # the first few, for the report

    def flag(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def run(self, inv, tracer=None, index=0):
        """(seconds spent in cli.main, payload bytes) for one invocation."""
        argv = list(inv.argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(argv)
                else:
                    code = tracer.invoke(index, self.cli_main, argv)
            except SystemExit as exc:  # argparse rejects bad syntax this way
                code = exc.code
            elapsed = perf_counter() - start
        payload = out.getvalue().encode()
        self.attempted += 1
        problem = check(inv.argv, inv.expect_code, code, payload, err.getvalue(), self.pins)
        if problem is not None:
            self.failed += 1
            self.flag(f"{' '.join(inv.argv)}: {problem}")
        return elapsed, payload

    def run_pass(self, invocations, tracer=None):
        """(seconds per invocation, payloads) for one pass over a list."""
        runs = [self.run(inv, tracer, index) for index, inv in enumerate(invocations)]
        return [seconds for seconds, _ in runs], [payload for _, payload in runs]


def timed(runner: Runner, main: list, quick: list, seconds: float):
    """(end-to-end metrics, informational figures with their units)."""
    def quick_round():
        # One sample is the whole quick list once: the README examples of a
        # family differ several-fold in latency, and a percentile over
        # mixed samples would land wherever the mix put it.
        return sum(runner.run(inv)[0] for inv in quick)

    quick_round()  # warm-up: first-call costs users pay once per process
    passes: list = []
    slowest = [0.0] * len(main)
    rounds: list = []
    began = perf_counter()
    while True:
        times = runner.run_pass(main)[0]
        slowest = [max(a, b) for a, b in zip(slowest, times)]
        passes.append(sum(times))
        slice_end = perf_counter() + QUICK_SHARE * passes[-1]
        while True:
            rounds.append(quick_round())
            if perf_counter() >= slice_end:
                break
        used = perf_counter() - began
        if (len(passes) >= MIN_PASSES
                and used + statistics.median(passes) * (1 + QUICK_SHARE) > seconds):
            break
    while len(rounds) < QUICK_ROUNDS:
        rounds.append(quick_round())
    metrics = {
        # The host's speed drifts by up to a quarter over minutes, so the
        # median pass moved that much between runs.  Each invocation's
        # slowest repeat (the host at its busiest) stayed within about a
        # tenth, so wall_s sums those.
        "wall_s": sum(slowest),
        "quick_p90_ms": statistics.quantiles(rounds, n=10)[-1] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "wall_median_s": (statistics.median(passes), "s"),
        "passes": (len(passes), "count"),
        "quick_p50_ms": (statistics.median(rounds) * 1e3, "ms"),
        "quick_rounds": (len(rounds), "count"),
    }
    return metrics, info


def layer_metrics(tracer, payloads: list) -> dict:
    """Per-layer figures of one traced pass (times in s, counts as counts)."""
    t = tracer
    counts = t.counts
    paths, evals = counts["paths"], t.calls("verify.predicate_holds")
    sampled = counts["mc_samples"]
    return {
        "cli.render_s": t.self_time("cli.render_json", "cli.render_csv"),
        "cli.payload_bytes": sum(len(p) for p in payloads),
        "cli.runner_self_s": t.self_time("cli.runner"),
        "verify.check_sst_self_s": t.self_time("verify.check_strong_stationarity"),
        "verify.enumerate_s": t.total("verify.enumerate_paths"),
        "verify.paths": paths,
        "verify.predicate_s": t.total("verify.predicate_holds"),
        "verify.predicate_evals": evals,
        "verify.predicate_evals_per_path": evals / (paths + sampled) if evals else 0.0,
        "verify.law_self_s": t.self_time("verify.statistic_law_at"),
        "verify.mc_self_s": t.self_time("verify.monte_carlo_conditional"),
        "verify.mc_samples": sampled,
        "verify.tracked_card_self_s": t.self_time("verify.walk1_position_distribution"),
        "shuffles.kernel_build_s": t.total("shuffles.random_to_top_kernel",
                                           "shuffles.walk1_kernel", "shuffles.riffle_kernel"),
        "shuffles.kernel_entries": counts["kernel_entries"],
        "shuffles.stationary_s": t.total("shuffles.stationary_statistic_distribution"),
        "shuffles.statistic_s": t.total("shuffles.evaluate_statistic"),
        "shuffles.statistic_evals": t.calls("shuffles.evaluate_statistic"),
        "dist.evolve_s": t.total("dist.evolve"),
        "dist.evolve_calls": t.calls("dist.evolve"),
        "dist.evolve_steps": counts["evolve_steps"],
        "dist.push_forward_s": t.total("dist.push_forward"),
        "dist.distance_s": t.total("dist.separation_distance", "dist.total_variation"),
        "dist.validate_s": t.total("dist.Distribution.__post_init__"),
        "dist.distributions_built": t.calls("dist.Distribution.__post_init__"),
        "dist.kernel_validate_s": t.total("dist.Kernel.__post_init__"),
        "dist.max_weight_digits": max(max_rational_digits(p) for p in payloads),
        # Chebyshev evaluation re-runs separation_profile from t=0; its
        # cycle-layer self time is charged to the Chebyshev figure.
        "cycle.profile_self_s": t.self_time("cycle.separation_profile",
                                            exclude_parent="cycle.exact_color_separation"),
        "cycle.tails_s": t.total("cycle.coverage_time_tail", "cycle.vertex_count_tail",
                                 "cycle.distance_moved_tail"),
        "cycle.dominance_self_s": t.self_time("cycle.check_red_dominance"),
        "cycle.chebyshev_self_s": (
            t.self_time("cycle.exact_color_separation", "cycle.chebyshev_time")
            + t.self_time("cycle.separation_profile", parent="cycle.exact_color_separation")),
        "cycle.decompose_s": t.total("cycle.alternating_decomposition",
                                     "cycle.has_alternating_partition"),
        "cycle.walk_steps": counts["walk_steps"],
        "budget.checks": t.calls("budget.require_within_budget"),
        "budget.refusals": counts["budget_refusals"],
        "budget.max_charge": counts["budget_max_charge"],
    }


# Figures that must repeat exactly between two traced passes of one seed.
COUNTS = (
    "cli.payload_bytes", "verify.paths", "verify.predicate_evals",
    "verify.mc_samples", "shuffles.kernel_entries", "shuffles.statistic_evals",
    "dist.evolve_calls", "dist.evolve_steps", "dist.distributions_built",
    "dist.max_weight_digits", "cycle.walk_steps", "budget.checks",
    "budget.refusals", "budget.max_charge",
)


def traced(runner: Runner, main: list, label: str):
    """(per-layer metrics, names of counts that did not repeat)."""
    untraced = sum(runner.run_pass(main)[0])
    passes = []
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{label}.jsonl", "w") as handle:
        for name in ("a", "b"):
            tracer = Tracer()
            tracer.install()
            try:
                times, payloads = runner.run_pass(main, tracer)
            finally:
                tracer.uninstall()
            tracer.write(handle, f"{label}:{name}")
            passes.append((sum(times), layer_metrics(tracer, payloads)))
    (first_s, first), (second_s, second) = passes
    mismatched = [k for k in COUNTS if first[k] != second[k]]
    for key in mismatched:
        runner.flag(f"count {key} differs between traced passes: "
                    f"{first[key]} vs {second[key]}")
    metrics = {k: v if k in COUNTS else (v + second[k]) / 2 for k, v in first.items()}
    metrics["trace.overhead"] = (first_s + second_s) / 2 / untraced
    return metrics, mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    runner = Runner(import_checkout(), load_digests())
    main_list = main_invocations(args.workload, args.seed)
    mismatched, info = [], {}
    if args.trace:
        metrics, mismatched = traced(runner, main_list,
                                     f"trace-{args.workload}-{args.seed}")
    else:
        metrics, info = timed(runner, main_list, quick_invocations(args.workload),
                              args.seconds)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "counts_repeat": not mismatched, "problems": runner.problems,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
