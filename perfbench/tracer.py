"""Outside-in tracing of mixscope's layers, installed from the benchmark.

The tracer replaces chosen functions of the six modules (cli, verify,
shuffles, dist, cycle, budget) with timing wrappers.  The modules bind each
other's names with ``from .x import y``, so a wrapper replaces the name in
every mixscope namespace that holds the same function object, not only in
the defining module (``evolve`` is bound in dist, verify and cycle).  The
program's source is not touched and ``uninstall`` restores every binding.

Each call becomes a span: name, start, end, parent span and invocation id.
Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the part its child spans cover.  Three leaf
functions are called up to a million times per pass (``predicate_holds``,
``evaluate_statistic`` and each resumption of the ``enumerate_paths``
generator); they are aggregated per parent instead of stored one by one,
which keeps memory flat, while their time still counts against their
parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from time import perf_counter

MODULES = ("cli", "verify", "shuffles", "dist", "cycle", "budget")

# (module, attribute, stored as spans).  Methods are "Class.method".
TARGETS = (
    ("cli", "render_json", True),
    ("cli", "render_csv", True),
    ("verify", "check_strong_stationarity", True),
    ("verify", "enumerate_paths", False),
    ("verify", "predicate_holds", False),
    ("verify", "statistic_law_at", True),
    ("verify", "monte_carlo_conditional", True),
    ("verify", "walk1_position_distribution", True),
    ("shuffles", "random_to_top_kernel", True),
    ("shuffles", "walk1_kernel", True),
    ("shuffles", "riffle_kernel", True),
    ("shuffles", "stationary_statistic_distribution", True),
    ("shuffles", "evaluate_statistic", False),
    ("dist", "evolve", True),
    ("dist", "push_forward", True),
    ("dist", "separation_distance", True),
    ("dist", "total_variation", True),
    ("dist", "Distribution.__post_init__", True),
    ("dist", "Kernel.__post_init__", True),
    ("cycle", "separation_profile", True),
    ("cycle", "coverage_time_tail", True),
    ("cycle", "vertex_count_tail", True),
    ("cycle", "distance_moved_tail", True),
    ("cycle", "check_red_dominance", True),
    ("cycle", "exact_color_separation", True),
    ("cycle", "chebyshev_time", True),
    ("cycle", "alternating_decomposition", True),
    ("cycle", "has_alternating_partition", True),
    ("budget", "require_within_budget", True),
)

RUNNER = "cli.runner"
INVOCATION = "invocation"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stats = {}  # (parent name, name) -> [calls, total s, self s]
        self.counts = dict.fromkeys(
            ("paths", "mc_samples", "kernel_entries", "evolve_steps",
             "walk_steps", "budget_refusals", "budget_max_charge"), 0)
        self.invocation = -1
        self._stack = []  # frames: [child seconds, recorded span id, name]
        self._ids = itertools.count()
        self._patches = []

    # Timing core

    def _timed(self, name, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent[1] if parent else None
        span_id = next(self._ids) if record else parent_id
        frame = [0.0, span_id, name]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            key = (parent[2] if parent else None, name)
            stat = self.stats.get(key)
            if stat is None:
                stat = self.stats[key] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if record:
                self.spans.append((span_id, name, start, end, parent_id, self.invocation))

    def invoke(self, index, fn, *args):
        """Run one CLI invocation as the root span of its call tree."""
        self.invocation = index
        return self._timed(INVOCATION, True, fn, args, {})

    # Wrappers

    def _wrapper(self, name, record, fn, after=None):
        timed = self._timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(name, record, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, name, fn):
        timed = self._timed
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = timed(name, False, next, (items,), {})
                except StopIteration:
                    return
                counts["paths"] += 1
                yield item

        return wrapper

    def _budget_wrapper(self, name, fn, capacity_error):
        timed = self._timed
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            charge = _arg(args, kwargs, 0, "count")
            counts["budget_max_charge"] = max(counts["budget_max_charge"], charge)
            try:
                return timed(name, True, fn, args, kwargs)
            except capacity_error:
                counts["budget_refusals"] += 1
                raise

        return wrapper

    def _after_hook(self, attr):
        counts = self.counts

        def kernel_entries(args, kwargs, kernel):
            counts["kernel_entries"] += sum(len(row) for row in kernel.rows.values())

        def evolve_steps(args, kwargs, result):
            counts["evolve_steps"] += _arg(args, kwargs, 2, "t")

        def mc_samples(args, kwargs, result):
            counts["mc_samples"] += _arg(args, kwargs, 5, "samples")

        def profile_steps(args, kwargs, result):
            counts["walk_steps"] += _arg(args, kwargs, 2, "horizon")

        def dominance_steps(args, kwargs, report):
            if report.precondition_holds:
                counts["walk_steps"] += _arg(args, kwargs, 2, "horizon")

        return {
            "random_to_top_kernel": kernel_entries,
            "walk1_kernel": kernel_entries,
            "riffle_kernel": kernel_entries,
            "evolve": evolve_steps,
            "monte_carlo_conditional": mc_samples,
            "separation_profile": profile_steps,
            "check_red_dominance": dominance_steps,
        }.get(attr)

    # Installation

    def install(self):
        modules = {m: importlib.import_module(f"mixscope.{m}") for m in MODULES}
        namespaces = [importlib.import_module("mixscope"), *modules.values()]
        for module_name, attr, record in TARGETS:
            name = f"{module_name}.{attr}"
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrapper(name, record, original))
                continue
            original = getattr(module, attr)
            if attr == "enumerate_paths":
                wrapped = self._generator_wrapper(name, original)
            elif attr == "require_within_budget":
                wrapped = self._budget_wrapper(name, original,
                                               modules["budget"].CapacityError)
            else:
                wrapped = self._wrapper(name, record, original, self._after_hook(attr))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapped)
        runners = modules["cli"].RUNNERS
        for kind, runner in list(runners.items()):
            runners[kind] = self._wrapper(RUNNER, True, runner)
            self._patches.append((runners, kind, runner))

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # Results

    def calls(self, *names):
        return sum(s[0] for (_, n), s in self.stats.items() if n in names)

    def total(self, *names):
        return sum(s[1] for (_, n), s in self.stats.items() if n in names)

    def self_time(self, *names, parent=None, exclude_parent=None):
        return sum(
            s[2] for (p, n), s in self.stats.items()
            if n in names and (parent is None or p == parent)
            and (exclude_parent is None or p != exclude_parent)
        )

    def write(self, handle, label):
        """Write the spans and the per-edge aggregates as one JSON object."""
        json.dump({
            "label": label,
            "fields": ["id", "name", "start", "end", "parent", "invocation"],
            "spans": self.spans,
            "edges": [{"parent": p, "name": n, "calls": s[0], "total_s": s[1],
                       "self_s": s[2]} for (p, n), s in sorted(
                           self.stats.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counts": self.counts,
        }, handle)
        handle.write("\n")
