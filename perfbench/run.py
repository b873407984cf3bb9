"""mixscope benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from anywhere; the checkout is the directory above this one, and its
own src/ is what gets measured (mixscope need not be installed).  The
workload runs in one fresh child interpreter (child.py).  With --trace 0
the end-to-end metrics named in BENCHMARK.json are reported; set-up time
is measured here, as the median of several fresh interpreters that import
mixscope.cli and build its parser.  With --trace 1 the per-layer metrics
are reported from a separate traced run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print every
metric by name and unit, and the error rate (failed / attempted).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_SOURCE = ROOT / "src" / "mixscope" / "cli.py"

SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import mixscope.cli; mixscope.cli.build_parser()")
SETUP_RUNS = 12  # half before the workload, half after
SETUP_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 150


def fresh_setup() -> float:
    """Seconds for a fresh interpreter to import mixscope.cli and build
    its parser, measured from process start to exit.

    The wait blocks in waitpid: a wait with a timeout polls with sleeps of
    up to 50 ms, which would quantize the figure.  A timer thread kills a
    process that overruns instead.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with code {code}")
    return elapsed


def run_child(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="mixscope benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not CLI_SOURCE.is_file():
        print(f"perfbench: no mixscope source at {CLI_SOURCE}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        fresh_setup()  # compiles bytecode once, as an installed package would
        setup = [] if args.trace else [fresh_setup() for _ in range(SETUP_RUNS // 2)]
        child = run_child(args)
        if not args.trace:
            setup += [fresh_setup() for _ in range(SETUP_RUNS - len(setup))]
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    measured = dict(child["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in child["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)

    attempted, failed = child["attempted"], child["failed"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for name, (value, unit) in child["info"].items():
        print(f"{name} {value} {unit} (not gated)")
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0 and child["counts_repeat"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
