"""Re-pin the payload digests in digests.json.

    python3 perfbench/pin.py

Runs every quick invocation and the main list of the default seed for all
workloads, requires each to pass its exit-code and invariant checks, and
writes the SHA-256 of each payload.  Re-pinning is a benchmark change of
its own: do it only for an intended payload change, never to make a
failing run pass.
"""

from __future__ import annotations

import json
import sys

from checks import DIGESTS, check, digest
from child import Runner, import_checkout
from workloads import DEFAULT_SEED, WORKLOADS, main_invocations, quick_invocations


def main() -> int:
    runner = Runner(import_checkout(), {})
    pins = {}
    for workload in WORKLOADS:
        for inv in quick_invocations(workload) + main_invocations(workload, DEFAULT_SEED):
            failed = runner.failed
            payload = runner.run(inv)[1]
            if runner.failed != failed:
                print(f"not pinned: {runner.problems[-1]}", file=sys.stderr)
                return 1
            pins[" ".join(inv.argv)] = digest(payload)
    with open(DIGESTS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(pins)} payload digests in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
