"""The benchmark's pinned payloads, every one replayed in the test suite.

perfbench/digests.json pins the SHA-256 of every payload the benchmark
checks: each workload's quick list and its main list for the default
seed.  A change that moves a byte of any of them, a seeded sampled one or
an exact one, must fail here, not only when the benchmark runs.
perfbench/ is read, never written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mixscope.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def pinned_invocations():
    """(sampled, exact): every pinned invocation, from each workload's quick
    list and its main list for the default seed.  The sampled ones keep the
    order of the sampling main list, then the sampling and certify quick
    lists; the exact ones are each listed once."""
    workloads = load_workloads()
    sampled = (workloads.main_invocations("sampling", workloads.DEFAULT_SEED)
               + workloads.quick_invocations("sampling")
               + workloads.quick_invocations("certify"))
    listed = [inv for workload in workloads.WORKLOADS
              for inv in (workloads.quick_invocations(workload)
                          + workloads.main_invocations(workload, workloads.DEFAULT_SEED))]
    exact = {" ".join(inv.argv): inv for inv in listed if "--samples" not in inv.argv}
    return [inv for inv in sampled if "--samples" in inv.argv], list(exact.values())


PINS = json.loads((PERFBENCH / "digests.json").read_text())
SAMPLED, EXACT = pinned_invocations()


def test_every_sampling_slot_is_replayed():
    """Every pinned payload, sampled or exact, is replayed below."""
    assert {" ".join(inv.argv) for inv in SAMPLED + EXACT} == set(PINS)


def replay(capsys, inv):
    code = main(list(inv.argv))
    out = capsys.readouterr().out
    assert code == inv.expect_code
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[" ".join(inv.argv)]


@pytest.mark.parametrize("inv", SAMPLED, ids=lambda inv: " ".join(inv.argv[:3]))
def test_sampled_payload_matches_the_benchmark_pin(capsys, inv):
    replay(capsys, inv)


@pytest.mark.parametrize("inv", EXACT, ids=lambda inv: " ".join(inv.argv))
def test_exact_payload_matches_the_benchmark_pin(capsys, inv):
    replay(capsys, inv)
