"""The benchmark's pinned sampled payloads, replayed in the test suite.

perfbench/digests.json pins the SHA-256 of every payload the benchmark
checks.  The seeded Monte-Carlo ones depend on every generator output the
sampler draws, in order, so a draw change that moves a byte must fail
here, not only when the benchmark runs.  perfbench/ is read, never written.
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


def sampled_invocations():
    """Every pinned sampled invocation: the sampling main list for the
    default seed, then the sampling and certify quick lists."""
    workloads = load_workloads()
    listed = (workloads.main_invocations("sampling", workloads.DEFAULT_SEED)
              + workloads.quick_invocations("sampling")
              + workloads.quick_invocations("certify"))
    return [inv for inv in listed if "--samples" in inv.argv]


PINS = json.loads((PERFBENCH / "digests.json").read_text())
INVOCATIONS = sampled_invocations()


def test_every_sampling_slot_is_replayed():
    assert len(INVOCATIONS) == 8
    assert all(" ".join(inv.argv) in PINS for inv in INVOCATIONS)


@pytest.mark.parametrize("inv", INVOCATIONS, ids=lambda inv: " ".join(inv.argv[:3]))
def test_sampled_payload_matches_the_benchmark_pin(capsys, inv):
    code = main(list(inv.argv))
    out = capsys.readouterr().out
    assert code == inv.expect_code
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[" ".join(inv.argv)]
