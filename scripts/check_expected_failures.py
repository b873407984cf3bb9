"""Gate: tier-1 fails exactly on the six by-design refutations.

Six tests assert published claims that are false, and they keep failing
with an exact witness (see "Bound verification findings" in the README).
This script runs the tier-1 suite and compares its failures with the
pinned manifest below.  It exits 0 only when the six fail, each with its
pinned witness as the first line of the failure message, and nothing else
fails.  A seventh failure, one of the six passing or going missing, or a
changed witness exits 1.  If the suite itself cannot run it exits 2.

Run:  python scripts/check_expected_failures.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# test id (as pytest's junit report names it) -> first line of its failure
EXPECTED = {
    "tests.test_acceptance::test_criterion_04_tracked_card_counterexample":
        "AssertionError: Pr(position=1) = 41008709629674851/2846623624842969088 "
        "!= 772/53248; the closed form overcounts paths "
        "(scripts/walk1_exactness_probe.py)",
    "tests.test_acceptance::test_criterion_07_cycle_decomposition":
        "AssertionError: 205 sets exceed the 2k-1 gap bound, first: "
        "('RRBBRB', 2, (1, 3), 4); no conforming partition exists at all for "
        "some colorings (scripts/sweep_cycle_bounds.py)",
    "tests.test_acceptance::test_criterion_08_coverage_mixing_bound":
        "AssertionError: coloring RRBRBBRRBRBB, x0=0, t=3: separation 5/32 > "
        "coverage tail 1/8 (scripts/sweep_cycle_bounds.py)",
    "tests.test_cycle.TestClaimedBounds::test_decomposition_member_gaps_within_bound":
        "AssertionError: 142 decomposition sets exceed the 2k-1 gap bound, first: "
        "('RRBBRB', 2, (1, 3), 4); for some colorings no conforming partition "
        "exists at all (scripts/sweep_cycle_bounds.py reproduces the search)",
    "tests.test_cycle.TestClaimedBounds::test_midpoint_coverage_dominates_separation":
        "AssertionError: separation exceeds the midpoint-coverage tail at "
        "[(3, '5/32', '1/8'), (4, '7/64', '1/16'), (5, '41/512', '1/32'), "
        "(6, '61/1024', '1/64'), (7, '365/8192', '1/128'), "
        "(8, '547/16384', '1/256'), (9, '3281/131072', '1/512'), "
        "(10, '4921/262144', '1/1024'), (11, '29525/2097152', '1/2048'), "
        "(12, '44287/4194304', '1/4096')]; the coverage bound is not a valid "
        "certificate (scripts/sweep_cycle_bounds.py reproduces the full sweep)",
    "tests.test_cycle.TestClaimedBounds::test_reflection_through_midpoints_is_fair":
        "AssertionError: midpoint-reflection is not color-fair: "
        "[((0, 2, 3, 5, 7, 10), 3, '13/64', '3/16'), "
        "((0, 2, 3, 5, 7, 10), 4, '31/128', '7/32'), "
        "((0, 2, 3, 5, 7, 10), 5, '133/512', '241/1024'), "
        "((0, 2, 3, 5, 7, 10), 6, '273/1024', '501/2048')] "
        "(scripts/sweep_cycle_bounds.py reproduces the full sweep)",
}


def run_suite(report: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", f"--junitxml={report}"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def collect(report: Path) -> tuple:
    """(ids of every test run, {failed id: first line of its message})."""
    seen, failed = set(), {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        seen.add(test_id)
        for child in case:
            if child.tag in ("failure", "error"):
                failed[test_id] = (child.get("message") or "").split("\n")[0]
    return seen, failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = run_suite(report)
        if code not in (0, 1) or not report.is_file():
            print(f"tier-1 did not run to completion (pytest exit {code})")
            return 2
        seen, failed = collect(report)
    problems = []
    for test_id in sorted(set(failed) - set(EXPECTED)):
        problems.append(f"unexpected failure: {test_id}: {failed[test_id]}")
    for test_id, witness in EXPECTED.items():
        if test_id not in seen:
            problems.append(f"expected failure missing from the suite: {test_id}")
        elif test_id not in failed:
            problems.append(f"expected failure now passes: {test_id}")
        elif failed[test_id] != witness:
            problems.append(f"witness changed: {test_id}: {failed[test_id]}")
    for line in problems:
        print(line)
    print(f"{len(seen)} tests run, {len(failed)} failed, "
          f"{len(EXPECTED)} expected by design: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
