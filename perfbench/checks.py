"""Correctness checks for every benchmark invocation.

A check passes when the exit code is the expected one and the payload
satisfies cheap exact invariants that hold for any seed: exact laws sum to
1, a certified bound equals 1 - q, the cycle separation starts at 1, and so
on.  For invocations whose argv is pinned in digests.json (every quick
invocation, and the main list of the default seed) the SHA-256 of the
payload bytes must also match.  An intended payload change re-pins the
digests with ``python3 perfbench/pin.py``, as a benchmark change of its own.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

_RATIONAL = re.compile(rb"(\d+)/(\d+)")


def load_digests() -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def max_rational_digits(payload: bytes) -> int:
    """Longest numerator or denominator rendered in a payload, in digits."""
    return max((len(g) for m in _RATIONAL.finditer(payload) for g in m.groups()),
               default=0)


def _flatten(prefix: str, value, fields: dict) -> None:
    # Same layout as the CLI's CSV rows: "a.b" sections, lists of scalars
    # kept as lists, other lists indexed as "a[i]"; scalars as CSV text.
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, fields)
    elif isinstance(value, list):
        if value and all(not isinstance(v, (dict, list)) for v in value):
            fields[prefix] = [_text(v) for v in value]
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, fields)
    else:
        fields[prefix] = _text(value)


def _text(value) -> str:
    return "" if value is None else str(value)


def _fields(payload: str, fmt: str) -> dict:
    if fmt == "json":
        fields: dict = {}
        _flatten("", json.loads(payload), fields)
        return fields
    rows = list(csv.reader(io.StringIO(payload)))
    if not rows or rows[0] != ["section", "key", "value"]:
        raise ValueError("CSV header is not section,key,value")
    fields = {}
    for section, key, value in rows[1:]:
        if key:
            fields.setdefault(section, []).append(value)
        else:
            fields[section] = value
    return fields


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _sums_to_one(fields: dict, section: str) -> None:
    total = sum(Fraction(w) for w in fields[section])
    _require(total == 1, f"{section} sums to {total}")


def _check_stat_mix(argv, f) -> None:
    _sums_to_one(f, "results.stationary.weights")
    if "--samples" in argv:
        _require(f["results.certifies"] == "False", "sampling claims to certify")
        _require(f["results.samples"] == _option(argv, "--samples"), "sample count")
        return
    _sums_to_one(f, "results.law.weights")
    sep, tv = Fraction(f["results.separation"]), Fraction(f["results.total_variation"])
    _require(0 <= tv <= sep <= 1, f"expected 0 <= tv {tv} <= separation {sep} <= 1")


def _check_sst(argv, f) -> None:
    if "--samples" in argv:
        samples, satisfied = int(f["results.samples"]), int(f["results.satisfied"])
        _require(f["results.certifies"] == "False", "sampling claims to certify")
        _require(samples == int(_option(argv, "--samples")), "sample count")
        _require(0 <= satisfied <= samples, "satisfied outside 0..samples")
        q_hat = float(f["results.q_hat"])
        _require(q_hat == satisfied / samples, "q_hat is not satisfied/samples")
        lo, hi = (float(v) for v in f["results.q_interval_95"])
        _require(lo <= q_hat <= hi, "q_hat outside its interval")
        return
    _sums_to_one(f, "results.conditional.weights")
    _sums_to_one(f, "results.target.weights")
    q = Fraction(f["results.q"])
    deviation = Fraction(f["results.max_pointwise_deviation"])
    _require(0 < q <= 1, f"q = {q}")
    if f["results.is_strongly_stationary"] == "True":
        _require(Fraction(f["results.sep_bound"]) == 1 - q, "sep_bound != 1 - q")
        _require(deviation == 0, "certified with a nonzero deviation")
    else:
        _require(f["results.sep_bound"] == "", "refuted with a bound")
        _require(deviation > 0, "refuted with zero deviation")


def _check_cycle(argv, f) -> None:
    steps = int(_option(argv, "--horizon")) + 1
    for name in ("separation", "coverage_tail", "vertex_count_tail",
                 "distance_moved_tail"):
        values = f[f"results.{name}"]
        _require(len(values) == steps, f"{name} has {len(values)} values, not {steps}")
        _require(all(0 <= Fraction(v) <= 1 for v in values), f"{name} outside [0, 1]")
    _require(Fraction(f["results.separation"][0]) == 1, "separation[0] != 1")
    chebyshev = _option(argv, "--chebyshev")
    if chebyshev:
        for i in range(len(chebyshev.split(","))):
            sep = Fraction(f[f"results.chebyshev[{i}].separation_at_t_star"])
            _require(0 <= sep <= 1, "Chebyshev separation outside [0, 1]")


def _check_decompose(argv, f) -> None:
    k = int(f["results.k"])
    _require(f"results.sets[{k - 1}]" in f and f"results.sets[{k}]" not in f,
             "number of sets != k")
    _require(f["results.partition_ok"] == "True", "sets do not partition")
    _require(f["results.alternating_ok"] == "True", "a set does not alternate")
    if "--check-minimality" in argv:
        _require(f["results.minimal"] == "True", "decomposition not minimal")


def _check_counterexample(argv, f) -> None:
    _sums_to_one(f, "results.position_law.weights")
    law = dict(zip(f["results.position_law.support"], f["results.position_law.weights"]))
    _require(Fraction(law["1"]) == Fraction(f["results.pr_position_1"]),
             "pr_position_1 differs from the law")
    t = int(f["results.t"])
    _require(Fraction(f["results.path_lower_bound"])
             == Fraction(int(f["results.nonnegative_path_count"]), 2 ** t),
             "path_lower_bound != count / 2^t")


_CHECKS = {
    "stat-mix": _check_stat_mix,
    "sst-check": _check_sst,
    "cycle": _check_cycle,
    "decompose": _check_decompose,
    "counterexample": _check_counterexample,
}


def check(argv, expect_code: int, code, out: bytes, err: str, pins: dict):
    """None when the invocation behaved as expected, else what went wrong."""
    if code != expect_code:
        return f"exit {code}, expected {expect_code}: {err.strip()[-300:]}"
    pinned = pins.get(" ".join(argv))
    if pinned is not None and digest(out) != pinned:
        return "payload digest differs from the pinned one"
    try:
        if code != 0:
            _require(out == b"", "output on a failed run")
            error = json.loads(err.strip().splitlines()[-1])["error"]
            _require(code != 3 or error["code"] == "capacity",
                     f"error code {error['code']!r}")
            return None
        fields = _fields(out.decode(), _option(argv, "--format", "json"))
        _require(fields["config.kind"] == argv[0], "config.kind differs from argv")
        _CHECKS[argv[0]](argv, fields)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
