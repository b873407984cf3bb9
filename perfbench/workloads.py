"""Seeded mixscope invocations for the four benchmark workloads.

Each workload is a *main* list (the invocations one timed pass runs) and a
*quick* list (the README examples of its command family, timed one at a
time for latency percentiles).  The seed picks instance content only:
card labels in statistics and predicates, colorings, start vertices and
Monte-Carlo seeds.  Sizes (deck size n, step count t, cycle size, horizon,
sample count) are fixed per slot, so every seed asks for the same amount
of work and run-to-run spread measures the machine, not the inputs.

Why each workload exists:

certify       exact sst-check; enumeration plus predicate evaluation is
              almost all the work.  Never calls evolve or the cycle code, so
              an evolve change must read "no change" here.
deck-law      exact stat-mix on dense S_n kernels: kernel build, evolve and
              push_forward over 720-5,040 states with small denominators.
long-horizon  cycle, counterexample and decompose: few states through
              hundreds of steps, rationals of about 850 digits; evolve used
              the opposite way from deck-law.
sampling      seeded Monte-Carlo sst-check / stat-mix: one predicate
              evaluation per sampled path, no enumeration and no evolve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("certify", "deck-law", "long-horizon", "sampling")

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect_code: int = 0


def _inv(text: str, expect_code: int = 0) -> Invocation:
    return Invocation(tuple(text.split()), expect_code)


# README examples, one list per command family.  They carry no seeded
# content, so their payload digests are pinned for every seed.
QUICK = {
    "certify": [
        _inv("sst-check --chain rtt --n 4 --t 3 --statistic top_k_order:2 "
             "--predicate k_distinct:2"),
        _inv("sst-check --chain walk1 --n 3 --t 2 --statistic top_card "
             "--predicate any_to_top"),
        _inv("sst-check --chain rtt --n 5 --t 2 --statistic top_card "
             "--predicate any_to_top --samples 2000 --seed 7"),
    ],
    "deck-law": [
        _inv("stat-mix --chain rtt --n 3 --t 2 --statistic parity"),
    ],
    "long-horizon": [
        _inv("cycle --coloring RRBRBB --x0 0 --horizon 4"),
        _inv("decompose --coloring RRBBRB"),
        _inv("counterexample"),
    ],
    "sampling": [
        _inv("sst-check --chain rtt --n 5 --t 2 --statistic top_card "
             "--predicate any_to_top --samples 2000 --seed 7"),
    ],
}


def _labels(rng: random.Random, n: int, k: int) -> str:
    return ",".join(str(c) for c in sorted(rng.sample(range(1, n + 1), k)))


def _card(rng: random.Random, n: int) -> int:
    return rng.randrange(1, n + 1)


def _certify(rng: random.Random) -> list:
    # One slot per predicate family, plus the 78,125-path rtt n=5 t=7 case
    # and one request over the default budget (rtt n=6 t=9: 10,077,696
    # paths), which must be refused with exit 3 before any work starts.
    big_stat = rng.choice(["top_k_order:2", "top_k_set:2",
                           f"relative_order:{_labels(rng, 5, 2)}",
                           f"position_of:{_card(rng, 5)}"])
    return [
        _inv(f"sst-check --chain rtt --n 5 --t 7 --statistic {big_stat} "
             f"--predicate k_distinct:{rng.choice([2, 3])}"),
        _inv(f"sst-check --chain rtt --n 4 --t 6 --statistic "
             f"relative_order:{_labels(rng, 4, 2)} --predicate all_chosen"),
        _inv(f"sst-check --chain rtt --n 4 --t 6 --statistic "
             f"position_of:{_card(rng, 4)} --predicate card_chosen:{_card(rng, 4)}"),
        _inv(f"sst-check --chain rtt --n 4 --t 6 --statistic "
             f"relative_order:{_labels(rng, 4, 2)} --predicate "
             f"chosen_more_recently_than:{_card(rng, 4)},{rng.randrange(1, 4)}"),
        _inv(f"sst-check --chain walk1 --n 4 --t 5 --statistic "
             f"card_above:{_card(rng, 4)} --predicate any_of_chosen:{_labels(rng, 4, 2)}"),
        _inv(f"sst-check --chain walk1 --n 4 --t 5 --statistic "
             f"card_below:{_card(rng, 4)} --predicate any_to_top"),
        _inv(f"sst-check --chain riffle --n 4 --t 3 --statistic top_k_order:2 "
             f"--predicate riffle_first_j_strings_distinct:{rng.randrange(1, 4)}"),
        _inv(f"sst-check --chain riffle --n 4 --t 3 --statistic "
             f"relative_order:{_labels(rng, 4, 2)} --predicate "
             f"riffle_set_strings_distinct:{_labels(rng, 4, 2)}"),
        _inv("sst-check --chain riffle --n 4 --t 3 --statistic block_sets:2 "
             "--predicate riffle_blocks_nonoverlapping:2"),
        _inv(f"sst-check --chain rtt --n 6 --t 9 --statistic "
             f"position_of:{_card(rng, 6)} --predicate card_chosen:{_card(rng, 6)}",
             expect_code=3),
    ]


def _statistic(rng: random.Random, kind: str, n: int) -> str:
    """A catalogue statistic with seeded card labels (sizes fixed by kind)."""
    if kind in ("position_of", "card_above", "card_below"):
        return f"{kind}:{_card(rng, n)}"
    if kind in ("positions_of", "distance"):
        return f"{kind}:{_labels(rng, n, 2)}"
    if kind == "relative_order":
        return f"{kind}:{_labels(rng, n, 3)}"
    if kind in ("top_k_order", "top_k_set"):
        return f"{kind}:3"
    if kind in ("block_sets", "modular_hands"):
        return f"{kind}:2"
    return kind


def _deck_law(rng: random.Random) -> list:
    # The three dense kernels at their largest routine sizes, then the rest
    # of the statistic catalogue on n=6, one with CSV output.
    out = [
        _inv(f"stat-mix --chain riffle --n 6 --t 2 --statistic "
             f"{_statistic(rng, 'relative_order', 6)}"),
        _inv(f"stat-mix --chain rtt --n 7 --t 3 --statistic "
             f"{_statistic(rng, 'positions_of', 7)}"),
        _inv(f"stat-mix --chain walk1 --n 7 --t 3 --statistic "
             f"{_statistic(rng, 'card_above', 7)}"),
    ]
    small = ["top_card", "top_k_order", "top_k_set", "position_of", "parity",
             "card_below", "distance", "block_sets", "modular_hands"]
    for i, kind in enumerate(small):
        chain = ("rtt", "walk1")[i % 2]
        fmt = " --format csv" if kind == "distance" else ""
        out.append(_inv(f"stat-mix --chain {chain} --n 6 --t 4 --statistic "
                        f"{_statistic(rng, kind, 6)}{fmt}"))
    return out


# Colorings.  The alternating number k and the red-dominance precondition
# decide how much work a cycle run does: Chebyshev times grow as k^2, the
# tails' state space grows with k, and dominance evolves the walk only when
# its precondition holds.  So the generator fixes k, and fixes for each run
# whether the precondition holds.

def _alternating_number(coloring: str) -> int:
    s = lo = hi = 0
    for m in coloring:
        s += 1 if m == "R" else -1
        lo, hi = min(lo, s), max(hi, s)
    return hi - lo


def _canonical_sets(coloring: str) -> list:
    size = len(coloring)
    k = _alternating_number(coloring)
    prefix = [0]
    for m in coloring:
        prefix.append(prefix[-1] + (1 if m == "R" else -1))
    start = prefix[:size].index(min(prefix[:size]))
    order = [(start + j) % size for j in range(size)]
    reds = [v for v in order if coloring[v] == "R"]
    blues = [v for v in order if coloring[v] == "B"]
    return [sorted(reds[i::k] + blues[i::k]) for i in range(k)]


def _cyclic_distance(a: int, b: int, size: int) -> int:
    d = (a - b) % size
    return min(d, size - d)


def _nearest_is_red(coloring: str, members, x0: int) -> bool:
    size = len(coloring)
    best = min(_cyclic_distance(v, x0, size) for v in members)
    return {coloring[v] for v in members if _cyclic_distance(v, x0, size) == best} == {"R"}


def _coloring(rng: random.Random, size: int, k: int) -> str:
    while True:
        marks = ["R", "B"] * (size // 2)
        rng.shuffle(marks)
        coloring = "".join(marks)
        if _alternating_number(coloring) == k:
            return coloring


def _start(rng: random.Random, size: int, k: int):
    """(coloring, x0) with alternating number k where the dominance
    precondition on the canonical sets fails, so dominance does not evolve."""
    while True:
        coloring = _coloring(rng, size, k)
        sets = _canonical_sets(coloring)
        starts = [x0 for x0 in range(size)
                  if not all(_nearest_is_red(coloring, s, x0) for s in sets)]
        if starts:
            return coloring, rng.choice(starts)


def _dominant_pairs(rng: random.Random, coloring: str, x0: int):
    """A random partition into red-blue pairs, each red strictly nearer to
    x0 than its blue partner, or None when no such pairing exists."""
    size = len(coloring)
    reds = [v for v in range(size) if coloring[v] == "R"]
    blues = sorted((v for v in range(size) if coloring[v] == "B"),
                   key=lambda v: _cyclic_distance(v, x0, size))
    pairs = []
    for b in blues:
        db = _cyclic_distance(b, x0, size)
        nearer = [r for r in reds if _cyclic_distance(r, x0, size) < db]
        if not nearer:
            return None
        r = rng.choice(nearer)
        reds.remove(r)
        pairs.append(sorted((r, b)))
    return sorted(pairs)


def _long_horizon(rng: random.Random) -> list:
    # Dominance evolves in the --sets run only: it pairs each blue with a
    # nearer red.  (For k=2 the canonical sets never met the precondition
    # in an exhaustive check at 12 vertices; _start makes sure of it.)
    big, big_x0 = _start(rng, 24, 2)
    while True:
        paired = _coloring(rng, 12, 2)
        paired_x0 = rng.randrange(12)
        pairs = _dominant_pairs(rng, paired, paired_x0)
        if pairs is not None:
            break
    sets = ";".join(",".join(str(v) for v in p) for p in pairs)
    small, small_x0 = _start(rng, 12, 2)
    minimal = _coloring(rng, 14, 3)
    return [
        _inv(f"cycle --coloring {big} --x0 {big_x0} --horizon 600 "
             "--chebyshev 1.5,2,3"),
        _inv(f"cycle --coloring {paired} --x0 {paired_x0} --horizon 300 "
             f"--sets {sets}"),
        _inv(f"cycle --coloring {small} --x0 {small_x0} --horizon 300 --format csv"),
        _inv(f"counterexample --t 400 --p0 {_card(rng, 52)}"),
        _inv(f"decompose --coloring {minimal} --check-minimality"),
    ]


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _sampling(rng: random.Random) -> list:
    return [
        _inv(f"sst-check --chain rtt --n 12 --t 40 --statistic top_k_order:2 "
             f"--predicate k_distinct:{rng.randrange(3, 7)} "
             f"--samples 5000 --seed {_mc_seed(rng)}"),
        _inv(f"sst-check --chain rtt --n 20 --t 40 --statistic "
             f"position_of:{_card(rng, 20)} --predicate card_chosen:{_card(rng, 20)} "
             f"--samples 5000 --seed {_mc_seed(rng)}"),
        _inv(f"sst-check --chain walk1 --n 16 --t 30 --statistic "
             f"relative_order:{_labels(rng, 16, 2)} --predicate "
             f"chosen_more_recently_than:{_card(rng, 16)},{rng.randrange(1, 4)} "
             f"--samples 5000 --seed {_mc_seed(rng)}"),
        _inv(f"sst-check --chain riffle --n 10 --t 6 --statistic top_k_order:2 "
             f"--predicate riffle_first_j_strings_distinct:{rng.randrange(1, 4)} "
             f"--samples 5000 --seed {_mc_seed(rng)}"),
        _inv(f"sst-check --chain riffle --n 12 --t 8 --statistic "
             f"relative_order:{_labels(rng, 12, 3)} --predicate "
             f"riffle_set_strings_distinct:{_labels(rng, 12, 3)} "
             f"--samples 5000 --seed {_mc_seed(rng)}"),
        _inv(f"stat-mix --chain walk1 --n 7 --t 20 --statistic "
             f"card_above:{_card(rng, 7)} --samples 20000 --seed {_mc_seed(rng)}"),
    ]


_MAIN = {
    "certify": _certify,
    "deck-law": _deck_law,
    "long-horizon": _long_horizon,
    "sampling": _sampling,
}


def main_invocations(workload: str, seed: int) -> list:
    """The main list of a workload; the same seed gives the same argv."""
    return _MAIN[workload](random.Random(f"{workload}:{seed}"))


def quick_invocations(workload: str) -> list:
    return list(QUICK[workload])
