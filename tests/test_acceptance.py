"""Acceptance gate: one test per published correctness criterion.

Each criterion records a PASS/FAIL line printed in the terminal summary.
Three criteria fail honestly on claims that exact computation refutes:

* criterion 4: the tracked-card probability at (n=52, t=10) is close to,
  but not exactly, the advertised closed form (the path-reversal argument
  behind it ignores repeated choices of the current top card);
* criterion 7: the decomposition gap bound 2k-1 is violated by the
  construction and is unachievable outright for some colorings;
* criterion 8: exact separation exceeds the midpoint-coverage tail
  (first at the twelve-vertex pattern, t=3).

scripts/sweep_cycle_bounds.py and scripts/walk1_exactness_probe.py
reproduce the refuting computations; the failing assertions carry the
concrete witnesses.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, product

import conftest

from mixscope.cycle import (
    alternating_decomposition,
    check_alternating,
    chebyshev_time,
    compute_k,
    coverage_time_tail,
    gambler_moments,
    has_alternating_partition,
    lazy_cycle_kernel,
    max_gap,
    parse_coloring,
    separation_profile,
)
from mixscope.dist import (
    Distribution,
    evolve,
    push_forward,
    separation_distance,
)
from mixscope.shuffles import (
    deck_statistic,
    identity_deck,
    parse_statistic,
    random_to_top_kernel,
    riffle_kernel,
    stationary_statistic_distribution,
    walk1_kernel,
)
from mixscope.verify import (
    CHAINS,
    check_strong_stationarity,
    conditional_statistic_distribution,
    count_nonnegative_paths,
    enumerate_paths,
    parse_predicate,
    prob_k_distinct,
    prob_strings_distinct,
    statistic_law_at,
    walk1_position_distribution,
)

MOD6 = parse_coloring("RRBRBB" * 2)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException as exc:
        text = str(exc).strip() or type(exc).__name__
        conftest.record(number, title, False, text.splitlines()[0][:200])
        raise
    conftest.record(number, title, True)


def balanced_colorings(size):
    for reds in combinations(range(size), size // 2):
        yield tuple("R" if v in reds else "B" for v in range(size))


def random_coloring(rng, max_size):
    size = 2 * rng.randint(2, max_size // 2)
    marks = ["R"] * (size // 2) + ["B"] * (size // 2)
    rng.shuffle(marks)
    return parse_coloring(marks)


# one shared seeded pool so the mixing-bound and chebyshev criteria see
# the same colorings even though the former fails before finishing
RNG_POOL = random.Random(20250819)
FIFTY_COLORINGS = [random_coloring(RNG_POOL, 14) for _ in range(50)]


def test_criterion_01_parity_exactness():
    with criterion(1, "parity separation is exactly 1/n^t (0 for even n)"):
        started = time.monotonic()
        for n in (4, 6):
            stat = parse_statistic("parity", n)
            target = stationary_statistic_distribution(n, stat)
            law = statistic_law_at("rtt", n, 1, stat, target)
            assert separation_distance(law, target) == 0
        for n in (3, 5, 7):
            stat = parse_statistic("parity", n)
            target = stationary_statistic_distribution(n, stat)
            for t in (1, 2, 3):
                law = statistic_law_at("rtt", n, t, stat, target)
                assert separation_distance(law, target) == F(1, n ** t)
        elapsed = time.monotonic() - started
        assert elapsed < 10, f"parity sweep took {elapsed:.1f}s"


def test_criterion_02_top_card_one_step():
    with criterion(2, "top card exactly uniform after one step, n <= 7"):
        for n in range(2, 8):
            stat = parse_statistic("top_card", n)
            target = stationary_statistic_distribution(n, stat)
            law = statistic_law_at("rtt", n, 1, stat, target)
            assert separation_distance(law, target) == 0


def test_criterion_03_top_two_certificate():
    with criterion(3, "two-distinct-choices certificate for the top pair"):
        for n in (4, 5):
            for t in (2, 3, 4):
                rep = check_strong_stationarity(
                    "rtt", n, t,
                    parse_predicate("k_distinct:2", n, "rtt"),
                    parse_statistic("top_k_order:2", n),
                )
                assert rep.is_strongly_stationary
                assert rep.q == 1 - F(1, n ** (t - 1))
                pairs = n * (n - 1)
                assert len(rep.conditional.support) == pairs
                assert all(w == F(1, pairs) for w in rep.conditional.weights)


def test_criterion_04_tracked_card_counterexample():
    with criterion(4, "tracked-card law at (52, 10) and the refuted certificate"):
        assert count_nonnegative_paths(10) == 252
        law = walk1_position_distribution(52, 10, 52)
        pr_top = law.weight(1)
        assert 1 - 52 * pr_top >= F(252, 1024)
        rep = check_strong_stationarity(
            "walk1", 3, 2,
            parse_predicate("any_to_top", 3, "walk1"),
            parse_statistic("top_card", 3),
        )
        assert not rep.is_strongly_stationary
        assert rep.conditional.as_mapping() == {1: F(4, 9), 2: F(1, 3), 3: F(2, 9)}
        assert pr_top == F(772, 53248), (
            f"Pr(position=1) = {pr_top} != 772/53248; the closed form "
            "overcounts paths (scripts/walk1_exactness_probe.py)"
        )


def test_criterion_05_riffle_certificates():
    with criterion(5, "inverse-riffle bit-string certificates at n=4, t=2"):
        rep = check_strong_stationarity(
            "riffle", 4, 2,
            parse_predicate("riffle_first_j_strings_distinct:1", 4, "riffle"),
            parse_statistic("top_card", 4),
        )
        assert rep.is_strongly_stationary
        assert rep.conditional.as_mapping() == {c: F(1, 4) for c in (1, 2, 3, 4)}

        rep = check_strong_stationarity(
            "riffle", 4, 2,
            parse_predicate("riffle_first_j_strings_distinct:4", 4, "riffle"),
            parse_statistic("top_k_order:4", 4),
        )
        assert rep.is_strongly_stationary
        assert len(rep.conditional.support) == 24
        assert all(w == F(1, 24) for w in rep.conditional.weights)
        assert rep.q == prob_strings_distinct(4, 2) == F(3, 32)


def test_criterion_06_neighbor_statistics():
    with criterion(6, "neighbor statistics conditionally uniform at n=5, t=4"):
        pred = parse_predicate("card_chosen:1", 5, "rtt")
        stat = parse_statistic("card_above:1", 5)
        q, cond = conditional_statistic_distribution(
            enumerate_paths("rtt", 5, 4), pred, stat, 4
        )
        law = cond.as_mapping()
        above = [law[c] for c in (2, 3, 4, 5)]
        assert len(set(above)) == 1
        assert law["none"] == 1 - 4 * above[0]

        pred = parse_predicate("any_of_chosen:1,2", 5, "rtt")
        stat = parse_statistic("relative_order:1,2", 5)
        q, cond = conditional_statistic_distribution(
            enumerate_paths("rtt", 5, 4), pred, stat, 4
        )
        assert cond.as_mapping() == {(1, 2): F(1, 2), (2, 1): F(1, 2)}


def test_criterion_07_cycle_decomposition():
    with criterion(7, "decomposition: k sets, partition, alternation, gaps, minimality"):
        started = time.monotonic()
        offenders = []

        def examine(coloring, check_min):
            size = len(coloring)
            k = compute_k(coloring)
            sets = alternating_decomposition(coloring)
            assert len(sets) == k
            assert sorted(v for a in sets for v in a.members) == list(range(size))
            assert all(check_alternating(coloring, a.members) for a in sets)
            if check_min:
                assert not has_alternating_partition(coloring, k - 1)
            for a in sets:
                g = max_gap(a, size)
                if g > 2 * k - 1:
                    offenders.append(("".join(coloring), k, a.members, g))

        for size in (2, 4, 6, 8, 10):
            for marks in balanced_colorings(size):
                examine(parse_coloring(marks), check_min=True)
        rng = random.Random(16)
        for _ in range(200):
            examine(random_coloring(rng, 16), check_min=False)

        elapsed = time.monotonic() - started
        assert elapsed < 60, f"decomposition sweep took {elapsed:.1f}s"
        assert not offenders, (
            f"{len(offenders)} sets exceed the 2k-1 gap bound, first: "
            f"{offenders[0]}; no conforming partition exists at all for "
            "some colorings (scripts/sweep_cycle_bounds.py)"
        )


def test_criterion_08_coverage_mixing_bound():
    with criterion(8, "separation bounded by the midpoint-coverage tail"):
        for coloring in [MOD6] + FIFTY_COLORINGS:
            # probe a short prefix first so a violation fails fast
            for horizon in (12, 300):
                seps = separation_profile(coloring, 0, horizon)
                cov = coverage_time_tail(coloring, 0, horizon)
                for t, (s, c) in enumerate(zip(seps, cov)):
                    assert s <= c, (
                        f"coloring {''.join(coloring)}, x0=0, t={t}: "
                        f"separation {s} > coverage tail {c} "
                        "(scripts/sweep_cycle_bounds.py)"
                    )


def test_criterion_09_chebyshev_guarantee():
    with criterion(9, "separation meets the 1/c^2 guarantee at the tail time"):
        cs = (F(3, 2), F(2), F(3))
        for coloring in [MOD6] + FIFTY_COLORINGS:
            k = compute_k(coloring)
            stars = {c: math.ceil(chebyshev_time(k, float(c))) for c in cs}
            profile = separation_profile(coloring, 0, max(stars.values()))
            for c, t_star in stars.items():
                assert profile[t_star] <= 1 / c ** 2, (
                    f"coloring {''.join(coloring)}: separation at t={t_star} "
                    f"is {profile[t_star]}, above 1/{c}^2"
                )
        for k in range(1, 101):
            mean, var = gambler_moments(k)
            assert mean <= 8 * k ** 2
            assert var <= F(64, 3) * k ** 4


def test_criterion_10_red_dominance():
    with criterion(10, "red mass stays >= 1/2 from the red start, t <= 500"):
        kernel = lazy_cycle_kernel(12)
        law = Distribution.point_mass(0, universe=range(12))
        for t in range(501):
            red = sum(w for v, w in zip(law.support, law.weights) if MOD6[v] == "R")
            assert red >= F(1, 2), f"t={t}: red mass {red} < 1/2"
            law = evolve(kernel, law, 1)


def as_measure(dist):
    # the path and lumped routes omit unreached values, the deck-count and
    # kernel routes keep them as zero atoms; equality is as measures
    return {v: w for v, w in dist.as_mapping().items() if w != 0}


DENSE = {"rtt": random_to_top_kernel, "walk1": walk1_kernel, "riffle": riffle_kernel}


def test_criterion_11_cross_oracle_consistency():
    with criterion(11, "paths, lumped count and kernel evolution agree; "
                       "closed forms hold"):
        for chain in CHAINS:
            for n in (2, 3, 4):
                kernel = DENSE[chain](n)
                start = Distribution.point_mass(identity_deck(n), kernel.states)
                always = parse_predicate("always", n, chain)
                for t in range(5):
                    law = evolve(kernel, start, t)
                    for label in ("top_card", "parity"):
                        stat = parse_statistic(label, n)
                        q, cond = conditional_statistic_distribution(
                            enumerate_paths(chain, n, t), always, stat, t
                        )
                        assert q == 1
                        lumped = check_strong_stationarity(chain, n, t, always, stat)
                        assert lumped.q == 1
                        counted = statistic_law_at(chain, n, t, stat, lumped.target)
                        dense = push_forward(law, deck_statistic(n, stat))
                        assert as_measure(cond) == as_measure(lumped.conditional) \
                            == as_measure(counted) == as_measure(dense), (chain, n, t, label)
        for n in range(2, 6):
            for t in range(1, 6):
                for k in range(1, n + 1):
                    expected = F(
                        sum(1 for seq in product(range(n), repeat=t)
                            if len(set(seq)) >= k),
                        n ** t,
                    )
                    assert prob_k_distinct(n, k, t) == expected
