"""Integer evolution against a plain Fraction step loop, route by route.

evolve, the cycle's one-sweep color law and the tracked-card chain all
count with integers and divide once at the end.  Each is compared here
with the most direct reference there is: a step loop that multiplies
Fraction weights by the kernel's Fraction rows.
"""

import json
import random
from fractions import Fraction as F

import pytest

from mixscope.cli import main
from mixscope.cycle import (
    check_red_dominance,
    color_statistic,
    fair_coloring_target,
    lazy_cycle_kernel,
    parse_coloring,
    separation_profile,
)
from mixscope.dist import Distribution, evolve, push_forward, separation_distance
from mixscope.shuffles import (
    StatisticKind,
    deck_statistic,
    identity_deck,
    random_to_top_kernel,
    rank_deck,
    riffle_kernel,
    walk1_kernel,
)
from mixscope.verify import walk1_position_distribution

DENSE = {"rtt": random_to_top_kernel, "walk1": walk1_kernel, "riffle": riffle_kernel}

MOD6 = parse_coloring("RRBRBB" * 2)


def reference_laws(kernel, mu, t):
    """Laws at 0..t by Fraction arithmetic over kernel.rows, step by step."""
    current = dict(zip(mu.support, mu.weights))
    laws = []
    for step in range(t + 1):
        laws.append(Distribution(
            kernel.states, tuple(current.get(s, F(0)) for s in kernel.states)))
        if step == t:
            break
        nxt = {}
        for s, w in current.items():
            for target, p in kernel.rows[s]:
                nxt[target] = nxt.get(target, F(0)) + w * p
        current = nxt
    return laws


def random_start(kernel, rng):
    """An exact start with a few unequal atoms and mixed denominators."""
    atoms = rng.sample(kernel.states, min(3, len(kernel.states)))
    raw = [rng.randint(1, 9) for _ in atoms]
    return Distribution.exact([(s, F(w, sum(raw))) for s, w in zip(atoms, raw)])


class TestEvolveMatchesReference:
    @pytest.mark.parametrize("chain", sorted(DENSE))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_deck_kernels(self, chain, n):
        kernel = DENSE[chain](n)
        rng = random.Random(f"{chain}{n}")
        starts = [
            Distribution.point_mass(rank_deck(identity_deck(n)), kernel.states),
            random_start(kernel, rng),
        ]
        for mu in starts:
            for t, law in enumerate(reference_laws(kernel, mu, 4)):
                assert evolve(kernel, mu, t) == law

    @pytest.mark.parametrize("size", [3, 6, 12])
    def test_lazy_cycle(self, size):
        kernel = lazy_cycle_kernel(size)
        mu = random_start(kernel, random.Random(size))
        for t, law in enumerate(reference_laws(kernel, mu, 30)):
            assert evolve(kernel, mu, t) == law


class TestCycleSweepMatchesReference:
    COLORINGS = [parse_coloring(c) for c in ("RRBB", "RRBRBB", "RBBRRB")] + [MOD6]

    def color_laws(self, coloring, x0, horizon):
        kernel = lazy_cycle_kernel(len(coloring))
        start = Distribution.point_mass(x0, kernel.states)
        color = color_statistic(coloring)
        return [push_forward(law, color) for law in reference_laws(kernel, start, horizon)]

    def test_separation_profile(self):
        target = fair_coloring_target()
        for coloring in self.COLORINGS:
            for x0 in range(len(coloring)):
                expected = [separation_distance(law, target)
                            for law in self.color_laws(coloring, x0, 30)]
                assert separation_profile(coloring, x0, 30) == expected

    def test_red_dominance_margin(self):
        explicit = [(0, 2, 3, 5, 6, 8, 9, 11), (1, 4, 7, 10)]
        cases = [(parse_coloring("RBRB"), 0, None),
                 (parse_coloring("RRBB"), 0, [(0, 3), (1, 2)]),
                 (MOD6, 0, explicit)]
        for coloring, x0, sets in cases:
            rep = check_red_dominance(coloring, x0, 30, sets=sets)
            assert rep.precondition_holds
            margins = [law.weight("R") - F(1, 2)
                       for law in self.color_laws(coloring, x0, 30)]
            assert rep.min_margin == min(margins)
            assert rep.argmin_t == margins.index(min(margins))
            assert rep.dominance_holds == (min(margins) >= 0)


class TestTrackedCardMatchesDenseDeck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_position_law(self, n):
        kernel = walk1_kernel(n)
        start = Distribution.point_mass(rank_deck(identity_deck(n)), kernel.states)
        laws = reference_laws(kernel, start, 4)
        for p in range(1, n + 1):
            # the identity deck holds card p at position p
            position = deck_statistic(n, StatisticKind("position_of", (p,)))
            for t, law in enumerate(laws):
                assert walk1_position_distribution(n, t, p).as_mapping() == \
                    push_forward(law, position).as_mapping()


def cycle_results(capsys, horizon):
    code = main(["cycle", "--coloring", "RRBRBB", "--x0", "1", "--horizon", str(horizon),
                 "--chebyshev", "1.5,2,3"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["results"]


def test_chebyshev_block_is_the_same_inside_and_beyond_the_horizon(capsys):
    short = cycle_results(capsys, 3)
    t_stars = [item["t_star"] for item in short["chebyshev"]]
    assert min(t_stars) > 3
    long = cycle_results(capsys, max(t_stars) + 2)
    assert short["chebyshev"] == long["chebyshev"]
    assert len(short["separation"]) == 4
    assert short["separation"] == long["separation"][:4]
    for item in long["chebyshev"]:
        assert item["separation_at_t_star"] == long["separation"][item["t_star"]]
