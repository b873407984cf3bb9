"""Exhaustive path enumeration, conditional laws, and certification.

The small-instance numbers asserted here were derived independently:
either by hand over the full path tree, by a closed form with a separate
derivation, or by a second enumeration route inside the test itself.
"""

import math
from fractions import Fraction as F
from itertools import product

import pytest

from mixscope.budget import CapacityError
from mixscope.dist import Distribution, separation_distance
from mixscope.shuffles import parse_statistic, stationary_statistic_distribution
from mixscope.verify import (
    InvariantError,
    Path,
    check_strong_stationarity,
    conditional_statistic_distribution,
    count_nonnegative_paths,
    enumerate_paths,
    monte_carlo_conditional,
    parse_predicate,
    path_count,
    predicate_holds,
    prob_k_distinct,
    prob_strings_distinct,
    statistic_law_at,
    walk1_position_distribution,
)


class TestEnumeration:
    def test_rtt_path_census(self):
        paths = list(enumerate_paths("rtt", 3, 2))
        assert len(paths) == 9
        assert all(p.weight == F(1, 9) for p in paths)
        assert sum(p.weight for p in paths) == 1

    def test_walk1_path_census(self):
        paths = list(enumerate_paths("walk1", 3, 2))
        assert len(paths) == 16
        assert sum(p.weight for p in paths) == 1
        # weights are products over {1/6 (a to-top), 1/2 (top-to-bottom)}
        assert {p.weight for p in paths} == {F(1, 36), F(1, 12), F(1, 4)}

    def test_riffle_path_census(self):
        paths = list(enumerate_paths("riffle", 2, 2))
        assert len(paths) == 16
        assert all(p.weight == F(1, 16) for p in paths)

    def test_path_count_formulas(self):
        assert path_count("rtt", 3, 2) == 9
        assert path_count("walk1", 3, 2) == 16
        assert path_count("riffle", 2, 2) == 16

    def test_paths_track_decks(self):
        for p in enumerate_paths("rtt", 3, 1):
            assert len(p.decks) == 2
            assert p.decks[0] == (1, 2, 3)

    def test_budget_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_paths("riffle", 8, 8))

    def test_custom_start(self):
        paths = list(enumerate_paths("rtt", 3, 1, start=(3, 1, 2)))
        assert all(p.decks[0] == (3, 1, 2) for p in paths)


class TestConditionalLaws:
    def test_rtt_two_distinct_top_pair(self):
        """Two distinct choices in two steps determine a uniform top pair."""
        paths = enumerate_paths("rtt", 3, 2)
        pred = parse_predicate("k_distinct:2", 3, "rtt")
        stat = parse_statistic("top_k_order:2", 3)
        q, cond = conditional_statistic_distribution(paths, pred, stat, 2)
        assert q == F(2, 3)
        assert cond.as_mapping() == {
            pair: F(1, 6) for pair in [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        }

    def test_walk1_any_to_top_top_card_not_uniform(self):
        paths = enumerate_paths("walk1", 3, 2)
        pred = parse_predicate("any_to_top", 3, "walk1")
        stat = parse_statistic("top_card", 3)
        q, cond = conditional_statistic_distribution(paths, pred, stat, 2)
        assert q == F(3, 4)
        assert cond.as_mapping() == {1: F(4, 9), 2: F(1, 3), 3: F(2, 9)}

    def test_non_exhaustive_paths_break_an_invariant(self):
        paths = list(enumerate_paths("rtt", 3, 1))[1:]
        pred = parse_predicate("always", 3, "rtt")
        stat = parse_statistic("top_card", 3)
        with pytest.raises(InvariantError, match="not 1"):
            conditional_statistic_distribution(paths, pred, stat, 1)

    def test_never_satisfied_predicate_errors(self):
        paths = enumerate_paths("rtt", 3, 1)
        pred = parse_predicate("k_distinct:2", 3, "rtt")  # impossible in one step
        stat = parse_statistic("top_card", 3)
        with pytest.raises(ValueError, match="never satisfied"):
            conditional_statistic_distribution(paths, pred, stat, 1)


class TestCertification:
    def test_rtt_certificate_n4_t3(self):
        rep = check_strong_stationarity(
            "rtt", 4, 3,
            parse_predicate("k_distinct:2", 4, "rtt"),
            parse_statistic("top_k_order:2", 4),
        )
        assert rep.is_strongly_stationary
        assert rep.q == F(15, 16)
        assert rep.sep_bound == F(1, 16)
        assert rep.max_pointwise_deviation == 0
        assert rep.predicate_stable

    def test_certificate_bounds_actual_separation(self):
        """1 - q really does bound the separation of the unconditional law."""
        stat = parse_statistic("top_k_order:2", 4)
        rep = check_strong_stationarity(
            "rtt", 4, 3, parse_predicate("k_distinct:2", 4, "rtt"), stat
        )
        law = statistic_law_at("rtt", 4, 3, stat)
        assert separation_distance(law, rep.target) <= rep.sep_bound

    def test_walk1_refutation_is_stable_yet_wrong(self):
        rep = check_strong_stationarity(
            "walk1", 3, 2,
            parse_predicate("any_to_top", 3, "walk1"),
            parse_statistic("top_card", 3),
        )
        assert not rep.is_strongly_stationary
        assert rep.sep_bound is None
        assert rep.predicate_stable
        assert rep.conditional.as_mapping() == {1: F(4, 9), 2: F(1, 3), 3: F(2, 9)}
        assert rep.max_pointwise_deviation == F(4, 9) - F(1, 3)

    def test_unconditional_law_dominates_q_times_target(self):
        """The certified inequality Pr(f=a) >= q * pi(a), value by value."""
        stat = parse_statistic("top_card", 4)
        rep = check_strong_stationarity(
            "rtt", 4, 4, parse_predicate("all_chosen", 4, "rtt"), stat
        )
        law = statistic_law_at("rtt", 4, 4, stat)
        if rep.is_strongly_stationary:
            for a in rep.target.support:
                assert law.weight(a) >= rep.q * rep.target.weight(a)

    def test_card_above_full_statistic_refuted_but_restriction_uniform(self):
        rep = check_strong_stationarity(
            "rtt", 4, 3,
            parse_predicate("card_chosen:1", 4, "rtt"),
            parse_statistic("card_above:1", 4),
        )
        assert not rep.is_strongly_stationary  # "none" is over-weighted
        others = {rep.conditional.weight(c) for c in (2, 3, 4)}
        assert len(others) == 1

    def test_chosen_more_recently_than_is_not_stable(self):
        rep = check_strong_stationarity(
            "rtt", 3, 3,
            parse_predicate("chosen_more_recently_than:1,1", 3, "rtt"),
            parse_statistic("top_card", 3),
        )
        assert not rep.predicate_stable  # re-choosing card 1 resets the count


class TestRifflePredicates:
    def test_first_one_distinct_tops_uniform(self):
        rep = check_strong_stationarity(
            "riffle", 4, 2,
            parse_predicate("riffle_first_j_strings_distinct:1", 4, "riffle"),
            parse_statistic("top_card", 4),
        )
        assert rep.is_strongly_stationary
        assert rep.conditional.as_mapping() == {c: F(1, 4) for c in (1, 2, 3, 4)}

    def test_all_distinct_gives_uniform_deck(self):
        paths = enumerate_paths("riffle", 4, 2)
        pred = parse_predicate("riffle_first_j_strings_distinct:4", 4, "riffle")
        stat = parse_statistic("top_k_order:4", 4)
        q, cond = conditional_statistic_distribution(paths, pred, stat, 2)
        assert q == prob_strings_distinct(4, 2) == F(3, 32)
        assert len(cond.support) == 24
        assert all(w == F(1, 24) for w in cond.weights)

    def test_first_j_not_stable_for_middle_j(self):
        """Later bits outrank earlier ones, so early distinctness can break."""
        found_break = False
        for p in enumerate_paths("riffle", 3, 2):
            pred = parse_predicate("riffle_first_j_strings_distinct:1", 3, "riffle")
            flags = [predicate_holds(pred, p, upto=s) for s in range(3)]
            if flags[1] and not flags[2]:
                found_break = True
        assert found_break

    def test_set_strings_distinct_certifies_relative_order(self):
        rep = check_strong_stationarity(
            "riffle", 4, 2,
            parse_predicate("riffle_set_strings_distinct:1,2", 4, "riffle"),
            parse_statistic("relative_order:1,2", 4),
        )
        assert rep.is_strongly_stationary
        assert rep.conditional.as_mapping() == {(1, 2): F(1, 2), (2, 1): F(1, 2)}


class TestClosedForms:
    def test_prob_k_distinct_values(self):
        assert prob_k_distinct(5, 2, 3) == F(24, 25)
        assert prob_k_distinct(3, 3, 3) == F(6, 27)
        assert prob_k_distinct(4, 1, 1) == 1

    @pytest.mark.parametrize("n,t", [(2, 4), (3, 3), (4, 3), (5, 4), (5, 5)])
    def test_prob_k_distinct_against_enumeration(self, n, t):
        for k in range(1, n + 1):
            hits = sum(
                1 for cs in product(range(n), repeat=t) if len(set(cs)) >= k
            )
            assert prob_k_distinct(n, k, t) == F(hits, n ** t)

    def test_prob_strings_distinct_values(self):
        assert prob_strings_distinct(2, 1) == F(1, 2)
        assert prob_strings_distinct(3, 2) == F(3, 8)
        assert prob_strings_distinct(4, 2) == F(3, 32)

    @pytest.mark.parametrize("t", range(0, 13))
    def test_count_nonnegative_paths_is_central_binomial(self, t):
        # classic ballot-style identity: C(t, floor(t/2))
        assert count_nonnegative_paths(t) == math.comb(t, t // 2)

    def test_count_nonnegative_paths_direct(self):
        for t in range(0, 9):
            direct = 0
            for steps in product((1, -1), repeat=t):
                run, ok = 0, True
                for s in steps:
                    run += s
                    if run < 0:
                        ok = False
                        break
                direct += ok
            assert count_nonnegative_paths(t) == direct


class TestWalk1Position:
    def test_one_step_from_bottom(self):
        law = walk1_position_distribution(3, 1, 3)
        assert law.as_mapping() == {1: F(1, 6), 2: F(1, 2), 3: F(1, 3)}

    @pytest.mark.parametrize("n,t", [(3, 3), (4, 3), (5, 3), (6, 2)])
    def test_matches_full_deck_marginal(self, n, t):
        tracked = n
        law = walk1_position_distribution(n, t, n)
        full = {p: F(0) for p in range(1, n + 1)}
        for path in enumerate_paths("walk1", n, t):
            full[path.decks[-1].index(tracked) + 1] += path.weight
        assert law.as_mapping() == full

    def test_columns_conserve_mass(self):
        law = walk1_position_distribution(52, 10, 52)
        assert sum(law.weights) == 1
        assert len(law.support) == 52

    def test_top_probability_below_uniform(self):
        # the tracked bottom card is top-starved, never top-favored
        law = walk1_position_distribution(52, 10, 52)
        assert law.weight(1) < F(1, 52)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            walk1_position_distribution(3, 1, 4)
        with pytest.raises(ValueError):
            walk1_position_distribution(3, -1, 2)


def oracle_predicates(chain, n):
    """Every predicate kind, with parameters at both ends of their ranges."""
    if chain == "riffle":
        return (["always", "riffle_set_strings_distinct:1",
                 f"riffle_set_strings_distinct:1,{n}"]
                + [f"riffle_first_j_strings_distinct:{j}" for j in range(1, n + 1)]
                + [f"riffle_blocks_nonoverlapping:{b}"
                   for b in range(1, n + 1) if n % b == 0])
    return (["always", "all_chosen", "any_to_top", "card_chosen:1",
             f"card_chosen:{n}", "any_of_chosen:1,2"]
            + [f"k_distinct:{k}" for k in range(1, n + 1)]
            + [f"chosen_more_recently_than:{c},{k}" for c in (1, n) for k in range(1, n)])


def path_stability(paths, pred, t):
    """False when the predicate, once true along some path, turns false."""
    for path in paths:
        flags = [predicate_holds(pred, path, s) for s in range(t + 1)]
        if True in flags and not all(flags[flags.index(True):]):
            return False
    return True


def path_oracle(paths, pred, stat, n, t):
    """(q, conditional, deviation) from enumerated paths alone."""
    q, cond = conditional_statistic_distribution(paths, pred, stat, t)
    target = stationary_statistic_distribution(n, stat).as_mapping()
    law = cond.as_mapping()
    deviation = max(abs(law.get(v, 0) - target.get(v, 0)) for v in set(law) | set(target))
    return q, cond, deviation


class TestLumpedMatchesPaths:
    """check_strong_stationarity's lumped program against path enumeration."""

    STATISTICS = ("top_card", "top_k_order:2", "relative_order:1,2", "position_of:1",
                  "parity")

    @pytest.mark.parametrize("chain,max_t", [("rtt", 4), ("walk1", 4), ("riffle", 2)])
    def test_every_predicate_kind(self, chain, max_t):
        unstable = set()
        for n in (2, 3, 4):
            for t in range(max_t + 1):
                paths = list(enumerate_paths(chain, n, t))
                for ptext in oracle_predicates(chain, n):
                    pred = parse_predicate(ptext, n, chain)
                    stable = path_stability(paths, pred, t)
                    if not stable:
                        unstable.add(ptext.partition(":")[0])
                    for stext in self.STATISTICS:
                        stat = parse_statistic(stext, n)
                        try:
                            q, cond, deviation = path_oracle(paths, pred, stat, n, t)
                        except ValueError as exc:
                            assert "never satisfied" in str(exc)
                            with pytest.raises(ValueError, match="never satisfied"):
                                check_strong_stationarity(chain, n, t, pred, stat)
                            continue
                        rep = check_strong_stationarity(chain, n, t, pred, stat)
                        case = (chain, n, t, ptext, stext)
                        assert rep.q == q, case
                        assert rep.conditional == cond, case
                        assert rep.max_pointwise_deviation == deviation, case
                        assert rep.is_strongly_stationary == (deviation == 0), case
                        assert rep.predicate_stable == stable, case
        if chain == "riffle":
            assert "riffle_first_j_strings_distinct" in unstable
            # the empty prefix already has nonoverlapping n-blocks
            rep = check_strong_stationarity(
                "riffle", 4, 0, parse_predicate("riffle_blocks_nonoverlapping:4", 4, "riffle"),
                parse_statistic("top_card", 4))
            assert rep.q == 1
        else:
            assert "chosen_more_recently_than" in unstable


class TestAlwaysPredicateRoute:
    @pytest.mark.parametrize("chain,n,t", [("rtt", 3, 3), ("walk1", 3, 2), ("riffle", 3, 2)])
    def test_always_equals_kernel_route(self, chain, n, t):
        stat = parse_statistic("top_card", n)
        pred = parse_predicate("always", n, chain)
        q, cond = conditional_statistic_distribution(
            enumerate_paths(chain, n, t), pred, stat, t
        )
        assert q == 1
        assert cond.as_mapping() == statistic_law_at(chain, n, t, stat).as_mapping()


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(
            chain="rtt", n=4, t=3,
            predicate=parse_predicate("k_distinct:2", 4, "rtt"),
            statistic=parse_statistic("top_card", 4),
            samples=500, seed=11,
        )
        a = monte_carlo_conditional(**kwargs)
        b = monte_carlo_conditional(**kwargs)
        assert a.q_hat == b.q_hat
        assert a.conditional_freq == b.conditional_freq

    def test_never_certifies(self):
        rep = monte_carlo_conditional(
            "rtt", 3, 2,
            parse_predicate("always", 3, "rtt"),
            parse_statistic("top_card", 3),
            samples=200, seed=1,
        )
        assert rep.certifies is False
        assert rep.satisfied == 200
        lo, hi = rep.q_interval
        assert 0 <= lo <= rep.q_hat <= hi <= 1

    def test_estimates_close_to_exact(self):
        rep = monte_carlo_conditional(
            "rtt", 4, 3,
            parse_predicate("k_distinct:2", 4, "rtt"),
            parse_statistic("top_card", 4),
            samples=4000, seed=3,
        )
        assert abs(rep.q_hat - 15 / 16) < 0.03


class TestPredicateValidation:
    def test_riffle_predicates_rejected_on_choice_chains(self):
        with pytest.raises(ValueError):
            parse_predicate("riffle_first_j_strings_distinct:1", 4, "rtt")

    def test_choice_predicates_rejected_on_riffle(self):
        with pytest.raises(ValueError):
            parse_predicate("k_distinct:2", 4, "riffle")

    def test_parameter_ranges(self):
        for text in ("k_distinct:0", "k_distinct:5", "card_chosen:9",
                     "chosen_more_recently_than:1,4", "always:1"):
            with pytest.raises(ValueError):
                parse_predicate(text, 4, "rtt")

    def test_labels(self):
        assert parse_predicate("k_distinct:2", 4, "rtt").label() == "k_distinct:2"
        assert parse_predicate("always", 4, "walk1").label() == "always"
