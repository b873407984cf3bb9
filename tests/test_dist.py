"""Exact distribution layer: distances, pushforwards, evolution, JSON.

Frozen example values were derived by hand or by direct enumeration and
are asserted literally; the rest are structural properties checked over
randomized rational inputs.
"""

from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixscope.dist import (
    Distribution,
    InvariantError,
    Kernel,
    distribution_from_json,
    distribution_to_json,
    evolve,
    format_rational,
    law_from_tally,
    parse_rational,
    push_forward,
    separation_distance,
    state_from_json,
    state_to_json,
    total_variation,
)


def rational_distribution(support):
    """Strategy: exact distribution over the given support (all weights > 0)."""
    n = len(support)
    return st.lists(st.integers(min_value=1, max_value=50), min_size=n, max_size=n).map(
        lambda ws: Distribution.exact(
            [(s, F(w, sum(ws))) for s, w in zip(support, ws)]
        )
    )


class TestConstruction:
    def test_exact_requires_unit_mass(self):
        with pytest.raises(ValueError):
            Distribution.exact([("a", F(1, 2)), ("b", F(1, 3))])

    def test_lossy_tally_is_an_invariant_break(self):
        """A law mixscope tallies itself must carry the whole mass; a user's
        Distribution that misses it stays a ValueError (above)."""
        assert law_from_tally({"b": 1, "a": 2}, 3).as_mapping() == {"a": F(2, 3), "b": F(1, 3)}
        with pytest.raises(InvariantError, match="tally sums to 3, not 4"):
            law_from_tally({"b": 1, "a": 2}, 4)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Distribution.exact([("a", F(3, 2)), ("b", F(-1, 2))])

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            Distribution.exact([("a", F(1, 2)), ("a", F(1, 2))])

    def test_zero_weights_are_retained(self):
        d = Distribution.point_mass("a", universe=["a", "b", "c"])
        assert d.support == ("a", "b", "c")
        assert d.weight("b") == 0

    def test_uniform(self):
        d = Distribution.uniform([3, 1, 2])
        assert d.support == (3, 1, 2)
        assert all(w == F(1, 3) for w in d.weights)


class TestSeparation:
    def test_identical_uniform_is_zero(self):
        pi = Distribution.uniform("abc")
        assert separation_distance(pi, pi) == 0

    def test_point_mass_vs_uniform_is_one(self):
        mu = Distribution.point_mass("a", universe="abc")
        pi = Distribution.uniform("abc")
        assert separation_distance(mu, pi) == 1

    def test_two_thirds_one_third(self):
        mu = Distribution.exact([("a", F(2, 3)), ("b", F(1, 3))])
        pi = Distribution.uniform("ab")
        assert separation_distance(mu, pi) == F(1, 3)
        assert total_variation(mu, pi) == F(1, 6)

    def test_incomparable_supports_error(self):
        mu = Distribution.exact([("a", F(1, 2)), ("z", F(1, 2))])
        pi = Distribution.uniform("ab")
        with pytest.raises(ValueError, match="incomparable supports"):
            separation_distance(mu, pi)

    def test_zero_weight_in_pi_on_shared_state_error(self):
        mu = Distribution.uniform("ab")
        pi = Distribution.exact([("a", F(1, 1)), ("b", F(0, 1))])
        with pytest.raises(ValueError, match="zero weight"):
            separation_distance(mu, pi)

    def test_mu_zero_on_pi_positive_state_gives_one(self):
        mu = Distribution.point_mass("a", universe="ab")
        pi = Distribution.uniform("ab")
        assert separation_distance(mu, pi) == 1

    @given(
        mu=rational_distribution("abcd"),
        pi=rational_distribution("abcd"),
    )
    @settings(max_examples=200)
    def test_separation_dominates_total_variation(self, mu, pi):
        sep = separation_distance(mu, pi)
        tv = total_variation(mu, pi)
        assert 0 <= tv <= sep <= 1

    @given(mu=rational_distribution("abcd"))
    def test_separation_zero_iff_equal(self, mu):
        pi = Distribution.uniform("abcd")
        sep = separation_distance(mu, pi)
        if sep == 0:
            assert mu.as_mapping() == pi.as_mapping()
        if mu.as_mapping() == pi.as_mapping():
            assert sep == 0

    def test_exact_mode_preserved(self):
        mu = Distribution.exact([("a", F(2, 3)), ("b", F(1, 3))])
        pi = Distribution.uniform("ab")
        assert isinstance(separation_distance(mu, pi), F)


class TestPushForward:
    def test_distance_statistic_on_s4(self):
        # |pos(1) - pos(2)| over uniform S_4: values 1,2,3 w.p. 1/2, 1/3, 1/6
        decks = list(permutations((1, 2, 3, 4)))
        uniform = Distribution.uniform(decks)
        law = push_forward(uniform, lambda d: abs(d.index(1) - d.index(2)))
        assert law.as_mapping() == {1: F(1, 2), 2: F(1, 3), 3: F(1, 6)}

    def test_merges_collisions(self):
        mu = Distribution.exact([(1, F(1, 4)), (2, F(1, 4)), (3, F(1, 2))])
        law = push_forward(mu, lambda v: v % 2)
        assert law.as_mapping() == {0: F(1, 4), 1: F(3, 4)}

    def test_statistic_exception_wrapped(self):
        mu = Distribution.uniform([0, 1])
        with pytest.raises(ValueError, match="statistic undefined"):
            push_forward(mu, lambda v: 1 // v)

    @given(mu=rational_distribution(range(6)))
    def test_mass_is_preserved(self, mu):
        law = push_forward(mu, lambda v: v % 3)
        assert sum(law.weights) == 1

    @given(
        mu=rational_distribution(range(6)),
        pi=rational_distribution(range(6)),
    )
    @settings(max_examples=100)
    def test_pushforward_contracts_separation(self, mu, pi):
        # mapping states together can only reduce the worst-case ratio
        def f(v):
            return v % 2

        assert separation_distance(push_forward(mu, f), push_forward(pi, f)) <= \
            separation_distance(mu, pi)


def lazy_cycle_4():
    rows = {}
    for v in range(4):
        rows[v] = [((v - 1) % 4, F(1, 4)), (v, F(1, 2)), ((v + 1) % 4, F(1, 4))]
    return Kernel(tuple(range(4)), rows)


class TestEvolve:
    def test_lazy_cycle_one_step(self):
        mu = Distribution.point_mass(0, universe=range(4))
        out = evolve(lazy_cycle_4(), mu, 1)
        assert out.as_mapping() == {0: F(1, 2), 1: F(1, 4), 2: F(0), 3: F(1, 4)}

    def test_zero_steps_is_identity(self):
        mu = Distribution.point_mass(2, universe=range(4))
        assert evolve(lazy_cycle_4(), mu, 0).as_mapping() == mu.as_mapping()

    def test_negative_steps_rejected(self):
        mu = Distribution.point_mass(0, universe=range(4))
        with pytest.raises(ValueError):
            evolve(lazy_cycle_4(), mu, -1)

    def test_mass_outside_state_space_rejected(self):
        mu = Distribution.point_mass(9, universe=[9])
        with pytest.raises(ValueError):
            evolve(lazy_cycle_4(), mu, 1)

    @given(mu=rational_distribution(range(4)), s=st.integers(0, 4), t=st.integers(0, 4))
    @settings(max_examples=60)
    def test_semigroup_property(self, mu, s, t):
        k = lazy_cycle_4()
        assert evolve(k, mu, s + t).as_mapping() == \
            evolve(k, evolve(k, mu, s), t).as_mapping()

    def test_uniform_is_stationary(self):
        pi = Distribution.uniform(range(4))
        assert evolve(lazy_cycle_4(), pi, 7).as_mapping() == pi.as_mapping()


class TestKernelValidation:
    def test_row_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Kernel((0, 1), {0: [(0, F(1, 2))], 1: [(1, F(1, 1))]})

    def test_target_must_be_in_space(self):
        with pytest.raises(ValueError):
            Kernel((0, 1), {0: [(7, F(1, 1))], 1: [(1, F(1, 1))]})

    def test_denominator_is_lcm_of_row_denominators(self):
        assert lazy_cycle_4().denominator == 4
        k = Kernel((0, 1), {0: [(0, F(1, 6)), (1, F(5, 6))], 1: [(0, F(3, 4)), (1, F(1, 4))]})
        assert k.denominator == 12

    def test_row_sum_message_is_exact(self):
        with pytest.raises(ValueError, match="sums to 5/6, not 1"):
            Kernel((0, 1), {0: [(0, F(1, 2)), (1, F(1, 3))], 1: [(1, F(1))]})


class TestBoundsAndFormats:
    def test_format_rational_always_explicit(self):
        assert format_rational(F(1)) == "1/1"
        assert format_rational(F(0)) == "0/1"
        assert format_rational(F(3, 8)) == "3/8"

    def test_parse_rational_round_trip(self):
        for text in ("1/1", "0/1", "772/53248"):
            assert format_rational(parse_rational(text)) == format_rational(F(text))

    def test_rationals_beyond_the_int_str_limit_round_trip(self):
        # Python's int/str conversion refuses more than 4,300 digits
        num = 3 * 10 ** 6000 + 7 ** 500  # 6,001 digits
        for x in (F(num, 3 ** 12600), F(-num, 10 ** 6000), F(10 ** 6000)):
            text = format_rational(x)
            assert parse_rational(text) == x
        assert format_rational(F(10 ** 6000)) == "1" + "0" * 6000 + "/1"
        assert len(format_rational(F(num, 2)).partition("/")[0]) == 6001

    def test_short_rationals_render_as_str(self):
        for x in (F(-3, 8), F(2 ** 6000 + 1, 3 ** 4000), F(10 ** 1999, 7)):
            assert format_rational(x) == f"{x.numerator}/{x.denominator}"
            assert parse_rational(format_rational(x)) == x

    def test_state_json_nested_tuples(self):
        state = (1, ("a", (2, 3)), "none")
        assert state_from_json(state_to_json(state)) == state

    @given(mu=rational_distribution([("a", 1), ("b", 2), "c"]))
    def test_distribution_json_round_trip(self, mu):
        again = distribution_from_json(distribution_to_json(mu))
        assert again == mu

    def test_weights_serialized_num_den(self):
        d = Distribution.point_mass("a", universe="ab")
        js = distribution_to_json(d)
        assert js["weights"] == ["1/1", "0/1"]
        assert js["mode"] == "exact"

    def test_float_payload_is_not_read_back(self):
        # --float renders a lossy view; only exact payloads round-trip
        js = {"support": ["a", "b"], "weights": [0.5, 0.5], "mode": "float"}
        with pytest.raises(ValueError, match="'float'"):
            distribution_from_json(js)
