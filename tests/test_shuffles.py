"""Deck chains, their dense kernels over decks, riffle mechanics, and statistics."""

from fractions import Fraction as F
from itertools import permutations, product

import pytest
from conftest import statistic_cases
from hypothesis import given, settings
from hypothesis import strategies as st

from mixscope.budget import CapacityError
from mixscope.dist import Distribution, evolve, push_forward
from mixscope.shuffles import (
    STATISTIC_KINDS,
    Kind,
    apply_move,
    deck_statistic,
    evaluate_statistic,
    identity_deck,
    inverse_riffle_apply,
    parse_statistic,
    random_to_top_kernel,
    riffle_kernel,
    stationary_statistic_distribution,
    validate_statistic_kind,
    walk1_kernel,
)


class TestMoves:
    def test_to_top(self):
        assert apply_move((1, 2, 3), 3) == (3, 1, 2)
        assert apply_move((1, 2, 3), 1) == (1, 2, 3)

    def test_top_to_bottom(self):
        assert apply_move((1, 2, 3), 0) == (2, 3, 1)

    def test_unknown_card(self):
        with pytest.raises(ValueError, match="unknown card"):
            apply_move((1, 2, 3), 9)
        with pytest.raises(ValueError, match="unknown card label -1"):
            apply_move((1, 2, 3), -1)

    @given(deck=st.permutations(tuple(range(1, 6))), card=st.integers(1, 5))
    def test_moves_are_permutations(self, deck, card):
        out = apply_move(tuple(deck), card)
        assert sorted(out) == sorted(deck)
        assert out[0] == card


class TestRanking:
    def test_dense_cap(self):
        with pytest.raises(ValueError, match="sampler mode"):
            random_to_top_kernel(9)


class TestKernels:
    def test_rtt_row_from_identity(self):
        k = random_to_top_kernel(3)
        row = dict(k.rows[(1, 2, 3)])
        assert row[(1, 2, 3)] == F(1, 3)  # to_top(1) is a no-op
        assert row[(2, 1, 3)] == F(1, 3)
        assert row[(3, 1, 2)] == F(1, 3)

    def test_walk1_row_from_identity(self):
        k = walk1_kernel(3)
        row = dict(k.rows[(1, 2, 3)])
        assert row[(1, 2, 3)] == F(1, 6)
        assert row[(2, 3, 1)] == F(1, 2)  # top-to-bottom
        assert row[(2, 1, 3)] == F(1, 6)
        assert row[(3, 1, 2)] == F(1, 6)

    @pytest.mark.parametrize("maker", [random_to_top_kernel, walk1_kernel, riffle_kernel])
    def test_doubly_stochastic_n4(self, maker):
        k = maker(4)
        col = {s: F(0) for s in k.states}
        for s in k.states:
            for target, w in k.rows[s]:
                col[target] += w
        assert all(v == 1 for v in col.values())

    # n! rows x one step's branches, at n = 3
    @pytest.mark.parametrize("maker,charge", [(random_to_top_kernel, 6 * 3),
                                              (walk1_kernel, 6 * 4), (riffle_kernel, 6 * 8)])
    def test_dense_builders_are_budgeted(self, monkeypatch, maker, charge):
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge))
        assert len(maker(3).states) == 6
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge - 1))
        with pytest.raises(CapacityError, match="dense kernel"):
            maker(3)

    @pytest.mark.parametrize("maker", [random_to_top_kernel, walk1_kernel, riffle_kernel])
    def test_uniform_stationary_n4(self, maker):
        k = maker(4)
        pi = Distribution.uniform(k.states)
        assert evolve(k, pi, 1).as_mapping() == pi.as_mapping()

    def test_to_top_parity(self):
        # moving card c to the top of the identity is a c-cycle
        for n in (4, 5, 6):
            for c in range(1, n + 1):
                deck = apply_move(identity_deck(n), c)
                parity = evaluate_statistic(parse_statistic("parity", n), deck)
                assert parity == ("even" if c % 2 == 1 else "odd")


class TestRiffle:
    def test_single_bit_examples(self):
        assert inverse_riffle_apply((1, 2, 3), ("1", "0", "0")) == (2, 3, 1)
        assert inverse_riffle_apply((1, 2, 3), ("0", "0", "0")) == (1, 2, 3)
        assert inverse_riffle_apply((1, 2, 3), ("1", "1", "1")) == (1, 2, 3)

    def test_string_length_mismatch(self):
        with pytest.raises(ValueError):
            inverse_riffle_apply((1, 2, 3), ("1", "0"))
        with pytest.raises(ValueError):
            inverse_riffle_apply((1, 2, 3), ("10", "0", "1"))

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (3, 3), (2, 3)])
    def test_multi_bit_equals_composition(self, n, t):
        """A t-bit application must equal t single-bit applications in step order."""
        start = identity_deck(n)
        for assignment in product(["".join(b) for b in product("01", repeat=t)], repeat=n):
            stepwise = start
            for s in range(t):
                stepwise = inverse_riffle_apply(stepwise, tuple(a[s] for a in assignment))
            assert inverse_riffle_apply(start, assignment) == stepwise

    def test_riffle_kernel_is_single_bit_step(self):
        k = riffle_kernel(3)
        row = dict(k.rows[(1, 2, 3)])
        # 8 bit columns; (1,0,0) and permutation-equal columns aggregate
        assert row[(2, 3, 1)] == F(1, 8)
        assert row[(1, 2, 3)] == F(4, 8)  # 000, 111, 011, 001


class TestStatistics:
    deck = (2, 3, 1)

    def eval(self, text, deck=None):
        d = self.deck if deck is None else deck
        return evaluate_statistic(parse_statistic(text, len(d)), d)

    def test_catalog_on_fixed_deck(self):
        assert self.eval("top_card") == 2
        assert self.eval("top_k_order:2") == (2, 3)
        assert self.eval("top_k_set:2") == (2, 3)
        assert self.eval("position_of:1") == 3
        assert self.eval("positions_of:1,3") == (3, 2)
        assert self.eval("parity") == "even"
        assert self.eval("card_above:3") == 2
        assert self.eval("card_below:3") == 1
        assert self.eval("card_above:2") == "none"
        assert self.eval("card_below:1") == "none"
        assert self.eval("relative_order:1,3") == (3, 1)
        assert self.eval("distance:1,2") == 2
        assert self.eval("block_sets:3") == ((1, 2, 3),)
        assert self.eval("modular_hands:3") == ((2,), (3,), (1,))

    def test_top_k_set_is_sorted(self):
        assert self.eval("top_k_set:2", (3, 1, 2)) == (1, 3)

    def test_parity_of_swap(self):
        assert self.eval("parity", (2, 1, 3)) == "odd"

    def test_block_sets_splits(self):
        assert self.eval("block_sets:2", (4, 1, 3, 2)) == ((1, 4), (2, 3))

    def test_modular_hands_deals(self):
        assert self.eval("modular_hands:2", (4, 1, 3, 2)) == ((3, 4), (1, 2))

    def test_parser_rejects_bad_input(self):
        for text in (
            "nope",
            "top_k_order:0",
            "top_k_order:9",
            "position_of:0",
            "distance:1,1",
            "block_sets:3",       # 3 does not divide 4
            "modular_hands:3",
            "relative_order:1",
            "relative_order:2",
            "card_above:5",
        ):
            with pytest.raises(ValueError):
                parse_statistic(text, 4)

    def test_parser_error_messages(self):
        for text, message in (("nope", "unknown statistic 'nope'"),
                              ("top_card:x", "bad statistic parameters 'x'"),
                              ("top_k_order:9", "1 <= k <= 4")):
            with pytest.raises(ValueError, match=message):
                parse_statistic(text, 4)
        with pytest.raises(ValueError, match="unknown statistic kind 'nope'"):
            validate_statistic_kind(Kind("nope", ()), 4)

    def test_label_round_trip(self):
        for text in ("top_card", "top_k_order:2", "distance:1,3", "positions_of:1,2"):
            assert parse_statistic(text, 4).label() == text


class TestStationaryLaws:
    def test_top_card_uniform(self):
        law = stationary_statistic_distribution(4, parse_statistic("top_card", 4))
        assert law.as_mapping() == {c: F(1, 4) for c in (1, 2, 3, 4)}

    def test_parity_split(self):
        law = stationary_statistic_distribution(4, parse_statistic("parity", 4))
        assert law.as_mapping() == {"even": F(1, 2), "odd": F(1, 2)}

    def test_distance_law(self):
        law = stationary_statistic_distribution(4, parse_statistic("distance:1,2", 4))
        assert law.as_mapping() == {1: F(1, 2), 2: F(1, 3), 3: F(1, 6)}

    def test_matches_direct_pushforward(self):
        kind = parse_statistic("top_k_set:2", 4)
        uniform = Distribution.uniform(permutations(range(1, 5)))
        direct = push_forward(uniform, deck_statistic(4, kind))
        assert stationary_statistic_distribution(4, kind).as_mapping() == direct.as_mapping()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_integer_count_matches_uniform_pushforward(self, n):
        uniform = Distribution.uniform(permutations(range(1, n + 1)))
        cases = statistic_cases(n)
        assert {s.kind for s in cases} == set(STATISTIC_KINDS)
        for kind in cases:
            direct = push_forward(uniform, deck_statistic(n, kind))
            law = stationary_statistic_distribution(n, kind)
            assert law.support == direct.support, kind.label()
            assert law.weights == direct.weights, kind.label()
