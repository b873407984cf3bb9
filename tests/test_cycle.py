"""Colored-cycle decomposition, stopping-time tails, and mixing guarantees.

Three invariant tests in TestClaimedBounds fail on purpose: the claims
they check (member gaps of the decomposition bounded by 2k-1,
midpoint-coverage domination of separation, and reflection fairness of
midpoint-crossing paths) are refuted by exact computation on concrete
small instances.  scripts/sweep_cycle_bounds.py reproduces the sweeps
that found the violations.  The sound replacement (distance-moved
domination) is tested green in TestDistanceBound.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixscope import cycle
from mixscope.budget import CapacityError
from mixscope.dist import Distribution, evolve, push_forward
from mixscope.cycle import (
    alternating_decomposition,
    check_alternating,
    check_red_dominance,
    chebyshev_time,
    color_statistic,
    compute_k,
    coverage_time_tail,
    cyclic_distance,
    distance_moved_tail,
    exact_color_separation,
    fair_coloring_target,
    gambler_moments,
    has_alternating_partition,
    lazy_cycle_kernel,
    max_gap,
    midpoints,
    parse_coloring,
    reflection_balance,
    separation_profile,
    vertex_count_tail,
)

MOD6 = parse_coloring("RRBRBB" * 2)


def balanced_colorings(size):
    for reds in combinations(range(size), size // 2):
        yield tuple("R" if v in reds else "B" for v in range(size))


def random_balanced(rng, size):
    marks = ["R"] * (size // 2) + ["B"] * (size // 2)
    rng.shuffle(marks)
    return tuple(marks)


class TestColoring:
    def test_parse_string(self):
        assert parse_coloring("rRbB") == ("R", "R", "B", "B")

    def test_parse_sequence(self):
        assert parse_coloring(["R", "B"]) == ("R", "B")

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="even length"):
            parse_coloring("RRB")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_coloring("RRRB")

    def test_bad_marks_rejected(self):
        with pytest.raises(ValueError):
            parse_coloring("RXBB")


class TestAlternatingNumber:
    @pytest.mark.parametrize(
        "coloring,k",
        [("RBRB", 1), ("RB", 1), ("RRBB", 2), ("RRRBBB", 3), ("RRRRBBBB", 4),
         ("RRBRBB" * 2, 2), ("RBBR", 2)],
    )
    def test_examples(self, coloring, k):
        assert compute_k(parse_coloring(coloring)) == k

    def test_k_counts_initial_prefix(self):
        # running sum includes the empty prefix, so BBRR has k = 2, not 0
        assert compute_k(parse_coloring("BBRR")) == 2

    @given(st.permutations(["R"] * 4 + ["B"] * 4))
    def test_k_bounds(self, marks):
        k = compute_k(parse_coloring(marks))
        assert 1 <= k <= 4


class TestDecomposition:
    def test_alternating_coloring_single_set(self):
        sets = alternating_decomposition(parse_coloring("RBRB"))
        assert sets == [(0, 1, 2, 3)]

    def test_blocked_pairs(self):
        sets = alternating_decomposition(parse_coloring("RRBB"))
        assert sorted(sets) == [(0, 2), (1, 3)]

    def test_mod6_canonical(self):
        sets = alternating_decomposition(MOD6)
        assert sorted(sets) == [
            (0, 2, 3, 5, 7, 10),
            (1, 4, 6, 8, 9, 11),
        ]

    def test_check_alternating(self):
        assert check_alternating(parse_coloring("RRBB"), (0, 2))
        assert not check_alternating(parse_coloring("RRBB"), (0, 1))

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12])
    def test_structure_exhaustive(self, size):
        for marks in balanced_colorings(size):
            coloring = parse_coloring(marks)
            k = compute_k(coloring)
            sets = alternating_decomposition(coloring)
            assert len(sets) == k
            flat = sorted(v for a in sets for v in a)
            assert flat == list(range(size))
            for a in sets:
                assert check_alternating(coloring, a)

    def test_structure_randomized(self):
        rng = random.Random(20240817)
        for _ in range(200):
            size = 2 * rng.randint(1, 10)
            coloring = parse_coloring(random_balanced(rng, size))
            k = compute_k(coloring)
            sets = alternating_decomposition(coloring)
            assert len(sets) == k
            assert sorted(v for a in sets for v in a) == list(range(size))
            assert all(check_alternating(coloring, a) for a in sets)

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_k_is_minimal_exhaustive(self, size):
        for marks in balanced_colorings(size):
            coloring = parse_coloring(marks)
            k = compute_k(coloring)
            assert not has_alternating_partition(coloring, k - 1)
            assert has_alternating_partition(coloring, k)


class TestMidpoints:
    def test_pair_set_has_both_midpoints(self):
        assert midpoints((0, 2), 4) == (2, 6)

    def test_rbrb_is_all_edges(self):
        assert midpoints((0, 1, 2, 3), 4) == (1, 3, 5, 7)

    def test_mod6_explicit_sets(self):
        # the 12-cycle split used throughout: one 8-set and one 4-set
        a = (0, 2, 3, 5, 6, 8, 9, 11)
        b = (1, 4, 7, 10)
        assert midpoints(a, 12) == (2, 5, 8, 11, 14, 17, 20, 23)
        assert midpoints(b, 12) == (5, 11, 17, 23)

    def test_gap_examples(self):
        assert max_gap((0, 1, 2, 3), 4) == 1
        assert max_gap((0, 2), 4) == 2

    def test_cyclic_distance(self):
        assert cyclic_distance(0, 3, 12) == 3
        assert cyclic_distance(0, 9, 12) == 3
        assert cyclic_distance(5, 5, 12) == 0

    def test_midpoints_sit_on_member_free_arcs(self):
        rng = random.Random(7)
        for _ in range(100):
            size = 2 * rng.randint(2, 8)
            coloring = parse_coloring(random_balanced(rng, size))
            for a in alternating_decomposition(coloring):
                mids = midpoints(a, size)
                assert len(mids) == len(a)
                occupied = {2 * v for v in a}
                assert not occupied & set(mids)


class TestLazyWalk:
    def test_kernel_row(self):
        k = lazy_cycle_kernel(6)
        assert dict(k.rows[0]) == {5: F(1, 4), 0: F(1, 2), 1: F(1, 4)}

    def test_small_cycle_rejected(self):
        with pytest.raises(ValueError):
            lazy_cycle_kernel(2)

    def test_uniform_fixpoint_and_fair_colors(self):
        k = lazy_cycle_kernel(4)
        pi = Distribution.uniform(range(4))
        assert evolve(k, pi, 3).as_mapping() == pi.as_mapping()
        law = push_forward(pi, color_statistic(parse_coloring("RBRB")))
        assert law.as_mapping() == fair_coloring_target().as_mapping()

    def test_alternating_mixes_in_one_step(self):
        coloring = parse_coloring("RBRBRB")
        for x0 in range(6):
            assert exact_color_separation(coloring, x0, 1) == 0

    def test_point_start_has_full_separation(self):
        assert exact_color_separation(parse_coloring("RBRB"), 0, 0) == 1

    @pytest.mark.parametrize("x0", [0, 1])
    def test_two_vertex_profile_closed_form(self, x0):
        """On two vertices a lazy step moves with probability 1/2, so the
        color is fair from t = 1 on: separation 1 at t = 0, then 0."""
        assert separation_profile(parse_coloring("RB"), x0, 5) == [F(1)] + [F(0)] * 5

    def test_profile_matches_single_queries(self):
        prof = separation_profile(MOD6, 0, 5)
        assert len(prof) == 6
        for t, value in enumerate(prof):
            assert exact_color_separation(MOD6, 0, t) == value

    def test_mod6_profile_prefix(self):
        assert separation_profile(MOD6, 0, 3) == [F(1), F(1, 2), F(1, 4), F(5, 32)]


def brute_force_tails(coloring, x0, horizon):
    """Reference implementation: enumerate all 4^t half-step paths."""
    size = len(coloring)
    half = 2 * size
    sets = [set(midpoints(a, size)) for a in alternating_decomposition(coloring)]
    k = compute_k(coloring)
    need = 2 * k - 1
    cov, vtx, dst = [], [], []
    for t in range(horizon + 1):
        cov_t = vtx_t = dst_t = F(0)
        for steps in product((1, -1), repeat=2 * t):
            pos = lo = hi = 0
            for s in steps:
                pos += s
                lo, hi = min(lo, pos), max(hi, pos)
            w = F(1, 4 ** t)
            window = {(2 * x0 + i) % half for i in range(lo, hi + 1)}
            if not all(window & m for m in sets):
                cov_t += w
            verts = hi // 2 - (lo + 1) // 2 + 1 if hi - lo < half else size
            if min(verts, size) < need:
                vtx_t += w
            if hi < 2 * need and -lo < 2 * need:
                dst_t += w
        cov.append(cov_t)
        vtx.append(vtx_t)
        dst.append(dst_t)
    return cov, vtx, dst


class TestStoppingTails:
    @pytest.mark.parametrize(
        "marks,x0", [("RBRB", 0), ("RRBB", 0), ("RRBB", 1), ("RRBRBB", 2), ("RRRBBB", 0)]
    )
    def test_tails_match_brute_force(self, marks, x0):
        coloring = parse_coloring(marks)
        cov, vtx, dst = brute_force_tails(coloring, x0, 4)
        assert coverage_time_tail(coloring, x0, 4) == cov
        assert vertex_count_tail(coloring, x0, 4) == vtx
        assert distance_moved_tail(coloring, x0, 4) == dst

    def test_alternating_coloring_covers_after_one_step(self):
        tail = coverage_time_tail(parse_coloring("RBRBRB"), 0, 3)
        assert tail[0] == 1
        assert tail[1:] == [F(0), F(0), F(0)]

    def test_tails_are_monotone(self):
        for marks in ("RRBB", "RRBRBB", "RRRBBB"):
            coloring = parse_coloring(marks)
            for tail in (
                coverage_time_tail(coloring, 0, 8),
                vertex_count_tail(coloring, 0, 8),
                distance_moved_tail(coloring, 0, 8),
            ):
                assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_explicit_sets_override(self):
        explicit = [(0, 2, 3, 5, 6, 8, 9, 11), (1, 4, 7, 10)]
        tail = coverage_time_tail(MOD6, 0, 6, sets=explicit)
        assert tail[:3] == [F(1), F(1, 2), F(3, 8)]

    def test_explicit_set_vertex_is_checked_before_its_color(self):
        sets = [(0, 12), tuple(range(1, 12))]
        with pytest.raises(ValueError, match=r"^set \(0, 12\) holds a vertex outside 0\.\.11$"):
            coverage_time_tail(MOD6, 0, 3, sets=sets)

    def test_coverage_never_slower_than_distance(self):
        """Moving 2k-1 from the origin forces coverage, so T_cov <= T_dist."""
        rng = random.Random(99)
        for _ in range(40):
            size = 2 * rng.randint(1, 7)
            coloring = parse_coloring(random_balanced(rng, size))
            x0 = rng.randrange(size)
            cov = coverage_time_tail(coloring, x0, 10)
            dst = distance_moved_tail(coloring, x0, 10)
            assert all(c <= d for c, d in zip(cov, dst))


class TestDistanceBound:
    """The provable tail bound: separation <= Pr(distance-moved time > t)."""

    def test_mod6_all_starts(self):
        for x0 in range(12):
            seps = separation_profile(MOD6, x0, 40)
            dst = distance_moved_tail(MOD6, x0, 40)
            assert all(s <= d for s, d in zip(seps, dst))

    def test_exhaustive_small(self):
        for size in (4, 6):
            for marks in balanced_colorings(size):
                coloring = parse_coloring(marks)
                for x0 in range(size):
                    seps = separation_profile(coloring, x0, 10)
                    dst = distance_moved_tail(coloring, x0, 10)
                    assert all(s <= d for s, d in zip(seps, dst))

    def test_random_instances(self):
        rng = random.Random(4242)
        for _ in range(25):
            size = 2 * rng.randint(2, 7)
            coloring = parse_coloring(random_balanced(rng, size))
            x0 = rng.randrange(size)
            seps = separation_profile(coloring, x0, 14)
            dst = distance_moved_tail(coloring, x0, 14)
            assert all(s <= d for s, d in zip(seps, dst))

    @pytest.mark.parametrize("marks", ["RRBRBRBBRB", "RBRBBRBRRB"])
    def test_colorings_with_no_conforming_partition(self, marks):
        # sharpest instances: the 2k-1 member-gap bound is unachievable
        # for these colorings, yet the distance bound still holds
        coloring = parse_coloring(marks)
        for x0 in range(len(coloring)):
            seps = separation_profile(coloring, x0, 14)
            dst = distance_moved_tail(coloring, x0, 14)
            assert all(s <= d for s, d in zip(seps, dst))


class TestClaimedBounds:
    """Claims that exact computation refutes; these tests fail by design."""

    def test_decomposition_member_gaps_within_bound(self):
        """Claimed: every alternating set in the decomposition has consecutive
        members at most 2k-1 apart.

        The index-interleaving construction breaks this on the wrap-around
        pair, which its correctness argument never examines: RRBBRB (k=2)
        yields the set {1,3} with a gap of 4 > 3, while the conforming
        partition {0,3},{1,2,4,5} exists.  Worse, the bound is unachievable
        outright for some colorings: exhaustive search shows RRBRBRBBRB
        (2n=10, k=2) admits NO 2-set alternating partition with gaps <= 3.
        scripts/sweep_cycle_bounds.py reproduces both sweeps.
        """
        offenders = []
        for size in (4, 6, 8, 10):
            for marks in balanced_colorings(size):
                coloring = parse_coloring(marks)
                k = compute_k(coloring)
                for a in alternating_decomposition(coloring):
                    g = max_gap(a, size)
                    if g > 2 * k - 1:
                        offenders.append(("".join(coloring), k, a, g))
        assert offenders == [], (
            f"{len(offenders)} decomposition sets exceed the 2k-1 gap bound, "
            f"first: {offenders[0]}; for some colorings no conforming "
            "partition exists at all "
            "(scripts/sweep_cycle_bounds.py reproduces the search)"
        )

    def test_midpoint_coverage_dominates_separation(self):
        """Claimed: sep(t) <= Pr(coverage time > t) for the canonical sets.

        False already on the 12-cycle RRBRBBRRBRBB from x0=0: at t=3 the
        exact separation is 5/32 but the coverage tail is 1/8.  See
        scripts/sweep_cycle_bounds.py for the exhaustive sweep (thousands
        of violations over all colorings with up to 8 vertices).
        """
        seps = separation_profile(MOD6, 0, 12)
        cov = coverage_time_tail(MOD6, 0, 12)
        violations = [
            (t, s, c) for t, (s, c) in enumerate(zip(seps, cov)) if s > c
        ]
        assert violations == [], (
            "separation exceeds the midpoint-coverage tail at "
            f"{[(t, str(s), str(c)) for t, s, c in violations]}; "
            "the coverage bound is not a valid certificate "
            "(scripts/sweep_cycle_bounds.py reproduces the full sweep)"
        )

    def test_reflection_through_midpoints_is_fair(self):
        """Claimed: reflecting after the last midpoint crossing pairs red and
        blue endpoints within each set, so both colors are equally likely
        among paths that crossed a midpoint and end in the set.

        False when a set's midpoints are unevenly spaced: reflection at the
        crossing point is not an involution on the endpoint's membership.
        Concrete refutation: set (0,2,3,5,7,10) of RRBRBBRRBRBB from x0=0
        at t=3 has red mass 13/64 vs blue mass 12/64.
        """
        unfair = []
        for aset in alternating_decomposition(MOD6):
            for t, (red, blue) in enumerate(reflection_balance(MOD6, aset, 0, 8)):
                if red != blue:
                    unfair.append((aset, t, red, blue))
        assert unfair == [], (
            f"midpoint-reflection is not color-fair: "
            f"{[(m, t, str(r), str(b)) for m, t, r, b in unfair[:4]]} "
            "(scripts/sweep_cycle_bounds.py reproduces the full sweep)"
        )


class TestReflectionBalance:
    """The masses behind the fairness refutation, and the checks and charge
    that come before any sweep."""

    @pytest.mark.parametrize("members,red,blue", [
        ((0, 2, 3, 5, 7, 10), F(13, 64), F(3, 16)),
        ((1, 4, 6, 8, 9, 11), F(1, 4), F(15, 64)),  # x0 = 0 is one of its midpoints
    ])
    def test_mod6_witnesses(self, members, red, blue):
        assert reflection_balance(MOD6, members, 0, 3)[3] == (red, blue)

    def test_start_and_horizon_are_checked(self):
        members = (0, 2, 3, 5, 7, 10)
        for x0 in (12, -5):
            with pytest.raises(ValueError, match=r"^x0 must be a vertex in 0\.\.11$"):
                reflection_balance(MOD6, members, x0, 3)
        with pytest.raises(ValueError, match="^horizon must be nonnegative$"):
            reflection_balance(MOD6, members, 0, -3)

    @pytest.mark.parametrize("members,message", [
        ((0, -1), r"^set \(-1, 0\) holds a vertex outside 0\.\.11$"),
        ((0, 12), r"^set \(0, 12\) holds a vertex outside 0\.\.11$"),
        ((0, 1), r"^set \(0, 1\) does not alternate$"),  # both red
    ], ids=["negative", "past-end", "both-red"])
    def test_set_is_checked_before_the_charge(self, monkeypatch, members, message):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "1")
        with pytest.raises(ValueError, match=message):
            reflection_balance(MOD6, members, 0, 3)

    def test_charged_before_either_sweep(self, monkeypatch):
        """Two sweeps x 12 vertices x 2 moves x 2 * 3 half-steps = 288."""
        members = (0, 2, 3, 5, 7, 10)
        real_sweep, sweeps = cycle._sweep, []

        def counting_sweep(*args):
            sweeps.append(args[1:3])
            return real_sweep(*args)

        monkeypatch.setattr(cycle, "_sweep", counting_sweep)
        monkeypatch.setenv("MIXSCOPE_BUDGET", "287")
        with pytest.raises(CapacityError, match="^reflection balance on 12 vertices to t=3 "
                                                "needs 288 branches, over the budget of 287; "
                                                "use a shorter horizon$"):
            reflection_balance(MOD6, members, 0, 3)
        assert sweeps == []
        monkeypatch.setenv("MIXSCOPE_BUDGET", "288")
        assert reflection_balance(MOD6, members, 0, 3)[3] == (F(13, 64), F(3, 16))
        assert sweeps == [(0, 3), (0, 3)]


class TestGambler:
    def test_moment_examples(self):
        assert gambler_moments(1) == (F(2), F(0))
        assert gambler_moments(2) == (F(18), F(96))

    def test_symbolic_bounds_to_k_100(self):
        for k in range(1, 101):
            mean, var = gambler_moments(k)
            assert mean <= 8 * k ** 2
            assert var <= F(64, 3) * k ** 4  # stdev <= (8/sqrt(3)) k^2

    def test_chebyshev_time_values(self):
        assert math.isclose(chebyshev_time(1, 2.0), 8 + 16 / math.sqrt(3))
        assert math.isclose(chebyshev_time(2, 3.0), (8 + 24 / math.sqrt(3)) * 4)
        with pytest.raises(ValueError):
            chebyshev_time(2, 0.0)


class TestRedDominance:
    def test_mod6_explicit_sets_hold(self):
        rep = check_red_dominance(
            MOD6, 0, 60, sets=[(0, 2, 3, 5, 6, 8, 9, 11), (1, 4, 7, 10)]
        )
        assert rep.precondition_holds
        assert rep.failing_sets == ()
        assert all(nr.color == "R" for nr in rep.nearest)
        assert rep.dominance_holds
        assert rep.min_margin >= 0

    def test_mod6_canonical_sets_are_ambiguous(self):
        # from x0=0 the set (1,4,6,8,9,11) has a red and a blue member tied
        # at distance 1, so the nearest-is-red precondition cannot be applied
        rep = check_red_dominance(MOD6, 0, 10)
        assert not rep.precondition_holds
        assert rep.dominance_holds is None
        assert any(nr.color is None for nr in rep.nearest)

    def test_alternating_from_red_start(self):
        rep = check_red_dominance(parse_coloring("RBRB"), 0, 10)
        assert rep.precondition_holds
        assert rep.dominance_holds
        assert rep.min_margin == 0  # exactly fair after one step

    def test_blue_start_fails_precondition(self):
        rep = check_red_dominance(parse_coloring("RRBB"), 2, 10)
        assert not rep.precondition_holds
        assert rep.failing_sets != ()
        assert rep.dominance_holds is None

    @pytest.mark.parametrize("coloring,x0,precondition", [("RBRB", 0, True), ("RRBB", 2, False)])
    def test_start_is_checked_before_the_precondition(self, coloring, x0, precondition):
        """A negative horizon or an off-cycle start is refused whether or not
        the nearest-is-red precondition holds."""
        marks = parse_coloring(coloring)
        assert check_red_dominance(marks, x0, 0).precondition_holds == precondition
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            check_red_dominance(marks, x0, -1)
        with pytest.raises(ValueError, match=r"x0 must be a vertex in 0\.\.3"):
            check_red_dominance(marks, 4, 1)

    def test_margin_is_red_mass_minus_half(self):
        explicit = [(0, 2, 3, 5, 6, 8, 9, 11), (1, 4, 7, 10)]
        rep = check_red_dominance(MOD6, 0, 30, sets=explicit)
        law = evolve(
            lazy_cycle_kernel(12),
            Distribution.point_mass(0, universe=range(12)),
            rep.argmin_t,
        )
        red = sum(w for v, w in zip(law.support, law.weights) if MOD6[v] == "R")
        assert red - F(1, 2) == rep.min_margin
