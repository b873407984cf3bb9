"""Integer evolution against a plain Fraction step loop, route by route.

evolve, the cycle's one-sweep color law and the tracked-card chain all
count with integers and divide once at the end.  Each is compared here
with the most direct reference there is: a step loop that multiplies
Fraction weights by the kernel's Fraction rows.  The lumped count
behind stat-mix is compared with evolve on the dense deck kernels, and
the closed-form stationary law with the count over every deck.  The
cycle's three stopping-time tails are compared with a plain engine that
counts every (left, right, position) state on its own, and its
reflection balance with a count over every refined path.  The dense deck
kernels are first read against their records: their states are the decks
in permutations order, each row the record's step over its branches.
"""

import json
import random
from fractions import Fraction as F
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from conftest import statistic_cases

import mixscope
from mixscope import budget, cli, cycle, dist, shuffles, verify
from mixscope.cli import main
from mixscope.cycle import (
    AlternatingSet,
    alternating_decomposition,
    check_alternating,
    check_red_dominance,
    color_statistic,
    compute_k,
    coverage_time_tail,
    distance_moved_tail,
    fair_coloring_target,
    lazy_cycle_kernel,
    midpoints,
    parse_coloring,
    separation_profile,
    validate_coloring,
    vertex_count_tail,
)
from mixscope.dist import Distribution, evolve, law_from_tally, push_forward, separation_distance
from mixscope.shuffles import (
    STATISTIC_KINDS,
    Kind,
    deck_statistic,
    evaluate_statistic,
    identity_deck,
    random_to_top_kernel,
    riffle_kernel,
    stationary_statistic_distribution,
    stationary_support_size,
    statistic_tally,
    validate_statistic_kind,
    walk1_kernel,
)
from mixscope.verify import statistic_law_at, walk1_position_distribution

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
        decks = tuple(permutations(range(1, n + 1)))
        assert kernel.states == decks
        record = shuffles.CHAINS[chain]
        moves, denom = record.branches(n)
        for deck in decks:
            targets = Counter()
            for move, m in moves:
                targets[record.step(deck, move)] += m
            assert dict(kernel.rows[deck]) == {d: F(m, denom) for d, m in targets.items()}
        for stat in statistic_cases(n):
            image = deck_statistic(n, stat)
            assert all(image(deck) == evaluate_statistic(stat, deck) for deck in decks)
        rng = random.Random(f"{chain}{n}")
        starts = [
            Distribution.point_mass(identity_deck(n), kernel.states),
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


def _halfstep_tail(coloring, x0, horizon, absorbed):
    """Shared engine for the stopping-time tails.

    Runs the refined half-step walk with integer path counting and drops
    mass the moment `absorbed(l, r)` holds for the visited window [l, r]
    (half-units relative to the start).  Returns Pr(T > t) for lazy times
    t = 0..horizon, reading the alive mass after 2t half-steps.
    """
    validate_coloring(coloring)
    size = len(coloring)
    if not 0 <= x0 < size:
        raise ValueError(f"x0 must be a vertex in 0..{size - 1}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if absorbed(0, 0):
        return [F(0)] * (horizon + 1)
    alive = {(0, 0, 0): 1}
    tails = [F(1)]
    for t in range(1, horizon + 1):
        for _ in range(2):
            nxt: dict = {}
            for (l, r, x), count in alive.items():
                for x2 in (x - 1, x + 1):
                    l2, r2 = min(l, x2), max(r, x2)
                    if absorbed(l2, r2):
                        continue
                    key = (l2, r2, x2)
                    nxt[key] = nxt.get(key, 0) + count
            alive = nxt
        tails.append(F(sum(alive.values()), 4 ** t))
    return tails


def reference_rules(coloring, x0, sets=None):
    """The (coverage, vertex count, distance moved) absorption rules, each
    written out on absolute windows."""
    size = len(coloring)
    half_size = 2 * size
    need = 2 * compute_k(coloring) - 1
    if sets is None:
        sets = [a.members for a in alternating_decomposition(coloring)]
    midpoint_sets = [set(midpoints(AlternatingSet(m), size)) for m in sets]

    def covered(l, r):
        if r - l + 1 >= half_size:
            return True
        window = {(2 * x0 + i) % half_size for i in range(l, r + 1)}
        return all(ms & window for ms in midpoint_sets)

    def counted(l, r):
        if r - l + 1 >= 2 * size:
            return size >= need
        return r // 2 - (l + 1) // 2 + 1 >= need

    def moved(l, r):
        return r >= 2 * need or -l >= 2 * need

    return covered, counted, moved


def reference_tails(coloring, x0, horizon, sets=None):
    """(coverage, vertex count, distance moved) tails on the (l, r, x) engine."""
    return tuple(_halfstep_tail(coloring, x0, horizon, rule)
                 for rule in reference_rules(coloring, x0, sets))


def listed_window_states(horizon, absorbed):
    """Positions summed over the alive windows, listed one by one outward
    from (0, 0) up to width 2 * horizon."""
    listed = set()
    level = set() if absorbed(0, 0) else {(0, 0)}
    while level:
        listed |= level
        level = {w for l, r in level if r - l < 2 * horizon
                 for w in ((l - 1, r), (l, r + 1)) if not absorbed(*w)}
    return sum(r - l + 1 for l, r in listed)


class TestTailsMatchStateEngine:
    """Each tail sweeps a reduced state table: the distance tail a strip of
    positions, coverage and vertex count every (window, position) state of
    an alive window.  Both must give the (l, r, x) engine's Fractions exactly."""

    @pytest.mark.parametrize("size,starts,horizon",
                             [(4, (0, 1), 12), (6, (0, 1), 12), (8, (0, 1), 12), (10, (0,), 8)])
    def test_every_balanced_coloring(self, size, starts, horizon):
        for reds in combinations(range(size), size // 2):
            coloring = tuple("R" if v in reds else "B" for v in range(size))
            for x0 in starts:
                expected = reference_tails(coloring, x0, horizon)
                got = (coverage_time_tail(coloring, x0, horizon),
                       vertex_count_tail(coloring, x0, horizon),
                       distance_moved_tail(coloring, x0, horizon))
                assert got == expected, ("".join(coloring), x0)

    @pytest.mark.parametrize("size,starts,horizon",
                             [(4, (0, 1), 12), (6, (0, 1), 12), (8, (0, 1), 12), (10, (0,), 8),
                              (4, (0, 1), 1), (6, (0, 1), 2), (8, (0, 1), 3)])
    def test_charge_counts_the_listed_windows(self, monkeypatch, size, starts, horizon):
        """The closed-form window count behind each charge equals the count
        of the windows listed one by one with the reference rules, and each
        tail sweeps a table of exactly the states it was charged for."""
        charges, tables = [], []
        real_sweep = cycle._sweep

        def sizing_sweep(half_steps, start, horizon, read=sum):
            tables.append(len(half_steps[0][0]))
            return real_sweep(half_steps, start, horizon, read)

        monkeypatch.setattr(cycle, "require_within_budget",
                            lambda needed, what, hint: charges.append((needed, what)))
        monkeypatch.setattr(cycle, "_sweep", sizing_sweep)
        for reds in combinations(range(size), size // 2):
            coloring = tuple("R" if v in reds else "B" for v in range(size))
            for x0 in starts:
                charges.clear()
                tables.clear()
                coverage_time_tail(coloring, x0, horizon)
                vertex_count_tail(coloring, x0, horizon)
                distance_moved_tail(coloring, x0, horizon)
                covered, counted, _ = reference_rules(coloring, x0)
                strip = 2 * (2 * (2 * compute_k(coloring) - 1)) - 1
                expected = [listed_window_states(horizon, rule) * 2 * 2 * horizon
                            for rule in (covered, counted)] + [strip * 2 * 2 * horizon]
                assert [needed for needed, _ in charges] == expected, ("".join(coloring), x0)
                assert [what.split()[0] for _, what in charges] == \
                    ["coverage", "vertex-count", "distance-moved"]
                # a tail absorbed at its start sweeps no table
                swept = [cycle._alive_states(horizon, rule) for rule in (covered, counted)
                         if not rule(0, 0)]
                assert tables == swept + [strip], ("".join(coloring), x0)

    @pytest.mark.parametrize("marks", ["RRRRRRBBBBBB", "RRBRBBRRBRBB"])
    def test_short_horizons(self, marks):
        """Horizons too short to reach every absorbing window, so the
        windowed engine lists windows only up to width 2 * horizon."""
        coloring = parse_coloring(marks)
        for horizon in range(5):
            for x0 in range(len(coloring)):
                got = (coverage_time_tail(coloring, x0, horizon),
                       vertex_count_tail(coloring, x0, horizon),
                       distance_moved_tail(coloring, x0, horizon))
                assert got == reference_tails(coloring, x0, horizon), (x0, horizon)

    def test_pair_partition(self):
        pairs = [(0, 2), (1, 5), (3, 4), (6, 8), (7, 11), (9, 10)]
        for x0 in (0, 3):
            cov, vtx, dst = reference_tails(MOD6, x0, 60, sets=pairs)
            assert coverage_time_tail(MOD6, x0, 60, sets=pairs) == cov
            assert vertex_count_tail(MOD6, x0, 60) == vtx
            assert distance_moved_tail(MOD6, x0, 60) == dst


def refined_paths(size, x0, horizon):
    """Every one of the 4^t refined paths of t lazy steps from x0, for
    t = 0..horizon, grouped as paths[t][v] = [(lo, hi, count), ...] by
    their end vertex v and their visited interval: half-unit offsets lo..hi
    from the start, shifted up by 2 * horizon so that they are >= 0."""
    paths = []
    for t in range(horizon + 1):
        grouped = Counter()
        for steps in product((1, -1), repeat=2 * t):
            pos = lo = hi = 0
            for s in steps:
                pos += s
                lo, hi = min(lo, pos), max(hi, pos)
            grouped[(x0 + pos // 2) % size, lo + 2 * horizon, hi + 2 * horizon] += 1
        by_end = [[] for _ in range(size)]
        for (v, lo, hi), count in grouped.items():
            by_end[v].append((lo, hi, count))
        paths.append(by_end)
    return paths


class TestReflectionMatchesPathEnumeration:
    """reflection_balance (the walk minus the walk killed at a midpoint)
    against a count of every refined path that visits a midpoint."""

    def test_every_set_and_start(self):
        horizon = 4
        cases = midpoint_starts = 0
        for size in (4, 6, 8):
            half = 2 * size
            paths = [refined_paths(size, x0, horizon) for x0 in range(size)]
            for reds in combinations(range(size), size // 2):
                coloring = tuple("R" if v in reds else "B" for v in range(size))
                for count in range(2, size + 1, 2):
                    for members in combinations(range(size), count):
                        if not check_alternating(coloring, members):
                            continue
                        mids = set(midpoints(AlternatingSet(members), size))
                        for x0 in range(size):
                            # passed[i] counts the midpoints at shifted offsets below i
                            passed = [0]
                            for i in range(-2 * horizon, 2 * horizon + 1):
                                passed.append(passed[-1] + ((2 * x0 + i) % half in mids))
                            expected = []
                            for t, by_end in enumerate(paths[x0]):
                                mass = {"R": 0, "B": 0}
                                for v in members:
                                    mass[coloring[v]] += sum(n for lo, hi, n in by_end[v]
                                                             if passed[hi + 1] > passed[lo])
                                expected.append((F(mass["R"], 4 ** t), F(mass["B"], 4 ** t)))
                            got = cycle.reflection_balance(coloring, members, x0, horizon)
                            assert got == expected, ("".join(coloring), members, x0)
                            cases += 1
                            midpoint_starts += 2 * x0 in mids
        assert (cases, midpoint_starts) == (18_148, 2_600)


class TestTrackedCardMatchesDenseDeck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_position_law(self, n):
        kernel = walk1_kernel(n)
        start = Distribution.point_mass(identity_deck(n), kernel.states)
        laws = reference_laws(kernel, start, 4)
        for p in range(1, n + 1):
            # the identity deck holds card p at position p
            position = deck_statistic(n, Kind("position_of", (p,)))
            for t, law in enumerate(laws):
                assert walk1_position_distribution(n, t, p).as_mapping() == \
                    push_forward(law, position).as_mapping()


class TestSparseLawMatchesDenseKernel:
    CASES = [("rtt", n) for n in (2, 3, 4, 5)] + [("walk1", n) for n in (2, 3, 4, 5)] \
        + [("riffle", n) for n in (2, 3, 4)]

    @pytest.mark.parametrize("chain,n", CASES)
    def test_statistic_law_at(self, chain, n):
        kernel = DENSE[chain](n)
        start = Distribution.point_mass(identity_deck(n), kernel.states)
        laws = [evolve(kernel, start, t) for t in range(5)]
        for stat in statistic_cases(n):
            image = deck_statistic(n, stat)
            stationary = stationary_statistic_distribution(n, stat)
            for t, law in enumerate(laws):
                expected = push_forward(law, image)
                sparse = statistic_law_at(chain, n, t, stat, stationary)
                assert sparse.support == expected.support, (stat.label(), t)
                assert sparse.weights == expected.weights, (stat.label(), t)

    # the routes no report may take; each has a faster route on the CLI
    ORACLES = [(shuffles, "random_to_top_kernel"), (shuffles, "walk1_kernel"),
               (shuffles, "riffle_kernel"), (dist, "evolve"), (dist, "push_forward"),
               (verify, "enumerate_paths"), (verify, "predicate_holds"),
               (verify, "conditional_statistic_distribution"), (cycle, "lazy_cycle_kernel")]
    SUBCOMMANDS = [
        ("stat-mix", "--chain", "walk1", "--n", "4", "--t", "3", "--statistic", "top_card",
         "--samples", "50", "--seed", "1"),
        ("sst-check", "--chain", "rtt", "--n", "4", "--t", "3", "--statistic", "top_k_order:2",
         "--predicate", "k_distinct:2"),
        ("sst-check", "--chain", "riffle", "--n", "4", "--t", "2", "--statistic", "top_card",
         "--predicate", "riffle_first_j_strings_distinct:2", "--samples", "50", "--seed", "2"),
        ("cycle", "--coloring", "RRBRBB", "--x0", "1", "--horizon", "4",
         "--sets", "4,1;5,3,2,0", "--chebyshev", "1.5"),
        ("decompose", "--coloring", "RRBRBB", "--check-minimality"),
        ("counterexample", "--n", "6", "--t", "4"),
    ]

    def test_stat_mix_builds_no_dense_kernel(self, capsys, monkeypatch):
        """No subcommand builds a dense kernel or any other oracle: every
        mixscope binding of one refuses, and so does building a Kernel."""
        def refusing(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"the oracle {name} ran")
            return refuse

        for owner, name in self.ORACLES:
            original = getattr(owner, name)
            for namespace in (mixscope, budget, cli, cycle, dist, shuffles, verify):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, key, refusing(name))
        monkeypatch.setattr(dist.Kernel, "__post_init__", refusing("Kernel"))
        for chain in DENSE:
            code = main(["stat-mix", "--chain", chain, "--n", "4", "--t", "2",
                         "--statistic", "top_k_order:2"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert json.loads(captured.out)["results"]["law"]["support"]
        for argv in self.SUBCOMMANDS:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv[0], captured.err)
            assert json.loads(captured.out)["results"]


def every_statistic(n):
    """Every statistic valid at deck size n with every parameter: each k,
    card and divisor, and each set of cards in label order and reversed."""
    sets = [c for m in range(1, n + 1) for c in combinations(range(1, n + 1), m)]
    params = [(), *sets, *(c[::-1] for c in sets if len(c) > 1)]
    cases = []
    for kind in STATISTIC_KINDS:
        for ps in params:
            stat = Kind(kind, ps)
            try:
                validate_statistic_kind(stat, n)
            except ValueError:
                continue
            cases.append(stat)
    return cases


class TestStationaryLawMatchesEnumeration:
    """The closed-form stationary law against the count of every deck of
    S_n, the route it replaced; support order included."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_is_the_count_over_every_deck(self, n):
        decks = list(permutations(range(1, n + 1)))
        if n <= 6:
            cases = every_statistic(n)
        elif n == 7:
            cases = statistic_cases(n)
        else:  # the middle parameter choice of each kind
            by_kind = {}
            for stat in statistic_cases(n):
                by_kind.setdefault(stat.kind, []).append(stat)
            cases = [stats[len(stats) // 2] for stats in by_kind.values()]
        assert {stat.kind for stat in cases} == set(STATISTIC_KINDS)
        for stat in cases:
            expected = law_from_tally(statistic_tally(stat, ((d, 1) for d in decks)), len(decks))
            law = stationary_statistic_distribution(n, stat)
            assert law.support == expected.support, stat.label()
            assert law.weights == expected.weights, stat.label()
            assert stationary_support_size(n, stat) == len(law.support), stat.label()


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
