"""Certification of strong stationarity for deck statistics, and its oracles.

The certification question: after t steps of a chain, conditional on a path
event having occurred, is the law of a statistic exactly its stationary
law?  If yes, and the event has probability q, the statistic's separation
distance from stationarity is at most 1 - q, because every value a then
satisfies Pr(f(X_t) = a) >= q * f(pi)(a).

Everything here is exhaustive and exact.  One forward count,
_lumped_counts, runs a dynamic program over lumped (deck, predicate
summary) states with integer counts over the chain's common denominator D,
checks that they sum to D^t, and leaves the one division by D^t to its two
callers (the lumped-chain construction of Kemeny and Snell):
certification, and the law of a statistic at time t, which is the always
case of the same count with q = 1, visiting only the decks the walk reaches.
D, the moves and both deck steps come from the chain's shuffles.CHAINS record,
and every route reads a move as the same value: a card label (0 for
top-to-bottom) or a riffle column of n bytes, 0 or 1.  The summary is all
a predicate can depend on: for card-choice chains the distinct chosen
cards, most recent first; for the inverse riffle a bitmask of which
adjacent deck positions hold different sort keys; for always, nothing
(None).  summary_test compiles a predicate once per request into a test
of that state, which the count, the certificate and the sampler all call.
Certification means exact equality of the conditional and stationary
laws, value by value.  Each caller charges the budget its own way:
certification the paths the lumped states stand for (past the dense
range, times the n cards of each lumped deck), the law n! states x one
step's branches, both over max(t, 1) steps; the dense kernels in shuffles
are the law's oracle.

A seeded Monte-Carlo fallback estimates the same quantities but never
certifies; it counts the sampled paths a chunk at a time, settles each
distinct path of a chunk once into the DP's lumped (deck, summary) state
with the record's settle, decides it with the same test and weighs it by
its multiplicity.  Only the lumped count steps with the record's advance.

Path enumeration is the independent oracle, used by no report: every path
with its rational weight, predicates evaluated on full path prefixes
(the record's moves and intermediate decks), decks stepped by the record's
step (apply_move, or inverse_riffle_apply reading a column as n one-bit
strings), never by advance.  Bookkeeping errors in pencil-and-paper path
arguments, and in the lumping, are exactly what it exists to catch.

Predicates need not be stable (true-once-true-forever); the report states
whether the one checked was stable along every path.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

from .budget import bounded_product, require_within_budget
from .dist import Distribution, InvariantError, law_from_tally, _canon_key
from .shuffles import (
    CHAINS,
    CHOICE_PREDICATES,
    MAX_DENSE_N,
    RIFFLE_PREDICATES,
    Kind,
    identity_deck,
    parse_kind,
    stationary_statistic_distribution,
    statistic_tally,
    validate_kind,
    validate_statistic_kind,
)

# predicate kind -> its parameter rule (shuffles.PARAMETER_RULES)
PREDICATE_KINDS = {"always": "none", **CHOICE_PREDICATES, **RIFFLE_PREDICATES}
# the path event every path satisfies: conditioning on it changes nothing
ALWAYS = Kind("always", ())


def validate_predicate_kind(pred: Kind, n: int, chain: str) -> None:
    """Check the path-event name, its chain family, then its parameter rule
    at deck size n."""
    family = CHAINS[chain].predicates
    for other in CHAINS.values():
        if pred.kind in other.predicates and pred.kind not in family:
            raise ValueError(f"{pred.kind} applies to {other.family} only")
    validate_kind(pred, PREDICATE_KINDS, n, "predicate")


def parse_predicate(text: str, n: int, chain: str) -> Kind:
    """Parse a CLI predicate, e.g. k_distinct:2 or always, valid for the chain
    at deck size n."""
    pred = parse_kind(text, PREDICATE_KINDS, "predicate")
    validate_predicate_kind(pred, n, chain)
    return pred


@dataclass(frozen=True)
class Path:
    """One weighted trajectory: start deck, per-step moves, all decks visited.

    Moves are the chain record's own values: card labels, 0 for
    top-to-bottom, or riffle columns of n bytes, 0 or 1, one per card label;
    a card's recorded t-bit string is its bits read down the columns,
    earliest step first.
    """

    chain: str
    start: tuple
    moves: tuple
    decks: tuple
    weight: Fraction

    def recorded_strings(self, upto: int | None = None) -> tuple:
        if self.chain != "riffle":
            raise ValueError("recorded strings exist for riffle paths only")
        cols = self.moves if upto is None else self.moves[:upto]
        n = len(self.start)
        return tuple("".join("01"[col[c - 1]] for col in cols) for c in range(1, n + 1))


def predicate_holds(pred: Kind, path: Path, upto: int | None = None) -> bool:
    """Evaluate the predicate on the path prefix of the given step count."""
    if upto is None:
        upto = len(path.moves)
    k, ps = pred.kind, pred.params
    if k == "always":
        return True
    n = len(path.start)
    if k in CHOICE_PREDICATES:
        chosen = [card for card in path.moves[:upto] if card]
        if k == "k_distinct":
            return len(set(chosen)) >= ps[0]
        if k == "all_chosen":
            return len(set(chosen)) == n
        if k == "card_chosen":
            return ps[0] in chosen
        if k == "any_of_chosen":
            return any(c in ps for c in chosen)
        if k == "any_to_top":
            return len(chosen) >= 1
        if k == "chosen_more_recently_than":
            c, need = ps
            if c not in chosen:
                return False
            last = max(i for i, x in enumerate(chosen) if x == c)
            return len(set(chosen[last + 1:])) >= need
    # sort keys: reversed recorded strings, the order the deck is sorted by
    keys = sorted(s[::-1] for s in path.recorded_strings(upto))
    if k == "riffle_first_j_strings_distinct":
        # the j cards on top hold the j smallest keys; each must be unique
        # among all n, i.e. the j lowest consecutive gaps are all strict
        return all(keys[i] != keys[i + 1] for i in range(min(ps[0], n - 1)))
    if k == "riffle_set_strings_distinct":
        strings = path.recorded_strings(upto)
        return all(strings.count(strings[c - 1]) == 1 for c in ps)
    if k == "riffle_blocks_nonoverlapping":
        b = ps[0]
        return all(keys[i * b - 1] != keys[i * b] for i in range(1, n // b))
    raise AssertionError(k)


def path_count(chain: str, n: int, t: int) -> int:
    return CHAINS[chain].branch_count(n) ** t


def _require_path_budget(chain: str, n: int, t: int) -> int:
    """The path count b^max(t, 1), charged; a power over the budget is never built."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    # t = 0 still lists one step's branches: all 2^n columns for the riffle
    paths = bounded_product(itertools.repeat(CHAINS[chain].branch_count(n), max(t, 1)))
    require_within_budget(paths, f"path enumeration {chain} n={n} t={t}", "use Monte-Carlo mode")
    return paths


def enumerate_paths(chain: str, n: int, t: int, start: tuple | None = None):
    """Yield every length-t path of the chain with its exact weight.

    Weights over all yielded paths sum to 1.  Budget-checked up front.
    """
    _require_path_budget(chain, n, t)
    if start is None:
        start = identity_deck(n)
    record = CHAINS[chain]
    moves, denom = record.branches(n)
    branches = [(move, Fraction(m, denom)) for move, m in moves]
    step = record.step
    for combo in itertools.product(branches, repeat=t):
        decks = [start]
        weight = Fraction(1)
        for move, p in combo:
            weight *= p
            decks.append(step(decks[-1], move))
        yield Path(chain, start, tuple(s for s, _ in combo), tuple(decks), weight)


def conditional_statistic_distribution(paths, predicate: Kind, statistic: Kind, t: int):
    """(q, conditional law of the statistic at time t given the predicate).

    paths must be exhaustive for time t; q is the exact total weight of the
    satisfying paths and the conditional is renormalized over them.  The
    statistic is validated against the first path's deck size.
    """
    total = Fraction(0)

    def satisfying():
        nonlocal total
        for i, path in enumerate(paths):
            if i == 0:
                validate_statistic_kind(statistic, len(path.start))
            if len(path.moves) != t:
                raise ValueError(f"path of length {len(path.moves)} in a time-{t} query")
            total += path.weight
            if predicate_holds(predicate, path):
                yield path.decks[-1], path.weight

    tally = statistic_tally(statistic, satisfying())
    if total != 1:
        raise InvariantError(f"path weights sum to {total}, not 1; enumeration not exhaustive")
    q = sum(tally.values(), Fraction(0))
    if q == 0:
        raise ValueError("predicate never satisfied")
    return q, law_from_tally(tally, q)


@dataclass(frozen=True)
class SSTReport:
    """Outcome of one certification query."""

    q: Fraction
    conditional: Distribution
    target: Distribution
    is_strongly_stationary: bool
    sep_bound: Fraction | None
    max_pointwise_deviation: Fraction
    predicate_stable: bool


def summary_test(pred: Kind, n: int):
    """The predicate, validated once by the caller, as a test of a lumped
    (deck, summary) state: predicate_holds on any path that reaches it.
    The kind and parameters are read here, once per request."""
    k, ps = pred.kind, pred.params
    if k == "always":
        return lambda deck, summary: True
    if k in ("k_distinct", "all_chosen", "any_to_top"):
        # at least k, all n, or one distinct card chosen
        need = ps[0] if k == "k_distinct" else n if k == "all_chosen" else 1
        return lambda deck, summary: len(summary) >= need
    if k == "card_chosen":
        return lambda deck, summary: ps[0] in summary
    if k == "any_of_chosen":
        return lambda deck, summary: any(c in summary for c in ps)
    if k == "chosen_more_recently_than":
        c, need = ps
        # c's index in the recency tuple counts the distinct cards chosen since
        return lambda deck, summary: c in summary and summary.index(c) >= need
    # summary bit i: positions i and i + 1 hold different sort keys
    if k == "riffle_set_strings_distinct":
        ends = 1 | 1 << n  # padded, bits p and p + 1 are the gaps around position p
        return lambda deck, summary: all(
            (summary << 1 | ends) >> deck.index(c) & 3 == 3 for c in ps)
    if k == "riffle_first_j_strings_distinct":
        need = (1 << min(ps[0], n - 1)) - 1
    elif k == "riffle_blocks_nonoverlapping":
        need = sum(1 << i * ps[0] - 1 for i in range(1, n // ps[0]))
    else:
        raise AssertionError(k)
    return lambda deck, summary: summary & need == need


def _lumped_counts(chain: str, n: int, t: int, predicate: Kind):
    """({(deck, summary) at t: paths}, holds, stable) from the identity deck.

    The one forward count over the (deck, summary) pairs the record's
    advance returns (always tracks no summary: None), in integer path counts
    over the chain's common denominator D, checked to sum to D^t.  holds is
    the predicate's summary_test.  stable (once true, the predicate stayed
    true) is False exactly when a reachable step goes from a state where
    holds is true to one where it is not.  The caller validates its
    arguments and charges the budget.
    """
    record = CHAINS[chain]
    branches, denom = record.branches(n)
    advance = record.advance
    holds = summary_test(predicate, n)
    start = None if predicate.kind == "always" else record.start_summary
    states = {(identity_deck(n), start): 1}
    stable, watching = True, start is not None  # always is never watched
    for _ in range(t):
        nxt: dict = {}
        for (deck, summary), count in states.items():
            watched = watching and holds(deck, summary)
            for move, m in branches:
                key = advance(deck, summary, move)
                nxt[key] = nxt.get(key, 0) + count * m
                if watched and not holds(*key):
                    stable = watching = False
        states = nxt
    total = sum(states.values())
    if total != denom ** t:
        raise InvariantError(f"lumped counts sum to {total}, not {denom}^{t}")
    return states, holds, stable


def check_strong_stationarity(chain: str, n: int, t: int,
                              predicate: Kind,
                              statistic: Kind) -> SSTReport:
    """Certify or refute: conditional law at t equals the stationary law.

    Certification requires exact equality for every value; then the
    separation of the statistic at time t is at most 1 - q.  Refutation
    reports the largest pointwise deviation.  predicate_stable records
    whether the predicate, once true along a path, stayed true.

    Runs the lumped count; the budget is charged for the paths it stands
    for over max(t, 1) steps, past the dense range (n > MAX_DENSE_N) for
    the cards of that many lumped decks too, then for the stationary law's
    support.
    enumerate_paths gives the same report path by path.
    """
    validate_statistic_kind(statistic, n)
    validate_predicate_kind(predicate, n, chain)
    paths = _require_path_budget(chain, n, t)
    if n > MAX_DENSE_N:
        # a lumped state holds a whole deck, so past the dense range the
        # paths' n-card decks, not the paths, bound the count's memory
        require_within_budget(paths * n, f"lumped decks {chain} n={n} t={t}", "use Monte-Carlo mode")
    # charged before the lumped count, so a support over the budget is refused before any work
    target = stationary_statistic_distribution(n, statistic)
    counts, holds, stable = _lumped_counts(chain, n, t, predicate)
    satisfied: dict = {}  # deck -> paths, so a deck with several summaries is evaluated once
    for (deck, summary), count in counts.items():
        if holds(deck, summary):
            satisfied[deck] = satisfied.get(deck, 0) + count
    tally = statistic_tally(statistic, satisfied.items())
    hits = sum(tally.values())
    if hits == 0:
        raise ValueError("predicate never satisfied")
    q = Fraction(hits, sum(counts.values()))
    conditional = law_from_tally(tally, hits)
    cond_map, target_map = conditional.as_mapping(), target.as_mapping()
    deviation = max(abs(cond_map.get(v, Fraction(0)) - target_map.get(v, Fraction(0)))
                    for v in set(cond_map) | set(target_map))
    certified = deviation == 0
    return SSTReport(
        q=q,
        conditional=conditional,
        target=target,
        is_strongly_stationary=certified,
        sep_bound=(Fraction(1) - q) if certified else None,
        max_pointwise_deviation=deviation,
        predicate_stable=stable,
    )


def statistic_law_at(chain: str, n: int, t: int, statistic: Kind,
                     stationary: Distribution) -> Distribution:
    """Law of the statistic at time t from the identity deck (no paths).

    The lumped count with the predicate always, whose states are then the
    decks the walk reaches: one forward count, two callers (the other is
    check_strong_stationarity).  The statistic is evaluated once per reached
    deck.  The support is that of the statistic's stationary law, which the
    caller passes in: its whole image over S_n, zero-padded.  The dense
    kernels in shuffles are its oracle.  Charged to the budget, its only
    guard, as n! states x max(t, 1) steps x one step's branches before it
    starts, n! first, so a riffle's 2^n branches are built only for small n.
    """
    validate_statistic_kind(statistic, n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    require_within_budget(bounded_product(itertools.chain(range(2, n + 1), (max(t, 1),),
                                                          map(CHAINS[chain].branch_count, (n,)))),
                          f"kernel evolution {chain} n={n} t={t}", "use Monte-Carlo mode")
    counts, _, _ = _lumped_counts(chain, n, t, ALWAYS)
    tally = statistic_tally(statistic, ((deck, count) for (deck, _), count in counts.items()))
    total = sum(counts.values())
    return Distribution(stationary.support,
                        tuple(Fraction(tally.get(v, 0), total) for v in stationary.support))


# Closed-form and DP oracles

def prob_k_distinct(n: int, k: int, t: int) -> Fraction:
    """Probability that at least k distinct labels occur in t uniform draws
    from n; exact DP over the distinct count."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    dp = {0: Fraction(1)}
    for _ in range(t):
        nxt: dict = {}
        for j, w in dp.items():
            if j:
                nxt[j] = nxt.get(j, Fraction(0)) + w * Fraction(j, n)
            if j < n:
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + w * Fraction(n - j, n)
        dp = nxt
    return sum((w for j, w in dp.items() if j >= k), Fraction(0))


def prob_strings_distinct(n: int, t: int) -> Fraction:
    """Birthday probability that n independent uniform t-bit strings are all
    distinct: product over i < n of (1 - i/2^t)."""
    out = Fraction(1)
    for i in range(n):
        out *= 1 - Fraction(i, 2 ** t)
    return out


def count_nonnegative_paths(t: int) -> int:
    """Number of t-step +-1 walks from 0 whose partial sums never go below 0:
    the central binomial coefficient C(t, floor(t/2))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return comb(t, t // 2)


def walk1_position_distribution(n: int, t: int, p0: int) -> Distribution:
    """Exact law of a tracked card's position after t walk1 steps.

    One sweep of integer counts over 2n per step, dividing once at the end.
    From position p (0-based i = p - 1): choosing the tracked card itself
    (1 of 2n) sends it to position 1; a card below it (n - p of 2n) pushes
    it down one; a card above it (p - 1 of 2n) leaves it in place;
    top-to-bottom (n of 2n) cycles position 1 to n, else up one.  Reaches
    deck sizes far beyond full-deck enumeration (n = 52 is routine).
    Charged to the budget as n positions x walk1's n + 1 branches x max(t, 1)
    steps.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= p0 <= n:
        raise ValueError(f"p0 must lie in 1..{n}")
    require_within_budget(n * path_count("walk1", n, 1) * max(t, 1),
                          f"tracked-card walk n={n} t={t}", "use a shorter t")
    if t < 0:
        raise ValueError("t must be nonnegative")
    counts = [0] * n
    counts[p0 - 1] = 1
    for _ in range(t):
        new = [i * counts[i] + (n - i) * counts[i - 1] + n * counts[(i + 1) % n]
               for i in range(1, n)]
        counts = [n * counts[1 % n] + sum(counts), *new]
    total = (2 * n) ** t
    return Distribution(tuple(range(1, n + 1)), tuple(Fraction(c, total) for c in counts))


# Seeded Monte-Carlo fallback: estimates, never certificates.

_CHUNK = 1024  # sampled paths counted at a time; each distinct one is settled once


@dataclass(frozen=True)
class MonteCarloReport:
    samples: int
    seed: int
    satisfied: int
    q_hat: float
    q_interval: tuple
    conditional_freq: dict
    certifies: bool = False


def _wilson(successes: int, trials: int, z: float = 1.96) -> tuple:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo_conditional(chain: str, n: int, t: int, predicate: Kind,
                            statistic: Kind, samples: int,
                            seed: int) -> MonteCarloReport:
    """Estimate q and the conditional law from seeded samples.

    Each sample is one seeded t-step path.  The paths are counted _CHUNK
    at a time, and each distinct path of a chunk is settled once into the
    lumped (deck, summary) state the certification DP would step it to,
    decided there by the count's summary_test and weighed by how often it
    was drawn, so every count is that of one settle per sample and no more
    than a chunk of paths is held.  Reports point estimates
    with a 95% Wilson interval for q.  Sampling can refute nothing and
    certify nothing; certifies is always False.
    """
    validate_statistic_kind(statistic, n)
    validate_predicate_kind(predicate, n, chain)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if samples <= 0:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    record = CHAINS[chain]
    settle, holds = record.settle, summary_test(predicate, n)
    paths = itertools.islice(record.paths(n, t, random.Random(seed)), samples)
    chunks = (Counter(itertools.islice(paths, _CHUNK)) for _ in range(0, samples, _CHUNK))
    states = ((settle(n, path), count) for chunk in chunks for path, count in chunk.items())
    tally = statistic_tally(statistic, ((deck, count) for (deck, summary), count in states
                                        if holds(deck, summary)))
    satisfied = sum(tally.values())
    freq = {v: tally[v] / satisfied for v in sorted(tally, key=_canon_key)} if satisfied else {}
    return MonteCarloReport(
        samples=samples,
        seed=seed,
        satisfied=satisfied,
        q_hat=satisfied / samples,
        q_interval=_wilson(satisfied, samples),
        conditional_freq=freq,
    )
