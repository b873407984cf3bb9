"""Certification of strong stationarity for deck statistics, and its oracles.

The certification question: after t steps of a chain, conditional on a path
event having occurred, is the law of a statistic exactly its stationary
law?  If yes, and the event has probability q, the statistic's separation
distance from stationarity is at most 1 - q, because every value a then
satisfies Pr(f(X_t) = a) >= q * f(pi)(a).

Everything here is exhaustive and exact.  Certification runs a forward
dynamic program over lumped states (deck, predicate summary, seen-true
flag) with integer counts over the chain's common denominator D, dividing
by D^t once at the end (the lumped-chain construction of Kemeny and Snell).
The summary is all a predicate can depend on: for card-choice chains the
distinct chosen cards, most recent first; for the inverse riffle a bitmask
of which adjacent deck positions hold different sort keys.  Certification
means exact equality of the conditional and stationary laws, value by
value.  The budget still counts the paths the lumped states stand for.

Path enumeration stays as the independent oracle: every path with its
rational weight, predicates evaluated on full path prefixes (moves and
intermediate decks).  Bookkeeping errors in pencil-and-paper path
arguments, and in the lumping, are exactly what it exists to catch.  A
seeded Monte-Carlo fallback estimates the same quantities but never
certifies.

Predicates need not be stable (true-once-true-forever); the report states
whether the one checked was stable along every path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, sqrt

from .budget import require_within_budget
from .dist import Distribution, Kernel, evolve, push_forward, _canon_key
from .shuffles import (
    StatisticKind,
    _require_dense,
    TOP_TO_BOTTOM,
    apply_move,
    deck_statistic,
    evaluate_statistic,
    identity_deck,
    inverse_riffle_apply,
    random_to_top_kernel,
    rank_deck,
    riffle_kernel,
    stationary_statistic_distribution,
    to_top,
    validate_statistic_kind,
    walk1_kernel,
)

CHAINS = ("rtt", "walk1", "riffle")

CHOICE_PREDICATES = (
    "k_distinct",
    "all_chosen",
    "card_chosen",
    "any_of_chosen",
    "chosen_more_recently_than",
    "any_to_top",
)
RIFFLE_PREDICATES = (
    "riffle_first_j_strings_distinct",
    "riffle_set_strings_distinct",
    "riffle_blocks_nonoverlapping",
)
PREDICATE_KINDS = ("always",) + CHOICE_PREDICATES + RIFFLE_PREDICATES


class InvariantError(RuntimeError):
    """An exact computation broke one of its own invariants (a program bug)."""


@dataclass(frozen=True)
class PredicateKind:
    """A tagged path-event descriptor; a total boolean function of prefixes."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))

    def label(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def validate_predicate_kind(pred: PredicateKind, n: int, chain: str) -> None:
    k, ps = pred.kind, pred.params
    if k in RIFFLE_PREDICATES and chain != "riffle":
        raise ValueError(f"{k} applies to the riffle chain only")
    if k in CHOICE_PREDICATES and chain == "riffle":
        raise ValueError(f"{k} applies to card-choice chains only")
    if k in ("always", "all_chosen", "any_to_top"):
        if ps:
            raise ValueError(f"{k} takes no parameters")
    elif k == "k_distinct":
        if len(ps) != 1 or not 1 <= ps[0] <= n:
            raise ValueError(f"k_distinct needs k with 1 <= k <= {n}")
    elif k == "card_chosen":
        if len(ps) != 1 or not 1 <= ps[0] <= n:
            raise ValueError(f"card_chosen needs a card label in 1..{n}")
    elif k == "any_of_chosen":
        if not ps or len(set(ps)) != len(ps) or any(not 1 <= c <= n for c in ps):
            raise ValueError(f"any_of_chosen needs distinct card labels in 1..{n}")
    elif k == "chosen_more_recently_than":
        if len(ps) != 2 or not 1 <= ps[0] <= n or not 1 <= ps[1] <= n - 1:
            raise ValueError(
                f"chosen_more_recently_than needs a card in 1..{n} and k in 1..{n - 1}"
            )
    elif k == "riffle_first_j_strings_distinct":
        if len(ps) != 1 or not 1 <= ps[0] <= n:
            raise ValueError(f"riffle_first_j_strings_distinct needs j in 1..{n}")
    elif k == "riffle_set_strings_distinct":
        if not ps or len(set(ps)) != len(ps) or any(not 1 <= c <= n for c in ps):
            raise ValueError(f"riffle_set_strings_distinct needs distinct labels in 1..{n}")
    elif k == "riffle_blocks_nonoverlapping":
        if len(ps) != 1 or ps[0] < 1 or n % ps[0] != 0:
            raise ValueError(f"riffle_blocks_nonoverlapping needs a block size dividing {n}")


def parse_predicate(text: str, n: int, chain: str) -> PredicateKind:
    """Parse the CLI predicate grammar, e.g. k_distinct:2 or always."""
    name, _, arg = text.partition(":")
    if name not in PREDICATE_KINDS:
        raise ValueError(f"unknown predicate {name!r}")
    params: tuple = ()
    if arg:
        try:
            params = tuple(int(p) for p in arg.split(","))
        except ValueError:
            raise ValueError(f"bad predicate parameters {arg!r}")
    pred = PredicateKind(name, params)
    validate_predicate_kind(pred, n, chain)
    return pred


@dataclass(frozen=True)
class Path:
    """One weighted trajectory: start deck, per-step moves, all decks visited.

    For the riffle chain each "move" is one bit column (a tuple of n bits,
    one per card label); the recorded t-bit strings follow by concatenation,
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
        return tuple("".join(col[c - 1] for col in cols) for c in range(1, n + 1))


def predicate_holds(pred: PredicateKind, path: Path, upto: int | None = None) -> bool:
    """Evaluate the predicate on the path prefix of the given step count."""
    if upto is None:
        upto = len(path.moves)
    k, ps = pred.kind, pred.params
    if k == "always":
        return True
    n = len(path.start)
    if k in CHOICE_PREDICATES:
        chosen = [mv.card for mv in path.moves[:upto] if mv.kind == "to_top"]
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
    if chain == "rtt":
        return n ** t
    if chain == "walk1":
        return (n + 1) ** t
    if chain == "riffle":
        return 2 ** (t * n)
    raise ValueError(f"unknown chain {chain!r}; expected one of {CHAINS}")


def _require_path_budget(chain: str, n: int, t: int) -> None:
    if t < 0:
        raise ValueError("t must be nonnegative")
    require_within_budget(path_count(chain, n, t), f"path enumeration {chain} n={n} t={t}",
                          "use Monte-Carlo mode")


def chain_branches(chain: str, n: int) -> tuple:
    """(branches, D): one step's moves as (move, multiplicity) pairs over a
    common denominator D, so a move has probability Fraction(multiplicity, D).

    rtt: the n to-top moves, 1 each, D = n.  walk1: the n to-top moves, 1
    each, and top-to-bottom with n, D = 2n.  riffle: the 2^n bit columns,
    1 each, D = 2^n.
    """
    if chain == "rtt":
        return [(to_top(c), 1) for c in range(1, n + 1)], n
    if chain == "walk1":
        return [(to_top(c), 1) for c in range(1, n + 1)] + [(TOP_TO_BOTTOM, n)], 2 * n
    if chain == "riffle":
        return [(col, 1) for col in itertools.product("01", repeat=n)], 2 ** n
    raise ValueError(f"unknown chain {chain!r}; expected one of {CHAINS}")


def _step(chain: str, deck: tuple, move) -> tuple:
    if chain == "riffle":
        return inverse_riffle_apply(deck, move)
    return apply_move(deck, move)


def enumerate_paths(chain: str, n: int, t: int, start: tuple | None = None):
    """Yield every length-t path of the chain with its exact weight.

    Weights over all yielded paths sum to 1.  Budget-checked up front.
    """
    _require_path_budget(chain, n, t)
    if start is None:
        start = identity_deck(n)
    moves, denom = chain_branches(chain, n)
    branches = [(move, Fraction(m, denom)) for move, m in moves]
    for combo in itertools.product(branches, repeat=t):
        decks = [start]
        weight = Fraction(1)
        for move, p in combo:
            weight *= p
            decks.append(_step(chain, decks[-1], move))
        yield Path(chain, start, tuple(s for s, _ in combo), tuple(decks), weight)


def conditional_statistic_distribution(paths, predicate: PredicateKind,
                                       statistic: StatisticKind, t: int):
    """(q, conditional law of the statistic at time t given the predicate).

    paths must be exhaustive for time t; q is the exact total weight of the
    satisfying paths and the conditional is renormalized over them.
    """
    q = Fraction(0)
    total = Fraction(0)
    tally: dict = {}
    for path in paths:
        if len(path.moves) != t:
            raise ValueError(f"path of length {len(path.moves)} in a time-{t} query")
        total += path.weight
        if predicate_holds(predicate, path):
            q += path.weight
            v = evaluate_statistic(statistic, path.decks[-1])
            tally[v] = tally.get(v, Fraction(0)) + path.weight
    if total != 1:
        raise InvariantError(f"path weights sum to {total}, not 1; enumeration not exhaustive")
    if q == 0:
        raise ValueError("predicate never satisfied")
    values = sorted(tally, key=_canon_key)
    conditional = Distribution(tuple(values), tuple(tally[v] / q for v in values))
    return q, conditional


@dataclass(frozen=True)
class SSTReport:
    """Outcome of one certification query."""

    chain: str
    n: int
    t: int
    predicate: PredicateKind
    statistic: StatisticKind
    q: Fraction
    conditional: Distribution
    target: Distribution
    is_strongly_stationary: bool
    sep_bound: Fraction | None
    max_pointwise_deviation: Fraction
    predicate_stable: bool


def _advance_summary(chain: str, deck: tuple, summary, move, new_deck: tuple):
    """The predicate summary after one move from (deck, summary) to new_deck.

    Choice chains: the distinct chosen cards, most recent first.  Riffle:
    bit i is set when positions i and i+1 hold different reversed strings
    (sort keys).  The stable sort keeps equal keys contiguous, so two cards
    share a key exactly when no set bit lies between them; after the step
    they share one when they also drew the same bit.
    """
    if chain != "riffle":
        if move.kind != "to_top":
            return summary
        return (move.card,) + tuple(c for c in summary if c != move.card)
    key_class, k = {}, 0
    for i, c in enumerate(deck):
        if i and summary >> (i - 1) & 1:
            k += 1
        key_class[c] = k
    mask = 0
    for i in range(len(new_deck) - 1):
        a, b = new_deck[i], new_deck[i + 1]
        if move[a - 1] != move[b - 1] or key_class[a] != key_class[b]:
            mask |= 1 << i
    return mask


def _summary_holds(pred: PredicateKind, deck: tuple, summary) -> bool:
    """predicate_holds on any path that reaches (deck, summary)."""
    k, ps = pred.kind, pred.params
    n = len(deck)
    if k == "always":
        return True
    if k == "k_distinct":
        return len(summary) >= ps[0]
    if k == "all_chosen":
        return len(summary) == n
    if k == "card_chosen":
        return ps[0] in summary
    if k == "any_of_chosen":
        return any(c in summary for c in ps)
    if k == "any_to_top":
        return bool(summary)
    if k == "chosen_more_recently_than":
        c, need = ps
        # c's index in the recency tuple counts the distinct cards chosen since
        return c in summary and summary.index(c) >= need

    def split(i):
        return summary >> i & 1

    if k == "riffle_first_j_strings_distinct":
        return all(split(i) for i in range(min(ps[0], n - 1)))
    if k == "riffle_set_strings_distinct":
        positions = [deck.index(c) for c in ps]
        return all((p == 0 or split(p - 1)) and (p == n - 1 or split(p)) for p in positions)
    if k == "riffle_blocks_nonoverlapping":
        b = ps[0]
        return all(split(i * b - 1) for i in range(1, n // b))
    raise AssertionError(k)


def check_strong_stationarity(chain: str, n: int, t: int,
                              predicate: PredicateKind,
                              statistic: StatisticKind) -> SSTReport:
    """Certify or refute: conditional law at t equals the stationary law.

    Certification requires exact equality for every value; then the
    separation of the statistic at time t is at most 1 - q.  Refutation
    reports the largest pointwise deviation.  predicate_stable records
    whether the predicate, once true along a path, stayed true.

    Runs the lumped dynamic program; the budget is charged for the paths
    it stands for.  enumerate_paths gives the same report path by path.
    """
    validate_statistic_kind(statistic, n)
    validate_predicate_kind(predicate, n, chain)
    _require_path_budget(chain, n, t)
    branches, denom = chain_branches(chain, n)
    summary = 0 if chain == "riffle" else ()
    # (deck, summary, held at some earlier step) -> number of paths
    states = {(identity_deck(n), summary, False): 1}
    stable = True
    for step in range(t + 1):
        nxt: dict = {}
        for (deck, summary, seen), count in states.items():
            holds = _summary_holds(predicate, deck, summary)
            if seen and not holds:
                stable = False
            if step == t:
                key = (deck, holds)
                nxt[key] = nxt.get(key, 0) + count
                continue
            seen = seen or holds
            for move, m in branches:
                new_deck = _step(chain, deck, move)
                key = (new_deck, _advance_summary(chain, deck, summary, move, new_deck), seen)
                nxt[key] = nxt.get(key, 0) + count * m
        states = nxt
    total = sum(states.values())
    if total != denom ** t:
        raise InvariantError(f"lumped counts sum to {total}, not {denom}^{t}")
    hits = 0
    tally: dict = {}
    for (deck, holds), count in states.items():
        if holds:
            hits += count
            v = evaluate_statistic(statistic, deck)
            tally[v] = tally.get(v, 0) + count
    if hits == 0:
        raise ValueError("predicate never satisfied")
    q = Fraction(hits, denom ** t)
    values = sorted(tally, key=_canon_key)
    conditional = Distribution(tuple(values), tuple(Fraction(tally[v], hits) for v in values))
    target = stationary_statistic_distribution(n, statistic)
    cond_map = conditional.as_mapping()
    target_map = target.as_mapping()
    union = set(cond_map) | set(target_map)
    deviation = max(
        abs(cond_map.get(v, Fraction(0)) - target_map.get(v, Fraction(0))) for v in union
    )
    certified = deviation == 0
    return SSTReport(
        chain=chain,
        n=n,
        t=t,
        predicate=predicate,
        statistic=statistic,
        q=q,
        conditional=conditional,
        target=target,
        is_strongly_stationary=certified,
        sep_bound=(Fraction(1) - q) if certified else None,
        max_pointwise_deviation=deviation,
        predicate_stable=stable,
    )


def statistic_law_at(chain: str, n: int, t: int, statistic: StatisticKind) -> Distribution:
    """Law of the statistic at time t via kernel evolution (no paths).

    The independent route against which path enumeration is cross-checked.
    Charged to the budget as n! states x one step's branches x max(t, 1)
    steps before the kernel is built.
    """
    _require_dense(n)
    # path_count(chain, n, 1) is one step's branch count, and rejects an unknown chain
    require_within_budget(factorial(n) * path_count(chain, n, 1) * max(t, 1),
                          f"kernel evolution {chain} n={n} t={t}", "use Monte-Carlo mode")
    builders = {"rtt": random_to_top_kernel, "walk1": walk1_kernel, "riffle": riffle_kernel}
    kernel = builders[chain](n)
    start = Distribution.point_mass(rank_deck(identity_deck(n)), kernel.states)
    return push_forward(evolve(kernel, start, t), deck_statistic(n, statistic))


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


def walk1_position_kernel(n: int) -> Kernel:
    """The n-state chain tracking one card's position under walk1.

    Choosing the tracked card itself (1/(2n)) sends it to position 1; a card
    below it (weight (n-p)/(2n)) pushes it down one; a card above it leaves
    it in place; top-to-bottom (1/2) cycles position 1 to n, else up one.
    """
    rows = {}
    for p in range(1, n + 1):
        row: dict = {}

        def add(target, prob):
            row[target] = row.get(target, Fraction(0)) + prob

        add(1, Fraction(1, 2 * n))
        if p < n:
            add(p + 1, Fraction(n - p, 2 * n))
        if p > 1:
            add(p, Fraction(p - 1, 2 * n))
        add(n if p == 1 else p - 1, Fraction(1, 2))
        rows[p] = tuple(sorted(row.items()))
    return Kernel(tuple(range(1, n + 1)), rows)


def walk1_position_distribution(n: int, t: int, p0: int) -> Distribution:
    """Exact law of a tracked card's position after t walk1 steps.

    Reaches deck sizes far beyond full-deck enumeration (n = 52 is routine).
    Charged to the budget as n positions x walk1's n + 1 branches x max(t, 1)
    steps.
    """
    if not 1 <= p0 <= n:
        raise ValueError(f"p0 must lie in 1..{n}")
    require_within_budget(n * path_count("walk1", n, 1) * max(t, 1),
                          f"tracked-card walk n={n} t={t}", "use a shorter t")
    kernel = walk1_position_kernel(n)
    return evolve(kernel, Distribution.point_mass(p0, kernel.states), t)


# Seeded Monte-Carlo fallback: estimates, never certificates.

@dataclass(frozen=True)
class MonteCarloReport:
    chain: str
    n: int
    t: int
    predicate: PredicateKind
    statistic: StatisticKind
    samples: int
    seed: int
    satisfied: int
    q_hat: float
    q_interval: tuple
    conditional_freq: dict
    certifies: bool = False


def _sample_path(chain: str, n: int, t: int, rng: random.Random) -> Path:
    start = identity_deck(n)
    decks = [start]
    moves = []
    for _ in range(t):
        if chain == "rtt":
            mv = to_top(rng.randrange(1, n + 1))
        elif chain == "walk1":
            mv = TOP_TO_BOTTOM if rng.random() < 0.5 else to_top(rng.randrange(1, n + 1))
        else:
            mv = tuple(rng.choice("01") for _ in range(n))
        moves.append(mv)
        decks.append(_step(chain, decks[-1], mv))
    return Path(chain, start, tuple(moves), tuple(decks), Fraction(0))


def _wilson(successes: int, trials: int, z: float = 1.96) -> tuple:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo_conditional(chain: str, n: int, t: int, predicate: PredicateKind,
                            statistic: StatisticKind, samples: int,
                            seed: int) -> MonteCarloReport:
    """Estimate q and the conditional law from seeded samples.

    Reports point estimates with a 95% Wilson interval for q.  Sampling can
    refute nothing and certify nothing; certifies is always False.
    """
    validate_statistic_kind(statistic, n)
    validate_predicate_kind(predicate, n, chain)
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    satisfied = 0
    tally: dict = {}
    for _ in range(samples):
        path = _sample_path(chain, n, t, rng)
        if predicate_holds(predicate, path):
            satisfied += 1
            v = evaluate_statistic(statistic, path.decks[-1])
            tally[v] = tally.get(v, 0) + 1
    freq = {v: tally[v] / satisfied for v in sorted(tally, key=_canon_key)} if satisfied else {}
    return MonteCarloReport(
        chain=chain,
        n=n,
        t=t,
        predicate=predicate,
        statistic=statistic,
        samples=samples,
        seed=seed,
        satisfied=satisfied,
        q_hat=satisfied / samples,
        q_interval=_wilson(satisfied, samples),
        conditional_freq=freq,
    )
