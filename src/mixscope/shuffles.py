"""Shuffle chains on small decks and the catalog of deck statistics.

A deck of n cards is a tuple of the labels 1..n read top to bottom, so
deck[0] is the top card and positions are 1-based in every public value.
Three chains are provided:

  random-to-top   each step moves a uniformly chosen card to the top.
  walk1           with probability 1/2 moves a uniformly chosen card to the
                  top, otherwise moves the top card to the bottom.
  inverse riffle  each step assigns every card an independent uniform bit
                  and stably sorts, zeros above ones; t steps assign t-bit
                  strings per card.

All three fix the uniform distribution on the symmetric group.  Each is
one Chain record in CHAINS, which every per-chain choice here and in
verify and cli reads.  Explicit kernels are built for 2 <= n <= 8 (8! =
40320 states) by one row loop over a record's weighted moves, each charged
to the budget as n! rows x one step's branches; their states are the decks
themselves, in itertools.permutations order.  No report uses them: the
exact law at time t is a forward count over the decks reachable from the
identity (verify.statistic_law_at), and the stationary law of a statistic
a closed-form count per value over its own total, charged to the budget
by its support size, so no report lists S_n.  The kernels stay as the
independent oracle of the law at time t; the tests keep the count over all
of S_n as the stationary law's oracle.

A move is the same value in every part of a record: a card-choice move is
a card label, 0 for top-to-bottom (apply_move), and a riffle move is an
n-byte column of 0/1 values; a path is its moves concatenated.

A record's advance steps one lumped (deck, summary) state a move at a
time; only verify's one lumped count uses it.  The sampler
takes whole paths instead: a record draws seeded t-step paths, taking the
generator outputs random.Random's randrange, random and choice would take,
and its settle gives each path's lumped state in one pass.  Paths are
hashable: rtt paths are bytes of card labels below 256 cards (each card
read off an output's top byte) and tuples from 256 on, walk1 paths are
tuples (randrange inlined as getrandbits until below n), riffle paths are
bytes.

Each statistic and predicate kind maps to a rule of PARAMETER_RULES,
checked by validate_kind.  A statistic's kind is read once per request:
statistic_reader compiles it into a function of a deck, which
statistic_tally, the one loop over weighted decks, calls.  One closed form
per kind, _stationary_counts, gives the support size the budget is
charged, as factors it multiplies only as far as it must, and each
value's count over the law's own total, without evaluating anything.

Multi-step riffle strings record the earliest step's bit first.  One-shot
application must agree with composing single-bit steps, and a stable sort
makes the LAST step's bit most significant, so the sort key is the reversed
recorded string.  The composition property test pins this convention.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import itemgetter

from .budget import bounded_product, require_within_budget
from .dist import Distribution, Kernel, law_from_tally

MAX_DENSE_N = 8


# Decks and moves

def identity_deck(n: int) -> tuple:
    if n < 2:
        raise ValueError("deck needs at least 2 cards")
    return tuple(range(1, n + 1))


def apply_move(deck: tuple, card: int) -> tuple:
    """Move the card to the top, or the top card to the bottom when card is
    0; a bijection on decks for every fixed move."""
    if card == 0:
        return deck[1:] + deck[:1]
    try:
        i = deck.index(card)
    except ValueError:
        raise ValueError(f"unknown card label {card!r} for deck of {len(deck)}")
    return (card,) + deck[:i] + deck[i + 1:]


def _dense_kernel(name: str, n: int) -> Kernel:
    """One step of the named chain over the decks of S_n, listed once in
    permutations order: every branch applied with the chain's deck step to
    every deck, charged to the budget first as n! rows x one step's
    branches."""
    chain = CHAINS[name]
    if not 2 <= n <= MAX_DENSE_N:
        raise ValueError(f"dense kernels cover 2 <= n <= {MAX_DENSE_N}; n={n} needs sampler mode")
    require_within_budget(factorial(n) * chain.branch_count(n), f"dense kernel {name} n={n}",
                          "use a smaller n")
    moves, denom = chain.branches(n)
    decks = tuple(itertools.permutations(range(1, n + 1)))
    rows = {}
    for deck in decks:
        row: dict = {}
        for move, m in moves:
            target = chain.step(deck, move)
            row[target] = row.get(target, 0) + m
        rows[deck] = tuple(sorted((target, Fraction(m, denom)) for target, m in row.items()))
    return Kernel(decks, rows)


def random_to_top_kernel(n: int) -> Kernel:
    """Each of the n to-top moves with probability 1/n."""
    return _dense_kernel("rtt", n)


def walk1_kernel(n: int) -> Kernel:
    """To-top moves at 1/(2n) each plus top-to-bottom at 1/2."""
    return _dense_kernel("walk1", n)


def riffle_kernel(n: int) -> Kernel:
    """One single-bit inverse riffle step: 2^n equally likely bit columns."""
    return _dense_kernel("riffle", n)


# Inverse riffle

def inverse_riffle_apply(deck: tuple, strings: tuple) -> tuple:
    """Stable sort of the deck by per-card strings, reversed bit order.

    strings[c-1] is card c's recorded string, earliest step's bit first; all
    strings must share one length.  Ties keep the current relative order.
    """
    n = len(deck)
    if len(strings) != n:
        raise ValueError(f"{len(strings)} strings for {n} cards")
    t = len(strings[0])
    if any(len(s) != t for s in strings):
        raise ValueError("strings must share a common length")
    return tuple(sorted(deck, key=lambda c: strings[c - 1][::-1]))


def _riffle_step(deck: tuple, column: bytes) -> tuple:
    """The path oracle's riffle step: the column read as n one-bit strings."""
    return inverse_riffle_apply(deck, tuple("01"[b] for b in column))


# Statistic catalog

def _cards(least: int, most: int | None = None):
    """A rule's test: between least and most (no bound when None) distinct
    card labels in 1..n."""
    return lambda ps, n: (least <= len(ps) and (most is None or len(ps) <= most)
                          and len(set(ps)) == len(ps) and all(1 <= c <= n for c in ps))


# The parameter rules statistics and predicates share: rule -> (test of the
# parameters at deck size n, what a kind under the rule needs).
PARAMETER_RULES = {
    "none": (_cards(0, 0), "takes no parameters"),
    "k": (_cards(1, 1), "needs one parameter k with 1 <= k <= {n}"),
    "card": (_cards(1, 1), "needs one card label in 1..{n}"),
    "cards": (_cards(1), "needs distinct card labels in 1..{n}"),
    "ordered cards": (_cards(2), "needs at least two distinct card labels in 1..{n}"),
    "pair": (_cards(2, 2), "needs two distinct card labels in 1..{n}"),
    "divisor": (lambda ps, n: len(ps) == 1 and ps[0] >= 1 and n % ps[0] == 0,
                "needs one divisor of n={n}"),
    "recency": (lambda ps, n: len(ps) == 2 and 1 <= ps[0] <= n and 1 <= ps[1] < n,
                "needs a card in 1..{n} and k in 1..{below}"),
}

# statistic kind -> its parameter rule
STATISTIC_KINDS = {
    "top_card": "none", "top_k_order": "k", "top_k_set": "k", "position_of": "card",
    "positions_of": "cards", "parity": "none", "card_above": "card", "card_below": "card",
    "relative_order": "ordered cards", "distance": "pair", "block_sets": "divisor",
    "modular_hands": "divisor",
}

# predicate kind -> its parameter rule, one map per chain family
CHOICE_PREDICATES = {
    "k_distinct": "k", "all_chosen": "none", "card_chosen": "card", "any_of_chosen": "cards",
    "chosen_more_recently_than": "recency", "any_to_top": "none",
}
RIFFLE_PREDICATES = {
    "riffle_first_j_strings_distinct": "k",
    "riffle_set_strings_distinct": "cards",
    "riffle_blocks_nonoverlapping": "divisor",
}


@dataclass(frozen=True)
class Kind:
    """A statistic or predicate: a kind name and its integer parameters."""

    kind: str
    params: tuple

    def label(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_kind(text: str, kinds: dict, noun: str) -> Kind:
    """Parse the CLI grammar name[:p1,p2,...], e.g. top_k_order:2 or
    distance:1,5, for a name in kinds; noun names the grammar in errors."""
    name, _, arg = text.partition(":")
    if name not in kinds:
        raise ValueError(f"unknown {noun} {name!r}")
    params: tuple = ()
    if arg:
        try:
            params = tuple(int(p) for p in arg.split(","))
        except ValueError:
            raise ValueError(f"bad {noun} parameters {arg!r}")
    return Kind(name, params)


def validate_kind(kind: Kind, kinds: dict, n: int, noun: str) -> None:
    """Check the kind name against kinds (kind -> parameter rule), and its
    parameters against the rule at deck size n."""
    rule = kinds.get(kind.kind)
    if rule is None:
        raise ValueError(f"unknown {noun} kind {kind.kind!r}")
    accepts, needs = PARAMETER_RULES[rule]
    if not accepts(kind.params, n):
        raise ValueError(f"{kind.kind} {needs.format(n=n, below=n - 1)}")


def validate_statistic_kind(kind: Kind, n: int) -> None:
    """Check the kind name, and parameter ranges against a deck size n."""
    validate_kind(kind, STATISTIC_KINDS, n, "statistic")


def parse_statistic(text: str, n: int) -> Kind:
    """Parse a CLI statistic, e.g. top_k_order:2, valid for deck size n."""
    kind = parse_kind(text, STATISTIC_KINDS, "statistic")
    validate_statistic_kind(kind, n)
    return kind


def _parity(deck: tuple) -> str:
    inv = sum(
        1
        for i in range(len(deck))
        for j in range(i + 1, len(deck))
        if deck[i] > deck[j]
    )
    return "even" if inv % 2 == 0 else "odd"


def statistic_reader(kind: Kind):
    """The statistic, validated once by the caller, as a function of a deck.
    The kind and parameters are read here, once per request; values are
    hashable and canonical."""
    k, ps = kind.kind, kind.params
    if k == "top_card":
        return itemgetter(0)
    if k == "top_k_order":
        return itemgetter(slice(ps[0]))
    if k == "top_k_set":
        return lambda deck: tuple(sorted(deck[:ps[0]]))
    if k == "position_of":
        return lambda deck: deck.index(ps[0]) + 1
    if k == "positions_of":
        cards = sorted(ps)
        return lambda deck: tuple(deck.index(c) + 1 for c in cards)
    if k == "parity":
        return _parity
    if k in ("card_above", "card_below"):
        card, step = ps[0], -1 if k == "card_above" else 1  # "none" off either end
        return lambda deck: deck[i] if 0 <= (i := deck.index(card) + step) < len(deck) else "none"
    if k == "relative_order":
        chosen = set(ps)
        return lambda deck: tuple(c for c in deck if c in chosen)
    if k == "distance":
        a, b = ps
        return lambda deck: abs(deck.index(a) - deck.index(b))
    if k == "block_sets":
        b = ps[0]
        return lambda deck: tuple(tuple(sorted(deck[i:i + b])) for i in range(0, len(deck), b))
    if k == "modular_hands":
        m = ps[0]  # hand r holds the cards at 0-based positions r, r + m, ...
        return lambda deck: tuple(tuple(sorted(deck[r::m])) for r in range(m))
    raise AssertionError(k)


def evaluate_statistic(kind: Kind, deck: tuple):
    """The statistic, validated once by the caller, on one deck: its
    statistic_reader applied once."""
    return statistic_reader(kind)(deck)


def deck_statistic(n: int, kind: Kind):
    """The statistic, validated against deck size n, as a function of a
    deck (its statistic_reader), for the dense kernels' states."""
    validate_statistic_kind(kind, n)
    return statistic_reader(kind)


def statistic_tally(kind: Kind, weighted_decks) -> dict:
    """value -> total weight of the (deck, weight) pairs giving it, for a
    statistic validated by the caller and compiled here once.  The pairs
    may be a generator; they are read once and no deck is kept."""
    read = statistic_reader(kind)
    tally: dict = {}
    for deck, weight in weighted_decks:
        v = read(deck)
        tally[v] = tally.get(v, 0) + weight
    return tally


def _ordered_partitions(cards: tuple, size: int):
    """Every ordered partition of the cards into blocks of the given size,
    each block a sorted tuple."""
    if not cards:
        yield ()
        return
    for block in itertools.combinations(cards, size):
        rest = tuple(c for c in cards if c not in block)
        for tail in _ordered_partitions(rest, size):
            yield (block,) + tail


def _binomial(m: int, k: int):
    """C(m, k) as factors for bounded_product: (m - i)/(i + 1) for
    i < min(k, m - k), whose running products C(m, i + 1) never fall."""
    below = min(k, m - k)
    return map(Fraction, range(m, m - below, -1), range(1, below + 1))


def _stationary_counts(n: int, kind: Kind):
    """(support size, multiple, a thunk of the (value, count) pairs) in
    closed form, for a statistic validated once by the caller (n >= 2); the
    counts sum to the size times the multiple.  The size is the factors of
    its product, for bounded_product, so a request refused for its support
    size builds no huge number and lists no value."""
    k, ps = kind.kind, kind.params
    cards = range(1, n + 1)

    def each(size, values):  # values() lists them; one count each, over the support size
        return size, 1, lambda: zip(values(), itertools.repeat(1))

    if k in ("top_card", "position_of"):
        return each((n,), lambda: cards)
    if k in ("top_k_order", "positions_of"):
        # top k cards in order, or the positions of m cards: ordered m-tuples
        m = ps[0] if k == "top_k_order" else len(ps)
        return each(range(n - m + 1, n + 1), lambda: itertools.permutations(cards, m))
    if k == "top_k_set":
        return each(_binomial(n, ps[0]), lambda: itertools.combinations(cards, ps[0]))
    if k == "parity":
        return each((2,), lambda: ("even", "odd"))
    if k in ("card_above", "card_below"):
        # the card at the end, or glued to one other card
        return each((n,), lambda: ["none", *(c for c in cards if c != ps[0])])
    if k == "relative_order":
        return each(range(2, len(ps) + 1), lambda: itertools.permutations(ps))
    if k == "distance":
        # 2(n - d) of the n(n - 1) ordered position pairs lie d apart
        return (n - 1,), n, lambda: ((d, 2 * (n - d)) for d in cards[:-1])
    if k in ("block_sets", "modular_hands"):
        # n!/s!^(n/s) ordered partitions into blocks of s cards
        s = ps[0] if k == "block_sets" else n // ps[0]
        size = itertools.chain.from_iterable(_binomial(n - i, s) for i in range(0, n, s))
        return each(size, lambda: _ordered_partitions(tuple(cards), s))
    raise AssertionError(k)


def stationary_tally(n: int, kind: Kind) -> dict:
    """value -> its count in closed form (_stationary_counts), for a
    statistic validated once by the caller (n >= 2)."""
    return dict(_stationary_counts(n, kind)[2]())


def stationary_statistic_distribution(n: int, kind: Kind) -> Distribution:
    """Exact law of the statistic under the uniform deck: the closed-form
    counts (stationary_tally) over their total.  Charged to the budget as
    its support size, before any value is listed."""
    if n < 2:
        raise ValueError("deck needs at least 2 cards")
    validate_statistic_kind(kind, n)
    factors, multiple, _ = _stationary_counts(n, kind)
    size = bounded_product(factors)
    require_within_budget(size, f"stationary law of {kind.label()} n={n}",
                          "use a statistic with fewer values")
    return law_from_tally(stationary_tally(n, kind), size * multiple)


# Chains

@dataclass(frozen=True)
class Chain:
    """One shuffle chain, stated once; every per-chain choice reads it.

    A move has one encoding, shared by the branches, both steps and the
    seeded paths: a card-choice move is the chosen card's label, 0 for
    top-to-bottom; a riffle move is an n-byte column of 0/1 values, byte
    c - 1 for card c.  A path is its moves concatenated, earliest step
    first: the labels as bytes (rtt below 256 cards) or a tuple (rtt from
    256 cards, walk1), or the columns' bytes.
    """

    family: str  # how errors name the chains its predicates apply to
    predicates: dict  # its predicate family: kind -> parameter rule
    branch_count: Callable  # n -> one step's branch count, in closed form
    # n -> (moves, D): one step's moves as (move, multiplicity) pairs over a
    # common denominator D, so a move has probability Fraction(multiplicity, D)
    branches: Callable
    step: Callable  # (deck, move) -> deck, for the path oracle and dense kernels
    advance: Callable  # the lumped step (deck, summary, move) -> (deck, summary)
    start_summary: object  # the summary of the empty path
    paths: Callable  # (n, t, rng) -> endless seeded t-step paths
    settle: Callable  # (n, path) -> the (deck, summary) folding advance reaches


# The lumped steps of verify's one lumped count.  A None
# summary (the always predicate tracks none) stays None.  They, and the
# sampler's settles below, are written apart from apply_move and
# inverse_riffle_apply, which the path oracle uses, so that the routes
# share no step.

def _choice_advance(deck: tuple, summary, card: int) -> tuple:
    """Card-choice chains: the summary is the distinct chosen cards, most
    recent first."""
    if card == 0:
        return deck[1:] + deck[:1], summary
    i = deck.index(card)
    deck = (card,) + deck[:i] + deck[i + 1:]
    if summary is not None:
        j = summary.index(card) if card in summary else len(summary)
        summary = (card,) + summary[:j] + summary[j + 1:]
    return deck, summary


def _riffle_advance(deck: tuple, summary, column: bytes) -> tuple:
    """Inverse riffle: bit i of the summary is set when positions i and i+1
    hold different reversed strings (sort keys), so two cards share a key
    exactly when no set bit lies between them.  The step is a stable
    partition, zeros above ones, and two cards that end up adjacent share
    a key when they drew the same bit and shared one before."""
    groups = ([], [])
    masks = [0, 0]  # the split bits inside each group, from its top
    split = [False, False]  # a set bit since the group's last card
    splits = (summary or 0) << 1
    for c in deck:
        if splits & 1:
            split[0] = split[1] = True
        splits >>= 1
        g = column[c - 1]
        if split[g] and groups[g]:
            masks[g] |= 1 << (len(groups[g]) - 1)
        split[g] = False
        groups[g].append(c)
    zeros, ones = groups
    if summary is None:
        return tuple(zeros + ones), None
    boundary = 1 << (len(zeros) - 1) if zeros and ones else 0
    return tuple(zeros + ones), masks[0] | boundary | masks[1] << len(zeros)


# The seeded paths: these draws, in this order, fix every sampled payload.
# They are the generator outputs random.Random's own calls would take.
# randrange(n) takes 32-bit outputs w until r = w >> (32 - n.bit_length())
# falls below n, that is until w < n << (32 - n.bit_length()).  For n < 256
# the top byte b of w decides alone: the draw is b >> (8 - n.bit_length()),
# rejected exactly when b >= n << (8 - n.bit_length()), so one bytes
# translate reads a whole block; choice("01") is randrange(2).  walk1's
# randrange(n) is inlined as random.Random's own: getrandbits(n.bit_length())
# until below n.  One getrandbits(32 * words) call, read as little-endian
# bytes, holds the next outputs in the order they were made, on any
# platform.  A path is its record's moves concatenated (see Chain): bytes
# for the riffle and for rtt below 256 cards, else a tuple of labels.

_BLOCK_WORDS = 512  # generator outputs per getrandbits call, at least


def _output_blocks(rng, length: int):
    """The generator's 32-bit outputs as little-endian bytes, a block per
    getrandbits call.  A block holds at least two outputs per draw of a
    length-long path, so cutting paths copies each draw a bounded number
    of times on average."""
    words = max(_BLOCK_WORDS, 2 * length)
    while True:
        yield rng.getrandbits(32 * words).to_bytes(4 * words, "little")


def _byte_blocks(n: int, rng, length: int, first: int):
    """Blocks of the values rng.randrange(n) + first would draw, in order,
    one byte each, read off each output's top byte (n + first <= 256)."""
    shift = 8 - n.bit_length()
    values = bytes(((b >> shift) + first) % 256 for b in range(256))  # rejected ones may wrap
    rejected = bytes(range(n << shift, 256))
    for block in _output_blocks(rng, length):
        yield block[3::4].translate(values, rejected)


def _card_blocks(n: int, rng, length: int):
    """Blocks of the cards rng.randrange(n) + 1 would draw, in order: bytes
    for n < 256, else tuples read off whole words."""
    if n < 256:
        return _byte_blocks(n, rng, length, 1)
    shift = 32 - n.bit_length()
    bound = n << shift
    blocks = (struct.unpack(f"<{len(b) // 4}I", b) for b in _output_blocks(rng, length))
    return (tuple([(w >> shift) + 1 for w in words if w < bound]) for words in blocks)


def _cut(blocks, length: int, rest):
    """Endless consecutive length-long paths from the draws the blocks hold,
    in order, each block cut by one comprehension; rest is the empty path."""
    if not length:
        while True:
            yield rest
    for block in blocks:
        draws = rest + block
        whole = len(draws) - len(draws) % length
        yield from [draws[i:i + length] for i in range(0, whole, length)]
        rest = draws[whole:]


def _rtt_paths(n: int, t: int, rng):
    return _cut(_card_blocks(n, rng, t), t, b"" if n < 256 else ())


def _walk1_paths(n: int, t: int, rng):
    random, getrandbits = rng.random, rng.getrandbits
    k = n.bit_length()  # not (n - 1).bit_length(): a power of two rejects half, as randrange does
    while True:
        path = []
        for _ in range(t):
            if random() < 0.5:
                path.append(0)
            else:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                path.append(r + 1)
        yield tuple(path)


def _riffle_paths(n: int, t: int, rng):
    # the bits int(rng.choice("01")) would draw: randrange(2)
    return _cut(_byte_blocks(2, rng, n * t, 0), n * t, b"")


# Each settle gives the (deck, summary) folding the record's advance over
# a whole path from the identity deck and the start summary reaches.

def _rtt_settle(n: int, cards) -> tuple:
    """The deck is the recency tuple of the chosen cards, then the unchosen
    cards in label order; the summary is the recency tuple."""
    deck = tuple(dict.fromkeys([*reversed(cards), *range(1, n + 1)]))
    return deck, deck[:len(set(cards))]


def _walk1_settle(n: int, path) -> tuple:
    """The path replayed on a list; the summary is the recency tuple."""
    deck = list(range(1, n + 1))
    for card in path:
        if card:
            deck.remove(card)
            deck.insert(0, card)
        else:
            deck.append(deck.pop(0))
    chosen = dict.fromkeys(reversed(path))
    chosen.pop(0, None)
    return tuple(deck), tuple(chosen)


def _riffle_settle(n: int, bits) -> tuple:
    """t inverse riffles from the identity sort it stably by each card's
    bits, most recent first (Bayer and Diaconis 1992); summary bit i is set
    where positions i and i + 1 hold different keys."""
    recent_first = bits[::-1]
    keys = {c: recent_first[n - c::n] for c in range(1, n + 1)}
    deck = tuple(sorted(keys, key=keys.__getitem__))
    return deck, sum(1 << i for i in range(n - 1) if keys[deck[i]] != keys[deck[i + 1]])


class _ChainTable(dict):
    """A chain name's record; an unknown name is a ValueError."""

    def __missing__(self, name):
        raise ValueError(f"unknown chain {name!r}; expected one of {tuple(self)}")


CHAINS = _ChainTable({
    # the n to-top moves, 1 each, D = n
    "rtt": Chain("card-choice chains", CHOICE_PREDICATES, lambda n: n,
                 lambda n: ([(card, 1) for card in range(1, n + 1)], n),
                 apply_move, _choice_advance, (), _rtt_paths, _rtt_settle),
    # the n to-top moves, 1 each, and top-to-bottom with n, D = 2n
    "walk1": Chain("card-choice chains", CHOICE_PREDICATES, lambda n: n + 1,
                   lambda n: ([(card, 1) for card in range(1, n + 1)] + [(0, n)], 2 * n),
                   apply_move, _choice_advance, (), _walk1_paths,
                   _walk1_settle),
    # the 2^n bit columns, 1 each, D = 2^n
    "riffle": Chain("the riffle chain", RIFFLE_PREDICATES, lambda n: 2 ** n,
                    lambda n: ([(bytes(col), 1) for col in itertools.product((0, 1), repeat=n)],
                               2 ** n),
                    _riffle_step, _riffle_advance, 0, _riffle_paths, _riffle_settle),
})
