"""Exact finite probability distributions, kernels, and separation distance.

A Distribution is an ordered finite support together with one exact
Fraction weight per state; there is no approximate mode (the CLI's --float
converts weights only when it renders a report).  Zero-weight states are
retained when they come from a declared universe: separation distance
detects missing mass only if the missing states are present in the support.

Separation distance is sep(mu, pi) = max over states a of 1 - mu(a)/pi(a),
the one-sided distance that strong-stationarity arguments bound.  It
dominates total variation, is 0 exactly when mu = pi, and is 1 exactly when
some pi-positive state carries no mu-mass.

A Kernel is a finite state space with one exact transition row per state,
and the common denominator D of all its probabilities.  evolve pushes an
exact distribution through t steps of a kernel with integer counts: the
start is scaled to integers over the lcm d0 of its denominators, each step
multiplies by integer multiplicities over D, and the one division, by
d0 * D^t, happens when the result is built.  push_forward maps a
distribution through a statistic.  law_from_tally builds every law that
comes from a tally of values, in the one canonical value order, and raises
InvariantError (a program bug, exit code 4) when the tally misses the
total it was built against.  All are pure and deterministic, so results
are reproducible bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence


class InvariantError(RuntimeError):
    """An exact computation broke one of its own invariants (a program bug)."""


def _canon_key(value):
    """Deterministic sort key across the value types statistics produce."""
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(_canon_key(v) for v in value))
    return (3, repr(value))


@dataclass(frozen=True)
class Distribution:
    """Finite distribution: ordered support, one exact weight per state."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support identifiers must be distinct")
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if any(w < 0 for w in ws):
            raise ValueError("negative weight")
        if sum(ws) != 1:
            raise ValueError(f"weights sum to {sum(ws)}, not 1")

    @classmethod
    def exact(cls, items: Mapping | Iterable) -> "Distribution":
        """Build an exact distribution from a mapping or (state, weight) pairs."""
        pairs = list(items.items()) if isinstance(items, Mapping) else list(items)
        return cls(tuple(s for s, _ in pairs), tuple(Fraction(w) for _, w in pairs))

    @classmethod
    def point_mass(cls, state, universe: Sequence | None = None) -> "Distribution":
        """Unit mass on state; a universe adds the other states with weight 0."""
        if universe is None:
            return cls((state,), (Fraction(1),))
        if state not in universe:
            raise ValueError("state not in declared universe")
        return cls(
            tuple(universe),
            tuple(Fraction(1) if s == state else Fraction(0) for s in universe),
        )

    @classmethod
    def uniform(cls, states: Sequence) -> "Distribution":
        states = tuple(states)
        w = Fraction(1, len(states))
        return cls(states, (w,) * len(states))

    def weight(self, state) -> Fraction:
        try:
            i = self.support.index(state)
        except ValueError:
            return Fraction(0)
        return self.weights[i]

    def as_mapping(self) -> dict:
        return dict(zip(self.support, self.weights))


@dataclass(frozen=True)
class Kernel:
    """Finite transition kernel: per state, exact (target, probability) rows.

    denominator is the lcm D of every probability's denominator, so each
    probability is an integer multiplicity over D.
    """

    states: tuple
    rows: Mapping
    denominator: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        rows = {s: tuple((t, Fraction(p)) for t, p in self.rows[s]) for s in self.states}
        object.__setattr__(self, "rows", rows)
        denom = lcm(*{p.denominator for row in rows.values() for _, p in row})
        object.__setattr__(self, "denominator", denom)
        state_set = set(self.states)
        for s, row in rows.items():
            scaled = sum(p.numerator * (denom // p.denominator) for _, p in row)
            if scaled != denom:
                raise ValueError(f"row of {s!r} sums to {Fraction(scaled, denom)}, not 1")
            if any(p < 0 for _, p in row):
                raise ValueError(f"row of {s!r} has a negative probability")
            if any(t not in state_set for t, _ in row):
                raise ValueError(f"row of {s!r} targets a state outside the space")


def separation_distance(mu: Distribution, pi: Distribution) -> Fraction:
    """max over a of 1 - mu(a)/pi(a), as an exact Fraction.

    Requires every mu-positive state to lie in pi's support (otherwise the
    supports are incomparable) and pi to be positive on the states it shares
    with mu.
    """
    pi_map = pi.as_mapping()
    for s, w in zip(mu.support, mu.weights):
        if w > 0 and s not in pi_map:
            raise ValueError(f"incomparable supports: state {s!r} outside pi's support")
        if s in pi_map and pi_map[s] == 0:
            raise ValueError(f"pi has zero weight on shared state {s!r}")
    mu_map = mu.as_mapping()
    best = None
    for s, p in pi_map.items():
        if p == 0:
            continue
        gap = 1 - mu_map.get(s, Fraction(0)) / p
        if best is None or gap > best:
            best = gap
    if best is None:
        raise ValueError("pi carries no mass")
    return best


def total_variation(mu: Distribution, pi: Distribution) -> Fraction:
    """Half the total absolute weight difference over the union of supports."""
    mu_map, pi_map = mu.as_mapping(), pi.as_mapping()
    zero = Fraction(0)
    states = set(mu_map) | set(pi_map)
    total = sum(abs((mu_map.get(s, zero)) - (pi_map.get(s, zero))) for s in states)
    return total / 2


def push_forward(mu: Distribution, f) -> Distribution:
    """Distribution of f(X) for X ~ mu, over the image of mu's support.

    Values whose whole preimage has weight zero are retained, so pushing a
    zero-padded distribution keeps the full image as the declared universe.
    """
    acc: dict = {}
    for s, w in zip(mu.support, mu.weights):
        try:
            v = f(s)
        except Exception as exc:
            raise ValueError(f"statistic undefined on state {s!r}") from exc
        acc[v] = acc.get(v, Fraction(0)) + w
    return law_from_tally(acc, 1)


def law_from_tally(tally: Mapping, total) -> Distribution:
    """The law giving each tallied value weight tally[value] / total, over
    the tallied values in canonical order.  total must be the tallies' sum;
    mixscope builds every tally itself, so a mismatch is an InvariantError."""
    mass = sum(tally.values())
    if mass != total:
        raise InvariantError(f"tally sums to {mass}, not {total}")
    values = sorted(tally, key=_canon_key)
    return Distribution(tuple(values), tuple(Fraction(tally[v], total) for v in values))


def evolve(kernel: Kernel, mu: Distribution, t: int) -> Distribution:
    """Exact law after t kernel steps from mu, over the kernel's full state space.

    Counts stay integers throughout: mu scaled by the lcm d0 of its weight
    denominators, then one integer multiplicity per kernel entry over the
    kernel's denominator D.  Each state's row is converted to multiplicities
    the first time the walk reaches it, and the only division, by d0 * D^t,
    builds the returned weights.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    state_set = set(kernel.states)
    for s, w in zip(mu.support, mu.weights):
        if w > 0 and s not in state_set:
            raise ValueError(f"mu puts mass on {s!r}, outside the kernel's space")
    start = [(s, w) for s, w in zip(mu.support, mu.weights) if w > 0]
    d0 = lcm(*(w.denominator for _, w in start))
    counts = {s: w.numerator * (d0 // w.denominator) for s, w in start}
    denom = kernel.denominator
    multiplicities: dict = {}
    for _ in range(t):
        nxt: dict = {}
        for s, count in counts.items():
            row = multiplicities.get(s)
            if row is None:
                row = multiplicities[s] = tuple(
                    (target, p.numerator * (denom // p.denominator))
                    for target, p in kernel.rows[s] if p
                )
            for target, m in row:
                nxt[target] = nxt.get(target, 0) + count * m
        counts = nxt
    total = d0 * denom ** t
    zero = Fraction(0)
    return Distribution(
        kernel.states,
        tuple(Fraction(counts[s], total) if s in counts else zero for s in kernel.states),
    )


# JSON serialization.  Exact weights render as "num/den" with an explicit
# denominator so the format is uniform; states map tuples to arrays.
# Python refuses str() and int() on integers longer than a few thousand
# digits (sys.get_int_max_str_digits), so long integers are converted in
# pieces well below that limit, splitting at a power of ten.

_PIECE_DIGITS = 2000
_PIECE_BITS = 6600  # 2^6600 has 1,987 digits, under _PIECE_DIGITS


def _int_to_str(n: int) -> str:
    """Decimal digits of n, of any length; str(n) when n is short."""
    if n < 0:
        return "-" + _int_to_str(-n)
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    # 10^half <= 2^(bits-1) <= n, so the high part is nonzero
    half = (n.bit_length() - 1) * 30102 // 100000 // 2
    high, low = divmod(n, 10 ** half)
    return _int_to_str(high) + _int_to_str(low).zfill(half)


def _str_to_int(digits: str) -> int:
    """int(digits) for an unsigned decimal string of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _str_to_int(digits[:-half]) * 10 ** half + _str_to_int(digits[-half:])


_RATIONAL = re.compile(r"\s*(-?)(\d+)(?:/(\d+))?\s*")


def format_rational(x: Fraction) -> str:
    f = Fraction(x)
    return f"{_int_to_str(f.numerator)}/{_int_to_str(f.denominator)}"


def parse_rational(s: str) -> Fraction:
    match = _RATIONAL.fullmatch(s)
    if match is None:
        return Fraction(s)  # other forms Fraction accepts, such as "0.25"
    sign, num, den = match.groups()
    value = Fraction(_str_to_int(num), _str_to_int(den) if den else 1)
    return -value if sign else value


def state_to_json(state):
    if isinstance(state, tuple):
        return [state_to_json(v) for v in state]
    if isinstance(state, Fraction):
        return format_rational(state)
    return state


def state_from_json(obj):
    if isinstance(obj, list):
        return tuple(state_from_json(v) for v in obj)
    return obj


def distribution_to_json(d: Distribution) -> dict:
    return {
        "support": [state_to_json(s) for s in d.support],
        "weights": [format_rational(w) for w in d.weights],
        "mode": "exact",
    }


def distribution_from_json(obj: Mapping) -> Distribution:
    """Read back an exact payload; a float rendering (--float) is lossy and
    is refused."""
    if obj["mode"] != "exact":
        raise ValueError(f"cannot read a {obj['mode']!r} distribution back exactly")
    support = tuple(state_from_json(s) for s in obj["support"])
    return Distribution(support, tuple(parse_rational(w) for w in obj["weights"]))
