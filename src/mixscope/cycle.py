"""Two-colored cycles: alternating decomposition and lazy-walk color mixing.

A coloring marks the 2n vertices of a cycle red or blue, n of each.  The
alternating number k is max minus min of the running red-minus-blue count
around the cycle; it is rotation invariant and equals the least number of
alternating sets (sets whose members strictly alternate in color around the
cycle) needed to partition the vertices.

alternating_decomposition builds such a partition: rotate the start to the
first global minimum of the running count (so prefixes never go negative
and the first vertex is red), index reds and blues in visit order, and give
set i every red and blue whose index is congruent to i mod k.

The lazy walk moves left or right with probability 1/4 each and stays put
otherwise.  Its color law comes from one integer sweep: with counts c over
4^t, c'(v) = c(v-1) + 2c(v) + c(v+1), so the red mass at every t up to the
horizon is an integer over 4^t, read off as the sweep goes.  Separation
from fair (1/2, 1/2) and the red-dominance margin are both built from it.
For coverage bookkeeping each lazy step is refined into two
half-steps on half-unit positions (even = vertex, odd = edge midpoint):
vertex to an adjacent edge, then to a vertex.  The walk's visited range is
an interval of half-units; midpoints of an alternating set are half-unit
positions halfway between consecutive members on the member-free arc.

coverage_time_tail computes Pr(T > t) exactly, where T is the first refined
time the visited interval holds at least one midpoint of every set of the
decomposition.  Two companion tails are provided: vertex_count_tail stops
when 2k-1 distinct vertices have been visited, and distance_moved_tail
stops when the walk has moved 2k-1 vertices from its start.  The distance
condition implies midpoint coverage (consecutive midpoints of any set are
at most 2k-1 vertices apart), so the coverage tail is pointwise at most the
distance tail.  Whether exact color separation is bounded by the coverage
tail is checked, not assumed; see scripts/sweep_cycle_bounds.py for the
systematic comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .budget import require_within_budget
from .dist import Distribution, Kernel, Statistic

RED = "R"
BLUE = "B"


def parse_coloring(source) -> tuple:
    """Coloring from a string over {R,B} (case-insensitive) or a sequence."""
    if isinstance(source, str):
        marks = tuple(ch.upper() for ch in source.strip())
    else:
        marks = tuple(str(ch).upper() for ch in source)
    if any(m not in (RED, BLUE) for m in marks):
        raise ValueError(f"coloring must use only R and B, got {source!r}")
    validate_coloring(marks)
    return marks


def validate_coloring(coloring: tuple) -> None:
    size = len(coloring)
    if size < 2 or size % 2 != 0:
        raise ValueError(f"coloring needs even length >= 2, got {size}")
    reds = sum(1 for m in coloring if m == RED)
    if reds * 2 != size:
        raise ValueError(
            f"unbalanced coloring: {reds} red vs {size - reds} blue marks"
        )


def compute_k(coloring: tuple) -> int:
    """Alternating number: max minus min of the running R-B count.

    The running count starts at 0 before any vertex; including that start
    makes the value rotation invariant.
    """
    validate_coloring(coloring)
    s = 0
    lo = hi = 0
    for m in coloring:
        s += 1 if m == RED else -1
        lo = min(lo, s)
        hi = max(hi, s)
    return hi - lo


@dataclass(frozen=True)
class AlternatingSet:
    """Vertices, in cyclic order, whose colors strictly alternate."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2 or len(self.members) % 2 != 0:
            raise ValueError("alternating set needs even cardinality >= 2")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members")


def check_alternating(coloring: tuple, members: tuple) -> bool:
    """Do the members' colors strictly alternate around the cycle?"""
    ordered = sorted(members)
    return all(
        coloring[ordered[i]] != coloring[ordered[(i + 1) % len(ordered)]]
        for i in range(len(ordered))
    )


def alternating_decomposition(coloring: tuple) -> list:
    """Partition the vertices into exactly k alternating sets.

    Rotate the traversal to start right after the first global minimum of
    the running R-B count; from there prefix counts never go negative and
    the first vertex is red.  Reds and blues are indexed in visit order and
    set i takes those with index congruent to i mod k.
    """
    validate_coloring(coloring)
    size = len(coloring)
    k = compute_k(coloring)
    prefix = [0]
    for m in coloring:
        prefix.append(prefix[-1] + (1 if m == RED else -1))
    lowest = min(prefix[:size])
    start = prefix[:size].index(lowest)
    order = [(start + j) % size for j in range(size)]
    reds = [v for v in order if coloring[v] == RED]
    blues = [v for v in order if coloring[v] == BLUE]
    return [
        AlternatingSet(tuple(sorted(reds[i::k] + blues[i::k])))
        for i in range(k)
    ]


def cyclic_distance(a: int, b: int, size: int) -> int:
    d = (a - b) % size
    return min(d, size - d)


def max_gap(aset: AlternatingSet, cycle_size: int) -> int:
    """Largest cyclic distance between consecutive members."""
    members = sorted(aset.members)
    if not members:
        raise ValueError("empty set")
    return max(
        (members[(i + 1) % len(members)] - members[i]) % cycle_size
        for i in range(len(members))
    )


def midpoints(aset: AlternatingSet, cycle_size: int) -> tuple:
    """Half-unit positions halfway between consecutive members.

    Half-units live on a circle of size 2 * cycle_size: even values are
    vertices, odd values are edge midpoints.  Each consecutive pair yields
    the midpoint of its member-free arc; a two-member set yields one
    midpoint per arc.
    """
    members = sorted(aset.members)
    out = []
    for i in range(len(members)):
        u = members[i]
        w = members[(i + 1) % len(members)]
        d = (w - u) % cycle_size
        out.append((2 * u + d) % (2 * cycle_size))
    return tuple(sorted(out))


def lazy_cycle_kernel(size: int) -> Kernel:
    """Lazy walk on a cycle: left 1/4, right 1/4, stay 1/2."""
    if size < 3:
        raise ValueError("cycle needs at least 3 vertices")
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    rows = {
        v: (((v - 1) % size, quarter), (v, half), ((v + 1) % size, quarter))
        for v in range(size)
    }
    rows = {v: tuple(sorted(row)) for v, row in rows.items()}
    return Kernel(tuple(range(size)), rows)


def color_statistic(coloring: tuple) -> Statistic:
    return Statistic("color", lambda v: coloring[v])


def fair_coloring_target() -> Distribution:
    return Distribution.exact({BLUE: Fraction(1, 2), RED: Fraction(1, 2)})


def exact_color_separation(coloring: tuple, x0: int, t: int) -> Fraction:
    """Separation of the walker's color law at time t from fair (1/2, 1/2)."""
    return separation_profile(coloring, x0, t)[t]


def _red_counts(coloring: tuple, x0: int, horizon: int) -> list:
    """Red mass of the lazy walk from x0 at t = 0..horizon, as integers over 4^t.

    One sweep of integer counts, c'(v) = c(v-1) + 2c(v) + c(v+1), charged
    to the budget as vertices x 3 moves x steps.
    """
    size = len(coloring)
    if not 0 <= x0 < size:
        raise ValueError(f"x0 must be a vertex in 0..{size - 1}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if size < 3:
        raise ValueError("cycle needs at least 3 vertices")
    require_within_budget(size * 3 * horizon, f"lazy walk on {size} vertices to t={horizon}",
                          "use a shorter horizon")
    reds = [v for v in range(size) if coloring[v] == RED]
    counts = [0] * size
    counts[x0] = 1
    out = [counts[x0] if coloring[x0] == RED else 0]
    for _ in range(horizon):
        counts = [counts[v - 1] + 2 * counts[v] + counts[(v + 1) % size] for v in range(size)]
        out.append(sum(counts[v] for v in reds))
    return out


def separation_profile(coloring: tuple, x0: int, horizon: int):
    """Exact color separation at every t in 0..horizon, from one integer sweep.

    The target is fair, so separation is 1 - 2 min(red, blue) / 4^t.
    """
    validate_coloring(coloring)
    out = []
    for t, red in enumerate(_red_counts(coloring, x0, horizon)):
        total = 4 ** t
        out.append(Fraction(total - 2 * min(red, total - red), total))
    return out


def _decomposition_members(coloring: tuple, sets) -> list:
    """Normalize an optional explicit partition to member tuples.

    sets may be AlternatingSets or member sequences; None means the
    canonical decomposition.  Explicit sets must partition the vertices and
    strictly alternate.
    """
    if sets is None:
        return [a.members for a in alternating_decomposition(coloring)]
    out = []
    for s in sets:
        members = tuple(sorted(s.members if isinstance(s, AlternatingSet) else s))
        AlternatingSet(members)
        if not check_alternating(coloring, members):
            raise ValueError(f"set {members} does not alternate")
        out.append(members)
    flat = sorted(v for members in out for v in members)
    if flat != list(range(len(coloring))):
        raise ValueError("sets do not partition the cycle's vertices")
    return out


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
        return [Fraction(0)] * (horizon + 1)
    alive = {(0, 0, 0): 1}
    tails = [Fraction(1)]
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
        tails.append(Fraction(sum(alive.values()), 4 ** t))
    return tails


def coverage_time_tail(coloring: tuple, x0: int, horizon: int, sets=None):
    """Pr(T > t) for T = first refined time the visited interval contains a
    midpoint of every set of the decomposition, t = 0..horizon lazy steps.

    sets overrides the canonical decomposition with an explicit alternating
    partition; for a two-member set either of its midpoints qualifies.
    """
    members = _decomposition_members(coloring, sets)
    size = len(coloring)
    half_size = 2 * size
    h0 = 2 * x0
    midpoint_sets = [set(midpoints(AlternatingSet(m), size)) for m in members]
    cache: dict = {}

    def absorbed(l, r):
        key = (l, r)
        hit = cache.get(key)
        if hit is None:
            if r - l + 1 >= half_size:
                hit = True
            else:
                window = {(h0 + i) % half_size for i in range(l, r + 1)}
                hit = all(ms & window for ms in midpoint_sets)
            cache[key] = hit
        return hit

    return _halfstep_tail(coloring, x0, horizon, absorbed)


def vertex_count_tail(coloring: tuple, x0: int, horizon: int):
    """Pr(T > t) for T = first refined time 2k-1 distinct vertices have been
    visited.  Reported for comparison; never used as a certificate."""
    size = len(coloring)
    k = compute_k(coloring)
    need = 2 * k - 1

    def absorbed(l, r):
        if r - l + 1 >= 2 * size:
            return size >= need
        # start position is a vertex, so even offsets are vertices
        seen = r // 2 - (l + 1) // 2 + 1
        return seen >= need

    return _halfstep_tail(coloring, x0, horizon, absorbed)


def distance_moved_tail(coloring: tuple, x0: int, horizon: int):
    """Pr(T > t) for T = first refined time the walk sits 2k-1 vertices from
    its start.  Reaching that distance forces midpoint coverage of every
    set, so this tail pointwise dominates coverage_time_tail."""
    k = compute_k(coloring)
    need = 2 * (2 * k - 1)

    def absorbed(l, r):
        return r >= need or -l >= need

    return _halfstep_tail(coloring, x0, horizon, absorbed)


def reflection_balance(coloring: tuple, aset, x0: int, horizon: int):
    """Per lazy time t, the exact masses of (crossed a midpoint of the set
    and currently on a red member, likewise blue).

    The reflection heuristic predicts the two masses agree at every t; this
    computes them so the prediction can be checked rather than assumed.
    """
    members = tuple(sorted(aset.members if isinstance(aset, AlternatingSet) else aset))
    validate_coloring(coloring)
    size = len(coloring)
    half_size = 2 * size
    mids = set(midpoints(AlternatingSet(members), size))
    member_set = set(members)
    h0 = 2 * x0
    alive = {(h0, h0 in mids): 1}

    def masses(state_counts, denom):
        red = blue = 0
        for (pos, crossed), count in state_counts.items():
            if not crossed or pos % 2 != 0 or pos // 2 not in member_set:
                continue
            if coloring[pos // 2] == RED:
                red += count
            else:
                blue += count
        return Fraction(red, denom), Fraction(blue, denom)

    out = [masses(alive, 1)]
    for t in range(1, horizon + 1):
        for _ in range(2):
            nxt: dict = {}
            for (pos, crossed), count in alive.items():
                for pos2 in ((pos - 1) % half_size, (pos + 1) % half_size):
                    key = (pos2, crossed or pos2 in mids)
                    nxt[key] = nxt.get(key, 0) + count
            alive = nxt
        out.append(masses(alive, 4 ** t))
    return out


def gambler_moments(k: int):
    """Exact mean and variance, in lazy steps, of the time to first move
    2k-1 vertices from the start: 2(2k-1)^2 and (4/3)((2k-1)^4 - (2k-1)^2)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    d = 2 * k - 1
    return Fraction(2 * d * d), Fraction(4, 3) * (d ** 4 - d * d)


def chebyshev_time(k: int, c: float) -> float:
    """(8 + 8c/sqrt(3)) * k^2 lazy steps; paired guarantee: separation at or
    beyond this time is at most 1/c^2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if c <= 0:
        raise ValueError("c must be positive")
    return (8 + 8 * c / sqrt(3)) * k * k


@dataclass(frozen=True)
class NearestReport:
    """Nearest member of one set to the start vertex."""

    members: tuple
    distance: int
    color: str | None  # None when tied members disagree in color
    nearest: tuple


@dataclass(frozen=True)
class DominanceReport:
    coloring: tuple
    x0: int
    horizon: int
    sets: tuple
    nearest: tuple
    precondition_holds: bool
    failing_sets: tuple
    dominance_holds: bool | None
    min_margin: Fraction | None
    argmin_t: int | None


def check_red_dominance(coloring: tuple, x0: int, horizon: int, sets=None) -> DominanceReport:
    """Is the walk at least as likely red as blue at every time up to horizon?

    Precondition: in every set of the partition, the member nearest to x0
    is red.  Ties between differently colored members leave the nearest
    color undefined; such sets are reported and no claim is made.  When the
    precondition holds the dominance margin Pr(red at t) - 1/2 is computed
    exactly for every t <= horizon, from the same integer sweep as
    separation_profile, and its minimum reported.
    """
    members_list = _decomposition_members(coloring, sets)
    size = len(coloring)
    if not 0 <= x0 < size:
        raise ValueError(f"x0 must be a vertex in 0..{size - 1}")
    nearest_reports = []
    failing = []
    for idx, members in enumerate(members_list):
        best = min(cyclic_distance(v, x0, size) for v in members)
        at_best = tuple(v for v in members if cyclic_distance(v, x0, size) == best)
        colors = {coloring[v] for v in at_best}
        color = colors.pop() if len(colors) == 1 else None
        nearest_reports.append(NearestReport(tuple(members), best, color, at_best))
        if color != RED:
            failing.append(idx)
    precondition = not failing
    if not precondition:
        return DominanceReport(
            coloring, x0, horizon, tuple(tuple(m) for m in members_list),
            tuple(nearest_reports), False, tuple(failing), None, None, None,
        )
    min_margin = None
    argmin_t = None
    for t, red in enumerate(_red_counts(coloring, x0, horizon)):
        margin = Fraction(2 * red - 4 ** t, 2 * 4 ** t)
        if min_margin is None or margin < min_margin:
            min_margin, argmin_t = margin, t
    holds = min_margin >= 0
    return DominanceReport(
        coloring, x0, horizon, tuple(tuple(m) for m in members_list),
        tuple(nearest_reports), True, (), holds, min_margin, argmin_t,
    )


def has_alternating_partition(coloring: tuple, parts: int) -> bool:
    """Exhaustive search: can the vertices split into `parts` nonempty
    alternating sets?  Backtracking with first-use symmetry breaking; used
    to confirm the decomposition's minimality on small cycles."""
    validate_coloring(coloring)
    size = len(coloring)
    if parts <= 0:
        return False
    if parts * 2 > size:
        return False
    first: list = [None] * parts
    last: list = [None] * parts
    count = [0] * parts

    def backtrack(v: int, used: int) -> bool:
        if v == size:
            return used == parts and all(
                count[s] % 2 == 0 and coloring[first[s]] != coloring[last[s]]
                for s in range(parts)
            )
        # unopened sets need 2 vertices each, odd-count sets 1 more
        deficit = (parts - used) * 2 + sum(count[s] % 2 for s in range(used))
        if deficit > size - v:
            return False
        cap = min(used + 1, parts)
        for s in range(cap):
            if count[s] and coloring[last[s]] == coloring[v]:
                continue
            prev_last = last[s]
            if count[s] == 0:
                first[s] = v
            last[s] = v
            count[s] += 1
            if backtrack(v + 1, max(used, s + 1)):
                return True
            count[s] -= 1
            last[s] = prev_last
            if count[s] == 0:
                first[s] = None
        return False

    return backtrack(0, 0)
