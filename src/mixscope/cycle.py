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
otherwise.  Every exact number here counts integer paths over 4^t, with
each lazy step refined into two half-steps on half-unit positions (even =
vertex, odd = edge midpoint): vertex to an adjacent edge, then to a vertex.
The walk's visited range is an interval of half-units; midpoints of an
alternating set are half-unit positions halfway between consecutive
members on the member-free arc.  The color law reads the red vertices off
two tables of the cycle's size (vertex to edge, edge to vertex), so
Pr(red) - Pr(blue) at every t up to the horizon is an integer over 4^t.
Separation from fair (1/2, 1/2) is its absolute value and the
red-dominance margin its half.

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

Every count, the color law's and the reflection balance's included, comes
from one sweep, _sweep, over fixed state tables.  The distance walk is
killed the first time it sits 2(2k-1) half-units from its start, so its
position alone is the state: the table is a strip.  Coverage and vertex
count depend on the whole visited window [l, r], so _halfstep_tail numbers
every (window, position) state.  Every tail is charged to the budget before
it starts: its states x 2 moves x 2 * horizon half-steps.  The windows'
states are counted in closed form before any window is listed, so a
refused tail costs almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from operator import add, itemgetter

from .budget import require_within_budget
from .dist import Distribution, Kernel

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


def _sorted_members(members) -> tuple:
    """The members of a set of the cycle, sorted: an even number >= 2 of
    distinct vertices, or ValueError."""
    ordered = tuple(sorted(members))
    if len(ordered) < 2 or len(ordered) % 2 != 0:
        raise ValueError("alternating set needs even cardinality >= 2")
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate members")
    return ordered


def check_alternating(coloring: tuple, members: tuple) -> bool:
    """Do the members' colors strictly alternate around the cycle?"""
    ordered = sorted(members)
    return all(coloring[u] != coloring[w] for u, w in zip(ordered, ordered[1:] + ordered[:1]))


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
    return [tuple(sorted(reds[i::k] + blues[i::k])) for i in range(k)]


def cyclic_distance(a: int, b: int, size: int) -> int:
    d = (a - b) % size
    return min(d, size - d)


def max_gap(members, cycle_size: int) -> int:
    """Largest cyclic distance between consecutive members."""
    members = _sorted_members(members)
    return max((w - u) % cycle_size for u, w in zip(members, members[1:] + members[:1]))


def midpoints(members, cycle_size: int) -> tuple:
    """Half-unit positions halfway between consecutive members.

    Half-units live on a circle of size 2 * cycle_size: even values are
    vertices, odd values are edge midpoints.  Each consecutive pair yields
    the midpoint of its member-free arc; a two-member set yields one
    midpoint per arc.
    """
    members = _sorted_members(members)
    return tuple(sorted((2 * u + (w - u) % cycle_size) % (2 * cycle_size)
                        for u, w in zip(members, members[1:] + members[:1])))


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


def color_statistic(coloring: tuple):
    return lambda v: coloring[v]


def fair_coloring_target() -> Distribution:
    return Distribution.exact({BLUE: Fraction(1, 2), RED: Fraction(1, 2)})


def exact_color_separation(coloring: tuple, x0: int, t: int) -> Fraction:
    """Separation of the walker's color law at time t from fair (1/2, 1/2)."""
    return separation_profile(coloring, x0, t)[t]


def _check_start(size: int, x0: int, horizon: int) -> None:
    if not 0 <= x0 < size:
        raise ValueError(f"x0 must be a vertex in 0..{size - 1}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")


def _cycle_tables(size: int) -> tuple:
    """The lazy step's two half-step tables on a cycle of `size` vertices:
    edge i (between vertices i and i + 1) gets vertices i and i + 1, then
    vertex i gets edges i - 1 and i."""
    vertices = [*range(size)]
    return ((vertices, vertices[1:] + vertices[:1]), (vertices[-1:] + vertices[:-1], vertices))


def _color_law(coloring: tuple, x0: int, horizon: int) -> list:
    """Pr(red) - Pr(blue) for the lazy walk from x0 at t = 0..horizon:
    (2r - 4^t) / 4^t for r red paths.

    One _sweep of the two cycle tables, charged to the budget as vertices
    x 3 moves x steps.  On two vertices both neighbours are the other one,
    so the tables still walk the cycle: a lazy step moves with probability
    1/2.
    """
    size = len(coloring)
    _check_start(size, x0, horizon)
    require_within_budget(size * 3 * horizon, f"lazy walk on {size} vertices to t={horizon}",
                          "use a shorter horizon")
    reds = itemgetter(*(v for v in range(size) if coloring[v] == RED), size)
    red_counts = _sweep(_cycle_tables(size), x0, horizon, lambda counts: sum(reds(counts)))
    return [Fraction(2 * red - 4 ** t, 4 ** t) for t, red in enumerate(red_counts)]


def separation_profile(coloring: tuple, x0: int, horizon: int):
    """Exact color separation at every t in 0..horizon, from one integer sweep.

    The target is fair, so separation is 1 - 2 min(red, blue) / 4^t, that
    is |Pr(red) - Pr(blue)|.
    """
    validate_coloring(coloring)
    return [abs(d) for d in _color_law(coloring, x0, horizon)]


def _alternating_members(coloring: tuple, members) -> tuple:
    """The members sorted, checked as a set of the cycle: even size >= 2,
    distinct members, every member a vertex in 0..size-1, and colors that
    strictly alternate."""
    members = _sorted_members(members)
    if members[0] < 0 or members[-1] >= len(coloring):
        raise ValueError(f"set {members} holds a vertex outside 0..{len(coloring) - 1}")
    if not check_alternating(coloring, members):
        raise ValueError(f"set {members} does not alternate")
    return members


def _decomposition_members(coloring: tuple, sets) -> list:
    """The member tuples of explicit sets (member sequences, each checked
    by _alternating_members, together holding each vertex once), or of the
    canonical decomposition when sets is None."""
    if sets is None:
        return alternating_decomposition(coloring)
    out = [_alternating_members(coloring, s) for s in sets]
    flat = sorted(v for members in out for v in members)
    if flat != list(range(len(coloring))):
        raise ValueError("sets do not partition the cycle's vertices")
    return out


def _sweep(half_steps, start: int, horizon: int, read=sum) -> list:
    """read(counts) at t = 0..horizon, counts being integer paths over 4^t.

    Each lazy step applies the two (before, after) tables of half_steps in
    turn: a half-step gives state i the counts of states before[i] and
    after[i], the two that move into it (from x - 1 and x + 1 on a strip).
    The last index, the tables' length, is a slot that feeds only itself,
    so it stays 0: absorbed or missing neighbours point there.  The walk
    starts in state `start`.
    """
    zero = len(half_steps[0][0])
    feeds = [(itemgetter(*before, zero), itemgetter(*after, zero)) for before, after in half_steps]
    counts = [0] * (zero + 1)
    counts[start] = 1
    out = [read(counts)]
    for _ in range(horizon):
        for feed_before, feed_after in feeds:
            counts = [*map(add, feed_before(counts), feed_after(counts))]
        out.append(read(counts))
    return out


def _tail(table: tuple, start: int, horizon: int) -> list:
    """Pr(T > t), t = 0..horizon: the alive mass, one table for both half-steps."""
    alive = _sweep((table, table), start, horizon)
    return [Fraction(count, 4 ** t) for t, count in enumerate(alive)]


def _alive_windows(horizon: int, absorbed) -> list:
    """R(l) for each alive left end l = 0, -1, ...: its largest alive right
    end.  The one reader of an absorption rule.

    Both tails' absorption rules are monotone under widening (a window that
    holds a midpoint of every set, or enough vertices, still does when
    widened), so the windows the walk can reach in 2 * horizon half-steps
    without absorption are exactly those with l <= 0 <= r,
    r - l <= 2 * horizon and not absorbed(l, r): for each left end l their
    right ends form a prefix [0, R(l)], found by binary search.
    """
    ends = []
    for l in range(0, -2 * horizon - 1, -1):
        if absorbed(l, 0):
            break
        lo, hi = 0, 2 * horizon + l  # R(l) lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if absorbed(l, mid):
                hi = mid - 1
            else:
                lo = mid
        ends.append(lo)
    return ends


def _halfstep_tail(coloring, x0, horizon, absorbed, name):
    """Window-table engine for the coverage and vertex-count tails.

    The alive windows [l, r] are those _alive_windows lists, and window
    [l, r] holds r - l + 1 positions, so their states are counted in
    closed form and charged first, x 2 moves x 2 * horizon half-steps.
    Then state (l, r, x) (half-units from the start) is numbered
    first[l, r] + x, windows in the order listed, and the zero slot
    `states`.  State x is fed from x - 1 and x + 1 of its window, except
    at an end: x = l by the narrower window [l + 1, r] at l + 1, x = r by
    [l, r - 1] at r - 1, and [0, 0] by the zero slot.  Mass that steps
    into an absorbed window has no state, so it is dropped.
    """
    validate_coloring(coloring)
    size = len(coloring)
    _check_start(size, x0, horizon)
    ends = _alive_windows(horizon, absorbed)
    states = sum((right + 1) * (right + 2 * i + 2) // 2 for i, right in enumerate(ends))
    require_within_budget(states * 2 * 2 * horizon, f"{name} tail on {size} vertices to t={horizon}",
                          "use a shorter horizon")
    if not states:
        return [Fraction(0)] * (horizon + 1)
    first, before, after = {}, [], []
    for l, right in zip(range(0, -len(ends), -1), ends):
        for r in range(right + 1):
            base = first[l, r] = len(before) - l
            before += [first[l + 1, r] + l + 1 if l else states, *range(base + l, base + r)]
            after += [*range(base + l + 1, base + r + 1), first[l, r - 1] + r - 1 if r else states]
    return _tail((before, after), 0, horizon)


def _coverage_reach(members: list, size: int) -> list:
    """reach[a]: the least d such that the half-units a..a+d, around the
    circle of 2 * size, hold a midpoint of every set.  One pass of two
    pointers over the midpoints, sorted and laid twice around."""
    half_size = 2 * size
    marks = sorted((m + lap * half_size, i) for i, ms in enumerate(members)
                   for m in midpoints(ms, size) for lap in (0, 1))
    held = [0] * len(members)
    missing = len(members)
    start = end = 0  # marks[start:end] are held: those in the window [a, marks[end-1]]
    reach = []
    for a in range(half_size):
        while marks[start][0] < a:
            if start < end:
                i = marks[start][1]
                held[i] -= 1
                missing += not held[i]
            start += 1
        end = max(end, start)
        while missing:
            i = marks[end][1]
            missing -= not held[i]
            held[i] += 1
            end += 1
        reach.append(marks[end - 1][0] - a)
    return reach


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
    reach = _coverage_reach(members, size)

    def absorbed(l, r):
        return r - l + 1 >= half_size or reach[(h0 + l) % half_size] <= r - l

    return _halfstep_tail(coloring, x0, horizon, absorbed, "coverage")


def vertex_count_tail(coloring: tuple, x0: int, horizon: int):
    """Pr(T > t) for T = first refined time 2k-1 distinct vertices have been
    visited.  Reported for comparison; never used as a certificate.

    Absorption depends on the parity of l as well as on r - l, so the
    windows stay absolute."""
    size = len(coloring)
    k = compute_k(coloring)
    need = 2 * k - 1

    def absorbed(l, r):
        if r - l + 1 >= 2 * size:
            return size >= need
        # start position is a vertex, so even offsets are vertices
        seen = r // 2 - (l + 1) // 2 + 1
        return seen >= need

    return _halfstep_tail(coloring, x0, horizon, absorbed, "vertex-count")


def distance_moved_tail(coloring: tuple, x0: int, horizon: int):
    """Pr(T > t) for T = first refined time the walk sits 2k-1 vertices from
    its start.  Reaching that distance forces midpoint coverage of every
    set, so this tail pointwise dominates coverage_time_tail.

    The walk is killed the first time it sits need = 2(2k-1) half-units
    from its start (gambler's ruin on a strip), so its position alone is
    the state: _sweep runs a strip table of the width = 2 * need - 1
    positions strictly inside.  Charged to the budget as those positions
    x 2 moves x 2 * horizon half-steps.
    """
    k = compute_k(coloring)
    size = len(coloring)
    _check_start(size, x0, horizon)
    need = 2 * (2 * k - 1)
    width = 2 * need - 1
    require_within_budget(width * 2 * 2 * horizon,
                          f"distance-moved tail on {size} vertices to t={horizon}",
                          "use a shorter horizon")
    return _tail(([width, *range(width - 1)], [*range(1, width), width]), need - 1, horizon)


def reflection_balance(coloring: tuple, members, x0: int, horizon: int):
    """Per lazy time t, the exact masses of (crossed a midpoint of the set
    and currently on a red member, likewise blue).

    The reflection heuristic predicts the two masses agree at every t; this
    computes them so the prediction can be checked rather than assumed.
    The crossed mass on a member is the walk's mass there minus that of
    the walk killed on entering a midpoint, whose tables feed each
    midpoint from the zero slot; a start on a midpoint leaves none alive.
    The set must hold vertices of the cycle whose colors alternate, checked
    before the charge: the two sweeps x vertices x 2 moves x 2 * horizon
    half-steps.
    """
    validate_coloring(coloring)
    size = len(coloring)
    _check_start(size, x0, horizon)
    members = _alternating_members(coloring, members)
    mids = midpoints(members, size)
    require_within_budget(2 * size * 2 * 2 * horizon,
                          f"reflection balance on {size} vertices to t={horizon}",
                          "use a shorter horizon")
    reds = itemgetter(*(v for v in members if coloring[v] == RED), size)
    blues = itemgetter(*(v for v in members if coloring[v] == BLUE), size)

    def read(counts):
        return sum(reds(counts)), sum(blues(counts))

    tables = _cycle_tables(size)
    killed = [([*before], [*after]) for before, after in tables]
    for m in mids:  # an odd m is an edge of the first table, an even m a vertex of the second
        before, after = killed[1 - m % 2]
        before[m // 2] = after[m // 2] = size
    walk = _sweep(tables, x0, horizon, read)
    alive = [(0, 0)] * (horizon + 1) if 2 * x0 in mids else _sweep(killed, x0, horizon, read)
    return [(Fraction(red - red_alive, 4 ** t), Fraction(blue - blue_alive, 4 ** t))
            for t, ((red, blue), (red_alive, blue_alive)) in enumerate(zip(walk, alive))]


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

    distance: int
    color: str | None  # None when tied members disagree in color
    nearest: tuple


@dataclass(frozen=True)
class DominanceReport:
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
    partition = tuple(_decomposition_members(coloring, sets))
    size = len(coloring)
    _check_start(size, x0, horizon)
    nearest_reports = []
    failing = []
    for idx, members in enumerate(partition):
        best = min(cyclic_distance(v, x0, size) for v in members)
        at_best = tuple(v for v in members if cyclic_distance(v, x0, size) == best)
        colors = {coloring[v] for v in at_best}
        color = colors.pop() if len(colors) == 1 else None
        nearest_reports.append(NearestReport(best, color, at_best))
        if color != RED:
            failing.append(idx)
    precondition = not failing
    if not precondition:
        return DominanceReport(partition, tuple(nearest_reports), False, tuple(failing),
                               None, None, None)
    # the margin Pr(red) - 1/2 is half of Pr(red) - Pr(blue)
    law = _color_law(coloring, x0, horizon)
    least = min(law)
    return DominanceReport(partition, tuple(nearest_reports), True, (), least >= 0,
                           least / 2, law.index(least))


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
