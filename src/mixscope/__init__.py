"""Exact separation-distance analysis for card shuffles and colored cycles.

Three layers:

- ``dist``: exact distributions over hashable states (Fraction weights
  only; the CLI's --float is a rendering), separation and total-variation
  distances, pushforwards through plain callables, kernel evolution with
  integer counts and one division at the end.
- ``shuffles`` / ``verify``: deck chains (random-to-top, its lazy one-card
  variant, inverse riffle), deck statistics and path predicates named in
  one ``kind:params`` grammar (``Kind``), their exact laws at time t
  by a forward count over reachable decks (checked against the dense
  kernels), and exact certification of conditional laws by a lumped
  dynamic program, checked against exhaustive path enumeration.
- ``cycle``: alternating decompositions of balanced colorings on an even
  cycle, coverage and distance stopping-time tails, and quantitative
  mixing guarantees for the lazy walk.
"""

__version__ = "0.1.0"

from .budget import CapacityError, enumeration_budget
from .dist import (
    Distribution,
    InvariantError,
    Kernel,
    distribution_from_json,
    evolve,
    push_forward,
    separation_distance,
    to_json,
    total_variation,
)
from .shuffles import (
    Kind,
    apply_move,
    deck_statistic,
    identity_deck,
    inverse_riffle_apply,
    parse_statistic,
    random_to_top_kernel,
    riffle_kernel,
    stationary_statistic_distribution,
    walk1_kernel,
)
from .verify import (
    MonteCarloReport,
    Path,
    SSTReport,
    check_strong_stationarity,
    conditional_statistic_distribution,
    count_nonnegative_paths,
    enumerate_paths,
    monte_carlo_conditional,
    parse_predicate,
    prob_k_distinct,
    prob_strings_distinct,
    statistic_law_at,
    walk1_position_distribution,
)
from .cycle import (
    alternating_decomposition,
    check_alternating,
    check_red_dominance,
    chebyshev_time,
    compute_k,
    coverage_time_tail,
    distance_moved_tail,
    exact_color_separation,
    gambler_moments,
    lazy_cycle_kernel,
    max_gap,
    midpoints,
    parse_coloring,
    separation_profile,
    vertex_count_tail,
)

__all__ = [
    "__version__",
    "CapacityError",
    "enumeration_budget",
    "Distribution",
    "Kernel",
    "distribution_from_json",
    "evolve",
    "push_forward",
    "separation_distance",
    "to_json",
    "total_variation",
    "Kind",
    "apply_move",
    "deck_statistic",
    "identity_deck",
    "inverse_riffle_apply",
    "parse_statistic",
    "random_to_top_kernel",
    "riffle_kernel",
    "stationary_statistic_distribution",
    "walk1_kernel",
    "InvariantError",
    "MonteCarloReport",
    "Path",
    "SSTReport",
    "check_strong_stationarity",
    "conditional_statistic_distribution",
    "count_nonnegative_paths",
    "enumerate_paths",
    "monte_carlo_conditional",
    "parse_predicate",
    "prob_k_distinct",
    "prob_strings_distinct",
    "statistic_law_at",
    "walk1_position_distribution",
    "alternating_decomposition",
    "check_alternating",
    "check_red_dominance",
    "chebyshev_time",
    "compute_k",
    "coverage_time_tail",
    "distance_moved_tail",
    "exact_color_separation",
    "gambler_moments",
    "lazy_cycle_kernel",
    "max_gap",
    "midpoints",
    "parse_coloring",
    "separation_profile",
    "vertex_count_tail",
]
