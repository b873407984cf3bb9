"""Enumeration budget control.

Exact results come from exhaustive enumeration, so every enumerating
operation first predicts how many branches it will visit and refuses to
start when the count exceeds the budget.  The default budget is 10^7
weighted branches; the environment variable MIXSCOPE_BUDGET overrides it.
Exceeding the budget raises CapacityError rather than silently sampling.
A count that may be huge is built by bounded_product, which stops once
it passes the budget and what str() prints, so none is built in full.
"""

from __future__ import annotations

import os
import sys

DEFAULT_BUDGET = 10**7
ENV_VAR = "MIXSCOPE_BUDGET"
PRINTED_DIGITS = 4300  # str()'s default digit limit, kept where the interpreter sets none


class CapacityError(Exception):
    """Raised when a requested exact computation exceeds the enumeration budget."""


def enumeration_budget() -> int:
    """Return the active budget, honoring the MIXSCOPE_BUDGET override."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _str_digits() -> int:
    """How many digits str() prints of an int."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or PRINTED_DIGITS


def bounded_product(factors) -> int:
    """The product of the factors, each at least 1 (ints, or Fractions whose
    running products are whole), or its first running product longer in
    bits than the budget and than 4 bits per digit str() prints: over the
    budget and too long to print, with no later factor read."""
    bits = max(4 * _str_digits(), enumeration_budget().bit_length())
    out = 1
    for factor in factors:
        out *= factor
        if out.numerator.bit_length() > bits:  # out is whole
            break
    return int(out)


def require_within_budget(count: int, what: str, hint: str) -> None:
    """Fail with CapacityError when count exceeds the active budget; a count
    too long for str() is named as more than the budget.

    hint names the fallback the caller should suggest (for enumeration
    backends that is Monte-Carlo mode, for dense kernels the sampler).
    """
    budget = enumeration_budget()
    if count > budget:
        shown = count if count < 10 ** _str_digits() else f"more than {budget}"
        raise CapacityError(f"{what} needs {shown} branches, over the budget of {budget}; {hint}")
