"""Collects acceptance-criterion outcomes and prints one line per criterion;
also lists statistic cases shared by the law tests."""

from mixscope.shuffles import STATISTIC_KINDS, Kind, validate_statistic_kind

RESULTS: dict = {}


def statistic_cases(n: int) -> list:
    """Every statistic kind valid at deck size n, each with a few parameter
    choices (the smallest and largest card, k and block size)."""
    divisors = [(b,) for b in range(1, n + 1) if n % b == 0]
    params = {
        "top_card": [()],
        "parity": [()],
        "top_k_order": [(1,), (2,), (n,)],
        "top_k_set": [(1,), (2,), (n,)],
        "position_of": [(1,), (n,)],
        "card_above": [(1,), (n,)],
        "card_below": [(1,), (n,)],
        "positions_of": [(1,), (1, n), (2, 3)],
        "relative_order": [(1, n), (3, 1, 2)],
        "distance": [(1, n), (2, 3)],
        "block_sets": divisors,
        "modular_hands": divisors,
    }
    cases = []
    for kind in STATISTIC_KINDS:
        for ps in dict.fromkeys(params[kind]):
            stat = Kind(kind, ps)
            try:
                validate_statistic_kind(stat, n)
            except ValueError:
                continue
            cases.append(stat)
    return cases


def record(number: int, title: str, ok: bool, detail: str = "") -> None:
    RESULTS[number] = (title, ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(RESULTS):
        title, ok, detail = RESULTS[number]
        line = f"{'PASS' if ok else 'FAIL'}  criterion {number}: {title}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
