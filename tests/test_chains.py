"""The CHAINS table: each record states its chain once, and nothing else does."""

import ast
import random
from itertools import permutations
from pathlib import Path

import pytest

from mixscope.shuffles import CHAINS
from mixscope.verify import path_count

SRC = Path(__file__).resolve().parent.parent / "src" / "mixscope"
CHAIN_NAMES = ("rtt", "walk1", "riffle")


def test_table_keys():
    assert tuple(CHAINS) == CHAIN_NAMES


def test_unknown_chain_is_a_usage_error():
    with pytest.raises(ValueError, match="unknown chain 'bogus'"):
        CHAINS["bogus"]
    with pytest.raises(ValueError, match="unknown chain 'bogus'"):
        path_count("bogus", 3, 1)


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("n", range(2, 7))
def test_branches_match_their_closed_forms(chain, n):
    record = CHAINS[chain]
    moves, denom = record.branches(n)
    assert record.branch_count(n) == len(moves)
    assert sum(m for _, m in moves) == denom
    for t in range(4):
        assert path_count(chain, n, t) == record.branch_count(n) ** t


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("n", range(2, 7))
def test_draws_are_moves_of_the_chain(chain, n):
    record = CHAINS[chain]
    draw = record.sampler(n, random.Random(n))
    draws = [draw() for _ in range(200)]
    if chain == "riffle":
        assert all(len(col) == n and set(col) <= {"0", "1"} for col in draws)
    else:
        listed = [move for move, _ in record.branches(n)[0]]
        assert all(move in listed for move in draws)
        assert len(set(draws)) > 1


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("n", range(2, 5))
def test_lumped_step_moves_decks_as_the_oracle_step(chain, n):
    """With no summary tracked, advance and step move every deck alike."""
    record = CHAINS[chain]
    moves, _ = record.branches(n)
    for deck in permutations(range(1, n + 1)):
        for move, _ in moves:
            assert record.advance(deck, None, move) == (record.step(deck, move), None)


def _chain_comparisons(tree):
    """(line, enclosing class.function) of every comparison against a chain
    name literal, bare or inside a tuple, list or set."""
    found = []

    def is_chain_literal(node):
        if isinstance(node, ast.Constant):
            return node.value in CHAIN_NAMES
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_chain_literal(e) for e in node.elts)
        return False

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Compare) and any(
                is_chain_literal(e) for e in (node.left, *node.comparators)):
            found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", ["shuffles.py", "verify.py", "cli.py"])
def test_no_chain_name_ladders(module):
    """Per-chain choices read CHAINS; only the path oracle's guard that
    recorded strings exist for riffle paths compares a chain name."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    allowed = {"verify.py": {"Path.recorded_strings"}}.get(module, set())
    found = _chain_comparisons(tree)
    assert [(line, scope) for line, scope in found if scope not in allowed] == []


def test_ladder_check_sees_a_ladder():
    tree = ast.parse("def f(chain):\n    if chain in ('rtt', 'walk1'):\n        return 1\n"
                     "    return chain != 'riffle'\n")
    assert _chain_comparisons(tree) == [(2, "f"), (4, "f")]
