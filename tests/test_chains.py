"""The CHAINS table: each record states its chain once, and nothing else does."""

import ast
import itertools
import random
from itertools import islice, permutations, product
from pathlib import Path

import pytest

from mixscope import shuffles
from mixscope.shuffles import CHAINS, STATISTIC_KINDS
from mixscope.verify import PREDICATE_KINDS, enumerate_paths, path_count

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


def riffle_columns(n, bits):
    """A riffle path's bytes cut into its n-byte columns, earliest step first."""
    return [bits[i:i + n] for i in range(0, len(bits), n)]


def every_path(chain, n, t):
    """Every t-step path of the chain: its moves concatenated."""
    if chain == "riffle":
        return [bytes(bits) for bits in product((0, 1), repeat=n * t)]
    cards = range(0 if chain == "walk1" else 1, n + 1)
    return [list(path) for path in product(cards, repeat=t)]


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("n", range(2, 7))
def test_draws_are_moves_of_the_chain(chain, n):
    """Every sampled move, a card label or a riffle column, is one of the
    record's listed moves, as the same value."""
    record = CHAINS[chain]
    listed = [move for move, _ in record.branches(n)[0]]
    paths = list(islice(record.paths(n, 3, random.Random(n)), 200))
    draws = [move for path in paths
             for move in (riffle_columns(n, path) if chain == "riffle" else path)]
    assert len(draws) == 600
    assert all(move in listed for move in draws)
    assert len(set(draws)) > 1


@pytest.mark.parametrize("chain,max_t", [("rtt", 4), ("walk1", 4), ("riffle", 3)])
@pytest.mark.parametrize("n", range(2, 5))
def test_settle_is_the_fold_of_advance(chain, max_t, n):
    """settle reaches, in one pass, the lumped state that stepping advance
    along the whole path reaches, from the start summary and from None."""
    record = CHAINS[chain]
    identity = tuple(range(1, n + 1))
    for t in range(max_t + 1):
        for path in every_path(chain, n, t):
            tracked, untracked = (identity, record.start_summary), (identity, None)
            for move in riffle_columns(n, path) if chain == "riffle" else path:
                tracked = record.advance(*tracked, move)
                untracked = record.advance(*untracked, move)
            assert record.settle(n, path) == tracked, (t, path)
            assert untracked == (tracked[0], None)


@pytest.mark.parametrize("chain,max_t", [("rtt", 4), ("walk1", 3), ("riffle", 2)])
@pytest.mark.parametrize("n", range(2, 5))
def test_settle_reaches_the_oracle_deck(chain, max_t, n):
    """The path oracle's moves, concatenated, are a path settle reads: it
    reaches the last deck the oracle's step reached."""
    settle = CHAINS[chain].settle
    for t in range(max_t + 1):
        for path in enumerate_paths(chain, n, t):
            moves = b"".join(path.moves) if chain == "riffle" else list(path.moves)
            assert settle(n, moves)[0] == path.decks[-1], path.moves


def first_draws(blocks, count):
    return list(islice(itertools.chain.from_iterable(blocks), count))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 128, 255, 256, 257,
                               1000])
def test_block_readers_take_the_stdlib_draws(n, seed):
    """The block readers give the values rng.randrange(n) and
    rng.choice("01") give on a fresh generator, across block boundaries,
    on both card routes: top bytes below n = 256, whole words from it."""
    rng = random.Random(seed)
    expected = [rng.randrange(n) + 1 for _ in range(2000)]
    assert first_draws(shuffles._card_blocks(n, random.Random(seed), n), 2000) == expected
    rng = random.Random(seed)
    expected = [int(rng.choice("01")) for _ in range(2000)]
    assert first_draws(shuffles._byte_blocks(2, random.Random(seed), n, 0), 2000) == expected


class ScriptedWords(random.Random):
    """A generator whose 32-bit outputs are the scripted words, then zeros;
    random.Random's randrange and choice read them through getrandbits."""

    def __init__(self, words):
        super().__init__(0)
        self.words = iter(words)

    def getrandbits(self, k):
        out = 0
        for i in range(0, k, 32):
            word = next(self.words, 0)
            out |= (word >> max(0, i + 32 - k)) << i
        return out


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 31, 32, 33, 128, 255, 256, 257, 1000])
def test_block_readers_take_the_boundary_words_as_the_stdlib(n):
    """Words at and around each acceptance bound are taken or rejected
    exactly as randrange(n) and choice("01") take or reject them; below
    n = 256 the word n << shift is the one whose top byte is the byte bound."""
    shift = 32 - n.bit_length()
    edges = [0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, (n << shift) - 1, n << shift,
             (n << shift) + 1, (1 << 24) * 127, (1 << 24) * 128 - 1, (1 << 24) * 128]
    words = edges * 3
    rng = ScriptedWords(words)
    expected = [rng.randrange(n) + 1 for _ in range(20)]
    assert first_draws(shuffles._card_blocks(n, ScriptedWords(words), 1), 20) == expected
    rng = ScriptedWords(words)
    expected = [int(rng.choice("01")) for _ in range(20)]
    assert first_draws(shuffles._byte_blocks(2, ScriptedWords(words), 1, 0), 20) == expected


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("t", [0, 1, 7, 700])
def test_paths_are_the_draws_in_order(chain, t):
    """Paths are consecutive runs of the stdlib draws, also when one path
    needs more than a block; t = 0 gives empty paths."""
    n, seed = 5, 3
    paths = list(islice(CHAINS[chain].paths(n, t, random.Random(seed)), 4))
    rng = random.Random(seed)
    if chain == "riffle":
        expected = [[int(rng.choice("01")) for _ in range(n * t)] for _ in range(4)]
    elif chain == "walk1":
        expected = [[0 if rng.random() < 0.5 else rng.randrange(n) + 1 for _ in range(t)]
                    for _ in range(4)]
    else:
        expected = [[rng.randrange(n) + 1 for _ in range(t)] for _ in range(4)]
    assert [list(path) for path in paths] == expected


@pytest.mark.parametrize("n", [2, 7, 8, 9, 300])
def test_walk1_takes_the_boundary_words_as_the_stdlib(n):
    """walk1's inlined card draw takes or rejects the words at and around
    its acceptance bound as randrange(n) does, a power of two rejecting
    half, and leaves the generator where randrange leaves it."""
    shift = 32 - n.bit_length()
    edges = [(n << shift) - 1, n << shift, (n << shift) + 1, 0, 2 ** 32 - 1, (n - 1) << shift]
    words, t = edges * 4, 8
    rng = ScriptedWords(words)
    expected = [[0 if rng.random() < 0.5 else rng.randrange(n) + 1 for _ in range(t)]
                for _ in range(4)]
    drawn = ScriptedWords(words)
    paths = islice(CHAINS["walk1"].paths(n, t, drawn), 4)
    assert [list(path) for path in paths] == expected
    assert list(drawn.words) == list(rng.words)
    assert sum(card > 0 for path in expected for card in path) > 8


@pytest.mark.parametrize("chain", CHAIN_NAMES)
@pytest.mark.parametrize("n", range(2, 5))
def test_lumped_step_moves_decks_as_the_oracle_step(chain, n):
    """With no summary tracked, advance and step move every deck alike."""
    record = CHAINS[chain]
    moves, _ = record.branches(n)
    for deck in permutations(range(1, n + 1)):
        for move, _ in moves:
            assert record.advance(deck, None, move) == (record.step(deck, move), None)


def _scoped_lines(tree, matches):
    """(line, enclosing class.function) of every node that matches."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if matches(node):
            found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _literal_comparisons(tree, names):
    """(line, enclosing class.function) of every comparison against a literal
    among names, bare or inside a tuple, list or set."""

    def is_literal(node):
        if isinstance(node, ast.Constant):
            return node.value in names
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_literal(e) for e in node.elts)
        return False

    return _scoped_lines(tree, lambda node: isinstance(node, ast.Compare) and any(
        is_literal(e) for e in (node.left, *node.comparators)))


def _advance_reads(tree):
    """(line, enclosing class.function) of every read of an .advance attribute."""
    return _scoped_lines(tree, lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "advance")


@pytest.mark.parametrize("module", ["shuffles.py", "verify.py", "cli.py"])
def test_no_chain_name_ladders(module):
    """Per-chain choices read CHAINS; only the path oracle's guard that
    recorded strings exist for riffle paths compares a chain name."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    allowed = {"verify.py": {"Path.recorded_strings"}}.get(module, set())
    found = _literal_comparisons(tree, CHAIN_NAMES)
    assert [(line, scope) for line, scope in found if scope not in allowed] == []


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_predicate_kind_ladders(module):
    """A predicate's kind is read once per request: by summary_test, the
    compiler of the lumped test, by predicate_holds, the path oracle, and
    by the lumped count's one check that always tracks no summary."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [scope for _, scope in _literal_comparisons(tree, PREDICATE_KINDS)
             if scope not in ("summary_test", "predicate_holds")]
    assert found == (["_lumped_counts"] if module == "verify.py" else [])


def test_predicate_ladder_check_sees_a_ladder():
    tree = ast.parse("def f(pred, summary):\n    if pred.kind == 'k_distinct':\n"
                     "        return len(summary)\n    return pred.kind in ('always', 'x')\n")
    assert _literal_comparisons(tree, PREDICATE_KINDS) == [(2, "f"), (4, "f")]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_statistic_kind_ladders(module):
    """A statistic's kind is read once per request, by statistic_reader, and
    its stationary count and support size are one closed form, in
    _stationary_counts."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [scope for _, scope in _literal_comparisons(tree, STATISTIC_KINDS)
             if scope not in ("statistic_reader", "_stationary_counts")]
    assert found == []


def test_statistic_ladder_check_sees_a_ladder():
    tree = ast.parse("def f(stat, deck):\n    if stat.kind == 'top_card':\n"
                     "        return deck[0]\n    return stat.kind in ('parity', 'x')\n")
    assert _literal_comparisons(tree, STATISTIC_KINDS) == [(2, "f"), (4, "f")]


def _retired_move_kinds(tree):
    """Lines of every string constant naming a retired move kind."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in ("to_top", "top_to_bottom"))


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_move_kind_strings(module):
    """A move is a card label or a riffle column everywhere; no module
    names a kind of move."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _retired_move_kinds(tree) == []


def test_move_kind_check_sees_a_kind():
    tree = ast.parse('if mv.kind == "to_top":\n    pass\nkind = "top_to_bottom"\n')
    assert _retired_move_kinds(tree) == [1, 3]


def test_ladder_check_sees_a_ladder():
    tree = ast.parse("def f(chain):\n    if chain in ('rtt', 'walk1'):\n        return 1\n"
                     "    return chain != 'riffle'\n")
    assert _literal_comparisons(tree, CHAIN_NAMES) == [(2, "f"), (4, "f")]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_one_lumped_count_steps_with_advance(module):
    """The law and the certificate share one forward count; no other code
    steps a record's lumped state."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    allowed = {"verify.py": {"_lumped_counts"}}.get(module, set())
    assert [(line, scope) for line, scope in _advance_reads(tree) if scope not in allowed] == []


def test_advance_check_sees_a_read():
    tree = ast.parse("def f(record):\n    step = record.advance\n"
                     "    return CHAINS['rtt'].advance(deck, None, 0)\n")
    assert _advance_reads(tree) == [(2, "f"), (3, "f")]
