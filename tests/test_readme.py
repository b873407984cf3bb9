"""The README's examples run as written.

The python block is executed.  Each `$ mixscope ...` example is joined
across its backslash continuations and run through the CLI; it must exit 0,
and every complete "key":value fragment of the output shown under it must
occur in the compact JSON payload.  Values elided with `...` are skipped,
and so are objects, whose own keys are checked one by one.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from mixscope.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)


def test_library_example_runs():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_examples():
    """(argv, shown output) for every `$ mixscope` block of the README."""
    out = []
    for lang, body in BLOCKS:
        if lang or not body.startswith("$ mixscope"):
            continue
        lines = body.splitlines()
        command = lines.pop(0)[len("$ "):]
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0).strip()
        out.append((shlex.split(command)[1:], "".join(line.strip() for line in lines)))
    return out


def shown_fragments(shown):
    """The complete "key":value fragments of an example's shown output."""
    decoder = json.JSONDecoder()
    fragments = []
    for match in re.finditer(r'"\w+":', shown):
        try:
            value, end = decoder.raw_decode(shown, match.end())
        except json.JSONDecodeError:
            continue  # an elided value
        if not isinstance(value, dict):
            fragments.append(shown[match.start():end])
    return fragments


EXAMPLES = cli_examples()


def test_every_cli_example_is_collected():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert commands == {"stat-mix", "sst-check", "cycle", "decompose", "counterexample"}


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_cli_example(capsys, argv, shown):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = captured.out
    fragments = shown_fragments(shown)
    assert fragments, "example shows no checkable output"
    for fragment in fragments:
        assert fragment in payload
