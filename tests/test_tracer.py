"""The benchmark's tracer against this checkout.

perfbench/tracer.py wraps mixscope functions by module and name.  A traced
name that is deleted or renamed must fail here, in the test suite, rather
than only when the benchmark is run with tracing on.
"""

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mixscope
from mixscope import cli, dist, verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """A few of the names the tracer replaces, as the program binds them."""
    return {
        "verify.predicate_holds": verify.predicate_holds,
        "dist.push_forward": dist.push_forward,
        "mixscope.evolve": mixscope.evolve,
        "Distribution.__post_init__": dist.Distribution.__dict__["__post_init__"],
        "cli.RUNNERS": dict(cli.RUNNERS),
    }


def test_tracer_installs_runs_and_uninstalls():
    before = bindings()
    tracer = load_tracer().Tracer()
    tracer.install()  # raises when a traced name is missing
    try:
        assert verify.predicate_holds is not before["verify.predicate_holds"]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tracer.invoke(0, cli.main, ["stat-mix", "--chain", "rtt", "--n", "3",
                                               "--t", "1", "--statistic", "top_card"])
        assert code == 0
        assert json.loads(out.getvalue())["results"]["separation"] == "0/1"
        assert tracer.calls("verify.statistic_law_at") == 1
    finally:
        tracer.uninstall()
    assert bindings() == before
