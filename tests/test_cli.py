"""End-to-end command-line checks: schemas, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from mixscope import verify
from mixscope.cli import main
from mixscope.dist import parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def frac(s):
    return F(s)


class TestReportShape:
    def test_payload_sections(self, capsys):
        doc = run_json(capsys, "counterexample", "--n", "4", "--t", "2")
        assert set(doc) == {"config", "version", "results"}
        assert doc["config"]["kind"] == "counterexample"
        assert doc["config"]["mode"] == "exact"
        assert doc["config"]["n"] == 4
        assert doc["version"]

    def test_json_is_deterministic(self, capsys):
        args = ("stat-mix", "--chain", "rtt", "--n", "3", "--t", "2",
                "--statistic", "top_card")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_monte_carlo_is_deterministic_for_seed(self, capsys):
        args = ("sst-check", "--chain", "rtt", "--n", "3", "--t", "2",
                "--statistic", "top_k_order:2", "--predicate", "k_distinct:2",
                "--samples", "300", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["results"]["certifies"] is False
        assert doc["results"]["samples"] == 300
        assert len(doc["results"]["q_interval_95"]) == 2

    def test_duration_goes_to_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--coloring", "RRBB")
        assert code == 0
        assert "finished in" in err
        assert "finished" not in out

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--coloring", "RRBB",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "key", "value"]
        cells = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert cells[("config.kind", "")] == "decompose"
        assert cells[("results.k", "")] == "2"
        assert ("version", "") in cells

    def test_float_rendering(self, capsys):
        doc = run_json(capsys, "counterexample", "--n", "4", "--t", "2", "--float")
        assert isinstance(doc["results"]["pr_position_1"], float)
        doc = run_json(capsys, "counterexample", "--n", "4", "--t", "2")
        assert isinstance(doc["results"]["pr_position_1"], str)
        frac(doc["results"]["pr_position_1"])

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "decompose", "--coloring", "RBRB",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["k"] == 1


class TestStatMix:
    def test_top_card_uniform_after_one_step(self, capsys):
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                       "--t", "1", "--statistic", "top_card")
        res = doc["results"]
        assert res["separation"] == "0/1"
        assert res["total_variation"] == "0/1"
        assert res["law"] == res["stationary"]

    def test_monte_carlo_payload(self, capsys):
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                       "--t", "1", "--statistic", "top_card",
                       "--samples", "100", "--seed", "5")
        res = doc["results"]
        assert res["certifies"] is False
        assert res["samples"] == 100
        assert sum(f for _, f in res["law_estimate"]) == pytest.approx(1.0)


class TestSstCheck:
    def test_certificate_example(self, capsys):
        doc = run_json(capsys, "sst-check", "--chain", "rtt", "--n", "4",
                       "--t", "3", "--statistic", "top_k_order:2",
                       "--predicate", "k_distinct:2")
        res = doc["results"]
        assert res["q"] == "15/16"
        assert res["sep_bound"] == "1/16"
        assert res["is_strongly_stationary"] is True
        assert res["predicate_stable"] is True

    def test_refutation_example(self, capsys):
        doc = run_json(capsys, "sst-check", "--chain", "walk1", "--n", "3",
                       "--t", "2", "--statistic", "top_card",
                       "--predicate", "any_to_top")
        res = doc["results"]
        assert res["is_strongly_stationary"] is False
        assert res["q"] == "3/4"
        assert frac(res["max_pointwise_deviation"]) == F(4, 9) - F(1, 3)


class TestCycle:
    def test_alternating_mixes_immediately(self, capsys):
        doc = run_json(capsys, "cycle", "--coloring", "RBRB", "--x0", "0",
                       "--horizon", "2")
        res = doc["results"]
        assert res["k"] == 1
        assert res["separation"] == ["1/1", "0/1", "0/1"]
        assert res["coverage_tail"] == ["1/1", "0/1", "0/1"]
        assert res["coverage_bound_holds"] is True
        assert res["distance_bound_holds"] is True

    def test_mod6_reports_coverage_violation(self, capsys):
        doc = run_json(capsys, "cycle", "--coloring", "RRBRBBRRBRBB",
                       "--x0", "0", "--horizon", "6")
        res = doc["results"]
        assert res["coverage_bound_holds"] is False
        assert res["first_coverage_violation_t"] == 3
        assert res["distance_bound_holds"] is True
        assert res["separation"][3] == "5/32"
        assert res["coverage_tail"][3] == "1/8"

    def test_explicit_sets_and_dominance(self, capsys):
        doc = run_json(capsys, "cycle", "--coloring", "RRBRBBRRBRBB",
                       "--x0", "0", "--horizon", "10",
                       "--sets", "0,2,3,5,6,8,9,11;1,4,7,10")
        dom = doc["results"]["dominance"]
        assert dom["sets_source"] == "explicit"
        assert dom["precondition_holds"] is True
        assert dom["dominance_holds"] is True
        assert all(item["color"] == "R" for item in dom["nearest"])
        assert frac(dom["min_margin"]) > 0

    def test_chebyshev_block(self, capsys):
        doc = run_json(capsys, "cycle", "--coloring", "RRBB", "--x0", "0",
                       "--horizon", "2", "--chebyshev", "1.5,2")
        block = doc["results"]["chebyshev"]
        assert [item["c"] for item in block] == [1.5, 2.0]
        assert all(item["ok"] for item in block)
        assert all(item["t_star"] >= 1 for item in block)

    def test_bad_sets_rejected(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--coloring", "RRBB",
                               "--x0", "0", "--horizon", "2",
                               "--sets", "0,1;2,3")
        assert code == 2
        assert "alternate" in json.loads(err.splitlines()[0])["error"]["message"]

    def test_non_partition_sets_rejected(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--coloring", "RRBB",
                               "--x0", "0", "--horizon", "2",
                               "--sets", "0,2;0,2")
        assert code == 2
        assert "partition" in json.loads(err.splitlines()[0])["error"]["message"]


class TestDecompose:
    def test_conforming_coloring(self, capsys):
        doc = run_json(capsys, "decompose", "--coloring", "RRBB",
                       "--check-minimality")
        res = doc["results"]
        assert res["k"] == 2
        assert res["sets"] == [[0, 2], [1, 3]]
        assert res["max_gaps"] == [2, 2]
        assert res["gap_bound"] == 3
        assert res["gaps_within_bound"] is True
        assert res["partition_ok"] is True
        assert res["alternating_ok"] is True
        assert res["minimal"] is True

    def test_gap_overrun_reported_honestly(self, capsys):
        doc = run_json(capsys, "decompose", "--coloring", "RRBBRB")
        res = doc["results"]
        assert res["k"] == 2
        assert res["gaps_within_bound"] is False
        assert max(res["max_gaps"]) == 4
        assert res["alternating_ok"] is True

    def test_minimality_search_capacity(self, capsys):
        code, _, err = run_cli(capsys, "decompose",
                               "--coloring", "RB" * 9, "--check-minimality")
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["code"] == "capacity"


class TestCounterexample:
    def test_frozen_lattice_quantities(self, capsys):
        doc = run_json(capsys, "counterexample")
        res = doc["results"]
        assert res["n"] == 52 and res["t"] == 10 and res["p0"] == 52
        assert res["nonnegative_path_count"] == 252
        assert frac(res["path_lower_bound"]) == F(252, 1024)
        assert frac(res["separation_lower_bound"]) >= F(252, 1024)
        assert frac(res["uniform_weight"]) == F(1, 52)
        law = res["position_law"]
        assert law["support"] == list(range(1, 53))
        assert sum(F(w) for w in law["weights"]) == 1

    def test_small_instance_law(self, capsys):
        doc = run_json(capsys, "counterexample", "--n", "3", "--t", "1",
                       "--p0", "3")
        res = doc["results"]
        assert frac(res["pr_position_1"]) == F(1, 6)

    def test_weights_longer_than_the_int_str_limit(self, capsys):
        # denominators 6^6000 have 4,669 digits, past Python's 4,300
        doc = run_json(capsys, "counterexample", "--n", "3", "--t", "6000")
        pr_top = parse_rational(doc["results"]["pr_position_1"])
        assert pr_top == verify.walk1_position_distribution(3, 6000, 3).weight(1)
        assert len(doc["results"]["pr_position_1"].partition("/")[2]) > 4300


class TestExitCodes:
    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                               "--t", "1", "--statistic", "top_card",
                               "--samples", "10")
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]["code"] == "usage"

    def test_unknown_chain(self, capsys):
        code, _, _ = run_cli(capsys, "stat-mix", "--chain", "bogus", "--n", "3",
                             "--t", "1", "--statistic", "top_card")
        assert code == 2

    def test_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "10")
        code, _, err = run_cli(capsys, "sst-check", "--chain", "rtt", "--n", "4",
                               "--t", "3", "--statistic", "top_k_order:2",
                               "--predicate", "k_distinct:2")
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["code"] == "capacity"

    def test_dense_kernel_evolution_is_budgeted(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "10")
        code, out, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "4",
                                 "--t", "2", "--statistic", "top_card")
        assert code == 3
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "capacity"
        assert "Monte-Carlo" in error["message"]

    def test_long_horizons_are_budgeted(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "1000")
        # 6 vertices x 3 moves x 69 steps: the sweep runs on to t* for c=2
        code, _, err = run_cli(capsys, "cycle", "--coloring", "RRBRBB", "--x0", "0",
                               "--horizon", "4", "--chebyshev", "2")
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["code"] == "capacity"
        code, _, _ = run_cli(capsys, "cycle", "--coloring", "RRBRBB", "--x0", "0",
                             "--horizon", "4", "--chebyshev", "1")
        assert code == 0
        # 3 positions x 4 branches x 100 steps
        code, _, err = run_cli(capsys, "counterexample", "--n", "3", "--t", "100")
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["code"] == "capacity"
        code, _, _ = run_cli(capsys, "counterexample", "--n", "3", "--t", "80")
        assert code == 0

    def test_broken_invariant_is_internal(self, capsys, monkeypatch):
        """Lumped counts that miss the total mass exit 4, not usage."""
        real = verify.chain_branches

        def lossy(chain, n):
            branches, denom = real(chain, n)
            return branches[1:], denom

        monkeypatch.setattr(verify, "chain_branches", lossy)
        code, out, err = run_cli(capsys, "sst-check", "--chain", "rtt", "--n", "3",
                                 "--t", "2", "--statistic", "top_card",
                                 "--predicate", "any_to_top")
        assert code == 4
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "internal"
        assert "not 3^2" in error["message"]

    def test_invalid_budget_is_usage_error_everywhere(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "frog")
        code, _, err = run_cli(capsys, "counterexample", "--n", "3", "--t", "1")
        assert code == 2
        assert "MIXSCOPE_BUDGET" in json.loads(err.splitlines()[0])["error"]["message"]

    def test_exact_and_samples_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                             "--t", "1", "--statistic", "top_card",
                             "--exact", "--samples", "10", "--seed", "1")
        assert code == 2

    def test_bad_chebyshev_value(self, capsys):
        code, _, _ = run_cli(capsys, "cycle", "--coloring", "RBRB", "--x0", "0",
                             "--horizon", "1", "--chebyshev", "fast")
        assert code == 2

    def test_negative_time_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                             "--t", "-1", "--statistic", "top_card")
        assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixscope.cli", "decompose", "--coloring", "RBRB"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["k"] == 1
