"""End-to-end command-line checks: schemas, determinism, exit codes."""

import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from mixscope import __version__, cli, cycle, shuffles, verify
from mixscope.cli import _jsonable, main
from mixscope.dist import InvariantError, parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def drop_first_branch(monkeypatch, chain):
    """Make the chain's listed branches lose their first move, so every
    count over them misses part of the total mass."""
    record = shuffles.CHAINS[chain]

    def lossy(n):
        branches, denom = record.branches(n)
        return branches[1:], denom

    monkeypatch.setitem(shuffles.CHAINS, chain, dataclasses.replace(record, branches=lossy))


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


# SHA-256 of the --float report bytes, pinned before float rendering moved
# into cli._jsonable: the float view of every law and rational must not move
FLOAT_PINS = [
    (("stat-mix", "--chain", "rtt", "--n", "4", "--t", "2", "--statistic", "top_k_order:2"),
     "b1d246871b3d9e93bedf1aa56b636934fb843dc5571fabbc0c58585a0505d18d",
     "2a0ac252779cacb5761e1726d0cd4137197d5724eda1d56489d22709e3a2fb02"),
    (("stat-mix", "--chain", "riffle", "--n", "3", "--t", "1",
      "--statistic", "relative_order:3,1"),
     "2be8038ef29d986264c2b29a9ecf4253d73d4c0d17c103bb3de5afce4b45d235",
     "c3ce11f1e4a84c17f2d6c66a66ac2b20bfe845f503ba69e2737bfaa56b8fa28b"),
    (("stat-mix", "--chain", "walk1", "--n", "3", "--t", "2", "--statistic", "top_card",
      "--samples", "200", "--seed", "3"),
     "f5159e1a84e03dc1acd11b7ae71b96d2cc068c1b865fee2b9b069110a9282507",
     "4005821dc9ca0345203b19fcd926cb02a5addc262037f14d649d1580693adec8"),
    (("sst-check", "--chain", "rtt", "--n", "4", "--t", "3", "--statistic", "top_k_order:2",
      "--predicate", "k_distinct:2"),
     "52cbc5f59d97dbb7026cf4a8ba47815d08d7c18dd880698c43aeb78a3001eeba",
     "21c53a97e85e73d0fa3bb9d7f2ce344083de1dbbd8f8184813407d106db4d245"),
    (("sst-check", "--chain", "walk1", "--n", "3", "--t", "2", "--statistic", "top_card",
      "--predicate", "any_to_top"),
     "5cbb2f3b89874bf1483422925e9ae8ac6a795424e204593f254086a8d814d0e3",
     "a57ea8d562c70de9510c0e949aab437299e18edab830fa39414bf57081efb020"),
    (("counterexample", "--n", "6", "--t", "4"),
     "e35ad2fec4e69d1a8d10d85a25f767a8fb132fec8611d28a190ab32576d86de6",
     "f9875843672254621224f89b4f1e6f8278bcc898fa7373dfcebc2691ee3cee78"),
    # pinned before the config echo stopped going through a copy of the
    # parsed arguments: every subcommand's config rows keep their order
    (("cycle", "--coloring", "RRBRBB", "--x0", "1", "--horizon", "4",
      "--sets", "4,1;5,3,2,0", "--chebyshev", "1.5,2"),
     "a074a3c2f6da0b26bd93cfedeb7b074860329963bf6c2fbc203f96403da3a20f",
     "c9fb5f38d61917f691af1bcb1f301fc1d09d8700d0d45e26e7b26a4627e1866b"),
    (("decompose", "--coloring", "RRBRBB", "--check-minimality"),
     "b526747fa808ed56c9155c5badcebfe230bf2cd7ea0b3ebc446269cd8104cc51",
     "59c64a24e768a0a8cd5add267cfc7934d48db9b255c7665b7def125f27ac5629"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,json_sha,csv_sha", FLOAT_PINS,
                         ids=["stat-mix-rtt", "stat-mix-riffle", "stat-mix-sampled",
                              "sst-check-certified", "sst-check-refuted", "counterexample",
                              "cycle-sets-chebyshev", "decompose-minimality"])
def test_float_report_bytes_pinned(capsys, argv, json_sha, csv_sha, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--float")
    assert code == 0, err
    expected = json_sha if fmt == "json" else csv_sha
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# SHA-256 of exact cycle reports at long horizons, whose tails and margins are
# rationals of hundreds of digits: pinned while the coverage and vertex-count
# tails still kept their counts in per-window lists
LONG_HORIZON_PINS = [
    (("cycle", "--coloring", "BRBBRBRBRRBR", "--x0", "9", "--horizon", "300",
      "--sets", "0,11;1,2;3,4;5,6;7,8;9,10"),
     "f6da8fc47e49c6dd07fbf15fcc11de6a3f5e0920fd475a3b2b79a784f12eb6b2",
     "80976eec69794547e379de53193fa4bc44ee214f3936ca1a8a016ae68fbb6345"),
    (("cycle", "--coloring", "RBRBRBRBBRBRRBBRBRRBRBBR", "--x0", "4", "--horizon", "600",
      "--chebyshev", "1.5,2,3"),
     "fec24a145426b28371d7d7403e8573a9f9f4fb3b3ceb2ed54d2845f184e0dfbf",
     "a9a4b72c0db8b35e003f2a061db7780a3a99900e555bc6d07b22e439e64454e6"),
    (("cycle", "--coloring", "RRBBRBRRBBRB", "--x0", "0", "--horizon", "300"),
     "339ee5b27fe36e144dde6c668bfdc2e0f253fc63f907541acd92665b890c03c8",
     "a5aa2042d7569a693a8bb98361fd2359dadfea4da9d5ad6b931b24ac3e5e024d"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,json_sha,csv_sha", LONG_HORIZON_PINS,
                         ids=["cycle-12-sets", "cycle-24-chebyshev", "cycle-12"])
def test_long_horizon_report_bytes_pinned(capsys, argv, json_sha, csv_sha, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0, err
    expected = json_sha if fmt == "json" else csv_sha
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# SHA-256 of the seeded Monte Carlo report bytes, pinned while the sampler
# still built a Path per sample: stepping the lumped (deck, summary) state
# must draw the same random numbers and count the same samples
SAMPLED_PINS = [
    (("sst-check", "--chain", "rtt", "--n", "5", "--t", "4", "--statistic", "top_k_order:2",
      "--predicate", "k_distinct:3", "--samples", "300", "--seed", "7"),
     "fa3b268989a6b7b69783e7616a6657120442dffb8da45300c78fcc141a444ecd",
     "a47d24c22730ba1abeba172fbbb24725d445411a512939ab81133d75da401ba8"),
    (("sst-check", "--chain", "rtt", "--n", "5", "--t", "6", "--statistic", "position_of:1",
      "--predicate", "chosen_more_recently_than:2,2", "--samples", "300", "--seed", "8"),
     "6dc7eeb9e312aa883a030552267cbd27268cf2ddeac8dac652b1f74713409545",
     "6dfbf5faa51ba4e83a9e33d03935cefd710d2b8808ef58a1bd65cacf0d47f44c"),
    (("sst-check", "--chain", "walk1", "--n", "4", "--t", "5", "--statistic", "top_card",
      "--predicate", "any_of_chosen:1,3", "--samples", "300", "--seed", "9"),
     "edab868a12610e28b65ccf6f9e0a303feb754e9c14f114ef6a0a738a6a4b2103",
     "c9e3bd701c7d99f011ac30e8f6d07f54db907ea318a41d26e01da62d64a1197e"),
    (("sst-check", "--chain", "riffle", "--n", "4", "--t", "2",
      "--statistic", "relative_order:1,4", "--predicate", "riffle_first_j_strings_distinct:2",
      "--samples", "300", "--seed", "10"),
     "5de3975e6e6a9f54e3802474e471579ca5f482d940a264c19113e08754be1d92",
     "99fcd1acac05a8fdcc4a14e3b215332008f6b910f87d33df6b63e5df413819d7"),
    (("sst-check", "--chain", "riffle", "--n", "4", "--t", "2", "--statistic", "top_card",
      "--predicate", "riffle_set_strings_distinct:1,3", "--samples", "300", "--seed", "11"),
     "fb21ede9d041c4ff6ca0f10818f31684f3d17c985e86c004f90bff95e6c2bcf7",
     "76df71d9b0a9ad2d0d092241a559c10bdd12bdb43ec95f92a2035f376c869fd0"),
    (("sst-check", "--chain", "riffle", "--n", "4", "--t", "3", "--statistic", "block_sets:2",
      "--predicate", "riffle_blocks_nonoverlapping:2", "--samples", "300", "--seed", "12"),
     "b085b477c07402dee41e7b87008a1502b092cd9b97faef3fc36292bd523fdea9",
     "7a978769df2b970163af76025df02fd3dbaa0695e84ef2464b22c210c1c55563"),
    (("stat-mix", "--chain", "rtt", "--n", "5", "--t", "3", "--statistic", "top_k_set:2",
      "--samples", "300", "--seed", "13"),
     "6bfc3f0e8d72d4d10f5d4923743cebd2871aafada878d095d0970c6e48244d94",
     "5d2869493ca77547094ce4957b6747ef7b1aa53e2fd4eb82fea8b9d862dade14"),
    (("stat-mix", "--chain", "walk1", "--n", "4", "--t", "4", "--statistic", "position_of:2",
      "--samples", "300", "--seed", "14"),
     "97b94b9cddd44d217ad5719fa25f0774bb724563c186a371044bc574ce83f917",
     "16692702f43fa6b611f7402877834180326cda2f671f8b093c186766b592132f"),
    (("stat-mix", "--chain", "riffle", "--n", "4", "--t", "2", "--statistic", "parity",
      "--samples", "300", "--seed", "15"),
     "2183122830b4ceb1f58180e56ef061c66482dace34f95b414394ce5e0b45ed28",
     "c28f611507e35af5d7fd180e36cad3f1ae591673380ad305d17b934b3f55871b"),
    # pinned while every card was drawn by randrange: rtt draws read off whole
    # words (n >= 256) and off top bytes up to n = 255, walk1's card draws
    # past a byte, and a sample count far above the 3 distinct paths of
    # rtt n=3 t=1
    (("sst-check", "--chain", "rtt", "--n", "300", "--t", "40", "--statistic", "position_of:17",
      "--predicate", "card_chosen:5", "--samples", "300", "--seed", "16"),
     "fcbacecc8299b4b276a46ca3a35e14ad4281fcc1e316115c40bc2e89e1243432",
     "920e782a697187f1bc624acc594719fc7a76e05eb77f3dbfbb71c7c89558d2bf"),
    (("stat-mix", "--chain", "rtt", "--n", "255", "--t", "30", "--statistic", "top_card",
      "--samples", "300", "--seed", "17"),
     "fe47ec7cf538402e7e40489e19471a751258c881429fa57ab75c26652b29da93",
     "c17a4d8b9dbef731143dd73af7e83b988d022d88ed4867250981ea5c4711a98b"),
    (("sst-check", "--chain", "walk1", "--n", "300", "--t", "50", "--statistic", "top_k_order:2",
      "--predicate", "chosen_more_recently_than:3,2", "--samples", "300", "--seed", "18"),
     "85ff1fc069216714b4388a2c005a79691034d2b5ce4c9a7dfdef7064d04d70d3",
     "907879b93c172112f4e6c8f512aa44dac84056f505969e20f8e94a624a9d11c1"),
    (("sst-check", "--chain", "rtt", "--n", "3", "--t", "1", "--statistic", "top_card",
      "--predicate", "any_to_top", "--samples", "5000", "--seed", "19"),
     "aeb9c7ffeeda27e7de751e14897be5a721c58b8f1a57752c2b39146bab073983",
     "e8b7256026ad5d10fbb95ef01cd5107589bacac0ef7d8408cbdc59b2da00b7bd"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,json_sha,csv_sha", SAMPLED_PINS,
                         ids=["sst-rtt-k_distinct", "sst-rtt-more_recently", "sst-walk1-any_of",
                              "sst-riffle-first_j", "sst-riffle-set", "sst-riffle-blocks",
                              "stat-mix-rtt", "stat-mix-walk1", "stat-mix-riffle",
                              "sst-rtt-300-words", "stat-mix-rtt-255-bytes", "sst-walk1-300",
                              "sst-rtt-3-repeated"])
def test_sampled_report_bytes_pinned(capsys, argv, json_sha, csv_sha, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0, err
    expected = json_sha if fmt == "json" else csv_sha
    assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestStatMix:
    def test_top_card_uniform_after_one_step(self, capsys):
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                       "--t", "1", "--statistic", "top_card")
        res = doc["results"]
        assert res["separation"] == "0/1"
        assert res["total_variation"] == "0/1"
        assert res["law"] == res["stationary"]

    def test_stationary_law_computed_once(self, capsys, monkeypatch):
        real = shuffles.stationary_statistic_distribution
        calls = []

        def counted(n, kind):
            calls.append((n, kind.label()))
            return real(n, kind)

        for module in (shuffles, verify, cli):
            monkeypatch.setattr(module, "stationary_statistic_distribution", counted)
        for chain in ("rtt", "walk1", "riffle"):
            calls.clear()
            run_json(capsys, "stat-mix", "--chain", chain, "--n", "4", "--t", "2",
                     "--statistic", "top_k_order:2")
            assert calls == [(4, "top_k_order:2")]

    def test_monte_carlo_payload(self, capsys):
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                       "--t", "1", "--statistic", "top_card",
                       "--samples", "100", "--seed", "5")
        res = doc["results"]
        assert res["certifies"] is False
        assert res["samples"] == 100
        assert sum(f for _, f in res["law_estimate"]) == pytest.approx(1.0)

    def test_sampled_law_past_the_dense_kernels(self, capsys):
        """Sampling mode has no n <= 8 wall: the stationary law is a closed form."""
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "9", "--t", "5",
                       "--statistic", "top_card", "--samples", "100", "--seed", "1")
        stationary = doc["results"]["stationary"]
        assert stationary["support"] == list(range(1, 10))
        assert stationary["weights"] == ["1/9"] * 9

    def test_sampled_law_with_a_large_stationary_support(self, capsys):
        doc = run_json(capsys, "stat-mix", "--chain", "rtt", "--n", "20", "--t", "40",
                       "--statistic", "top_k_order:3", "--samples", "100", "--seed", "1")
        stationary = doc["results"]["stationary"]
        assert len(stationary["support"]) == 20 * 19 * 18
        assert set(stationary["weights"]) == {"1/6840"}

    def test_exact_law_stops_at_the_dense_kernels(self, capsys):
        code, out, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "9",
                                 "--t", "2", "--statistic", "top_card")
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "usage", "message": "dense kernels cover 2 <= n <= 8; n=9 needs sampler mode"}


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

    def test_certificate_past_the_dense_kernels(self, capsys):
        """Exact certification is bounded by the path budget, not by n <= 8."""
        doc = run_json(capsys, "sst-check", "--chain", "rtt", "--n", "9",
                       "--t", "3", "--statistic", "top_k_order:2",
                       "--predicate", "k_distinct:2")
        res = doc["results"]
        assert res["is_strongly_stationary"] is True
        assert frac(res["q"]) == verify.prob_k_distinct(9, 2, 3) == F(80, 81)
        assert res["sep_bound"] == "1/81"


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_integers_longer_than_the_int_str_limit(self, capsys, fmt):
        # C(15000, 7500) has 4,514 digits; it renders as an exact decimal string
        code, out, err = run_cli(capsys, "counterexample", "--n", "2", "--t", "15000",
                                 "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            value = json.loads(out)["results"]["nonnegative_path_count"]
        else:
            rows = {(r["section"], r["key"]): r["value"]
                    for r in csv.DictReader(io.StringIO(out))}
            value = rows[("results.nonnegative_path_count", "")]
        assert isinstance(value, str) and len(value) > 4300
        assert parse_rational(value) == math.comb(15000, 7500)

    def test_integer_rendering_switches_at_the_limit(self):
        limit = sys.get_int_max_str_digits()
        longest = 10 ** limit - 1
        assert _jsonable(longest, False) is longest
        assert _jsonable(-longest, False) == -longest
        assert _jsonable(10 ** limit, False) == "1" + "0" * limit
        assert _jsonable(-10 ** limit, False) == "-1" + "0" * limit
        assert _jsonable(True, False) is True


class TestExitCodes:
    def test_monte_carlo_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                               "--t", "1", "--statistic", "top_card",
                               "--samples", "10")
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]["code"] == "usage"

    @pytest.mark.parametrize("command,extra", [("sst-check", ("--predicate", "always")),
                                               ("stat-mix", ())])
    def test_negative_seed_is_a_usage_error(self, capsys, command, extra):
        code, out, err = run_cli(capsys, command, "--chain", "rtt", "--n", "3", "--t", "1",
                                 "--statistic", "top_card", *extra, "--samples", "10",
                                 "--seed", "-7")
        assert code == 2
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "usage"
        assert "seed must be nonnegative" in error["message"]

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
        drop_first_branch(monkeypatch, "rtt")
        code, out, err = run_cli(capsys, "sst-check", "--chain", "rtt", "--n", "3",
                                 "--t", "2", "--statistic", "top_card",
                                 "--predicate", "any_to_top")
        assert code == 4
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "internal"
        assert "not 3^2" in error["message"]

    # one case per chain: n! x one step's branches x max(t, 1)
    STAT_MIX_CHARGES = [("rtt", 4, 2, 24 * 4 * 2), ("walk1", 4, 2, 24 * 5 * 2),
                        ("riffle", 3, 2, 6 * 8 * 2), ("rtt", 3, 0, 6 * 3 * 1)]

    @pytest.mark.parametrize("chain,n,t,charge", STAT_MIX_CHARGES)
    def test_stat_mix_charge(self, capsys, monkeypatch, chain, n, t, charge):
        argv = ("stat-mix", "--chain", chain, "--n", str(n), "--t", str(t),
                "--statistic", "top_card")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge))
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge - 1))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"]["code"] == "capacity"

    # RRBRBB from 0 to t=5 (k = 2; 2 moves x 10 half-steps per state).  The
    # distance strip holds 4(2k-1) - 1 = 11 positions.  Coverage keeps the
    # windows [0, r], r <= 4, 15 states: one half-step left reaches the
    # midpoint 11 both sets share, and r = 5 the shared midpoint 5.  Vertex
    # count keeps the 12 windows that show at most 2 vertices, 40 states.
    TAIL_CHARGES = [("distance_moved_tail", "distance-moved", 11 * 2 * 10),
                    ("coverage_time_tail", "coverage", 15 * 2 * 10),
                    ("vertex_count_tail", "vertex-count", 40 * 2 * 10)]

    @pytest.mark.parametrize("tail,name,charge", TAIL_CHARGES)
    def test_cycle_tail_charge(self, capsys, monkeypatch, tail, name, charge):
        """The other two tails are stubbed, so this one's charge is the
        largest of the run (the color sweep charges 6 x 3 x 5)."""
        for other, _, _ in self.TAIL_CHARGES:
            if other != tail:
                monkeypatch.setattr(cli, other,
                                    lambda coloring, x0, horizon, sets=None: [F(1)] * (horizon + 1))
        argv = ("cycle", "--coloring", "RRBRBB", "--x0", "0", "--horizon", "5")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge))
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(charge - 1))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "capacity"
        assert f"{name} tail on 6 vertices to t=5 needs {charge} " in error["message"]

    def test_refused_tail_runs_no_color_sweep(self, capsys, monkeypatch):
        """The tails charge before the separation sweep runs, so a refused
        tail costs no sweep and its error text is unchanged."""
        def no_sweep(coloring, x0, horizon):
            raise AssertionError("separation_profile ran before a refused tail")

        monkeypatch.setattr(cli, "separation_profile", no_sweep)
        monkeypatch.setenv("MIXSCOPE_BUDGET", "299")
        code, out, err = run_cli(capsys, "cycle", "--coloring", "RRBRBB", "--x0", "0",
                                 "--horizon", "5")
        assert code == 3
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "capacity"
        assert "coverage tail on 6 vertices to t=5 needs 300 " in error["message"]

    def test_wide_tail_is_refused_before_listing_windows(self, capsys, monkeypatch):
        """An 800-vertex coverage tail is charged from a count over its left
        ends, a few thousand rule calls rather than one per alive window
        (about 320,000), and refused before any window is listed: every
        rule call comes from the closed-form count, and no table is swept."""
        real_tail, real_states = cycle._halfstep_tail, cycle._alive_states
        calls = 0
        counting = False

        def counting_states(horizon, absorbed):
            nonlocal counting
            counting = True
            try:
                return real_states(horizon, absorbed)
            finally:
                counting = False

        def counting_tail(coloring, x0, horizon, absorbed, name):
            def rule(l, r):
                nonlocal calls
                calls += 1
                if calls > 50_000:
                    raise AssertionError("the absorption rule ran once per window")
                if not counting:
                    raise AssertionError("a window was listed outside the charge")
                return absorbed(l, r)
            return real_tail(coloring, x0, horizon, rule, name)

        def no_sweep(half_steps, start, horizon, read=sum):
            raise AssertionError("a table was swept before the refused charge")

        monkeypatch.setattr(cycle, "_halfstep_tail", counting_tail)
        monkeypatch.setattr(cycle, "_alive_states", counting_states)
        monkeypatch.setattr(cycle, "_sweep", no_sweep)
        monkeypatch.delenv("MIXSCOPE_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "cycle", "--coloring", "R" * 400 + "B" * 400,
                                 "--x0", "0", "--horizon", "1000")
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "capacity",
            "message": "coverage tail on 800 vertices to t=1000 needs 680108800000 branches, "
                       "over the budget of 10000000; use a shorter horizon"}

    def test_lossy_tally_is_internal(self, capsys, monkeypatch):
        """A law tally that misses its total mass exits 4, not usage."""
        real = shuffles.stationary_tally

        def lossy(n, kind):
            tally = real(n, kind)
            del tally[next(iter(tally))]
            return tally

        monkeypatch.setattr(shuffles, "stationary_tally", lossy)
        code, out, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                                 "--t", "1", "--statistic", "top_card")
        assert code == 4
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "internal"
        assert "not 6" in error["message"]

    def test_broken_invariant_in_stat_mix_is_internal(self, capsys, monkeypatch):
        """Deck counts that miss the total mass exit 4, not usage."""
        drop_first_branch(monkeypatch, "walk1")
        code, out, err = run_cli(capsys, "stat-mix", "--chain", "walk1", "--n", "3",
                                 "--t", "2", "--statistic", "top_card")
        assert code == 4
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "internal"
        assert "not 6^2" in error["message"]

    @pytest.mark.parametrize("chain,n,t", [("rtt", 3, 2), ("walk1", 3, 2), ("riffle", 2, 1)])
    def test_one_mass_check_for_law_and_certificate(self, capsys, monkeypatch, chain, n, t):
        """stat-mix and sst-check run one lumped count: with a move missing,
        both refuse in the library and exit 4 with the same message."""
        drop_first_branch(monkeypatch, chain)
        stat = shuffles.parse_statistic("top_card", n)
        stationary = shuffles.stationary_statistic_distribution(n, stat)
        with pytest.raises(InvariantError) as law_error:
            verify.statistic_law_at(chain, n, t, stat, stationary)
        with pytest.raises(InvariantError) as certificate_error:
            verify.check_strong_stationarity(chain, n, t, verify.ALWAYS, stat)
        message = str(law_error.value)
        assert message.startswith("lumped counts sum to ")
        assert str(certificate_error.value) == message
        common = ("--chain", chain, "--n", str(n), "--t", str(t), "--statistic", "top_card")
        for argv in (("stat-mix", *common), ("sst-check", *common, "--predicate", "always")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 4, argv
            assert out == ""
            assert json.loads(err.splitlines()[0])["error"] == {
                "code": "internal", "message": message}

    def test_invalid_budget_is_usage_error_everywhere(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXSCOPE_BUDGET", "frog")
        code, _, err = run_cli(capsys, "counterexample", "--n", "3", "--t", "1")
        assert code == 2
        assert "MIXSCOPE_BUDGET" in json.loads(err.splitlines()[0])["error"]["message"]

    def test_exact_and_samples_conflict(self, capsys):
        """Exact mode is the default and has no flag: argparse refuses --exact,
        alone or with --samples."""
        for extra in ((), ("--samples", "10", "--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["stat-mix", "--chain", "rtt", "--n", "3", "--t", "1",
                      "--statistic", "top_card", "--exact", *extra])
            assert exc.value.code == 2
            assert "unrecognized arguments: --exact" in capsys.readouterr().err

    @pytest.mark.parametrize("chain,t,predicate", [("rtt", 8, "any_to_top"),
                                                   ("walk1", 7, "any_to_top"),
                                                   ("riffle", 3, "always")])
    def test_oversized_sst_check_is_refused_before_the_dp(self, capsys, monkeypatch,
                                                           chain, t, predicate):
        """A path count over the budget is refused before any lumped step."""
        paths = {"rtt": 10 ** 8, "walk1": 11 ** 7, "riffle": 2 ** 30}[chain]

        def refuse(*args):
            raise AssertionError("the lumped DP ran")

        for name, record in list(shuffles.CHAINS.items()):
            monkeypatch.setitem(shuffles.CHAINS, name, dataclasses.replace(record, advance=refuse))
        monkeypatch.delenv("MIXSCOPE_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "sst-check", "--chain", chain, "--n", "10",
                                 "--t", str(t), "--statistic", "top_card",
                                 "--predicate", predicate)
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "capacity",
            "message": f"path enumeration {chain} n=10 t={t} needs {paths} branches, "
                       "over the budget of 10000000; use Monte-Carlo mode"}

    def test_zero_steps_are_charged_one_step_of_branches(self, capsys, monkeypatch):
        """t = 0 has one path, but the count still lists one step's branches,
        2^24 riffle columns here, so it is charged as one step and refused
        before any branch is listed."""
        def refuse(n):
            raise AssertionError("the branches were listed")

        monkeypatch.setitem(shuffles.CHAINS, "riffle",
                            dataclasses.replace(shuffles.CHAINS["riffle"], branches=refuse))
        monkeypatch.delenv("MIXSCOPE_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "sst-check", "--chain", "riffle", "--n", "24",
                                 "--t", "0", "--statistic", "top_card", "--predicate", "always")
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "capacity",
            "message": f"path enumeration riffle n=24 t=0 needs {2 ** 24} branches, "
                       "over the budget of 10000000; use Monte-Carlo mode"}

    def test_lumped_decks_are_charged_past_the_dense_range(self, capsys, monkeypatch):
        """Past n = 8 a certification is charged its paths times n, the cards
        of the lumped decks it may hold; up to n = 8 the paths alone."""
        argv = ("sst-check", "--chain", "rtt", "--t", "2", "--statistic", "top_card",
                "--predicate", "any_to_top")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(8 ** 2))
        run_json(capsys, *argv, "--n", "8")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(9 ** 2 * 9))
        run_json(capsys, *argv, "--n", "9")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(9 ** 2 * 9 - 1))
        code, out, err = run_cli(capsys, *argv, "--n", "9")
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "capacity",
            "message": "lumped decks rtt n=9 t=2 needs 729 branches, over the budget of 728; "
                       "use Monte-Carlo mode"}

    def test_large_stationary_support_is_refused_before_listing(self, capsys, monkeypatch):
        """The stationary law is charged its support size, 20!/10! here,
        before any value is listed."""
        def no_listing(n, kind):
            raise AssertionError("the stationary values were listed")

        monkeypatch.setattr(shuffles, "stationary_tally", no_listing)
        monkeypatch.delenv("MIXSCOPE_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "20", "--t", "5",
                                 "--statistic", "positions_of:1,2,3,4,5,6,7,8,9,10",
                                 "--samples", "10", "--seed", "1")
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "capacity",
            "message": "stationary law of positions_of:1,2,3,4,5,6,7,8,9,10 n=20 needs "
                       f"{math.factorial(20) // math.factorial(10)} branches, over the budget "
                       "of 10000000; use a statistic with fewer values"}

    @pytest.mark.parametrize("statistic,support", [("top_k_order:3", 120), ("top_k_set:3", 20),
                                                   ("block_sets:2", 90), ("distance:1,6", 5)])
    def test_stationary_charge_is_the_support_size(self, capsys, monkeypatch, statistic,
                                                   support):
        """Sampling mode charges nothing else, so the stationary law's
        support size is the whole charge."""
        argv = ("stat-mix", "--chain", "rtt", "--n", "6", "--t", "2", "--statistic", statistic,
                "--samples", "10", "--seed", "1")
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(support))
        doc = run_json(capsys, *argv)
        assert len(doc["results"]["stationary"]["support"]) == support
        monkeypatch.setenv("MIXSCOPE_BUDGET", str(support - 1))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == "capacity"
        assert error["message"].startswith(
            f"stationary law of {statistic} n=6 needs {support} branches")

    @pytest.mark.parametrize("extra", [(), ("--p0", "1")])
    def test_empty_deck_counterexample_names_n(self, capsys, extra):
        code, out, err = run_cli(capsys, "counterexample", "--n", "0", *extra)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "usage", "message": "n must be at least 1, got 0"}
        doc = run_json(capsys, "counterexample", "--n", "1", *extra)
        assert doc["results"]["position_law"]["weights"] == ["1/1"]

    def test_bad_chebyshev_value(self, capsys):
        code, _, _ = run_cli(capsys, "cycle", "--coloring", "RBRB", "--x0", "0",
                             "--horizon", "1", "--chebyshev", "fast")
        assert code == 2

    @pytest.mark.parametrize("value,code,kind", [("inf", 2, "usage"), ("nan", 2, "usage"),
                                                  ("1e308", 2, "usage"), ("", 2, "usage"),
                                                  ("1e20", 3, "capacity")])
    def test_chebyshev_value_without_a_finite_time(self, capsys, value, code, kind):
        """A c whose t* is not finite is bad input, as is an empty value; a
        finite but huge t* is a sweep the budget refuses."""
        got, out, err = run_cli(capsys, "cycle", "--coloring", "RRBRBB", "--x0", "1",
                                "--horizon", "4", "--chebyshev", value)
        assert got == code
        assert out == ""
        error = json.loads(err.splitlines()[0])["error"]
        assert error["code"] == kind
        if kind == "usage":
            assert error["message"] == f"bad --chebyshev value {value!r}"

    @pytest.mark.parametrize("target,reason", [("missing/report.json", "No such file or directory"),
                                               ("taken", "Is a directory")])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, target, reason):
        (tmp_path / "taken").mkdir()
        out_path = str(tmp_path / target)
        code, out, err = run_cli(capsys, "decompose", "--coloring", "RRBB", "--out", out_path)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[0])["error"] == {
            "code": "usage", "message": f"cannot write --out {out_path}: {reason}"}
        assert not list(tmp_path.rglob(".mixscope-*"))

    def test_negative_time_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "stat-mix", "--chain", "rtt", "--n", "3",
                             "--t", "-1", "--statistic", "top_card")
        assert code == 2


def request(capsys, argv):
    """(exit code, stdout, stderr with the timing stripped) of one main() call;
    an argparse exit counts as its SystemExit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, re.sub(r"finished in [0-9.]+s", "finished", captured.err)


EXACT = ("stat-mix", "--chain", "rtt", "--n", "3", "--t", "2", "--statistic", "parity")
SAMPLED = EXACT + ("--samples", "50", "--seed", "1")
SST = ("sst-check", "--chain", "rtt", "--n", "3", "--t", "2", "--statistic", "top_card",
       "--predicate", "always")
SST_CSV_FLOAT = SST + ("--format", "csv", "--float")
CYCLE = ("cycle", "--coloring", "RRBRBB", "--x0", "1", "--horizon", "4")
CYCLE_CHEBYSHEV = CYCLE + ("--chebyshev", "1,2")
DECOMPOSE = ("decompose", "--coloring", "RRBRBB")
COUNTEREXAMPLE = ("counterexample",)
COUNTEREXAMPLE_P0 = ("counterexample", "--n", "5", "--t", "3", "--p0", "2")
EXACT_FLAG = EXACT + ("--exact",)
NO_PREDICATE = SST[:-2]
UNKNOWN_SUBCOMMAND = ("frog",)
BAD_CHAIN = ("stat-mix", "--chain", "frog", "--n", "3", "--t", "2", "--statistic", "parity")
VERSION = ("--version",)


class TestOneParserPerProcess:
    """main() builds its parser on the first call and reuses it; a reused
    parser carries nothing from one request to the next."""

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for argv in (EXACT, SST, CYCLE, DECOMPOSE, COUNTEREXAMPLE_P0, UNKNOWN_SUBCOMMAND):
            request(capsys, argv)
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    # Each request recurs after others that set options it leaves at their
    # defaults, and after every kind of failed request.
    SEQUENCE = (
        (EXACT, 0), (SAMPLED, 0), (EXACT, 0),
        (SST, 0), (SST_CSV_FLOAT, 0), (SST, 0),
        (CYCLE, 0), (CYCLE_CHEBYSHEV, 0), (CYCLE, 0), (CYCLE_CHEBYSHEV, 0),
        (COUNTEREXAMPLE, 0), (COUNTEREXAMPLE_P0, 0), (COUNTEREXAMPLE, 0),
        (DECOMPOSE, 0),
        (EXACT_FLAG, 2), (EXACT, 0), (EXACT_FLAG, 2),
        (NO_PREDICATE, 2), (SST, 0), (NO_PREDICATE, 2),
        (UNKNOWN_SUBCOMMAND, 2), (DECOMPOSE, 0), (UNKNOWN_SUBCOMMAND, 2),
        (BAD_CHAIN, 2), (SAMPLED, 0), (BAD_CHAIN, 2),
        (VERSION, 0), (COUNTEREXAMPLE_P0, 0), (VERSION, 0), (SST_CSV_FLOAT, 0),
    )

    def test_repeated_requests_match_their_first_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        first = {}
        for argv, code in self.SEQUENCE:
            result = request(capsys, argv)
            assert result[0] == code, (argv, result[2])
            assert result == first.setdefault(argv, result), argv
        assert min(collections.Counter(argv for argv, _ in self.SEQUENCE).values()) >= 2

    def test_first_runs_are_what_they_claim(self, capsys):
        assert json.loads(request(capsys, EXACT)[1])["config"]["mode"] == "exact"
        assert json.loads(request(capsys, SAMPLED)[1])["config"]["mode"] == "monte-carlo"
        assert request(capsys, SST)[1].startswith("{")
        assert not request(capsys, SST_CSV_FLOAT)[1].startswith("{")
        assert "chebyshev" not in request(capsys, CYCLE)[1]
        assert "chebyshev" in request(capsys, CYCLE_CHEBYSHEV)[1]
        assert json.loads(request(capsys, COUNTEREXAMPLE)[1])["config"]["n"] == 52
        code, out, _ = request(capsys, VERSION)
        assert (code, out.strip()) == (0, __version__)
        err = request(capsys, BAD_CHAIN)[2]
        assert json.loads(err.splitlines()[0])["error"]["code"] == "usage"
        for argv, message in ((EXACT_FLAG, "unrecognized arguments: --exact"),
                              (NO_PREDICATE, "required: --predicate"),
                              (UNKNOWN_SUBCOMMAND, "invalid choice: 'frog'")):
            code, out, err = request(capsys, argv)
            assert (code, out) == (2, "")
            assert message in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixscope.cli", "decompose", "--coloring", "RBRB"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["k"] == 1
