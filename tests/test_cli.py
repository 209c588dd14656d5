"""CLI surface: tokens, reports, exit codes, witnesses, determinism."""

import contextlib
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tomllib
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import turansep
from host_files import host_texts
from turansep.cli import parse_family_token, run
from turansep.criteria import verify_counterexample
from turansep.embed import Embedding, is_free, validate_embedding
from turansep.errors import ParameterError
from turansep.exact import random_maximal_free, turan_number
from turansep.hypergraph import FamilySpec, build_named, from_edges, parse, serialize


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_family_tokens():
    assert parse_family_token("K:5,3") == build_named(FamilySpec.complete(5, 3))
    assert parse_family_token("K-:5,3").edge_count == 9
    h = parse_family_token("D:2,4")
    assert h.n == 5 and h.edge_count == 2
    assert parse_family_token("S6").edge_count == 10
    with pytest.raises(ParameterError):
        parse_family_token("K:5")
    with pytest.raises(ParameterError):
        parse_family_token("no-such-file.hg")


def test_build_emits_parseable_graph(capsys):
    code, out = invoke(capsys, "build", "S6")
    assert code == 0
    assert parse(out) == build_named(FamilySpec.s6())


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "s6.hg"
    code, out = invoke(capsys, "build", "S6", "--out", str(target))
    assert code == 0
    assert parse(target.read_text()) == build_named(FamilySpec.s6())
    assert "input.edges: 10" in out


def test_contains_exit_codes(capsys):
    code, out = invoke(capsys, "contains", "K-:5,3", "K:4,3", "--json")
    assert code == 0
    mapping = json.loads(out)["embedding"]
    host = build_named(FamilySpec.complete_minus(5, 3))
    target = build_named(FamilySpec.complete(4, 3))
    assert validate_embedding(host, target, Embedding(tuple(mapping)))
    code, _ = invoke(capsys, "contains", "S6", "K:4,3")
    assert code == 1


def test_free_check_exit_codes(tmp_path, capsys):
    code, out = invoke(capsys, "free-check", "S6", "K:4,3")
    assert code == 0 and "free: True" in out
    code, out = invoke(capsys, "free-check", "K:5,3", "K:4,3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["method"] == "subset-scan"
    assert payload["violation"]["subset"] == [0, 1, 2, 3]
    # the method follows the target graph, not how it was named: the same
    # target as a file gets the same method and violation
    k4_file = tmp_path / "k4.hg"
    k4_file.write_text(serialize(build_named(FamilySpec.complete(4, 3))))
    code, out = invoke(capsys, "free-check", "S6", str(k4_file))
    assert code == 0 and "method: subset-scan" in out
    code, out = invoke(capsys, "free-check", "K:5,3", str(k4_file), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["method"] == "subset-scan"
    assert payload["violation"] == {"subset": [0, 1, 2, 3], "spanned": 4}


def test_free_check_embedding_path(capsys):
    code, out = invoke(capsys, "free-check", "K:6,3", "S6", "--json")
    payload = json.loads(out)
    assert payload["method"] == "embedding-search"
    assert code == 1 and "embedding" in payload["violation"]


def test_turan_command(capsys):
    code, out = invoke(capsys, "turan", "4", "K:4,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3 and payload["exhausted"]
    code, out = invoke(capsys, "turan", "6", "K:4,3", "--budget", "5", "--json")
    assert code == 3
    assert json.loads(out)["exhausted"] is False


def test_turan_budget_cut_s6_n12(capsys):
    # the copy index of S6 on 12 vertices is built before the search can
    # hit its budget, so that build must stay cheap
    start = time.monotonic()
    code, out = invoke(capsys, "turan", "12", "S6", "--budget", "10", "--json")
    elapsed = time.monotonic() - start
    assert code == 3
    payload = json.loads(out)
    assert payload["exhausted"] is False
    assert (payload["value"], payload["nodes_explored"]) == (10, 11)
    # the ladder searches only its first level, ex(6, S6), which needs 47
    # nodes; its cut leaves the bound to the arithmetic from there on
    assert payload["cap"]["ladder"] == [
        {"n": 6, "value": 10, "nodes": 11, "exhausted": False}]
    assert payload["cap"]["closed"] is False
    assert turan_number(6, build_named(FamilySpec.s6())).nodes_explored == 47
    witness = from_edges(3, 12, payload["witness_edges"])
    assert witness.edge_count == payload["value"]
    assert is_free(witness, build_named(FamilySpec.s6()))
    assert elapsed < 5.0


def test_turan_search_deeper_than_recursion_limit(capsys):
    # every 3-graph on 20 vertices but the complete one is K:20,3-free, so
    # the include-first dive takes 1139 of the 1140 candidates, one
    # recursion level each: deeper than the default limit
    limit = sys.getrecursionlimit()
    code, out = invoke(capsys, "turan", "20", "K:20,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exhausted"] is True
    assert (payload["value"], payload["nodes_explored"]) == (1139, 1139)
    assert sys.getrecursionlimit() == limit


def test_turan_target_that_does_not_fit_needs_no_search(capsys):
    # K:11,3 does not fit on 10 vertices: ex = C(10, 3) with no search, so
    # no budget cuts it
    code, out = invoke(capsys, "turan", "10", "K:11,3", "--budget", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["nodes_explored"]) == (120, 0)
    assert payload["exhausted"] is True and payload["cap"]["closed"] is True
    assert len(payload["witness_edges"]) == 120


def test_turan_one_edge_target_makes_no_child(capsys):
    # a one-edge F kills every candidate at the root, which is not a node,
    # so each search makes no child: value 0 and 0 nodes at every n >= v(F),
    # as for an F that does not fit
    for f in (parse_family_token("D:1,3"),
              *(from_edges(3, vf, [(0, 1, 2)]) for vf in (3, 4, 5))):
        for n in range(f.n, 8):
            res = turan_number(n, f)
            assert (res.value, res.nodes_explored, res.exhausted) == (0, 0, True)
            assert all((level.value, level.nodes, level.exhausted) == (0, 0, True)
                       for level in res.ladder)
    code, out = invoke(capsys, "turan", "4", "D:1,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["nodes_explored"]) == (0, 0)
    assert payload["exhausted"] is True


def test_separate_command(capsys):
    code, out = invoke(capsys, "separate", "K:5,3", "K:4,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "separated"
    assert payload["condition2"]["holds"] and payload["condition1"]["holds"] is False
    # condition 2 alone separates K5 from K4, so a cut condition 1 is moot
    code, out = invoke(capsys, "separate", "K:5,3", "K:4,3", "--budget", "5", "--json")
    assert code == 0 and json.loads(out)["condition1"]["holds"] == "unknown"
    # condition 2 fails for K5-minus, so the cut condition 1 leaves the
    # verdict undecided: the budget ran out, not the property
    code, out = invoke(capsys, "separate", "K-:5,3", "K:4,3", "--budget", "3", "--json")
    payload = json.loads(out)
    assert code == 3 and payload["verdict"] == "not-established"
    assert payload["condition1"]["holds"] == "unknown"
    assert payload["condition2"]["holds"] is False
    # a cut search whose witness already reaches the threshold decides
    # condition 1: ex(5, K4) >= 5, and 5 + 4 >= 9 = e(K5-minus)
    code, out = invoke(capsys, "separate", "K-:5,3", "K:4,3", "--budget", "5", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "not-established"
    assert payload["condition1"]["ex_exhausted"] is False
    assert (payload["condition1"]["ex_value"], payload["condition1"]["holds"]) == (5, False)
    assert payload["condition2"]["holds"] is False
    code, out = invoke(capsys, "separate", "K-:5,3", "K:4,3", "--json")
    assert code == 1 and json.loads(out)["condition1"]["holds"] is False


def test_separate_corollary_pair_k13(capsys):
    # condition 1 closes at the KNS cap 97 = ex(15, K_14^13); without the
    # cap the search found 97 and then spent minutes failing to prove it
    start = time.monotonic()
    code, out = invoke(capsys, "separate", "K-:15,13", "K:14,13", "--json")
    elapsed = time.monotonic() - start
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "separated"
    assert payload["condition1"]["ex_value"] == 97
    assert payload["condition1"]["holds"] is True
    assert elapsed < 10.0


def test_condition2_witness_revalidates(capsys):
    code, out = invoke(capsys, "condition2", "K-:5,3", "K:4,3", "--json")
    assert code == 1
    partition = json.loads(out)["condition2"]["counterexample_partition"]
    f = build_named(FamilySpec.complete_minus(5, 3))
    fs = build_named(FamilySpec.complete(4, 3))
    assert verify_counterexample(f, fs, tuple(tuple(p) for p in partition))


def test_condition2_reports_pinned(capsys):
    code, out = invoke(capsys, "condition2", "K-:9,5", "K:8,5", "--json")
    assert code == 1
    assert json.loads(out)["condition2"] == {
        "holds": False, "partitions_checked": 9,
        "counterexample_partition": [[4, 5, 6, 7, 8], [0], [1], [2], [3]]}
    code, out = invoke(capsys, "condition2", "K-:9,6", "K:8,6", "--json")
    assert code == 0
    assert json.loads(out)["condition2"] == {
        "holds": True, "partitions_checked": 9}


def test_condition1_command(capsys):
    code, out = invoke(capsys, "condition1", "D:4,4", "D:2,4", "--json")
    assert code == 0
    assert json.loads(out)["condition1"]["holds"] is True
    code, _ = invoke(capsys, "condition1", "K:4,3", "K:4,3")
    assert code == 1
    code, out = invoke(capsys, "condition1", "K-:5,3", "K:4,3", "--budget", "3",
                       "--json")
    assert code == 3
    assert json.loads(out)["condition1"]["holds"] == "unknown"


def test_condition1_holds_from_the_cap_of_a_cut_search(capsys):
    # the ladder closes ex(8, K4) = 36, so the cap on ex(9, K4) is
    # floor(9 * 36 / 6) = 54, and 54 + 27 < 84 = e(K:9,3) settles condition
    # 1 although the search on 9 vertices runs out of its budget
    start = time.monotonic()
    code, out = invoke(capsys, "condition1", "K:9,3", "K:4,3", "--budget", "150000",
                       "--json")
    elapsed = time.monotonic() - start
    report = json.loads(out)["condition1"]
    assert code == 0 and report["holds"] is True
    assert report["ex_exhausted"] is False
    assert report["ex_upper"] == 54
    assert (report["floor_product"], report["e_f"]) == (27, 84)
    assert elapsed < 30


def test_construct_six_part(tmp_path, capsys):
    out_file = tmp_path / "h.hg"
    code, out = invoke(capsys, "construct", "six-part", "3", "3", "4", "3", "3",
                       "4", "--out", str(out_file))
    assert code == 0
    assert "layer_counts.transversal: 588" in out
    graph = parse(out_file.read_text())
    assert graph.n == 20


def test_construct_augment(tmp_path, capsys):
    k4 = build_named(FamilySpec.complete(4, 3))
    h = random_maximal_free(10, k4, seed=4)
    src = tmp_path / "h.hg"
    src.write_text(serialize(h))
    code, out = invoke(capsys, "construct", "augment", str(src), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["added_edges"] == 2
    assert parse(payload["graph"]).edge_count == h.edge_count + 2


def test_construct_blowup_and_s6star(capsys):
    code, out = invoke(capsys, "construct", "blowup", "S6", "2", "2", "2", "2",
                       "2", "2", "--json")
    assert code == 0 and json.loads(out)["result"]["edges"] == 80
    code, out = invoke(capsys, "construct", "s6star", "36", "--json")
    assert code == 0 and json.loads(out)["result"]["edges"] == 2220


def test_densopt_command(capsys):
    code, out = invoke(capsys, "densopt", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"]["exact_value"] == "31097/59248 + 277/59248*sqrt(277)"
    assert abs(payload["optimum"]["value"] - 0.602673) < 1e-6


def test_crossing_command(tmp_path, capsys):
    src = tmp_path / "k12.hg"
    src.write_text(serialize(build_named(FamilySpec.complete(12, 3))))
    code, out = invoke(capsys, "crossing", str(src), "--t0", "4", "--trials",
                       "50", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_expectation"] == "27"
    assert payload["empirical_mean"] == 27.0


# Made with the edge-mask count, the oracle in test_partitions.py.  Unlike
# on K12, the count here depends on the parts, so a wrong count shows.
PINNED_CROSSING_REPORT = """{
  "command": "crossing",
  "crossing_probability": "27/220",
  "empirical_mean": 13.431,
  "exact_expectation": "27/2",
  "host": "r12.hg",
  "seed": 7,
  "t0": 4,
  "trials": 1000,
  "version": "0.1.0",
  "z_score": -0.9291504215090206
}
"""


def test_crossing_report_pinned(tmp_path, capsys, monkeypatch):
    rng = random.Random(12)
    h = from_edges(3, 12, rng.sample(list(combinations(range(12), 3)), 110))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r12.hg").write_text(serialize(h))
    for threads in ("1", "8"):
        code, out = invoke(capsys, "crossing", "r12.hg", "--t0", "4", "--seed",
                           "7", "--threads", threads, "--json")
        assert code == 0
        assert out == PINNED_CROSSING_REPORT


# Three parts of one vertex on 24 vertices: the draw past random.sample's
# pool cutoff, which keeps a set of the picks.  The host holds about half
# of all triples, so each trial counts 0 or 1 edges and the mean follows
# the parts drawn: the same seeds drawn from a pool give mean 0.48.
PINNED_SET_REGIME_CROSSING_REPORT = """{
  "command": "crossing",
  "crossing_probability": "1/2024",
  "empirical_mean": 0.46,
  "exact_expectation": "125/253",
  "host": "r24.hg",
  "seed": 11,
  "t0": 24,
  "trials": 300,
  "version": "0.1.0",
  "z_score": -1.1820791116862999
}
"""


def test_set_regime_crossing_report_pinned(tmp_path, monkeypatch):
    rng = random.Random(24)
    h = from_edges(3, 24, rng.sample(list(combinations(range(24), 3)), 1000))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r24.hg").write_text(serialize(h))
    for threads in ("1", "8"):
        argv = ["crossing", "r24.hg", "--t0", "24", "--trials", "300", "--seed",
                "11", "--threads", threads, "--json"]
        assert _run_captured(argv) == (0, PINNED_SET_REGIME_CROSSING_REPORT, "")


def test_reused_parser_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # run builds its parser once per process; a sequence of calls in one
    # process must give what each call gives in a process of its own
    host = tmp_path / "g.hg"
    host.write_text(serialize(random_maximal_free(9, build_named(FamilySpec.complete(4, 3)), 0)))
    calls = [
        ["crossing", str(host), "--t0", "3", "--trials", "50", "--seed", "5"],
        ["crossing", str(host), "--t0", "3", "--trials", "50"],
        ["turan", "6", "K:4,3", "--budget", "5", "--json"],
        ["turan", "x", "K:4,3"],
        ["free-check", str(host), "K:4,3", "--timing"],
        ["free-check", str(host), "D:2,3", "--json", "--timing"],
        [],
        ["construct", "s6star", "abc"],
        ["contains", "K-:5,3", "K:4,3", "--json"],
        ["turan", "5", "K:4,3"],
        ["crossing", str(host), "--t0", "3", "--trials", "50", "--json"],
        ["densopt", "--out", "x.hg"],
    ]
    # the usage text wraps at the terminal width, and the reported time varies
    env = {"PATH": "", "COLUMNS": "80",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TURANSEP_SEED", raising=False)

    def untimed(text):
        return re.sub(r"(timing_seconds\"?:) [0-9.]+", r"\1 T", text)

    in_process = []
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, untimed(captured.out), captured.err))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from turansep.cli import run; sys.exit(run(sys.argv[1:]))",
             *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
        fresh.append((proc.returncode, untimed(proc.stdout), proc.stderr))
    assert [c for c, _, _ in in_process] == [0, 0, 3, 2, 0, 1, 2, 2, 0, 0, 0, 2]
    assert in_process == fresh
    assert not (tmp_path / "x.hg").exists()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    src = tmp_path / "g.hg"
    k4 = build_named(FamilySpec.complete(4, 3))
    src.write_text(serialize(random_maximal_free(9, k4, 0)))
    monkeypatch.setenv("TURANSEP_SEED", "17")
    _, with_env = invoke(capsys, "crossing", str(src), "--t0", "3")
    monkeypatch.delenv("TURANSEP_SEED")
    _, with_flag = invoke(capsys, "crossing", str(src), "--t0", "3", "--seed", "17")
    assert with_env == with_flag
    # a non-integer is invalid input, and --seed still wins over it
    monkeypatch.setenv("TURANSEP_SEED", "abc")
    assert run(["crossing", str(src), "--t0", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: TURANSEP_SEED must be an integer, got 'abc'\n")
    assert invoke(capsys, "crossing", str(src), "--t0", "3", "--seed", "17") == (
        0, with_flag)


def test_invalid_inputs_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.hg"
    binary.write_bytes(b"\xff\xfe\x00")
    k4_free = tmp_path / "k4_free.hg"
    k4_free.write_text(serialize(from_edges(3, 10, [(0, 1, 2)])))
    edgeless = tmp_path / "edgeless.hg"
    edgeless.write_text(serialize(from_edges(3, 4, [])))
    # a single edge on k vertices: too few vertices for condition 1
    triangle = tmp_path / "triangle.hg"
    triangle.write_text("3 3\n0 1 2\n")
    # a vertex count beyond the index range of the machine
    huge = "99999999999999999999"
    oversized = tmp_path / "oversized.hg"
    oversized.write_text(f"3 {huge}\n0 1 2\n")
    for argv in (
        ["build", "K:3,3"],
        ["turan", "5", "missing.hg"],
        ["condition2", "K:4,3", "K:5,3"],
        ["free-check", "K:6,4", "K:5,3"],
        ["construct", "s6star", "abc"],
        ["construct", "blowup", "S6", "2", "2", "x"],
        ["construct", "blowup"],
        ["construct", "augment"],
        # parameters after the file are not dropped
        ["construct", "augment", str(k4_free), "bogus", "7",
         "--out", str(tmp_path / "augmented.hg")],
        ["build", str(tmp_path)],
        ["free-check", "S6", str(tmp_path)],
        ["build", str(binary)],
        # --out that cannot be written: no report is printed
        ["build", "S6", "--out", str(tmp_path / "missing" / "s6.hg")],
        ["construct", "s6star", "7", "--out", str(tmp_path)],
        # ex(v(F), F') has no value when F' has no edges
        ["condition1", "D:1,3", str(edgeless)],
        ["separate", "D:1,3", str(edgeless)],
        # ex(v(F), F') needs v(F) > k
        ["condition1", str(triangle), str(triangle)],
        ["separate", str(triangle), str(triangle)],
        # numbers too large for the command
        ["build", f"K:{huge},3"],
        ["build", f"D:2,{huge}"],
        ["construct", "s6star", huge],
        ["construct", "bipartite-g", huge],
        ["construct", "blowup", "S6", "1", "1", "1", "1", "1", huge],
        ["construct", "six-part", "1", "1", "1", "1", "1", huge],
        ["free-check", str(oversized), "K:4,3"],
        ["condition2", "K:5,3", str(oversized)],
        ["construct", "augment", str(oversized)],
    ):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert out == "", argv
        if argv[1] == str(triangle):
            assert err == "error: need v(F) > k, got v(F)=3, k=3\n", argv
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "binary.hg", "edgeless.hg", "k4_free.hg", "oversized.hg", "triangle.hg"]
    # C(n, 3) candidate edges beyond the index range of the machine, which
    # once stepped through about 10^11 ladder levels; run in a child with a
    # timeout, so that a hang fails the test rather than stalls it
    env = {**os.environ, "PYTHONPATH": str(Path(turansep.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "turansep.cli", "turan", "99999999999", "K:4,3",
         "--budget", "1"], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a number in the input is too large for this command\n"
    # condition 2, unlike condition 1, holds for it vacuously
    code, out = invoke(capsys, "condition2", "D:1,3", str(edgeless), "--json")
    assert code == 0 and json.loads(out)["condition2"]["holds"] is True
    # condition 2 reads no Turan number, so the triangle is valid input to it
    code, out = invoke(capsys, "condition2", str(triangle), str(triangle))
    assert code == 1 and "condition2.holds: False" in out
    run(["build", "S6", "--out", str(tmp_path)])
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(tmp_path)!r}: ")


# a cheap command line of each subcommand, and the subcommands that read
# each flag beyond --json, --threads and --timing
_COMMAND_LINES = {
    "build": ["build", "S6"],
    "contains": ["contains", "K-:5,3", "K:4,3"],
    "free-check": ["free-check", "S6", "K:4,3"],
    "turan": ["turan", "5", "K:4,3"],
    "condition1": ["condition1", "D:4,4", "D:2,4"],
    "condition2": ["condition2", "K-:5,3", "K:4,3"],
    "separate": ["separate", "K:5,3", "K:4,3"],
    "construct": ["construct", "s6star", "7"],
    "densopt": ["densopt"],
    "crossing": ["crossing", "K:6,3", "--t0", "3", "--trials", "10"],
}
_FLAG_READERS = {
    "--out": {"build", "construct"},
    "--budget": {"turan", "condition1", "separate"},
    "--seed": {"crossing"},
}


@pytest.mark.parametrize("flag", sorted(_FLAG_READERS))
@pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
def test_flag_placement(command, flag, tmp_path):
    # a flag is accepted only where it is read; anywhere else it is
    # invalid input, not a flag that is silently dropped
    value = {"--out": str(tmp_path / "F"), "--budget": "5", "--seed": "1"}[flag]
    code, out, err = _run_captured(_COMMAND_LINES[command] + [flag, value])
    if command in _FLAG_READERS[flag]:
        assert code in (0, 1, 3) and err == ""
        assert (tmp_path / "F").exists() == (flag == "--out")
    else:
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"turansep {command}: error: unrecognized arguments: {flag} {value}"]
        assert list(tmp_path.iterdir()) == []


def _exit_code_of(report):
    """The exit code that a report's own verdict field states."""
    if "verdict" in report:
        if report["verdict"] == "separated":
            return 0
        return 3 if report["condition1"]["holds"] == "unknown" else 1
    for key in ("condition1", "condition2"):
        if key in report:
            return {True: 0, False: 1, "unknown": 3}[report[key]["holds"]]
    if "exhausted" in report:
        return 0 if report["exhausted"] else 3
    for key in ("found", "free"):
        if key in report:
            return 0 if report[key] else 1
    return 0


@pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
def test_report_envelope(command):
    # every report names its command and version, and exits as its
    # verdict says
    argv = _COMMAND_LINES[command]
    code, out, err = _run_captured(argv + ["--json"])
    report = json.loads(out)
    assert err == ""
    assert report["version"] == turansep.__version__
    expected = f"construct {argv[1]}" if command == "construct" else command
    assert report["command"] == expected
    assert code == _exit_code_of(report)


def test_module_form_exit_codes(tmp_path):
    # python -m turansep.cli is the turansep command, exit codes included
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "turansep.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)

    proc = module("separate", "K:5,3", "K:4,3")
    assert proc.returncode == 0 and "verdict: separated" in proc.stdout
    assert module("free-check", "K:5,3", "K:4,3").returncode == 1
    proc = module("densopt", "--out", "x.hg")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_keeps_exit_code(fmt):
    # a reader that takes 10 bytes and closes the pipe: the report (about
    # 90 KB) overflows the 64 KB pipe buffer, so writing it meets the
    # closed pipe, which must leave the verdict's exit code and no traceback
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "turansep.cli", "construct", "s6star", "60", *fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert len(os.read(proc.stdout.fileno(), 10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_console_script_exit_codes(tmp_path, capsys, monkeypatch):
    # the turansep script of pyproject.toml, called as an installed one is
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["turansep"]
    module, _, name = target.partition(":")
    main = getattr(importlib.import_module(module), name)
    monkeypatch.chdir(tmp_path)
    for argv, code in ((["separate", "K:5,3", "K:4,3"], 0),
                       (["densopt", "--out", "x.hg"], 2)):
        monkeypatch.setattr(sys, "argv", ["turansep", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code, argv
    assert "verdict: separated" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_free_check_six_part_file(tmp_path, capsys):
    out_file = tmp_path / "sixpart.hg"
    code, _ = invoke(capsys, "construct", "six-part", "3", "3", "4", "3", "3",
                     "4", "--out", str(out_file))
    assert code == 0
    code, out = invoke(capsys, "free-check", str(out_file), "K-:5,3")
    assert code == 0 and "free: True" in out


def test_timing_flag_controls_report(capsys):
    _, plain = invoke(capsys, "turan", "4", "K:4,3")
    assert "timing" not in plain
    _, timed = invoke(capsys, "turan", "4", "K:4,3", "--timing")
    assert "timing_seconds" in timed


def test_reports_are_reproducible(capsys):
    a = invoke(capsys, "separate", "K:6,3", "K:5,3")
    b = invoke(capsys, "separate", "K:6,3", "K:5,3")
    assert a == b


def test_readme_cli_lines_exit_as_stated(tmp_path, monkeypatch):
    # each line of README's CLI block exits with the code its comment
    # states, else 0; the lines that read the reader's own my_graph.hg get
    # a K4-free 3-graph on 12 vertices, which the crossing line's --t0 4
    # splits into equal parts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 15
    assert sum("my_graph.hg" in line for line in lines) == 2
    graph = random_maximal_free(12, build_named(FamilySpec.complete(4, 3)), 0)
    assert graph.edge_count == 118
    (tmp_path / "my_graph.hg").write_text(serialize(graph))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        stated = re.search(r"exit (\d)", comment)
        assert words[0] == "turansep", line
        assert _run_captured(words[1:])[0] == (int(stated[1]) if stated else 0), line


def _tokens(k):
    return st.one_of(
        st.just("S6"),
        st.builds("{}:{},{}".format, st.sampled_from(["K", "K-", "D"]),
                  st.integers(k - 1, k + 3), st.just(k)),
    )


@st.composite
def _fuzz_argv(draw):
    """A command line, and whether its last family (the target, or the
    family of turan) is also run as a file holding its graph."""
    # both families usually share k, so that pairs often get past parsing
    k = draw(st.integers(1, 5))
    command = draw(st.sampled_from(
        ["turan", "free-check", "contains", "condition1", "condition2",
         "separate"]))
    if command == "separate" and draw(st.booleans()):
        # K:j+2,j or K-:j+2,j over K:j+1,j; the first separates (exit 0)
        # at any budget, so the separated path is fuzzed too
        j = draw(st.integers(2, 4))
        kind = draw(st.sampled_from(["K", "K-"]))
        argv = [command, f"{kind}:{j + 2},{j}", f"K:{j + 1},{j}"]
    elif command != "turan":
        k2 = draw(st.one_of(st.just(k), st.integers(1, 5)))
        argv = [command, draw(_tokens(k)), draw(_tokens(k2))]
    elif draw(st.booleans()):
        argv = [command, str(draw(st.integers(-1, 8))), draw(_tokens(k))]
    else:
        # a target that does not fit on the host vertices
        n = draw(st.integers(0, 20))
        argv = [command, str(n), f"K:{n + 1},3"]
    if command in ("turan", "condition1", "separate"):
        argv += ["--budget", str(draw(st.integers(1, 200)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(st.booleans())


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# stdout of each command, frozen byte for byte: report fields are added or
# dropped on purpose only, never as a side effect of a library change
_REPORTS = Path(__file__).parent / "reports"


@pytest.mark.parametrize("threads", ["1", "8"])
@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name, argv, code", [
    ("turan_7_K4", ["turan", "7", "K:4,3"], 0),
    ("turan_10_S6_budget_10", ["turan", "10", "S6", "--budget", "10"], 3),
    ("separate_K5_K4", ["separate", "K:5,3", "K:4,3"], 0),
    ("free_check_K5_K4", ["free-check", "K:5,3", "K:4,3"], 1),
    ("free_check_S6_K4minus", ["free-check", "S6", "K-:4,3"], 0),
    ("crossing_S6", ["crossing", "S6", "--t0", "3", "--trials", "200",
                     "--seed", "7"], 0),
    ("crossing_K12", ["crossing", "K:12,3", "--t0", "4", "--trials", "50",
                      "--seed", "3"], 0),
    # three parts of one vertex on 24: the draw past random.sample's pool
    # cutoff, which keeps a set of the picks
    ("crossing_K24_set", ["crossing", "K:24,3", "--t0", "24", "--trials", "50",
                          "--seed", "11"], 0),
])
def test_reports_pinned(name, argv, code, fmt, threads):
    expected = (_REPORTS / f"{name}.{fmt}").read_text()
    argv = argv + (["--json"] if fmt == "json" else []) + ["--threads", threads]
    assert _run_captured(argv) == (code, expected, "")


def _check_exit_contract(argv):
    code, out, err = _run_captured(argv + ["--threads", "1"])
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err and err.count("error:") <= 1, argv
    assert _run_captured(argv + ["--threads", "8"]) == (code, out, err), argv


def _run_capped(argv, cap_mb, check_contract=False):
    """_run_captured(argv) in a child that caps its own address space at
    cap_mb MB, so a run that would fill memory fails fast everywhere; with
    check_contract the child first runs _check_exit_contract(argv)."""
    child = (
        "import json, resource, sys\n"
        "from test_cli import _check_exit_contract, _run_captured\n"
        f"cap = {cap_mb} << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "argv = json.loads(sys.argv[1])\n"
        + ("_check_exit_contract(argv)\n" if check_contract else "")
        + "print(json.dumps(_run_captured(argv)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parent), str(Path(turansep.__file__).parents[1])])}
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [
    ["free-check", "{huge}", "K:4,3"],
    ["condition2", "K:4,3", "{huge}"],
])
def test_out_of_memory_exits_2(argv, tmp_path):
    # a header of 10^12 vertices: free-check builds a (1 << n) vertex mask
    # and condition2 a degree list of length n, which cannot fit
    huge = tmp_path / "huge.hg"
    huge.write_text("3 1000000000000\n")
    argv = [a.format(huge=huge) for a in argv]
    code, out, err = _run_capped(argv, 1024, check_contract=True)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize("argv, subset, spanned", [
    (["free-check", "K:31,30", "K:31,30", "--json"], list(range(31)), 31),
    (["free-check", "D:1,500", "D:1,500", "--json"], list(range(501)), 1),
])
def test_scan_near_r_fits_in_512_mb(argv, subset, spanned):
    # k = r - 1: a prefix of d vertices has subsets of every size up to
    # k - 2, 2^d in all, and the scan must not hand them all down
    start = time.monotonic()
    code, out, err = _run_capped(argv, 512)
    assert (code, err) == (1, "")
    assert json.loads(out)["violation"] == {"subset": subset, "spanned": spanned}
    assert time.monotonic() - start < 30


def test_deep_targets_keep_the_exit_contract(tmp_path):
    # the copy search and the scan recurse once per vertex of F, past the
    # default recursion limit of 1,000 here
    matching = tmp_path / "matching.hg"
    matching.write_text("2 1200\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(600)))
    code, out, err = _run_captured(["free-check", "K:1050,2", "K:1050,2", "--json"])
    assert (code, err) == (1, "")
    assert json.loads(out)["violation"] == {"subset": list(range(1050)),
                                            "spanned": comb(1050, 2)}
    m = str(matching)
    code, out, err = _run_captured(["contains", m, m, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["embedding"] == list(range(1200))
    code, out, err = _run_captured(["free-check", m, m, "--json"])
    assert (code, err) == (1, "")
    assert json.loads(out)["violation"] == {"embedding": list(range(1200))}


def test_condition2_on_a_wide_matching_is_fast(tmp_path):
    # 1,200 vertices without twins: the twin finder compares link sets of
    # equal size, not every edge for every vertex pair
    matching = tmp_path / "matching.hg"
    matching.write_text("2 1200\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(600)))
    start = time.monotonic()
    code, out, err = _run_captured(["condition2", str(matching), str(matching), "--json"])
    assert time.monotonic() - start < 3
    assert (code, err) == (1, "")
    assert json.loads(out)["condition2"] == {
        "holds": False, "partitions_checked": 1,
        "counterexample_partition": [list(range(1199)), [1199]]}


def test_huge_uniformity_without_edges_is_fast(tmp_path):
    # an edgeless graph with k = 2·10^7: no check, column, format or part
    # list may take k entries, and condition 2 reads as it does for k = 7,
    # where no partition can fill parts 2..k either
    huge, small = tmp_path / "huge.hg", tmp_path / "small.hg"
    huge.write_text("20000000 5\n")
    small.write_text("7 5\n")
    start = time.monotonic()
    code, out, err = _run_captured(["build", str(huge), "--json"])
    assert (code, err) == (0, "") and json.loads(out)["graph"] == "20000000 5\n"
    code, out, err = _run_captured(["contains", str(huge), str(huge), "--json"])
    assert (code, err) == (0, "") and json.loads(out)["embedding"] == list(range(5))
    reports = [json.loads(_run_captured(["condition2", str(g), str(g), "--json"])[1])
               for g in (huge, small)]
    assert reports[0]["condition2"] == reports[1]["condition2"]
    assert reports[0]["condition2"]["partitions_checked"] == 0
    code, out, err = _run_captured(["build", "D:1,20000"])
    assert (code, err) == (0, "") and out.endswith(
        " ".join(map(str, range(20000))) + "\n")
    assert time.monotonic() - start < 10


def test_wide_parts_crossing_is_fast(tmp_path):
    # parts of 10,000 vertices: the count costs k*s ORs per trial, where
    # one lookup per transversal of two parts would be 10^8
    host = tmp_path / "wide.hg"
    host.write_text("3 30000\n0 1 2\n")
    start = time.monotonic()
    code, out, err = _run_captured(
        ["crossing", str(host), "--t0", "3", "--trials", "3", "--json"])
    assert time.monotonic() - start < 5
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["trials"] == 3
    assert (Fraction(payload["exact_expectation"])
            == Fraction(payload["crossing_probability"]))


_WIDE_HOSTS = {
    # 30,000 vertices and one edge: no vertex has the degree a vertex of a
    # violating subset needs, so the scan has no root; branching on every
    # vertex pair or triple of the host ran for minutes
    "one-edge": "3 30000\n0 1 2\n",
    # K_{2,29998}: every vertex has the degree a triangle needs and each hub
    # 29,998 candidates, each a cheap step; a pair test would build a 112 MB
    # matrix and multiply it, for minutes
    "two-hubs": "2 30000\n" + "".join(
        f"{a} {x}\n" for a in (0, 1) for x in range(2, 30000)),
}


@pytest.mark.parametrize("host, target", [
    ("one-edge", "K-:5,3"), ("one-edge", "K:4,3"), ("two-hubs", "K:3,2")])
def test_wide_sparse_free_check_is_fast(host, target, tmp_path):
    path = tmp_path / "wide.hg"
    path.write_text(_WIDE_HOSTS[host])
    env = {**os.environ, "PYTHONPATH": str(Path(turansep.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "turansep.cli", "free-check", str(path), target,
         "--json"], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["free"], report["method"]) == (True, "subset-scan")


def _without_echoes(out):
    """A report without the fields that echo a family argument as typed."""
    echoes = ("family", "f", "f_sub")
    if out.startswith("{"):
        payload = json.loads(out)
        for key in echoes:
            payload.pop(key, None)
        for value in payload.values():
            if isinstance(value, dict):
                value.pop("token", None)
        return payload
    return [line for line in out.splitlines()
            if not (line.partition(":")[0] in echoes
                    or line.partition(":")[0].endswith(".token"))]


def _check_file_family(argv, i=2):
    """The family at argv[i] given as a file holding its graph gets the
    token's exit code and report, but for the echoed argument."""
    try:
        h = parse_family_token(argv[i])
    except ParameterError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.hg"
        path.write_text(serialize(h))
        file_argv = argv[:i] + [str(path)] + argv[i + 1:]
        code, out, _ = _run_captured(argv)
        file_code, file_out, _ = _run_captured(file_argv)
    assert (file_code, _without_echoes(file_out)) == (code, _without_echoes(out)), argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_fuzz_argv())
def test_cli_fuzz_exit_contract(case):
    argv, as_file = case
    _check_exit_contract(argv)
    if as_file:
        _check_file_family(argv)
        if argv[0] in ("free-check", "contains"):
            _check_file_family(argv, 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(host_texts(ks=st.sampled_from([3, 3, 2, 4])))
def test_host_file_fuzz_exit_contract(text):
    # valid, reordered, reformatted and faulty host files: each command
    # exits 0-3 with at most one error line and no traceback
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("TURANSEP_SEED", None)
        path = Path(tmp) / "host.hg"
        path.write_bytes(text.encode())
        _check_exit_contract(["free-check", str(path), "K:4,3"])
        _check_exit_contract(["crossing", str(path), "--t0", "3", "--trials", "50"])


def _params(draw, count, top=3):
    if draw(st.booleans()):
        return [str(draw(st.integers(1, top))) for _ in range(count)]
    # one more or one fewer, non-positive values, tokens that are not integers
    count = max(0, count + draw(st.integers(-1, 1)))
    return [draw(st.one_of(st.integers(-1, top).map(str), st.sampled_from(["x", "1.5"])))
            for _ in range(count)]


@st.composite
def _fuzz_builder_argv(draw):
    """A builder, or crossing on a host file; the host's header and edges
    are returned for the test to write, by hand, so that k = 1 reaches the
    parser.  Also drawn: where a builder's --out points (None for no
    --out, always for crossing), a TURANSEP_SEED for crossing without
    --seed, and whether blowup's base is also run as a file holding its
    graph."""
    builder = draw(st.sampled_from(
        ["s6star", "bipartite-g", "six-part", "blowup", "crossing"]))
    host = env_seed = None
    if builder == "crossing":
        k = draw(st.integers(1, 4))
        n = draw(st.integers(0, 9))
        cand = list(combinations(range(n), k))
        host = (k, n, draw(st.lists(st.sampled_from(cand), unique=True, max_size=30))
                if cand else [])
        # a t0 >= k that divides n passes validation
        divisors = [d for d in range(k, n + 1) if n % d == 0] or [k]
        t0 = draw(st.one_of(st.sampled_from(divisors), st.integers(-1, 9)))
        argv = ["crossing", None, "--t0", str(t0),
                "--trials", str(draw(st.integers(-1, 30)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(-5, 2**40)))]
        else:
            env_seed = draw(st.one_of(st.integers(-5, 2**40).map(str),
                                      st.sampled_from(["abc", "1.5", ""])))
    elif builder == "s6star":
        # cheap enough to build on a few dozen vertices
        argv = ["construct", builder] + _params(draw, 1, top=30)
    elif builder == "bipartite-g":
        argv = ["construct", builder] + _params(draw, 1)
    elif builder == "six-part":
        argv = ["construct", builder] + _params(draw, 6)
    else:
        argv = ["construct", builder, "S6"] + _params(draw, 6)
    if draw(st.booleans()):
        argv.append("--json")
    out = None if builder == "crossing" else draw(
        st.sampled_from([None, "file", "missing-dir", "dir"]))
    return argv, host, out, env_seed, draw(st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_fuzz_builder_argv())
def test_cli_fuzz_builders_and_crossing(case):
    argv, host, out, env_seed, as_file = case
    env = {} if env_seed is None else {"TURANSEP_SEED": env_seed}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if host is not None:
            k, n, edges = host
            path = Path(tmp) / "host.hg"
            path.write_text(f"{k} {n}\n" + "".join(
                " ".join(map(str, e)) + "\n" for e in edges))
            argv = [str(path) if a is None else a for a in argv]
        if out is not None:
            argv += ["--out", {"file": str(Path(tmp) / "out.hg"),
                               "missing-dir": str(Path(tmp) / "missing" / "out.hg"),
                               "dir": tmp}[out]]
        _check_exit_contract(argv)
        if as_file and argv[1] == "blowup":
            _check_file_family(argv)
