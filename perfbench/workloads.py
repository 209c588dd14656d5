"""The four workloads: their inputs, their jobs and the reference answers.

A workload builds its inputs once (``setup``) and then issues the same jobs
on every pass (``run_pass``).  Each job carries a check that runs after the
pass, outside the timed region; a check returns the job's deterministic
counters or raises ``Mismatch``.  Jobs go through ``turansep.cli.run``
except ``random_maximal_free`` and ``exact_count``, which have no
subcommand.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import reference as ref
import speed


class Mismatch(Exception):
    """A job's exit code or answer differs from the reference."""


@dataclass
class Record:
    label: str
    check: object
    seconds: float = 0.0
    speed_factor: float = 1.0  # see speed.py
    value: object = None
    stdout: str = ""
    error: str | None = None
    counters: dict = field(default_factory=dict)


class Runner:
    """Issues the jobs of one pass in a closed loop and times each call,
    probing the machine's speed around it (see speed.py).

    A traced pass probes only before and after each job: a sample taken
    inside a job would land inside its spans.
    """

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.records: list[Record] = []
        self.probe = speed.probe()

    def call(self, label: str, fn, check) -> Record:
        rec = Record(label, check)
        before = self.probe
        span = self.tracer.job_span(len(self.records)) if self.tracer else nullcontext()
        sampler = nullcontext() if self.tracer else speed.Sampler()
        out = io.StringIO()
        with sampler:
            start = time.perf_counter()
            try:
                with span, redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rec.value = fn()
            except Exception as exc:  # a job that raises is a failed job
                rec.error = f"raised {exc!r}"
            rec.seconds = time.perf_counter() - start
        samples = []
        if not self.tracer:
            rec.seconds -= sampler.spent
            samples = sampler.samples
        self.probe = speed.probe()
        rec.speed_factor = speed.factor(before, self.probe, samples)
        rec.stdout = out.getvalue()
        self.records.append(rec)
        return rec

    def cli_job(self, argv: list[str], check) -> Record:
        label = " ".join(a.name if isinstance(a, Path) else str(a) for a in argv)
        argv = [str(a) for a in argv] + ["--json"]
        # the module attribute is read per call, so a traced run sees its wrapper
        return self.call(label, lambda: self.cli.run(argv), check)


def check_records(records: list[Record]) -> None:
    """Run every job's check; failures land in ``Record.error``."""
    for rec in records:
        if rec.error is not None:
            continue
        try:
            rec.counters = rec.check(rec) or {}
        except Mismatch as exc:
            rec.error = str(exc)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            rec.error = f"unreadable output: {exc!r}"


def report(rec: Record, code: int) -> dict:
    if rec.value != code:
        raise Mismatch(f"exit code {rec.value}, expected {code}")
    return json.loads(rec.stdout)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _scan_subsets(rep: dict, n: int, token: str) -> dict:
    """Subsets a threshold scan visited, computed from its verdict."""
    if rep.get("method") != "subset-scan":
        return {}
    r = ref.threshold(token)[0]
    if rep["free"]:
        return {"embed.scan_subsets": comb(n, r)}
    return {"embed.scan_subsets": ref.lex_rank(rep["violation"]["subset"], n) + 1}


def check_free(n: int, token: str):
    """free-check on a host the paper proves F-free."""
    def check(rec):
        rep = report(rec, 0)
        expect(rep["free"] is True, f"violation {rep.get('violation')} in an F-free host")
        return _scan_subsets(rep, n, token)
    return check


def check_verdict(path: Path, token: str):
    """free-check against the benchmark's own lex-first violation."""
    def check(rec):
        k, n, edges = ref.read_graph(path)
        r, max_edges = ref.threshold(token)
        violation = ref.first_violation(k, n, edges, r, max_edges)
        rep = report(rec, 0 if violation is None else 1)
        expect(rep["free"] == (violation is None), f"free={rep['free']}, reference {violation}")
        if violation is not None:
            if "subset" in rep["violation"]:
                expect(tuple(rep["violation"]["subset"]) == violation[0]
                       and rep["violation"]["spanned"] == violation[1],
                       f"violation {rep['violation']}, reference {violation}")
            else:
                _, f_n, f_edges = ref.family(token)
                expect(ref.is_embedding(edges, f_n, f_edges, rep["violation"]["embedding"]),
                       "violation embedding is not a copy")
        return _scan_subsets(rep, n, token)
    return check


class ExactSearch:
    name = "exact-search"
    why = ("branch-and-bound search and CopyIndex build on fixed paper instances; "
           "includes a budget-cut job that keeps the index-before-budget defect visible")
    # (n, family, ex(n, F), digest of the lex-min extremal witness)
    TURAN = (
        (7, "K:4,3", 23, "cccb85b528a62cbae8abb4ff7df0e2053e432b50763c5abeadba8e1b778f9895"),
        (7, "K-:4,3", 15, "c9c84a2a5be3511fe1c7d14b3820395456585a007f6266dad9411731d9df76bf"),
        (9, "D:2,3", 12, "dcdcf6cd425c2af17fc1cec6cd04f670d74ed4f3d1c8011a47ef79061c999000"),
        (7, "D:3,3", 15, "c9c84a2a5be3511fe1c7d14b3820395456585a007f6266dad9411731d9df76bf"),
    )

    def setup(self, ts, workdir: Path, seed: int) -> dict:
        return {}  # fixed paper instances: the seed is unused

    def run_pass(self, runner: Runner, state: dict) -> None:
        for n, token, value, digest in self.TURAN:
            runner.cli_job(["turan", n, token], self._check_turan(n, token, value, digest))
        runner.cli_job(["separate", "K:5,3", "K:4,3"], self._check_separate)
        runner.cli_job(["turan", 10, "S6", "--budget", 10], self._check_budget_cut)

    @staticmethod
    def _check_turan(n, token, value, digest):
        def check(rec):
            rep = report(rec, 0)
            witness = [tuple(e) for e in rep["witness_edges"]]
            expect(rep["value"] == value and rep["exhausted"] is True,
                   f"ex({n}, {token}) = {rep['value']}, expected {value}")
            r, max_edges = ref.threshold(token)
            expect(len(witness) == value
                   and ref.first_violation(3, n, witness, r, max_edges) is None,
                   "witness is not an F-free graph with ex edges")
            expect(ref.edges_digest(witness) == digest, "witness is not the lex-min one")
            return {"exact.nodes": rep["nodes_explored"]}
        return check

    @staticmethod
    def _check_separate(rec):
        rep = report(rec, 0)
        expect(rep["verdict"] == "separated", f"verdict {rep['verdict']}")
        expect(rep["condition1"]["ex_value"] == 7, "ex(5, K4) != 7")
        expect(rep["condition2"]["holds"] is True, "condition 2 should hold")
        return {"criteria.partitions_checked": rep["condition2"]["partitions_checked"]}

    @staticmethod
    def _check_budget_cut(rec):
        rep = report(rec, 3)
        witness = [tuple(e) for e in rep["witness_edges"]]
        expect(rep["exhausted"] is False, "budget cut not reported")
        expect(rep["value"] == len(witness), "value differs from witness size")
        _, f_n, f_edges = ref.family("S6")
        expect(ref.find_copy(10, witness, f_n, f_edges) is None,
               "budget-cut witness contains S6")
        return {"exact.nodes": rep["nodes_explored"]}


class ConstructionVerify:
    name = "construction-verify"
    why = ("builds the paper's constructions and proves them free by full subset "
           "scans on seed-relabelled hosts; exact search is not called")
    SIX_PART = (7, 7, 9, 7, 7, 9)
    # (name, construct arguments, n, edges, digest, targets the host is free of)
    HOSTS = (
        ("six-part", ["six-part", *SIX_PART], 46, 9420,
         "3e8d726539b01b1d0461c8d56da6378783fec7fa6c55dd512d628e8c5eb0fafc", ("K-:5,3",)),
        ("s6star", ["s6star", 36], 36, 2220,
         "9d796299c4b5877c5f2f734ede30d0617ccf640d3ec897ff3fffea63a29a3492", ("K:4,3", "D:3,3")),
        ("bipartite-g", ["bipartite-g", 10], 20, 570,
         "fa846b6fc135eb2199e1baf1990678159f6de16ceaf4340c990d8d938297ad5a", ("K:4,3",)),
    )
    DENSOPT_EXACT = "31097/59248 + 277/59248*sqrt(277)"

    def setup(self, ts, workdir: Path, seed: int) -> dict:
        c = ts.constructions
        params = c.SixPartParams(self.SIX_PART)
        built = {"six-part": c.six_part_h(params), "s6star": c.iterated_blowup_s6(36),
                 "bipartite-g": c.bipartite_g(10)}
        hosts = {}
        for name, _, _, _, digest, _ in self.HOSTS:
            h = built[name]
            if ref.edges_digest(h.edges) != digest:
                raise Mismatch(f"library builds a different {name} host")
            # freeness does not depend on labels, so the references hold for any seed
            perm = list(range(h.n))
            random.Random(f"{self.name}:{seed}:{name}").shuffle(perm)
            hosts[name] = workdir / f"{name}-relabelled.hg"
            ref.write_graph(hosts[name], h.k, h.n, ref.relabel(h.edges, perm))
        return {
            "workdir": workdir, "hosts": hosts, "densopt": ts.densopt,
            "exact_count_args": (
                params, tuple(ref.s6_star_edges(s) for s in self.SIX_PART),
                (ref.bipartite_g_edges(7), ref.bipartite_g_edges(7))),
        }

    def run_pass(self, runner: Runner, state: dict) -> None:
        for name, args, n, edges, digest, targets in self.HOSTS:
            out = state["workdir"] / f"{name}-built.hg"
            runner.cli_job(["construct", *args, "--out", out],
                           self._check_construct(out, edges, digest))
            for token in targets:
                runner.cli_job(["free-check", state["hosts"][name], token],
                               check_free(n, token))
        runner.cli_job(["densopt"], self._check_densopt)
        exact_count = state["densopt"].exact_count
        runner.call("exact_count 7 7 9 7 7 9",
                    lambda: exact_count(*state["exact_count_args"]), self._check_exact_count)

    @staticmethod
    def _check_construct(path, edges, digest):
        def check(rec):
            rep = report(rec, 0)
            expect(rep["result"]["edges"] == edges, f"{rep['result']['edges']} edges, expected {edges}")
            if "layer_counts" in rep:
                expect(sum(rep["layer_counts"].values()) == edges, "layer counts do not add up")
            expect(ref.edges_digest(ref.read_graph(path)[2]) == digest, "built graph differs")
            return {}
        return check

    def _check_densopt(self, rec):
        rep = report(rec, 0)
        opt = rep["optimum"]
        expect(opt["exact_value"] == self.DENSOPT_EXACT, f"optimum {opt['exact_value']}")
        expect(abs(opt["value"] - ref.densopt_value()) < 1e-12, f"optimum {opt['value']}")
        return {}

    @staticmethod
    def _check_exact_count(rec):
        expect(rec.value == 9420, f"exact_count {rec.value}, expected 9420")
        return {}


class RandomRefute:
    name = "random-refute"
    why = ("seeded random maximal F-free graphs: CopyIndex builds, embedding search "
           "and refuting scans that stop at the first subset, plus condition 2")
    INSTANCES = 16
    N = 15

    def setup(self, ts, workdir: Path, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.randrange(2**32) for _ in range(self.INSTANCES)]
        (workdir / "instances.json").write_text(json.dumps(seeds))
        hg = ts.hypergraph
        return {
            "workdir": workdir, "exact": ts.exact, "seeds": seeds,
            "K:4,3": hg.build_named(hg.FamilySpec.complete(4, 3)),
            "K-:5,3": hg.build_named(hg.FamilySpec.complete_minus(5, 3)),
        }

    def run_pass(self, runner: Runner, state: dict) -> None:
        exact, wd, n = state["exact"], state["workdir"], self.N
        for i, s in enumerate(state["seeds"]):
            g1 = runner.call(f"random_maximal_free {n} K:4,3 seed={s}",
                             lambda f=state["K:4,3"], s=s: exact.random_maximal_free(n, f, s),
                             self._check_maximal("K:4,3"))
            if g1.error is None:
                g1_path, aug_path = wd / f"g1-{i}.hg", wd / f"aug-{i}.hg"
                ref.write_graph(g1_path, 3, n, g1.value.edges)
                runner.cli_job(["construct", "augment", g1_path, "--out", aug_path],
                               self._check_augment(g1_path, aug_path))
                runner.cli_job(["free-check", aug_path, "K-:5,3"],
                               check_verdict(aug_path, "K-:5,3"))
            g2 = runner.call(f"random_maximal_free {n} K-:5,3 seed={s}",
                             lambda f=state["K-:5,3"], s=s: exact.random_maximal_free(n, f, s),
                             self._check_maximal("K-:5,3"))
            if g2.error is None:
                g2_path = wd / f"g2-{i}.hg"
                ref.write_graph(g2_path, 3, n, g2.value.edges)
                scan = runner.cli_job(["free-check", g2_path, "K:4,3"],
                                      check_verdict(g2_path, "K:4,3"))
                runner.cli_job(["contains", g2_path, "K:4,3"],
                               self._check_contains(g2_path, "K:4,3", scan))
        runner.cli_job(["condition2", "K-:9,6", "K:8,6"], self._check_condition2(True))
        runner.cli_job(["condition2", "K-:9,5", "K:8,5"], self._check_condition2(False))

    def _check_maximal(self, token):
        def check(rec):
            g = rec.value
            expect(g.k == 3 and g.n == self.N, "wrong shape")
            r, max_edges = ref.threshold(token)
            expect(ref.is_maximal_free(3, g.n, list(g.edges), r, max_edges),
                   f"not a maximal {token}-free graph")
            return {}
        return check

    @staticmethod
    def _check_augment(g1_path, aug_path):
        def check(rec):
            rep = report(rec, 0)
            _, n, edges = ref.read_graph(g1_path)
            present = set(edges)
            added = []
            for start in range(0, n - 4, 5):
                block = range(start, start + 5)
                added.append(next(e for e in combinations(block, 3) if e not in present))
            expect(rep["added_edges"] == len(added), f"added {rep['added_edges']} edges")
            expect(ref.read_graph(aug_path)[2] == sorted(edges + added),
                   "augmented graph differs from the reference")
            return {}
        return check

    @staticmethod
    def _check_contains(path, token, scan):
        def check(rec):
            k, n, edges = ref.read_graph(path)
            _, f_n, f_edges = ref.family(token)
            r, max_edges = ref.threshold(token)
            present = ref.first_violation(k, n, edges, r, max_edges) is not None
            rep = report(rec, 0 if present else 1)
            expect(rep["found"] == present, f"found={rep['found']}")
            if present:
                expect(ref.is_embedding(edges, f_n, f_edges, rep["embedding"]),
                       "embedding is not a copy")
            if scan.error is None:
                expect(json.loads(scan.stdout)["free"] == (not rep["found"]),
                       "scan verdict and embedding verdict disagree")
            return {}
        return check

    @staticmethod
    def _check_condition2(holds):
        def check(rec):
            rep = report(rec, 0 if holds else 1)
            cond = rep["condition2"]
            expect(cond["holds"] is holds, f"condition 2 holds={cond['holds']}")
            if not holds:
                expect(ref.condition2_violation_holds(rep["f"], rep["f_sub"],
                                                      cond["counterexample_partition"]),
                       "counterexample partition does not refute condition 2")
            return {"criteria.partitions_checked": cond["partitions_checked"]}
        return check


class CrossingSample:
    name = "crossing-sample"
    why = ("the only workload using partitions: sampling-heavy on K12 (220 edges), "
           "counting-heavy on the 9,420-edge six-part host")
    # (host, n, edges, t0, trials per call)
    JOBS = (("K12", 12, 220, 4, 2000), ("six-part", 46, 9420, 23, 60))
    # calls per host, each with its own seed; short calls let the speed
    # probes around each job follow the machine's drift
    CALLS = 5

    def setup(self, ts, workdir: Path, seed: int) -> dict:
        hosts = {"K12": workdir / "K12.hg", "six-part": workdir / "six-part.hg"}
        ref.write_graph(hosts["K12"], 3, 12, ref.family("K:12,3")[2])
        h = ts.constructions.six_part_h(
            ts.constructions.SixPartParams(ConstructionVerify.SIX_PART))
        if ref.edges_digest(h.edges) != ConstructionVerify.HOSTS[0][4]:
            raise Mismatch("library builds a different six-part host")
        ref.write_graph(hosts["six-part"], h.k, h.n, h.edges)
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.randrange(2**31) for _ in range(self.CALLS)]
        (workdir / "seeds.json").write_text(json.dumps(seeds))
        return {"hosts": hosts, "seeds": seeds}

    def run_pass(self, runner: Runner, state: dict) -> None:
        for host, n, edges, t0, trials in self.JOBS:
            for seed in state["seeds"]:
                runner.cli_job(["crossing", state["hosts"][host], "--t0", t0,
                                "--trials", trials, "--seed", seed],
                               self._check(host, n, edges, t0, trials))

    @staticmethod
    def _check(host, n, edges, t0, trials):
        def check(rec):
            rep = report(rec, 0)
            exact = ref.crossing_expectation(n, 3, t0, edges)
            expect(Fraction(rep["exact_expectation"]) == exact,
                   f"exact expectation {rep['exact_expectation']}, expected {exact}")
            expect(Fraction(rep["crossing_probability"]) * edges == exact,
                   "crossing probability differs")
            expect(rep["trials"] == trials, "trial count differs")
            if host == "K12":
                # in the complete graph every choice of three 3-sets crosses 27 edges
                expect(rep["empirical_mean"] == 27.0, f"K12 mean {rep['empirical_mean']}")
            else:
                expect(abs(rep["z_score"]) <= 5, f"z = {rep['z_score']}")
            return {"partitions.trials": trials}
        return check


WORKLOADS = {w.name: w for w in (ExactSearch(), ConstructionVerify(), RandomRefute(),
                                 CrossingSample())}
