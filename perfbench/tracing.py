"""Spans around turansep's public functions, installed from outside.

The traced run replaces module attributes with timing wrappers, including
the names other modules bring in with from-imports (``criteria.turan_number``,
``densopt.six_part_h``, ``cli.parse``), so calls between modules are seen
too.  No file of turansep changes.  Spans are kept in memory as
``[name, start, end, parent, job, data]``; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from math import comb

from reference import lex_rank

MODULES = ("cli", "hypergraph", "embed", "exact", "criteria",
           "constructions", "densopt", "partitions")

NAME, START, END, PARENT, JOB, DATA = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.job, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    @contextmanager
    def job_span(self, job_id):
        """Root span of one benchmark job; every span under it carries job_id."""
        self.job = job_id
        idx = self.open("bench.job")
        try:
            yield
        finally:
            self.close(idx)
            self.job = None

    def wrap(self, fn, name: str, count=None):
        """fn with a span; count(bound_arguments, result) gives span data."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][DATA] = count(bound.arguments, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _edges(args, result):
    return {"edges": result.edge_count} if hasattr(result, "edge_count") else None


def _scan(args, result):
    h, r = args["h"], args["r"]
    subsets = comb(h.n, r) if result is None else lex_rank(result[0], h.n) + 1
    return {"subsets": subsets}


def _trials(args, result):
    h, trials = args["h"], args["trials"]
    return {"trials": trials, "edge_part_tests": trials * h.edge_count * h.k}


def _index(args, result):
    return {"entries": sum(len(t) for t in args["self"].through)}


# (module, attribute, span name, span data)
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "parse_family_token", "cli.parse", None),
    ("cli", "emit_report", "cli.report", None),
    ("hypergraph", "parse", "hypergraph.parse", _edges),
    ("hypergraph", "serialize", "hypergraph.serialize", None),
    ("hypergraph", "delete", "hypergraph.delete", None),
    ("exact", "turan_number", "exact.search",
     lambda a, r: {"nodes": r.nodes_explored, "cut": not r.exhausted}),
    ("exact", "random_maximal_free", "exact.greedy", None),
    ("embed", "spanned_edge_violation", "embed.scan", _scan),
    ("embed", "contains", "embed.contains",
     lambda a, r: {"found": r is not None}),
    ("criteria", "check_condition1", "criteria.cond1", None),
    ("criteria", "check_condition2", "criteria.cond2",
     lambda a, r: {"partitions": r.partitions_checked}),
    ("constructions", "six_part_h", "constructions.build", _edges),
    ("constructions", "six_part_breakdown", "constructions.build", None),
    ("constructions", "iterated_blowup_s6", "constructions.build", _edges),
    ("constructions", "bipartite_g", "constructions.build", _edges),
    ("constructions", "blowup", "constructions.build", _edges),
    ("constructions", "augment_matching", "constructions.augment", None),
    ("densopt", "h_density_poly", "densopt.opt", None),
    ("densopt", "maximize_constrained", "densopt.opt", None),
    ("densopt", "exact_count", "densopt.exact_count", None),
    ("partitions", "expectation_check", "partitions.expect", _trials),
    ("partitions", "sample_parts", "partitions.sample", None),
    ("partitions", "crossing_count", "partitions.count", None),
)


def install(tracer: Tracer):
    """Patch every target in every turansep namespace that binds it.

    Returns a function that undoes the patches.
    """
    package = importlib.import_module("turansep")
    modules = [package] + [importlib.import_module(f"turansep.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []
    for module, attr, span, count in TARGETS:
        original = getattr(by_name[module], attr)
        wrapped = tracer.wrap(original, span, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))
    index = by_name["exact"].CopyIndex
    undo.append((index, "__init__", index.__init__))
    index.__init__ = tracer.wrap(index.__init__, "exact.index", _index)

    def uninstall():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall


def layer_metrics(spans, job_factors=None) -> dict[str, float]:
    """Per-layer totals of the spans of one pass.

    job_factors[j], when given, scales every time measured in job j (see
    speed.py), so that the layer times add up to the scaled wall time.
    """
    def factor(span):
        return 1.0 if job_factors is None else job_factors[span[JOB]]

    own = [t * factor(span) for t, span in zip(self_times(spans), spans)]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    data: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for idx, span in enumerate(spans):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + own[idx]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[idx]
        for key, value in (span[DATA] or {}).items():
            data[f"{name}:{key}"] = data.get(f"{name}:{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    def d(name, key):
        return data.get(f"{name}:{key}", 0)

    # an outermost build's edge count covers the builds nested inside it
    edges_built = sum(
        (span[DATA] or {}).get("edges", 0)
        for idx, span in enumerate(spans)
        if span[NAME] == "constructions.build"
        and not has_ancestor(spans, idx, "constructions.build"))
    contains_in_cond2 = sum(
        1 for idx, span in enumerate(spans)
        if span[NAME] == "embed.contains"
        and has_ancestor(spans, idx, "criteria.cond2"))
    exact_count_inclusive = sum(
        (span[END] - span[START]) * factor(span) for span in spans
        if span[NAME] == "densopt.exact_count")

    nodes = d("exact.search", "nodes")
    subsets = d("embed.scan", "subsets")
    contains_calls = calls.get("embed.contains", 0)
    partitions_checked = d("criteria.cond2", "partitions")
    out = {
        "cli.parse_s": t("cli.parse"),
        "cli.report_s": t("cli.report"),
        "cli.self_s": t("cli.run"),
        "hypergraph.parse_s": t("hypergraph.parse"),
        "hypergraph.edges_parsed": d("hypergraph.parse", "edges"),
        "hypergraph.serialize_s": t("hypergraph.serialize"),
        "hypergraph.delete_s": t("hypergraph.delete"),
        "hypergraph.delete_calls": calls.get("hypergraph.delete", 0),
        "exact.index_s": t("exact.index"),
        "exact.index_entries": d("exact.index", "entries"),
        "exact.search_s": t("exact.search"),
        "exact.nodes": nodes,
        "exact.ns_per_node": 1e9 * t("exact.search") / nodes if nodes else 0.0,
        "exact.greedy_s": t("exact.greedy"),
        "exact.budget_cuts": d("exact.search", "cut"),
        "embed.scan_s": t("embed.scan"),
        "embed.scan_calls": calls.get("embed.scan", 0),
        "embed.scan_subsets": subsets,
        "embed.ns_per_subset": 1e9 * t("embed.scan") / subsets if subsets else 0.0,
        "embed.contains_s": t("embed.contains"),
        "embed.contains_calls": contains_calls,
        "embed.contains_hit_ratio": (d("embed.contains", "found") / contains_calls
                                     if contains_calls else 0.0),
        "criteria.cond1_s": t("criteria.cond1"),
        "criteria.cond2_s": t("criteria.cond2"),
        "criteria.partitions_checked": partitions_checked,
        "criteria.contains_per_partition": (contains_in_cond2 / partitions_checked
                                            if partitions_checked else 0.0),
        "constructions.build_s": t("constructions.build"),
        "constructions.edges_built": edges_built,
        "constructions.augment_s": t("constructions.augment"),
        "densopt.opt_s": t("densopt.opt"),
        "densopt.exact_count_s": exact_count_inclusive,
        "partitions.sample_s": t("partitions.sample"),
        "partitions.count_s": t("partitions.count"),
        "partitions.trials": d("partitions.expect", "trials"),
        "partitions.edge_part_tests": d("partitions.expect", "edge_part_tests"),
    }
    for layer in ("bench",) + MODULES:
        out[f"layer.{layer}_s"] = layer_self.get(layer, 0.0)
    return out
