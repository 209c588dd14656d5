"""Command-line entry point.

Every library operation is exposed as a subcommand emitting a structured
report (stable text form by default, JSON with --json).  Exit codes:
0 success / property holds; 1 property violated, with a witness in the
report; 2 invalid input; 3 search budget exhausted.

Family arguments accept ``K:l,k`` (complete), ``K-:l,k`` (complete minus
an edge), ``D:t,k`` (daisy), ``S6``, or a path to a hypergraph file.
Every subcommand takes --json, --threads and --timing; --out is taken by
build and construct, --budget by turan, condition1 and separate, and
--seed by crossing.  A flag given to a subcommand that does not read it
exits 2.  Reports are byte-identical for equal inputs, seed and version;
--threads is accepted for compatibility and has no effect; timing is only
emitted under --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, constructions, criteria, densopt, embed, exact, partitions
from .errors import ParameterError, ParseError
from .hypergraph import FamilySpec, Hypergraph, build_named, parse, serialize


def parse_family_token(token: str) -> Hypergraph:
    """Resolve a family token or file path to its hypergraph."""
    if token == "S6":
        return build_named(FamilySpec.s6())
    for prefix, maker in (("K-:", FamilySpec.complete_minus),
                          ("K:", FamilySpec.complete),
                          ("D:", FamilySpec.daisy)):
        if token.startswith(prefix):
            body = token[len(prefix):]
            try:
                a, k = (int(x) for x in body.split(","))
            except ValueError:
                raise ParameterError(
                    f"malformed family token {token!r}; expected {prefix}a,b")
            return build_named(maker(a, k))
    path = Path(token)
    if not path.exists():
        raise ParameterError(f"{token!r} is neither a family token nor a file")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {token!r}: {exc}") from None
    return parse(text)


def _flatten(payload, prefix="", out=None):
    if out is None:
        out = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, f"{name}.", out)
        else:
            if isinstance(value, (list, tuple)):
                value = json.dumps(value)
            out.append(f"{name}: {value}")
    return out


def emit_report(args, payload: dict, graph: Hypergraph | None = None) -> None:
    if graph is not None:
        text = serialize(graph)
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ParameterError(f"cannot write {args.out!r}: {exc}") from None
        if args.json:
            body = dict(payload)
            if not args.out:
                body["graph"] = text
            print(json.dumps(body, sort_keys=True, indent=2, default=str))
        elif args.out:
            print("\n".join(_flatten(payload)))
        else:
            for line in _flatten(payload):
                print(f"# {line}")
            sys.stdout.write(text)
        return
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        print("\n".join(_flatten(payload)))


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get("TURANSEP_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParameterError(
            f"TURANSEP_SEED must be an integer, got {value!r}") from None


def _graph_summary(name: str, h: Hypergraph, token: str) -> dict:
    return {name: {"token": token, "k": h.k, "n": h.n, "edges": h.edge_count}}


def cmd_build(args):
    h = parse_family_token(args.family)
    payload = {"command": "build", "version": __version__}
    payload.update(_graph_summary("input", h, args.family))
    return payload, 0, h


def cmd_contains(args):
    h = parse_family_token(args.host)
    f = parse_family_token(args.target)
    emb = embed.contains(h, f)
    payload = {"command": "contains", "version": __version__,
               "found": emb is not None}
    payload.update(_graph_summary("host", h, args.host))
    payload.update(_graph_summary("target", f, args.target))
    if emb is not None:
        payload["embedding"] = list(emb.mapping)
    return payload, 0 if emb is not None else 1, None


def cmd_free_check(args):
    h = parse_family_token(args.host)
    f = parse_family_token(args.target)
    method, violation = embed.check_free(h, f)
    payload = {"command": "free-check", "version": __version__,
               "method": method, "free": violation is None}
    payload.update(_graph_summary("host", h, args.host))
    payload.update(_graph_summary("target", f, args.target))
    if isinstance(violation, embed.Embedding):
        payload["violation"] = {"embedding": list(violation.mapping)}
    elif violation is not None:
        subset, count = violation
        payload["violation"] = {"subset": list(subset), "spanned": count}
    return payload, 0 if violation is None else 1, None


def cmd_turan(args):
    f = parse_family_token(args.family)
    result = exact.turan_number(args.n, f, budget=args.budget)
    payload = {
        "command": "turan", "version": __version__,
        "n": args.n, "family": args.family,
        "value": result.value,
        "exhausted": result.exhausted,
        "nodes_explored": result.nodes_explored,
        "witness_edges": [list(e) for e in result.witness.edges],
        "cap": {"value": result.cap, "closed": result.closed,
                "ladder": [asdict(level) for level in result.ladder]},
    }
    return payload, 0 if result.exhausted else 3, None


def _condition1_payload(r: criteria.Condition1Result) -> dict:
    return {
        "m": r.m,
        "ex_value": r.ex_value,
        "ex_exhausted": r.ex_exhausted,
        "floor_product": r.floor_product,
        "e_f": r.e_f,
        "holds": "unknown" if r.holds is None else r.holds,
    }


def _condition2_payload(r: criteria.Condition2Result) -> dict:
    out: dict = {"holds": r.holds, "partitions_checked": r.partitions_checked}
    if r.counterexample is not None:
        out["counterexample_partition"] = [list(p) for p in r.counterexample]
    return out


def cmd_condition1(args):
    f = parse_family_token(args.family)
    fs = parse_family_token(args.subfamily)
    r = criteria.check_condition1(f, fs, budget=args.budget)
    payload = {"command": "condition1", "version": __version__,
               "f": args.family, "f_sub": args.subfamily,
               "condition1": _condition1_payload(r)}
    if r.holds is None:
        return payload, 3, None
    return payload, 0 if r.holds else 1, None


def cmd_condition2(args):
    f = parse_family_token(args.family)
    fs = parse_family_token(args.subfamily)
    r = criteria.check_condition2(f, fs)
    payload = {"command": "condition2", "version": __version__,
               "f": args.family, "f_sub": args.subfamily,
               "condition2": _condition2_payload(r)}
    return payload, 0 if r.holds else 1, None


def cmd_separate(args):
    f = parse_family_token(args.family)
    fs = parse_family_token(args.subfamily)
    report = criteria.separate(f, fs, budget=args.budget)
    payload = {
        "command": "separate", "version": __version__,
        "f": args.family, "f_sub": args.subfamily,
        "condition1": _condition1_payload(report.condition1),
        "condition2": _condition2_payload(report.condition2),
        "verdict": report.verdict,
    }
    if report.verdict != "separated" and report.condition1.holds is None:
        # condition 2 failed, so only the cut condition 1 could separate
        return payload, 3, None
    return payload, 0 if report.verdict == "separated" else 1, None


def cmd_construct(args):
    payload = {"command": f"construct {args.builder}", "version": __version__}
    if args.builder == "s6star":
        h = constructions.iterated_blowup_s6(_one_int(args, "n"))
    elif args.builder == "bipartite-g":
        h = constructions.bipartite_g(_one_int(args, "n"))
    elif args.builder == "six-part":
        sizes = _ints(args, 6)
        params = constructions.SixPartParams(tuple(sizes))
        h, payload["layer_counts"] = constructions.six_part_with_breakdown(params)
    elif args.builder == "blowup":
        if not args.params:
            raise ParameterError("blowup needs a base family and part sizes")
        base = parse_family_token(args.params[0])
        sizes = tuple(_int(x) for x in args.params[1:])
        h = constructions.blowup(constructions.BlowupSpec(base, sizes))
    elif args.builder == "augment":
        if not args.params:
            raise ParameterError("augment needs a hypergraph file")
        base = parse_family_token(args.params[0])
        h = constructions.augment_matching(base)
        payload["added_edges"] = h.edge_count - base.edge_count
    payload["result"] = {"k": h.k, "n": h.n, "edges": h.edge_count}
    return payload, 0, h


def _one_int(args, name) -> int:
    if len(args.params) != 1:
        raise ParameterError(f"builder expects a single integer {name}")
    return _int(args.params[0])


def _ints(args, count) -> list[int]:
    if len(args.params) != count:
        raise ParameterError(f"builder expects {count} integers")
    return [_int(x) for x in args.params]


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterError(
            f"builder parameters must be integers, got {token!r}") from None


def cmd_densopt(args):
    poly = densopt.h_density_poly()
    opt = densopt.maximize_constrained(poly)
    bounds = densopt.reference_bounds()
    payload = {
        "command": "densopt", "version": __version__,
        "polynomial": {
            "x3": poly.c_x3, "y3": poly.c_y3,
            "x2y": poly.c_x2y, "xy2": poly.c_xy2,
        },
        "optimum": {
            "x": opt.x_star, "y": opt.y_star, "value": opt.value,
            "exact_x": opt.exact_x, "exact_y": opt.exact_y,
            "exact_value": opt.exact_value,
            "cross_check_value": opt.cross_check_value,
            "method": opt.method,
        },
        "reference_bounds": {
            name: {"exact": b.exact, "value": b.value, "kind": b.kind}
            for name, b in bounds.items()
        },
    }
    return payload, 0, None


def cmd_crossing(args):
    h = parse_family_token(args.host)
    report = partitions.expectation_check(
        h, args.t0, trials=args.trials, seed=_seed(args))
    payload = {
        "command": "crossing", "version": __version__,
        "host": args.host, "t0": args.t0, "trials": args.trials,
        "seed": report.seed,
        "crossing_probability": partitions.crossing_probability(
            h.n, h.k, args.t0),
        "empirical_mean": report.empirical_mean,
        "exact_expectation": report.exact_expectation,
        "z_score": report.z_score,
    }
    return payload, 0, None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--timing", action="store_true",
                        help="include elapsed time in the report")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="write an emitted hypergraph to this file")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=exact.DEFAULT_BUDGET,
                        help="node budget for each exact search")

    parser = argparse.ArgumentParser(
        prog="turansep",
        description="Verification toolkit for separating hypergraph "
                    "Turan densities.")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("build", parents=[common, out],
                       help="emit a named family as a hypergraph file")
    p.add_argument("family")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("contains", parents=[common],
                       help="search for a copy of F in H")
    p.add_argument("host")
    p.add_argument("target")
    p.set_defaults(handler=cmd_contains)

    p = sub.add_parser("free-check", parents=[common],
                       help="verify that H contains no copy of F")
    p.add_argument("host")
    p.add_argument("target")
    p.set_defaults(handler=cmd_free_check)

    p = sub.add_parser("turan", parents=[common, budget],
                       help="exact Turan number ex(n, F)")
    p.add_argument("n", type=int)
    p.add_argument("family")
    p.set_defaults(handler=cmd_turan)

    p = sub.add_parser("condition1", parents=[common, budget],
                       help="decide separation condition (1) for (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")
    p.set_defaults(handler=cmd_condition1)

    p = sub.add_parser("condition2", parents=[common],
                       help="decide separation condition (2) for (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")
    p.set_defaults(handler=cmd_condition2)

    p = sub.add_parser("separate", parents=[common, budget],
                       help="run both separation criteria on (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")
    p.set_defaults(handler=cmd_separate)

    p = sub.add_parser("construct", parents=[common, out],
                       help="build a lower-bound construction")
    p.add_argument("builder",
                   choices=["s6star", "bipartite-g", "six-part", "blowup",
                            "augment"])
    p.add_argument("params", nargs="*")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("densopt", parents=[common],
                       help="maximize the six-part density polynomial")
    p.set_defaults(handler=cmd_densopt)

    p = sub.add_parser("crossing", parents=[common],
                       help="crossing-edge expectation check")
    p.add_argument("host")
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: TURANSEP_SEED or 0)")
    p.set_defaults(handler=cmd_crossing)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import, and reused: parse_args keeps
    # no state between calls
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    start = time.monotonic()
    try:
        payload, code, graph = args.handler(args)
        if args.timing:
            payload["timing_seconds"] = round(time.monotonic() - start, 3)
        # writes --out before it prints, so a failed write prints no report
        emit_report(args, payload, graph)
    except (ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())
