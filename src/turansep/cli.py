"""Command-line entry point.

Every library operation is exposed as a subcommand emitting a structured
report (stable text form by default, JSON with --json).  Each ``cmd_*``
handler returns the fields it computes, a verdict and the graph it
emits, if any; ``run`` writes the envelope every report carries
(``command``, ``version`` and, under --timing, ``timing_seconds``) and
maps the verdict to the exit code: True 0 (success / property holds),
False 1 (property violated, with a witness in the report), None 3
(search budget exhausted).  Invalid input exits 2, and so does an input
too large to fit in memory (``error: out of memory ...``) or holding a
number too large for the command, such as a vertex count beyond the
machine's index range (``error: a number in the input is too large
...``).  A reader
that closes stdout before the whole report is written leaves the
verdict's exit code and nothing on stderr.

Family arguments accept ``K:l,k`` (complete), ``K-:l,k`` (complete minus
an edge), ``D:t,k`` (daisy), ``S6``, or a path to a hypergraph file.
Every subcommand takes --json, --threads and --timing; --out is taken by
build and construct, --budget by turan, condition1 and separate, and
--seed by crossing.  A flag given to a subcommand that does not read it
exits 2 under that subcommand's usage.  Reports are byte-identical for
equal inputs, seed and version; --threads is accepted for compatibility
and has no effect; timing is only emitted under --timing.  ``python -m
turansep.cli`` runs the same command as the ``turansep`` script.
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


def _flatten(payload, prefix=""):
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        else:
            if isinstance(value, (list, tuple)):
                value = json.dumps(value)
            yield f"{name}: {value}"


def emit_report(args, payload: dict, graph: Hypergraph | None = None) -> None:
    # the graph goes into the report unless --out takes it
    text = "" if graph is None else serialize(graph)
    if text and args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out!r}: {exc}") from None
        text = ""
    if args.json:
        body = {**payload, "graph": text} if text else payload
        report = json.dumps(body, sort_keys=True, indent=2, default=str) + "\n"
    else:
        prefix = "# " if text else ""
        report = "".join(f"{prefix}{line}\n" for line in _flatten(payload)) + text
    # one write, so a reader that closes stdout early meets one point of
    # failure, which run maps to the verdict's exit code
    sys.stdout.write(report)
    sys.stdout.flush()


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get("TURANSEP_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParameterError(
            f"TURANSEP_SEED must be an integer, got {value!r}") from None


def _summary(h: Hypergraph, token: str) -> dict:
    return {"token": token, "k": h.k, "n": h.n, "edges": h.edge_count}


def _host_and_target(args):
    """H and F of contains and free-check, with the summaries of both."""
    h = parse_family_token(args.host)
    f = parse_family_token(args.target)
    return h, f, {"host": _summary(h, args.host), "target": _summary(f, args.target)}


def _family_pair(args):
    """F and F' of the separation commands, with the fields echoing them."""
    f = parse_family_token(args.family)
    fs = parse_family_token(args.subfamily)
    return f, fs, {"f": args.family, "f_sub": args.subfamily}


def cmd_build(args):
    h = parse_family_token(args.family)
    return {"input": _summary(h, args.family)}, True, h


def cmd_contains(args):
    h, f, fields = _host_and_target(args)
    emb = embed.contains(h, f)
    fields["found"] = emb is not None
    if emb is not None:
        fields["embedding"] = list(emb.mapping)
    return fields, emb is not None, None


def cmd_free_check(args):
    h, f, fields = _host_and_target(args)
    method, violation = embed.check_free(h, f)
    fields.update(method=method, free=violation is None)
    if isinstance(violation, embed.Embedding):
        fields["violation"] = {"embedding": list(violation.mapping)}
    elif violation is not None:
        subset, count = violation
        fields["violation"] = {"subset": list(subset), "spanned": count}
    return fields, violation is None, None


def cmd_turan(args):
    f = parse_family_token(args.family)
    result = exact.turan_number(args.n, f, budget=args.budget)
    fields = {
        "n": args.n, "family": args.family,
        "value": result.value,
        "exhausted": result.exhausted,
        "nodes_explored": result.nodes_explored,
        "witness_edges": [list(e) for e in result.witness.edges],
        "cap": {"value": result.cap, "closed": result.closed,
                "ladder": [asdict(level) for level in result.ladder]},
    }
    return fields, True if result.exhausted else None, None


def _condition1_fields(r: criteria.Condition1Result) -> dict:
    return {**asdict(r), "holds": "unknown" if r.holds is None else r.holds}


def _condition2_fields(r: criteria.Condition2Result) -> dict:
    out: dict = {"holds": r.holds, "partitions_checked": r.partitions_checked}
    if r.counterexample is not None:
        out["counterexample_partition"] = [list(p) for p in r.counterexample]
    return out


def cmd_condition1(args):
    f, fs, fields = _family_pair(args)
    r = criteria.check_condition1(f, fs, budget=args.budget)
    fields["condition1"] = _condition1_fields(r)
    return fields, r.holds, None


def cmd_condition2(args):
    f, fs, fields = _family_pair(args)
    r = criteria.check_condition2(f, fs)
    fields["condition2"] = _condition2_fields(r)
    return fields, r.holds, None


def cmd_separate(args):
    f, fs, fields = _family_pair(args)
    report = criteria.separate(f, fs, budget=args.budget)
    fields.update(condition1=_condition1_fields(report.condition1),
                  condition2=_condition2_fields(report.condition2),
                  verdict=report.verdict)
    return fields, report.condition2.holds or report.condition1.holds, None


def cmd_construct(args):
    fields = {"command": f"construct {args.builder}"}
    if args.builder == "s6star":
        h = constructions.iterated_blowup_s6(_one_int(args, "n"))
    elif args.builder == "bipartite-g":
        h = constructions.bipartite_g(_one_int(args, "n"))
    elif args.builder == "six-part":
        sizes = _ints(args, 6)
        params = constructions.SixPartParams(tuple(sizes))
        h, fields["layer_counts"] = constructions.six_part_with_breakdown(params)
    elif args.builder == "blowup":
        if not args.params:
            raise ParameterError("blowup needs a base family and part sizes")
        base = parse_family_token(args.params[0])
        sizes = tuple(_int(x) for x in args.params[1:])
        h = constructions.blowup(constructions.BlowupSpec(base, sizes))
    elif args.builder == "augment":
        if len(args.params) != 1:
            raise ParameterError("augment needs one hypergraph file")
        base = parse_family_token(args.params[0])
        h = constructions.augment_matching(base)
        fields["added_edges"] = h.edge_count - base.edge_count
    fields["result"] = {"k": h.k, "n": h.n, "edges": h.edge_count}
    return fields, True, h


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
    fields = {
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
    return fields, True, None


def cmd_crossing(args):
    h = parse_family_token(args.host)
    seed = _seed(args)
    report = partitions.expectation_check(h, args.t0, trials=args.trials, seed=seed)
    fields = {
        "host": args.host, "t0": args.t0, "trials": args.trials, "seed": seed,
        "crossing_probability": partitions.crossing_probability(
            h.n, h.k, args.t0),
        "empirical_mean": report.empirical_mean,
        "exact_expectation": report.exact_expectation,
        "z_score": report.z_score,
    }
    return fields, True, None


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

    def add(name, handler, parents, summary):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        # run reports an unrecognized argument through this parser
        p.set_defaults(handler=handler, subparser=p)
        return p

    p = add("build", cmd_build, [out], "emit a named family as a hypergraph file")
    p.add_argument("family")

    p = add("contains", cmd_contains, [], "search for a copy of F in H")
    p.add_argument("host")
    p.add_argument("target")

    p = add("free-check", cmd_free_check, [], "verify that H contains no copy of F")
    p.add_argument("host")
    p.add_argument("target")

    p = add("turan", cmd_turan, [budget], "exact Turan number ex(n, F)")
    p.add_argument("n", type=int)
    p.add_argument("family")

    p = add("condition1", cmd_condition1, [budget],
            "decide separation condition (1) for (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")

    p = add("condition2", cmd_condition2, [],
            "decide separation condition (2) for (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")

    p = add("separate", cmd_separate, [budget],
            "run both separation criteria on (F, F')")
    p.add_argument("family")
    p.add_argument("subfamily")

    p = add("construct", cmd_construct, [out], "build a lower-bound construction")
    p.add_argument("builder",
                   choices=["s6star", "bipartite-g", "six-part", "blowup",
                            "augment"])
    p.add_argument("params", nargs="*")

    add("densopt", cmd_densopt, [], "maximize the six-part density polynomial")

    p = add("crossing", cmd_crossing, [], "crossing-edge expectation check")
    p.add_argument("host")
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: TURANSEP_SEED or 0)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import, and reused: parse_args keeps
    # no state between calls
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            getattr(args, "subparser", parser).error(
                f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    start = time.monotonic()
    try:
        fields, verdict, graph = args.handler(args)
        payload = {"command": args.subcommand, "version": __version__, **fields}
        if args.timing:
            payload["timing_seconds"] = round(time.monotonic() - start, 3)
        # writes --out before the report, so a failed write leaves no report
        emit_report(args, payload, graph)
    except (ParameterError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this command",
              file=sys.stderr)
        return 2
    except OverflowError:
        print("error: a number in the input is too large for this command",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: the verdict stands, and fd 1 goes
        # to devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return {True: 0, False: 1, None: 3}[verdict]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
