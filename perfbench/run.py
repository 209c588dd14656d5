"""turansep benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; turansep is imported from ``src/``.  One
process, no threads, a closed loop: each job starts after the previous one
returns.  The workload repeats its jobs in passes until ``--seconds`` is
used, checks every answer outside the timed region and prints each metric
with its unit; times are scaled to a reference machine speed (see
``speed.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run files (inputs, results, spans, the counter record) go to ``.perfbench/``.
Exit code 0 means every answer matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 7  # fresh processes whose median is setup_s; one more warms caches
CHILD_TIMEOUT = 150

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Mismatch, Runner, check_records  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_turansep() -> SimpleNamespace:
    """turansep from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "turansep" / "__init__.py").is_file():
        raise SystemExit(f"error: no turansep sources under {src}")
    sys.path.insert(0, str(src))
    import turansep
    import turansep.cli
    if Path(turansep.__file__).resolve().parent != src / "turansep":
        raise SystemExit(f"error: imported turansep from {turansep.__file__}")
    return SimpleNamespace(cli=turansep.cli, constructions=turansep.constructions,
                           densopt=turansep.densopt, exact=turansep.exact,
                           hypergraph=turansep.hypergraph)


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    return tree_digest(list((ROOT / "src" / "turansep").glob("*.py")) + list(HERE.glob("*.py")))


def environment(load_before) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "commit": commit,
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: with passes of identical jobs it picks the
    same job whatever the number of passes."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def measure_setup(args) -> tuple[float, float, list[str]]:
    """Median time from process start to inputs ready over fresh processes,
    scaled and raw, and the digest of each process's inputs."""
    times, raw_times, digests = [], [], []
    before = speed.probe()
    for i in range(SETUP_RUNS + 1):
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        try:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only", str(workdir)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                raise Mismatch(f"set-up process failed: {done.stderr.strip()}")
            digests.append(tree_digest(workdir.iterdir()))
        finally:
            shutil.rmtree(workdir)
        after = speed.probe()
        if i:  # the first process also compiles bytecode caches
            times.append(elapsed * speed.factor(before, after))
            raw_times.append(elapsed)
        before = after
    return statistics.median(times), statistics.median(raw_times), digests


def run_passes(ts, workload, state, seconds: float, min_passes: int, tracer=None):
    """Repeat the workload's jobs until the next pass would overrun ``seconds``.

    Returns the passes' records and, when traced, their spans.
    """
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.spans = []
        runner = Runner(ts.cli, tracer)
        workload.run_pass(runner, state)
        check_records(runner.records)
        for rec in runner.records:  # so that memory does not grow with passes
            rec.value, rec.stdout = None, ""
        passes.append(runner.records)
        if tracer is not None:
            spans.append(tracer.spans)
        took = time.perf_counter() - began
        if len(passes) >= min_passes and time.perf_counter() - start + took > seconds:
            return passes, spans


def pass_counters(records) -> dict:
    total: dict = {}
    for rec in records:
        for key, value in rec.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def job_counters(records) -> dict:
    return {rec.label: rec.counters for rec in records if rec.counters}


def check_counters(per_pass: list[dict], key: str) -> list[str]:
    """Counters must repeat in every pass and in every earlier run of the
    same code, workload, seed and mode."""
    problems = [f"pass {i} counters {c} differ from pass 0 {per_pass[0]}"
                for i, c in enumerate(per_pass) if c != per_pass[0]]
    store_path = OUT / "counters.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    earlier = store.get(key)
    if earlier is not None and earlier != per_pass[0]:
        problems.append(f"counters {per_pass[0]} differ from an earlier run: {earlier}")
    store[key] = per_pass[0]
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems


def summarise(passes) -> dict:
    """Times scaled by each job's speed factor, with the raw ones kept."""
    records = [rec for p in passes for rec in p]
    failures = [f"{rec.label}: {rec.error}" for rec in records if rec.error]
    raw_walls = [sum(rec.seconds for rec in p) for p in passes]
    walls = [sum(rec.seconds * rec.speed_factor for rec in p) for p in passes]
    latencies = [rec.seconds * rec.speed_factor for rec in records]
    return {
        "passes": len(passes),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "pass_factors": [w / r for w, r in zip(walls, raw_walls)],
        "raw_pass_walls": raw_walls,
        "pass_walls": walls,
        "job_seconds": [[rec.seconds for rec in p] for p in passes],
        "raw_wall_s": statistics.median(raw_walls),
        "wall_s": statistics.median(walls),
        "job_samples": len(latencies),
        "job_p50_s": percentile(latencies, 50),
        # p90 only where at least ten samples lie beyond it
        "job_p90_s": percentile(latencies, 90) if len(latencies) >= 100 else None,
        "counters_per_pass": [pass_counters(p) for p in passes],
        "job_counters": job_counters(passes[0]),
    }


def run_untraced(args, ts, workload, state) -> dict:
    metrics, raw_setup_s, setup_digests = {}, None, []
    if not args.untraced_side:
        metrics["setup_s"], raw_setup_s, setup_digests = measure_setup(args)
    passes, _ = run_passes(ts, workload, state, args.seconds,
                           min_passes=1 if args.untraced_side else 2)
    result = summarise(passes)
    problems = list(result["failures"])
    problems += [f"set-up process {i} made different inputs"
                 for i, d in enumerate(setup_digests) if d != args.input_digest]
    problems += check_counters(result["counters_per_pass"],
                               f"{source_digest()}/{args.workload}/seed={args.seed}/untraced")
    metrics.update(
        wall_s=result["wall_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    result.update(problems=problems, metrics=metrics, units=END_TO_END_UNITS,
                  raw_setup_s=raw_setup_s)
    return result


def run_traced(args, ts, workload, state) -> dict:
    half = args.seconds / 2
    untraced_file = OUT / "results" / f"{args.workload}-seed{args.seed}-untraced.json"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(half), "--trace", "0",
         "--untraced-side"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode not in (0, 1) or not untraced_file.exists():
        raise Mismatch(f"untraced side failed: {done.stderr.strip()}")
    untraced = json.loads(untraced_file.read_text())

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        passes, spans = run_passes(ts, workload, state, half, min_passes=1, tracer=tracer)
    finally:
        uninstall()
    result = summarise(passes)
    per_pass = [tracing.layer_metrics(s, [rec.speed_factor for rec in p])
                for s, p in zip(spans, passes)]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if unit_of(name) == "count" else statistics.fmean(values)
    counts = [{k: v for k, v in m.items() if unit_of(k) == "count"} for m in per_pass]
    traced_wall = statistics.fmean(result["pass_walls"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced["metrics"]["wall_s"]
    metrics["trace.overhead_s"] = traced_wall - untraced["metrics"]["wall_s"]

    problems = list(result["failures"]) + [f"untraced side: {p}" for p in untraced["problems"]]
    problems += check_counters(
        counts, f"{source_digest()}/{args.workload}/seed={args.seed}/traced")
    with open(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for number, pass_spans in enumerate(spans):
            for span in pass_spans:
                fh.write(json.dumps([number] + span[:5]) + "\n")
    result.update(
        problems=problems,
        attempted=result["attempted"] + untraced["attempted"],
        failed=result["failed"] + untraced["failed"],
        counters_per_pass=counts,
        metrics=metrics,
        units={name: unit_of(name) for name in metrics},
        layer_self_sum_s=sum(v for k, v in metrics.items() if k.startswith("layer.")),
    )
    return result


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith(("exact.ns_", "embed.ns_")):
        return "ns"
    if name.endswith(("_ratio", "_per_partition")):
        return "ratio"
    return "count"


def print_report(args, result: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  jobs {result['job_samples']}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:>16.6f} {result['units'][name]}")
    print(f"  unscaled wall_s: {result['raw_wall_s']:.6f} s; speed factors per pass: "
          f"{' '.join(f'{f:.4f}' for f in result['pass_factors'])}")
    if result.get("raw_setup_s") is not None:
        print(f"  unscaled setup_s: {result['raw_setup_s']:.6f} s")
    if args.trace == 0:
        p90 = result["job_p90_s"]
        print(f"  job_p50_s: {result['job_p50_s']:.6f} s over {result['job_samples']} job samples")
        print(f"  job_p90_s: {p90:.6f} s" if p90 is not None else
              f"  job_p90_s: omitted, {result['job_samples']} job samples < 100")
    else:
        print(f"  layer self times sum to {result['layer_self_sum_s']:.6f} s of the "
              f"traced {result['metrics']['trace.wall_s']:.6f} s per pass")
    print(f"  error_rate: {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"  counters per pass: {json.dumps(result['counters_per_pass'][0], sort_keys=True)}")
    print(f"  counters per job: {json.dumps(result['job_counters'])}")
    for problem in result["problems"]:
        print(f"  MISMATCH {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh set-up process, and the untraced side of a traced run
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--untraced-side", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only is not None:
        workload.setup(import_turansep(), args.setup_only, args.seed)
        return 0

    load_before = list(os.getloadavg())
    ts = import_turansep()
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        state = workload.setup(ts, workdir, args.seed)
        args.input_digest = tree_digest(workdir.iterdir())
        run = run_traced if args.trace else run_untraced
        result = run(args, ts, workload, state)
    except Mismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
    result["environment"] = environment(load_before)
    tag = "untraced" if args.untraced_side else f"trace{args.trace}"
    (OUT / "results" / f"{args.workload}-seed{args.seed}-{tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    print_report(args, result)
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
