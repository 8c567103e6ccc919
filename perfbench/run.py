#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload dht-socket --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same untraced phase, then a traced phase of the
same length, and reports the per-layer metrics and the tracing overhead;
its spans go to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the metrics BENCHMARK.json names
for the mode.  A failed or wrong operation, a failed determinism guard or
a refused statistic makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: each run sets the workload up at least SETUP_MIN_REPS times and for at
#: least SETUP_MIN_S in all (a cheap set-up repeats more, so its median
#: spans more than one burst of machine noise), at most SETUP_MAX_REPS
#: times; setup_s is the median
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
#: e2e percentiles need p90 with ten samples beyond it
MIN_QUERIES = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def provenance(args, timed_s: float, setup_reps: int,
               slowdown: float) -> dict:
    try:
        import numpy  # noqa: F401  (only whether it imports)
        numpy_present = True
    except ImportError:
        numpy_present = False
    from harness import cpus
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpus": cpus(),
        "python": platform.python_version(),
        "numpy": numpy_present,
        "repro_pure_python": os.environ.get("REPRO_PURE_PYTHON", ""),
        "timed_phase_s": round(timed_s, 3),
        "setup_reps": setup_reps,
        "slowdown": round(slowdown, 4),
    }


def stats_delta(before, after) -> dict:
    if before is None or after is None:
        return {}
    before, after = before.to_dict(), after.to_dict()
    return {name: after[name] - before[name] for name in after}


def run(args, manifest) -> int:
    from harness import (MIN_SOLVE_SAMPLES, CheckFailed, SampleSizeError,
                         peak_rss_mb, percentile, run_phase)
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import ALGORITHMS, WORKLOADS, same_totals

    declared = {w["name"] for w in manifest["workloads"]}
    if args.workload not in declared or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(declared)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    failures = []
    samples = []
    try:
        # (raw seconds, seconds at the probe's reference speed)
        setup_times = []
        while (len(setup_times) < SETUP_MIN_REPS
               or sum(took for took, _ in setup_times) < SETUP_MIN_S) \
                and len(setup_times) < SETUP_MAX_REPS:
            workload.teardown()
            gc.collect()
            before = probe.measure()
            started = time.perf_counter()
            workload.setup()
            took = time.perf_counter() - started
            slowdown = (before + probe.measure()) / 2.0
            setup_times.append((took, took / slowdown))
        if tracer is not None:
            # one more set-up, traced, to record its spans; not timed
            workload.teardown()
            workload.setup(tracer)
            # untraced until the traced phase
            workload.set_tracing(None)
        samples += workload.warmup()
        gc.collect()

        def floors(done) -> bool:
            ok = [s for s in done if s.kind == "query" and s.ok]
            if len(ok) < MIN_QUERIES:
                return False
            if not args.trace:
                return True
            per_algo = {}
            firsts = 0
            for s in ok:
                per_algo[s.algo] = per_algo.get(s.algo, 0) + 1
                firsts += s.first
            return (len(per_algo) == len(ALGORITHMS)
                    and min(per_algo.values()) >= MIN_SOLVE_SAMPLES
                    and (firsts == 0 or firsts >= MIN_SOLVE_SAMPLES))

        stats_before = workload.cache_stats()
        reference = run_phase(
            lambda client, ticket: workload.step("timed", client, ticket),
            clients=workload.clients, seconds=args.seconds,
            floors_met=floors, alive=workload.alive, probe=probe)
        samples += reference.all_samples
        delta = stats_delta(stats_before, workload.cache_stats())
        traced = None
        if args.trace:
            workload.set_tracing(tracer)
            guard = getattr(workload, "guard", None)
            if guard is not None:
                failures += guard()
            before = workload.cache_stats()
            traced = run_phase(
                lambda client, ticket: workload.step("traced", client,
                                                     ticket),
                clients=workload.clients, seconds=args.seconds,
                floors_met=lambda done: True, alive=workload.alive,
                probe=probe)
            after = workload.cache_stats()
            workload.set_tracing(None)
            samples += traced.all_samples
            if before is not None and guard is None:
                # tracing must not change what the program charges
                got = tuple(stats_delta(before, after)[k] for k in (
                    "shuffles_executed", "kv_reads_executed",
                    "simulated_time_s"))
                runs = [s for s in traced.all_samples
                        if s.kind == "query" and s.ok]
                want = (sum(s.shuffles for s in runs),
                        sum(s.kv_reads for s in runs),
                        sum(s.sim_s for s in runs))
                if not same_totals(got, want):
                    failures.append(
                        f"determinism: SessionStats executed {got} != "
                        f"RunResult totals {want} over the traced phase")
        failures += [f"{s.kind} {s.algo}: {s.error}"
                     for s in samples if not s.ok]
        failures += workload.check(samples)
        workload.alive()
        attempted = len(samples)
        failed = sum(1 for s in samples if not s.ok)
        # a wrong answer is a failed operation too
        failed = max(failed, min(attempted, len(failures)))

        values = {}
        raw = {}
        if not args.trace:
            # times at the probe's reference speed (speed.py); the raw
            # figures are printed beside them
            queries = [s for s in reference.queries if s.ok]
            latencies = [reference.corrected_latency_s(s) * 1000.0
                         for s in queries]
            raw_latencies = [s.latency_s * 1000.0 for s in queries]
            values["setup_s"] = (
                statistics.median(c for _, c in setup_times),
                len(setup_times))
            raw["setup_s"] = statistics.median(r for r, _ in setup_times)
            values["queries_per_s"] = (
                len(queries) / reference.corrected_seconds(), len(queries))
            raw["queries_per_s"] = len(queries) / reference.seconds
            raw["latency_p50_ms"] = statistics.median(raw_latencies)
            raw["latency_p90_ms"] = percentile(raw_latencies, 0.9,
                                               "latency_p90_ms")
            values["latency_p50_ms"] = (
                percentile(latencies, 0.5, "latency_p50_ms"), len(latencies))
            values["latency_p90_ms"] = (
                percentile(latencies, 0.9, "latency_p90_ms"), len(latencies))
            values["peak_rss_mb"] = (peak_rss_mb() + workload.node_rss_mb(),
                                     1)
        else:
            from layers import layer_metrics
            values = layer_metrics(workload, tracer, reference, traced,
                                   delta, workload.store_counters())
        timed_s = reference.seconds
        slowdown = reference.slowdown.median()
    except SampleSizeError as exc:
        print(f"error: refused statistic: {exc}", file=sys.stderr)
        return 1
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.teardown()
        if tracer is not None:
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            path = os.path.join(
                ROOT, ".perfbench",
                f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path, {"workload": args.workload,
                                "seed": args.seed})
            print(f"spans: {len(tracer.spans)} written to "
                  f"{os.path.relpath(path, ROOT)}")

    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(f"error: metrics differ from BENCHMARK.json {section}: "
              f"missing {missing}, undeclared {extra}", file=sys.stderr)
        return 2
    for name in sorted(values):
        value, count = values[name]
        line = f"metric {name} = {value:.6g} {units[name]} (n={count})"
        if name in raw:
            line += f"; raw {raw[name]:.6g}"
        print(line)
    kinds = {}
    for s in samples:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
    print(f"operations {kinds}, failed {failed}, "
          f"error_rate {failed / max(attempted, 1):.6g}")
    print("provenance " + json.dumps(provenance(args, timed_s,
                                                len(setup_times),
                                                slowdown)))
    for reason in failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args, load_manifest())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
