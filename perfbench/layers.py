"""Per-layer metrics of a traced run.

Span times are reported as means (layer times add up along a request;
medians do not).  Latencies that stand for a user-visible figure
(``solve_ms.*``, ``fresh_p50_ms``) are medians under the sample guard.
A layer a workload never calls reads 0 with n=0: the prediction for
that pairing is "flat".
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from harness import (MIN_SOLVE_SAMPLES, PhaseResult, SampleSizeError, mean,
                     percentile)
from spans import Span, Tracer
from workloads import ALGORITHMS

MB = float(2 ** 20)
RPC_PREFIX = "distdht."


def _descendants(span: Span, children: Dict[int, List[Span]]) -> List[Span]:
    out, stack = [], [span]
    while stack:
        for child in children.get(stack.pop().id, ()):
            out.append(child)
            stack.append(child)
    return out


def _guarded_median(values: List[float], what: str) -> float:
    if len(values) < MIN_SOLVE_SAMPLES:
        raise SampleSizeError(f"{what}: {len(values)} samples, need "
                              f"{MIN_SOLVE_SAMPLES}")
    return percentile(values, 0.5, what)


def layer_metrics(workload, tracer: Tracer, reference: PhaseResult,
                  traced: PhaseResult, stats_delta: Dict[str, int],
                  counters: Dict[str, int]
                  ) -> Dict[str, Tuple[float, int]]:
    """-> {metric name: (value, sample count)}."""
    out: Dict[str, Tuple[float, int]] = {}
    children = tracer.children()

    def span_mean_ms(name: str, since: float = traced.started,
                     **match: Any) -> Tuple[float, int]:
        durations = [span.duration for span in tracer.named(name)
                     if span.start >= since
                     and all(span.attrs.get(k) == v for k, v in match.items())]
        return mean(durations) * 1000.0, len(durations)

    # -- api -------------------------------------------------------------
    # serving workloads register graphs only during setup: count those
    out["api.load_ms"] = span_mean_ms("api.load", since=0.0)
    for algo in ALGORITHMS:
        out[f"api.prepare_ms.{algo}"] = span_mean_ms("api.prepare", algo=algo)
    out["api.update_ms"] = span_mean_ms("api.update")
    queries = reference.queries
    hits = sum(1 for s in queries if s.ok and not s.fresh)
    out["api.cache_hit_ratio"] = (hits / len(queries), len(queries))
    misses = stats_delta.get("preprocessing_misses", 0)
    out["api.incremental_ratio"] = (
        stats_delta.get("incremental_updates", 0) / misses if misses else 0.0,
        misses)
    out["api.cache_mb"] = (workload.cache_bytes() / MB, 1)

    # -- core ------------------------------------------------------------
    requests = [s.span for s in traced.queries if s.span is not None]
    for algo in ALGORITHMS:
        out[f"core.query_ms.{algo}"] = span_mean_ms("core.query", algo=algo)
        wall = sim = 0.0
        count = 0
        for request in requests:
            if request.attrs.get("algo") != algo:
                continue
            for child in children.get(request.id, ()):
                if child.name in ("api.prepare", "core.query", "serve.exec"):
                    wall += child.duration
            sim += request.attrs.get("sim_s", 0.0)
            count += 1
        out[f"core.wall_per_sim.{algo}"] = (wall / sim if sim else 0.0, count)

    # -- ampc: deterministic counts of the reference cycle ---------------
    for algo in ALGORITHMS:
        totals = [t for name, t in workload.reference if name == algo]
        n = len(totals)
        out[f"ampc.shuffles.{algo}"] = (mean([t[0] for t in totals]), n)
        out[f"ampc.kv_reads.{algo}"] = (mean([t[1] for t in totals]), n)
        out[f"ampc.sim_s.{algo}"] = (mean([t[2] for t in totals]), n)

    # -- serve -----------------------------------------------------------
    out["serve.submit_ms"] = span_mean_ms("serve.submit")
    for algo in ALGORITHMS:
        out[f"serve.exec_ms.{algo}"] = span_mean_ms("serve.exec", algo=algo)
    out["serve.exec_ms.fresh"] = span_mean_ms("serve.exec", reused=False)
    out["serve.exec_ms.hit"] = span_mean_ms("serve.exec", reused=True)
    waits = []
    for request in requests:
        inner = {child.name: child.duration
                 for child in children.get(request.id, ())}
        if "serve.submit" in inner and "serve.exec" in inner:
            waits.append(request.duration - inner["serve.submit"]
                         - inner["serve.exec"])
    out["serve.queue_wait_ms"] = (mean(waits) * 1000.0, len(waits))

    # -- distdht: top-level backing-store calls under each query ---------
    names = {span.id: span.name for span in tracer.spans}
    rpc_s, calls, keys, moved, wall = [], 0, 0, 0, 0.0
    for request in requests:
        spent = 0.0
        for span in _descendants(request, children):
            if (not span.name.startswith(RPC_PREFIX)
                    or names.get(span.parent, "").startswith(RPC_PREFIX)):
                continue
            spent += span.duration
            calls += 1
            keys += span.attrs.get("keys", 0)
            moved += span.attrs.get("bytes", 0)
        rpc_s.append(spent)
        wall += request.duration
    n = len(requests)
    out["distdht.rpc_ms"] = (mean(rpc_s) * 1000.0 if calls else 0.0, n)
    out["distdht.rpc_share"] = (sum(rpc_s) / wall if wall else 0.0, n)
    out["distdht.rpc_calls"] = (calls / n if n else 0.0, n)
    out["distdht.keys_per_call"] = (keys / calls if calls else 0.0, calls)
    out["distdht.record_mb"] = (moved / n / MB if n else 0.0, n)
    for name in ("fast_fails", "hints_parked", "read_repairs"):
        out[f"distdht.{name}"] = (counters.get(name, 0), 1)
    node_rss = workload.node_rss_mb()
    out["distdht.node_rss_mb"] = (node_rss, 1 if node_rss else 0)

    # -- graph -----------------------------------------------------------
    out["graph.csr_ms"] = (mean(workload.csr_times) * 1000.0,
                           len(workload.csr_times))

    # -- untraced figures of the same run --------------------------------
    ok = [s for s in queries if s.ok]
    for algo in ALGORITHMS:
        values = [s.latency_s * 1000.0 for s in ok if s.algo == algo]
        out[f"solve_ms.{algo}"] = (
            _guarded_median(values, f"solve_ms.{algo}"), len(values))
    firsts = [s.latency_s * 1000.0 for s in ok if s.first]
    out["fresh_p50_ms"] = (
        _guarded_median(firsts, "fresh_p50_ms") if firsts else 0.0,
        len(firsts))
    # both at the probe's reference speed, like queries_per_s
    untraced_qps = len(ok) / reference.corrected_seconds()
    traced_ok = [s for s in traced.queries if s.ok]
    traced_qps = len(traced_ok) / traced.corrected_seconds()
    out["trace.untraced_qps"] = (untraced_qps, len(ok))
    out["trace.traced_qps"] = (traced_qps, len(traced_ok))
    out["trace.overhead_pct"] = (
        (untraced_qps - traced_qps) / untraced_qps * 100.0,
        len(ok) + len(traced_ok))
    return out
