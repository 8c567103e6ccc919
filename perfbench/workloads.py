"""The four workloads: inputs made from the seed, closed loops, checks.

Each workload owns its inputs and the program objects it drives, and
exposes the same surface to the runner:

* ``setup(tracer)`` builds everything (timed by the runner; repeated);
* ``warmup()`` runs one untraced cycle of its mix, whose RunResult
  metrics are the deterministic ``ampc.*`` counts and the determinism
  guard's reference;
* ``step(phase, client, ticket)`` performs the operation the ticket maps
  to and returns its samples;
* ``guard()`` (cold workloads, traced runs) replays the warm-up cycle
  through the traced load/prepare/run split and compares the executed
  totals;
* ``check(samples)`` validates every answer, returning failure reasons;
* ``alive()`` raises if a process the workload depends on has exited;
* ``teardown()`` releases everything; safe to call more than once.

The seed picks the query order, the algorithm seeds and the update
batches.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import ctypes
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from repro import GraphService, Session
from repro.analysis.datasets import build_dataset, dataset_spec
from repro.api import registry
from repro.distdht import SocketBackingStore
from repro.graph.generators import degree_weighted
from repro.serve import estimate_query_cost

from checks import Checker, answer
from harness import CheckFailed, Sample, proc_hwm_mb

ALGORITHMS = ("mis", "matching", "msf", "components")
#: one cycle of the cold mix; on OK-S each algorithm takes about the same
#: share of a cycle's wall time
COLD_MIX = ("mis",) * 8 + ("matching",) * 2 + ("msf",) * 2 + ("components",)
#: serve-warm's keys per graph, by algorithm.  Hits of mis and matching
#: take milliseconds, of msf and components tens of them: with three
#: quarters of the queries on the fast keys the median and the p90 each
#: fall inside one key's latencies, not on the gap between two classes
WARM_KEYS = (("mis", 3), ("matching", 3), ("msf", 1), ("components", 1))
#: serve-churn applies one update before every UPDATE_EVERY-th query
UPDATE_EVERY = 16
#: edges inserted (and, once available, deleted) per update
BATCH_EDGES = 8


def rng_for(seed: int, *labels: Any) -> random.Random:
    """A generator determined by the workload seed and ``labels`` only."""
    return random.Random(":".join(str(part) for part in (seed,) + labels))


def algo_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def build_input(name: str, scale: float):
    """A fresh copy of a dataset analogue (never the memoized one)."""
    return build_dataset(dataset_spec(name), scale)


def stats_totals(stats) -> Tuple[int, int, float]:
    return (stats.shuffles_executed, stats.kv_reads_executed,
            stats.simulated_time_s)


def metrics_totals(metrics: Dict[str, Any]) -> Tuple[int, int, float]:
    return (metrics["shuffles"], metrics["kv_reads"],
            metrics["simulated_time_s"])


def same_totals(a: Tuple[int, int, float], b: Tuple[int, int, float]) -> bool:
    return (a[0] == b[0] and a[1] == b[1]
            and math.isclose(a[2], b[2], rel_tol=1e-9, abs_tol=1e-12))


class Workload:
    name = ""
    clients = 1

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.tracer = None
        #: wall seconds of each Graph.csr() build during setup
        self.csr_times: List[float] = []
        #: (algo, totals) of the warm-up cycle, in order
        self.reference: List[Tuple[str, Tuple[int, int, float]]] = []

    # -- tracing -----------------------------------------------------------

    def set_tracing(self, tracer) -> None:
        """Trace from now on (a Tracer) or stop tracing (None).

        Wrappers installed during a traced setup are removed while off, so
        untraced phases run the program's own methods.
        """
        current = self.tracer
        if current is not None and tracer is None:
            current.pause()
        elif current is None and tracer is not None:
            tracer.resume()
        self.tracer = tracer

    def span(self, name: str, **attrs: Any):
        tracer = self.tracer
        if tracer is None:
            return nullcontext()
        return tracer.span(name, **attrs)

    def build_csr(self, *graphs) -> None:
        for graph in graphs:
            started = time.perf_counter()
            graph.csr()
            self.csr_times.append(time.perf_counter() - started)

    # -- hooks -------------------------------------------------------------

    def alive(self) -> None:
        return None

    def node_rss_mb(self) -> float:
        return 0.0

    def store_counters(self) -> Dict[str, int]:
        """Backing-store health counters accumulated since set-up."""
        return {}

    def cache_stats(self):
        """The long-lived Session's SessionStats, or None."""
        raise NotImplementedError

    def cache_bytes(self) -> int:
        raise NotImplementedError

    def teardown(self) -> None:
        return None


# -- cold solves: one client, a cold Session per query ---------------------


def cold_query(seed: int, phase: str, ticket: int) -> Tuple[str, int]:
    """The ticket-th query of a phase: (algorithm, algorithm seed)."""
    cycle, slot = divmod(ticket, len(COLD_MIX))
    order = list(COLD_MIX)
    rng_for(seed, phase, "order", cycle).shuffle(order)
    return order[slot], algo_seed(rng_for(seed, phase, "query", ticket))


class ColdSolve(Workload):
    name = "cold-solve"
    scale = 0.5

    def setup(self, tracer=None) -> None:
        self.tracer = tracer
        self.graph = build_input("OK-S", self.scale)
        self.weighted = degree_weighted(self.graph)
        self.build_csr(self.graph, self.weighted)
        self.checker = Checker(self.graph, self.weighted)

    def input_for(self, algo: str):
        return self.weighted if algo == "msf" else self.graph

    def solve(self, algo: str, seed: int):
        """-> (RunResult, executed totals the run charged)."""
        graph = self.input_for(algo)
        session = Session()
        if self.tracer is None:
            result = session.run(algo, graph, seed=seed)
            return result, metrics_totals(result.metrics)
        with self.span("api.load"):
            handle = session.load("input", graph)
        with self.span("api.prepare", algo=algo):
            session.prepare(algo, handle, seed=seed)
        with self.span("core.query", algo=algo):
            result = session.run(algo, handle, seed=seed)
        return result, stats_totals(session.stats)

    def query_sample(self, algo: str, seed: int, rid: str) -> Sample:
        started = time.perf_counter()
        try:
            with self.span("request", request=rid, algo=algo) as request:
                result, totals = self.solve(algo, seed)
        except Exception as exc:  # counted as a failed operation
            return Sample("query", algo, started, time.perf_counter(),
                          ok=False, error=repr(exc))
        ended = time.perf_counter()
        if request is not None:
            request.attrs["sim_s"] = totals[2]
        canonical, extra = answer(algo, result.output)
        return Sample("query", algo, started, ended,
                      fresh=not result.preprocessing_reused, first=True,
                      shuffles=totals[0], kv_reads=totals[1],
                      sim_s=totals[2], check=(algo, seed, canonical, extra),
                      span=request)

    def step(self, phase: str, client: int, ticket: int) -> List[Sample]:
        algo, seed = cold_query(self.seed, phase, ticket)
        return [self.query_sample(algo, seed, f"{phase}-{ticket}")]

    def warmup(self) -> List[Sample]:
        samples = [self.step("warmup", 0, ticket)[0]
                   for ticket in range(len(COLD_MIX))]
        self.reference = [(s.algo, (s.shuffles, s.kv_reads, s.sim_s))
                          for s in samples if s.ok]
        return samples

    def guard(self) -> List[str]:
        """Replay the warm-up cycle through the traced split."""
        failures = []
        for ticket, (algo, expected) in enumerate(self.reference):
            sample = self.query_sample(*cold_query(self.seed, "warmup",
                                                   ticket), f"guard-{ticket}")
            got = (sample.shuffles, sample.kv_reads, sample.sim_s)
            if not sample.ok or not same_totals(got, expected):
                failures.append(
                    f"determinism: warm-up query {ticket} ({algo}) charged "
                    f"{expected} untraced but {got} traced")
        return failures

    def check(self, samples: List[Sample]) -> List[str]:
        failures = []
        for sample in samples:
            if sample.kind != "query" or not sample.ok:
                continue
            algo, _seed, canonical, extra = sample.check
            reason = self.checker.check(algo, canonical, extra)
            if reason:
                failures.append(f"{algo} seed {_seed}: {reason}")
        return failures

    def cache_stats(self):
        return None  # a fresh Session per query: nothing accumulates

    def cache_bytes(self) -> int:
        return 0


# -- the socket DHT: one client, one long-lived Session on R=2 nodes -------


def _die_with_parent() -> None:
    """In the child: get SIGTERM if the benchmark dies without cleaning up
    (Linux prctl PR_SET_PDEATHSIG; a no-op where unavailable)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class NodeFleet:
    """``python -m repro dht-server`` subprocesses started by the benchmark."""

    def __init__(self, root: str, count: int):
        self.procs: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        self._drains: List[threading.Thread] = []
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        try:
            for _ in range(count):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "dht-server",
                     "--port", "0"],
                    cwd=root, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, preexec_fn=_die_with_parent)
                self.procs.append(proc)
            for proc in self.procs:
                line = proc.stderr.readline()
                if "listening on" not in line:
                    raise RuntimeError(f"dht-server failed to start: {line!r}")
                self.addresses.append(line.split()[-1])
                # keep the pipe drained so a chatty node never blocks
                drain = threading.Thread(target=proc.stderr.read, daemon=True)
                drain.start()
                self._drains.append(drain)
        except BaseException:
            self.close()
            raise

    def alive(self) -> None:
        for proc in self.procs:
            code = proc.poll()
            if code is not None:
                raise CheckFailed(
                    f"dht-server pid {proc.pid} exited mid-run with {code}")

    def hwm_mb(self) -> float:
        return sum(proc_hwm_mb(proc.pid) for proc in self.procs)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for drain in self._drains:
            drain.join(timeout=5)
        self.procs = []
        self._drains = []


class DHTSocket(ColdSolve):
    name = "dht-socket"
    scale = 0.125
    #: every n-th timed query is also compared with a sim Session
    SIM_COMPARE_EVERY = 4

    #: public SocketBackingStore methods the traced run wraps
    RPC_METHODS = ("put", "put_many", "get", "get_many", "contains",
                   "delete", "scan", "delete_prefix")

    def __init__(self, root: str, seed: int):
        super().__init__(root, seed)
        self.fleet: Optional[NodeFleet] = None
        self.session: Optional[Session] = None

    def setup(self, tracer=None) -> None:
        self.tracer = tracer
        self.fleet = NodeFleet(self.root, 2)
        self.store = SocketBackingStore(self.fleet.addresses, replication=2)
        self.graph = build_input("OK-S", self.scale)
        self.weighted = degree_weighted(self.graph)
        self.build_csr(self.graph, self.weighted)
        self.checker = Checker(self.graph, self.weighted)
        self.session = Session(backend=self.store)
        self.handles = {}
        for label, graph in (("plain", self.graph),
                             ("weighted", self.weighted)):
            with self.span("api.load"):
                self.handles[label] = self.session.load(label, graph)
        self._counters_at_setup = dict(self.store.health()["counters"])
        if tracer is not None:
            for method in self.RPC_METHODS:
                tracer.wrap(self.store, method, f"distdht.{method}",
                            annotate=_rpc_annotation(method))

    def solve(self, algo: str, seed: int):
        session = self.session
        if self.tracer is None:
            result = session.run(algo, self.input_for(algo), seed=seed,
                                 reuse_preprocessing=False)
            return result, metrics_totals(result.metrics)
        handle = self.handles["weighted" if algo == "msf" else "plain"]
        before = stats_totals(session.stats_snapshot())
        with self.span("api.prepare", algo=algo):
            session.prepare(algo, handle, seed=seed)
        with self.span("core.query", algo=algo):
            result = session.run(algo, handle, seed=seed)
        # the untraced run keeps nothing cached either
        session.clear_preprocessing()
        after = stats_totals(session.stats_snapshot())
        return result, (after[0] - before[0], after[1] - before[1],
                        after[2] - before[2])

    def alive(self) -> None:
        if self.fleet is not None:
            self.fleet.alive()

    def node_rss_mb(self) -> float:
        return self.fleet.hwm_mb()

    def store_counters(self) -> Dict[str, int]:
        now = self.store.health()["counters"]
        return {name: count - self._counters_at_setup.get(name, 0)
                for name, count in now.items()}

    def cache_stats(self):
        return self.session.stats_snapshot()

    def cache_bytes(self) -> int:
        return self.session.cache_bytes

    def check(self, samples: List[Sample]) -> List[str]:
        failures = super().check(samples)
        queries = [s for s in samples if s.kind == "query" and s.ok]
        for index, sample in enumerate(queries):
            if index % self.SIM_COMPARE_EVERY:
                continue
            algo, seed, canonical, _extra = sample.check
            expected, _ = answer(algo, Session().run(
                algo, self.input_for(algo), seed=seed).output)
            if canonical != expected:
                failures.append(f"{algo} seed {seed}: socket answer differs "
                                f"from the sim Session's")
        return failures

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


def _rpc_annotation(method: str):
    """Keys and record bytes one backing-store call moved."""

    def annotate(args, kwargs, result) -> Dict[str, Any]:
        if method == "put_many":
            items = args[0]
            return {"keys": len(items),
                    "bytes": sum(len(record) for _key, record in items)}
        if method == "put":
            return {"keys": 1, "bytes": len(args[1])}
        if method == "get_many":
            return {"keys": len(args[0]),
                    "bytes": sum(len(r) for r in result if r is not None)}
        if method == "get":
            return {"keys": 1, "bytes": len(result) if result else 0}
        return {"keys": 1, "bytes": 0}

    return annotate


# -- the serving tier: two closed-loop clients over GraphService -----------


class ServeBase(Workload):
    clients = 2

    def make_service(self, graphs: Dict[str, Any], keys) -> None:
        """GraphService(workers=2) over an injected Session, admission on.

        The per-worker budget is twice the largest cold price of any key,
        so two closed-loop clients are always admitted, never queued.
        """
        self.session = Session()
        prices = []
        for algo, name, _seed in keys:
            graph = graphs[name]
            prices.append(estimate_query_cost(
                registry.get(algo), graph.num_vertices, graph.num_edges,
                cached=False, config=self.session.config))
        self.service = GraphService(workers=2, session=self.session,
                                    max_inflight_cost=2 * max(prices))
        for name, graph in graphs.items():
            with self.span("api.load"):
                self.service.load(name, graph)
        if self.tracer is not None:
            self.tracer.wrap(self.session, "run", "serve.exec",
                             annotate=_exec_annotation, adoptable=True)
        self.generation = 0
        #: (key, graph generation) -> the first answer seen for it; every
        #: later answer to the same key on the same version must equal it
        self.answers: Dict[Any, Any] = {}
        self.mismatches: List[str] = []
        self._answers_lock = threading.Lock()

    def prewarm(self) -> None:
        """Run every key once, sequentially: cold, deterministic runs."""
        self.prewarm_metrics: List[Tuple[str, Tuple[int, int, float]]] = []
        for key in self.keys:
            result = self.service.query(key[0], key[1], seed=key[2])
            self.prewarm_metrics.append((key[0],
                                         metrics_totals(result.metrics)))
            self.record(key, 0, answer(key[0], result.output))

    def record(self, key, generation: int, got) -> None:
        with self._answers_lock:
            first = self.answers.setdefault((key, generation), got)
            if first is not got and first[0] != got[0]:
                self.mismatches.append(
                    f"{key} gen {generation}: two answers on one version")

    def query(self, key, rid: str, generation: int = 0,
              first: bool = False) -> Sample:
        algo, name, seed = key
        started = time.perf_counter()
        try:
            with self.span("request", request=rid, algo=algo,
                           first=first) as request:
                with self.span("serve.submit", algo=algo):
                    pending = self.service.submit(algo, name, seed=seed)
                result = pending.result()
                if request is not None:
                    self.tracer.adopt(result, request)
        except Exception as exc:  # counted as a failed operation
            return Sample("query", algo, started, time.perf_counter(),
                          ok=False, error=repr(exc))
        ended = time.perf_counter()
        totals = metrics_totals(result.metrics)
        if request is not None:
            request.attrs["sim_s"] = totals[2]
        self.record(key, generation, answer(algo, result.output))
        return Sample("query", algo, started, ended,
                      fresh=not result.preprocessing_reused, first=first,
                      shuffles=totals[0], kv_reads=totals[1], sim_s=totals[2],
                      span=request)

    def check_versions(self, graphs) -> List[str]:
        """Check the first answer per (key, version) on that version.

        ``graphs`` yields (generation, {name: graph}) in order.
        """
        failures = list(self.mismatches)
        by_generation: Dict[int, List] = {}
        for (key, generation), got in self.answers.items():
            by_generation.setdefault(generation, []).append((key, got))
        for generation, named in graphs:
            checkers = {name: Checker(graph) for name, graph in named.items()}
            for key, got in by_generation.get(generation, ()):
                reason = checkers[key[1]].check(key[0], *got)
                if reason:
                    failures.append(f"{key} gen {generation}: {reason}")
        return failures

    def cache_stats(self):
        return self.session.stats_snapshot()

    def cache_bytes(self) -> int:
        return self.session.cache_bytes

    def check_admission(self) -> List[str]:
        """The budget is meant to admit every query of two clients."""
        admission = self.service.stats()["admission"]
        if admission["queued"] or admission["shed"]:
            return [f"admission queued {admission['queued']} and shed "
                    f"{admission['shed']} queries: budget too small"]
        return []

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.session.close()
            self.service = None


def _exec_annotation(args, kwargs, result) -> Dict[str, Any]:
    return {"algo": result.algorithm,
            "reused": result.preprocessing_reused,
            "sim_s": result.metrics["simulated_time_s"]}


def _key_order(seed: int, phase: str, keys, ticket: int):
    cycle, slot = divmod(ticket, len(keys))
    order = list(keys)
    rng_for(seed, phase, "order", cycle).shuffle(order)
    return order[slot]


class ServeWarm(ServeBase):
    name = "serve-warm"

    def setup(self, tracer=None) -> None:
        self.tracer = tracer
        graphs = {"ok-s": build_input("OK-S", 0.5),
                  "tw-s": build_input("TW-S", 0.25)}
        self.build_csr(*graphs.values())
        rng = rng_for(self.seed, "keys")
        self.keys = [(algo, name, algo_seed(rng))
                     for name in graphs for algo, count in WARM_KEYS
                     for _ in range(count)]
        self.graphs = graphs
        self.make_service(graphs, self.keys)
        self.prewarm()
        self.reference = self.prewarm_metrics

    def step(self, phase: str, client: int, ticket: int) -> List[Sample]:
        key = _key_order(self.seed, phase, self.keys, ticket)
        return [self.query(key, f"{phase}-{ticket}")]

    def warmup(self) -> List[Sample]:
        return [self.step("warmup", 0, ticket)[0]
                for ticket in range(len(self.keys))]

    def check(self, samples: List[Sample]) -> List[str]:
        return (self.check_admission()
                + self.check_versions([(0, self.graphs)]))


class _ReadWriteLock:
    """Queries share; an update waits for in-flight queries and excludes
    new ones (writer preference), so each query sees one graph version."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class ServeChurn(ServeBase):
    name = "serve-churn"

    def setup(self, tracer=None) -> None:
        self.tracer = tracer
        self.graph = build_input("OK-S", 0.5)
        self.build_csr(self.graph)
        rng = rng_for(self.seed, "keys")
        self.keys = [(algo, "ok-s", algo_seed(rng))
                     for algo in ALGORITHMS for _ in range(2)]
        self.make_service({"ok-s": self.graph}, self.keys)
        if tracer is not None:
            tracer.wrap(self.service, "update", "api.update")
        self.prewarm()
        self.reference = self.prewarm_metrics
        # The LRU budget holds one generation of the hot set: a patched
        # artifact evicts the oldest ancestors.
        self.session.max_cache_bytes = self.session.cache_bytes
        self.generation = 0
        #: generation -> (insertions, deletions) that produced it
        self.batches: Dict[int, Tuple[List, List]] = {}
        self._outstanding: List[Tuple[int, int]] = []
        self._seen: Dict[Any, int] = {key: 0 for key in self.keys}
        self._seen_lock = threading.Lock()
        self._rw = _ReadWriteLock()

    def _next_batch(self) -> Tuple[List, List]:
        graph = self.graph
        rng = rng_for(self.seed, "batch", self.generation + 1)
        insertions: List[Tuple[int, int]] = []
        chosen = set()
        while len(insertions) < BATCH_EDGES:
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            edge = (min(u, v), max(u, v))
            if u == v or edge in chosen or graph.has_edge(u, v):
                continue
            chosen.add(edge)
            insertions.append(edge)
        deletions: List[Tuple[int, int]] = []
        if len(self._outstanding) >= BATCH_EDGES:
            deletions = self._outstanding[:BATCH_EDGES]
        return insertions, deletions

    def update(self, rid: str) -> Sample:
        self._rw.acquire_write()
        try:
            insertions, deletions = self._next_batch()
            started = time.perf_counter()
            try:
                with self.span("request", request=rid, algo="update"):
                    self.service.update("ok-s", insertions, deletions)
            except Exception as exc:  # counted as a failed operation
                return Sample("update", "update", started,
                              time.perf_counter(), ok=False, error=repr(exc))
            ended = time.perf_counter()
            self.generation += 1
            self.batches[self.generation] = (insertions, deletions)
            self._outstanding = self._outstanding[len(deletions):] + insertions
            return Sample("update", "update", started, ended)
        finally:
            self._rw.release_write()

    def step(self, phase: str, client: int, ticket: int) -> List[Sample]:
        samples = []
        if ticket % UPDATE_EVERY == 0:
            samples.append(self.update(f"{phase}-{ticket}-update"))
        key = _key_order(self.seed, phase, self.keys, ticket)
        self._rw.acquire_read()
        try:
            generation = self.generation
            with self._seen_lock:
                first = self._seen[key] < generation
                self._seen[key] = generation
            samples.append(self.query(key, f"{phase}-{ticket}", generation,
                                      first))
        finally:
            self._rw.release_read()
        return samples

    def warmup(self) -> List[Sample]:
        samples = []
        for ticket in range(UPDATE_EVERY):
            samples.extend(self.step("warmup", 0, ticket))
        return samples

    def versions(self):
        """Replay the batches on a fresh base graph: (generation, graphs)."""
        graph = build_input("OK-S", 0.5)
        for generation in range(self.generation + 1):
            if generation:
                insertions, deletions = self.batches[generation]
                for u, v in deletions:
                    graph.remove_edge(u, v)
                for u, v in insertions:
                    graph.add_edge(u, v)
            yield generation, {"ok-s": graph}

    def check(self, samples: List[Sample]) -> List[str]:
        """Every query against the version it ran on; then each hot key
        once more, untimed, against a sim Session on the final version."""
        final = {key: answer(key[0], self.service.query(
            key[0], key[1], seed=key[2]).output) for key in self.keys}
        failures = self.check_admission() + self.check_versions(
            self.versions())
        graph = None
        for _generation, named in self.versions():
            graph = named["ok-s"]
        checker = Checker(graph)
        for key, got in final.items():
            algo, _name, seed = key
            reason = checker.check(algo, *got)
            if reason:
                failures.append(f"{key} final: {reason}")
            sim_input = checker.weighted if algo == "msf" else graph
            expected = answer(algo, Session().run(algo, sim_input,
                                                  seed=seed).output)
            if got[0] != expected[0]:
                failures.append(f"{key} final: answer differs from a sim "
                                f"Session on the final version")
        return failures


WORKLOADS = {cls.name: cls for cls in (ColdSolve, ServeWarm, ServeChurn,
                                       DHTSocket)}
