"""Closed-loop phases, sample-guarded statistics and process accounting."""

from __future__ import annotations

import itertools
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

from speed import PROBE_EVERY_S, Slowdown, SpeedProbe, corrected_seconds

#: an emitted percentile needs at least this many samples above it
MIN_BEYOND = 10
#: a per-algorithm median needs at least this many samples in one run
MIN_SOLVE_SAMPLES = 20
#: a phase that has not met its sample floors by this many times its
#: nominal length gives up (and its guarded metrics are refused)
PHASE_CAP_FACTOR = 3.0


class SampleSizeError(RuntimeError):
    """A statistic was asked of fewer samples than its guard allows."""


class CheckFailed(RuntimeError):
    """An output or determinism check failed: the run is not valid."""


@dataclass
class Sample:
    """One operation of a closed loop."""

    kind: str                   # "query" or "update"
    algo: str                   # algorithm name, or "update"
    start: float
    end: float
    ok: bool = True
    error: str = ""
    #: the query ran its preprocessing (no cache entry served it)
    fresh: bool = False
    #: first query of its key since the graph last changed
    first: bool = False
    #: RunResult metrics the determinism guard compares
    shuffles: int = 0
    kv_reads: int = 0
    sim_s: float = 0.0
    #: what the output check needs (workload specific)
    check: Any = None
    #: request span of a traced operation
    span: Any = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def percentile(values: Sequence[float], q: float, what: str) -> float:
    """Nearest-rank ``q`` percentile, refused without MIN_BEYOND above it.

    The median is the interpolated ``statistics.median`` under the same
    guard (at least ten samples on each side).
    """
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise SampleSizeError(
            f"{what}: p{round(q * 100)} needs {MIN_BEYOND} samples beyond "
            f"it, have {n} samples")
    if q == 0.5:
        return statistics.median(values)
    return sorted(values)[rank - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (ru_maxrss is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """VmHWM (peak resident set) of another process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpus() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PhaseResult:
    #: operations completed while the phase was open (the timed ones)
    samples: List[Sample]
    #: the same plus those in flight when it closed (all are checked)
    all_samples: List[Sample]
    started: float
    #: active seconds: the phase's length less its probe pauses
    seconds: float
    #: (start, end) of each stretch between probe pauses
    segments: List[Tuple[float, float]]
    #: the machine's slowdown over the phase (speed.SpeedProbe)
    slowdown: Slowdown

    @property
    def queries(self) -> List[Sample]:
        return [s for s in self.samples if s.kind == "query"]

    def corrected_latency_s(self, sample: Sample) -> float:
        """A sample's latency at the probe's reference speed."""
        return sample.latency_s / self.slowdown.at(sample.start)

    def corrected_seconds(self) -> float:
        return corrected_seconds(self.segments, self.slowdown)


def run_phase(step: Callable[[int, int], List[Sample]], *, clients: int,
              seconds: float,
              floors_met: Callable[[List[Sample]], bool],
              alive: Callable[[], None],
              probe: SpeedProbe) -> PhaseResult:
    """Run ``clients`` closed loops of ``step(client, ticket)``.

    The phase lasts ``seconds`` of active time and then until
    ``floors_met`` holds on the completed samples, but never past
    PHASE_CAP_FACTOR times ``seconds``.  Every PROBE_EVERY_S the clients
    are held between operations and, with nothing in flight, ``probe``
    measures the machine's speed; the pauses are not part of the phase's
    time or of any operation's latency.  ``alive()`` raises when a
    process the workload depends on has died.  Tickets are handed out in
    order, so the ticket -> operation mapping (and so the inputs) depends
    only on the workload seed.
    """
    tickets = itertools.count()
    gate = threading.Condition()
    state = {"paused": False, "inflight": 0}
    stop = threading.Event()
    per_client: List[List[Sample]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    def loop(client: int) -> None:
        try:
            while True:
                with gate:
                    while state["paused"] and not stop.is_set():
                        gate.wait()
                    if stop.is_set():
                        return
                    state["inflight"] += 1
                    ticket = next(tickets)
                try:
                    per_client[client].extend(step(client, ticket))
                finally:
                    with gate:
                        state["inflight"] -= 1
                        gate.notify_all()
        except BaseException as exc:  # reported by the phase, re-raised there
            errors.append(exc)
            stop.set()
            with gate:
                gate.notify_all()

    probes = [(time.perf_counter(), probe.measure())]
    segments: List[Tuple[float, float]] = []
    threads = [threading.Thread(target=loop, args=(client,),
                                name=f"perfbench-client-{client}")
               for client in range(clients)]
    started = segment_start = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        while not stop.is_set():
            stop.wait(0.05)
            alive()
            now = time.perf_counter()
            elapsed = sum(e - s for s, e in segments) + now - segment_start
            if elapsed >= seconds * PHASE_CAP_FACTOR:
                break
            if elapsed >= seconds:
                done = [s for samples in per_client for s in list(samples)]
                if floors_met(done):
                    break
            if now - segment_start >= PROBE_EVERY_S:
                with gate:
                    state["paused"] = True
                    while state["inflight"] and not stop.is_set():
                        gate.wait(0.1)
                        alive()
                    paused_at = time.perf_counter()
                segments.append((segment_start, paused_at))
                probes.append((paused_at, probe.measure()))
                with gate:
                    state["paused"] = False
                    segment_start = time.perf_counter()
                    gate.notify_all()
    finally:
        closed_at = time.perf_counter()
        stop.set()
        with gate:
            gate.notify_all()
        for thread in threads:
            thread.join()
    if closed_at > segment_start:
        segments.append((segment_start, closed_at))
    probes.append((time.perf_counter(), probe.measure()))
    if errors:
        raise errors[0]
    alive()
    samples = sorted((s for samples in per_client for s in samples),
                     key=lambda s: s.start)
    counted = [s for s in samples if s.end <= closed_at]
    return PhaseResult(counted, samples, started,
                       sum(e - s for s, e in segments), segments,
                       Slowdown(probes))
