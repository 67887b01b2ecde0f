"""The discrete-event execution engine.

The machine state is a *compute clock* ``c`` (ideal temporal-schedule
cycles completed, 0 .. CC_spatial) advancing at rate 1 whenever no
unfinished transfer job blocks it, plus a set of in-flight transfer jobs
draining bits through shared ports.

Arbitration: ports are processor-shared — an active port splits its
bandwidth equally among the jobs currently using it, and a job's transfer
rate is the minimum of its shares across the (up to two) ports it touches.
This approximates the word-interleaved round-robin of a real bus arbiter.

Within a stream jobs are serialized (a link moves one tile at a time);
across levels, refill jobs wait for the covering upper-level tile
(cut-through is not modeled — a tile must land before it is forwarded,
which is how the validation chip's DMA chain behaves).

The engine advances in variable-length segments bounded by the next event:
a job finishing, the compute clock hitting a blocking threshold or a job's
start gate, or computation completing. All stall behaviour *emerges* from
these mechanics; no closed-form stall expression appears anywhere here.

The loop runs on slot-indexed state built once per run (:class:`_Slots`):
per-stream job lists (gates, thresholds, dependencies as stream indices,
per-port bits) and flat cursors, with one *leg* per stream and port. The
port shares are rebuilt only when a job starts or a leg drains, the only
moments they can change. This is bit-identical to recomputing everything
per event: each rate is still ``bandwidth / users`` over the same legs,
every ``min``/``max`` became an exact comparison, the earliest start gate
enters as ``min(gate) - c`` (rounding is monotone, so that equals
``min(gate - c)``), and each port's busy total still accumulates in
stream order. ``tests/simulator/golden_results.json`` pins every field
of the result.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.tracer import current_tracer
from repro.simulator.result import SimulationResult
from repro.simulator.streams import JobStream, PortKey, build_streams
from repro.simulator.trace import TraceRecorder

_EPS = 1e-9


class CycleSimulator:
    """Cycle-level reference simulator for one mapping on one accelerator.

    Parameters
    ----------
    accelerator / mapping:
        The design point to execute.
    max_events:
        Safety valve against runaway simulations; raises ``RuntimeError``
        when exceeded.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        mapping: Mapping,
        max_events: int = 5_000_000,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        self.accelerator = accelerator
        self.mapping = mapping
        self.max_events = max_events
        self.trace = trace
        self._port_bw: Dict[PortKey, float] = {}
        for level in accelerator.hierarchy.unique_levels():
            for port in level.instance.ports:
                self._port_bw[(level.name, port.name)] = (
                    port.bandwidth * level.instance.instances
                )

    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Execute the layer and return the measured timing.

        Runs under a ``simulator.run`` span on the ambient tracer (one
        per simulation, carrying the measured timing decomposition), so
        simulator-validated runs show up in traces and HTML reports
        alongside the analytical model's spans.
        """
        tracer = current_tracer()
        with tracer.span("simulator.run") as span:
            result = self._execute()
            if tracer.enabled:
                span.set_many(
                    accelerator=self.accelerator.name,
                    layer=self.mapping.layer.name or "?",
                    total_cycles=result.total_cycles,
                    compute_cycles=result.compute_cycles,
                    preload_cycles=result.preload_cycles,
                    stall_cycles=result.stall_cycles,
                    drain_tail_cycles=result.drain_tail_cycles,
                    jobs_completed=result.jobs_completed,
                    events=result.events,
                )
        return result

    def _execute(self) -> SimulationResult:
        total_cc = self.mapping.temporal.total_cycles
        end_c = total_cc - _EPS
        total_f = float(total_cc)
        run = _Slots(build_streams(self.accelerator, self.mapping), self._port_bw)
        names, jobs, seqs = run.names, run.jobs, run.seqs
        gates, deps, port_bits = run.gates, run.deps, run.port_bits
        leg_span, leg_stream, leg_port = run.leg_span, run.leg_stream, run.leg_port
        bandwidth = run.bandwidth
        n_streams = len(names)
        trace = self.trace
        inf = float("inf")

        # Flat job state. Per stream: ``nxt`` is the first job not yet
        # completed (the in-flight one while ``active``), ``frontier`` its
        # blocking threshold (inf once the stream is done) and
        # ``completed`` the seq of the last completed job. Per leg (one
        # per stream and distinct port): ``remaining`` bits of the
        # in-flight job, zero while the stream is idle.
        nxt = [0] * n_streams
        n_jobs = [len(j) for j in jobs]
        active = [False] * n_streams
        waiting = [s for s in range(n_streams) if n_jobs[s]]   # idle, jobs left
        frontier = [run.frontier(s, 0) for s in range(n_streams)]
        completed = [-1] * n_streams
        done = n_streams - len(waiting)
        remaining = [0.0] * len(leg_port)
        busy = [0.0] * len(bandwidth)
        busy_order: List[int] = []      # ports in order of first transfer

        # Legs with bits pending, in stream-then-port order, with their
        # ports and rates; rebuilt only when a job starts or a leg drains.
        legs: List[int] = []
        ports: List[int] = []
        rates: List[float] = []
        legs_stale = True

        t = 0.0                   # wall-clock cycles
        c = 0.0                   # compute-local progress
        stall = 0.0
        preload_end: Optional[float] = None
        compute_end: Optional[float] = None
        jobs_done = 0
        events = 0
        max_events = self.max_events
        # The lowest blocking threshold moves only when a job completes.
        limit = min(frontier, default=inf)

        while True:
            events += 1
            if events > max_events:
                raise RuntimeError(
                    f"simulation exceeded {self.max_events} events "
                    f"({jobs_done} jobs done, t={t:.0f}, c={c:.0f})"
                )

            # 1. Start every startable frontier job; remember the nearest
            # start gate still ahead of the compute clock.
            c_eps = c + _EPS
            next_gate = inf
            started = False
            for s in waiting:
                k = nxt[s]
                gate = gates[s][k]
                if gate > c_eps:
                    if gate < next_gate:
                        next_gate = gate
                    continue
                dep = deps[s][k]
                if dep is not None and completed[dep[0]] < dep[1]:
                    continue
                active[s] = started = True
                first, stop = leg_span[s]
                remaining[first:stop] = port_bits[s][k]
                for leg in range(first, stop):
                    if remaining[leg] > _EPS and leg_port[leg] not in busy_order:
                        busy_order.append(leg_port[leg])
                if trace is not None:
                    trace.job_started(names[s], seqs[s][k], t)
            if started:
                waiting = [s for s in waiting if not active[s]]
                legs_stale = True

            # 2. Compute-clock limit: the lowest blocking threshold.
            computing = c < end_c and c < limit - _EPS
            if trace is not None:
                trace.compute_state(computing or c >= end_c, t, c)

            # 3. Port shares: each port splits its bandwidth among the jobs
            # that still have bits pending on it; a job progresses on every
            # such port independently (store-and-forward buffering).
            if legs_stale:
                legs = [leg for leg, bits in enumerate(remaining) if bits > _EPS]
                ports = [leg_port[leg] for leg in legs]
                users = [0] * len(bandwidth)
                for port in ports:
                    users[port] += 1
                rates = [bandwidth[port] / users[port] for port in ports]
                legs_stale = False

            # 4. Next event horizon.
            dt = inf
            if computing:
                dt = total_cc - c
                if limit - c < dt:
                    dt = limit - c
                if next_gate - c < dt:
                    dt = next_gate - c
            for leg, rate in zip(legs, rates):
                if rate > 0 and remaining[leg] / rate < dt:
                    dt = remaining[leg] / rate

            if dt == inf:
                if c >= end_c and done == n_streams:
                    break
                blocked = [
                    names[s] for s in range(n_streams) if active[s] or nxt[s] < n_jobs[s]
                ]
                raise RuntimeError(
                    f"simulation deadlock at t={t:.0f}, c={c:.0f}; "
                    f"pending streams: {blocked}"
                )
            if dt < 0.0:
                dt = 0.0

            # 5. Advance.
            t += dt
            if computing:
                c += dt
                if total_f < c:
                    c = total_f
            elif c < end_c:
                stall += dt
            drained: List[int] = []
            for leg, port, rate in zip(legs, ports, rates):
                moved = rate * dt
                left = remaining[leg] - moved
                remaining[leg] = left = left if left > 0.0 else 0.0
                busy[port] += moved
                if left <= _EPS:
                    drained.append(leg_stream[leg])

            if preload_end is None and c > _EPS:
                # Compute started during this segment: preload ended at its start.
                preload_end = t - dt
            if compute_end is None and c >= end_c:
                compute_end = t

            # 6. Completions (all ports drained), in stream order: only a
            # stream whose leg just drained can complete.
            if drained:
                legs_stale = True
                finished = False
                for s in dict.fromkeys(drained):
                    first, stop = leg_span[s]
                    if max(remaining[first:stop]) > _EPS:
                        continue
                    finished = True
                    k = nxt[s]
                    completed[s] = seqs[s][k]
                    active[s] = False
                    remaining[first:stop] = [0.0] * (stop - first)
                    nxt[s] = k + 1
                    frontier[s] = run.frontier(s, k + 1)
                    if k + 1 < n_jobs[s]:
                        bisect.insort(waiting, s)
                    else:
                        done += 1
                    jobs_done += 1
                    if trace is not None:
                        trace.job_finished(names[s], seqs[s][k], t, jobs[s][k].bits)
                if finished:
                    limit = min(frontier)

            if c >= end_c and done == n_streams:
                break

        if compute_end is None:
            compute_end = t
        if preload_end is None:
            preload_end = 0.0
        if trace is not None:
            trace.finish(t)
        return SimulationResult(
            total_cycles=t,
            compute_cycles=total_cc,
            preload_cycles=preload_end,
            stall_cycles=max(0.0, stall - preload_end),
            drain_tail_cycles=t - compute_end,
            port_busy={run.port_keys[port]: busy[port] for port in busy_order},
            jobs_completed=jobs_done,
            events=events,
        )


class _Slots:
    """The slot-indexed form of one run's streams, built once per run.

    Stream ``s`` owns ``jobs[s]`` with parallel ``gates``, ``thresholds``,
    ``seqs`` and ``deps`` lists (a dependency is ``(stream index, seq)``).
    Each distinct port of a stream is one *leg*: legs are numbered in
    stream-then-port order, stream ``s`` owns legs ``leg_span[s]``, and
    ``leg_port`` indexes ``port_keys``. ``port_bits[s][k]`` holds the bits
    job ``k`` moves on each of its stream's legs.
    """

    def __init__(self, streams: List[JobStream], port_bw: Dict[PortKey, float]) -> None:
        index = {stream.name: s for s, stream in enumerate(streams)}
        self.port_keys: List[PortKey] = []
        slot_of: Dict[PortKey, int] = {}
        self.names = [stream.name for stream in streams]
        self.jobs = [stream.jobs for stream in streams]
        self.seqs = [[job.seq for job in stream.jobs] for stream in streams]
        self.gates = [[job.gate_c for job in stream.jobs] for stream in streams]
        self.thresholds = [[job.threshold_c for job in stream.jobs] for stream in streams]
        self.deps = [
            [None if job.dep is None else (index[job.dep[0]], job.dep[1]) for job in stream.jobs]
            for stream in streams
        ]
        self.leg_span: List[Tuple[int, int]] = []
        self.leg_stream: List[int] = []
        self.leg_port: List[int] = []
        self.port_bits: List[List[Tuple[float, ...]]] = []
        for s, stream in enumerate(streams):
            keys = list(dict.fromkeys(stream.ports))
            for key in keys:
                if key not in slot_of:
                    slot_of[key] = len(self.port_keys)
                    self.port_keys.append(key)
            first = len(self.leg_port)
            self.leg_span.append((first, first + len(keys)))
            self.leg_stream.extend([s] * len(keys))
            self.leg_port.extend(slot_of[key] for key in keys)
            self.port_bits.append(stream.port_rows(keys))
        self.bandwidth = [port_bw[key] for key in self.port_keys]

    def frontier(self, s: int, k: int) -> float:
        """Blocking threshold of stream ``s`` with cursor ``k``: that of job
        ``k`` (in flight or next to start), or ``inf`` once ``k`` is past
        the last job and the stream is done."""
        thresholds = self.thresholds[s]
        return thresholds[k] if k < len(thresholds) else float("inf")
