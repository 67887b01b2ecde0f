"""The register-stage-accurate tick scheduler.

Where :class:`repro.simulator.engine.CycleSimulator` advances continuous
time in variable-length event segments with processor-shared ports, this
backend calls every component once per integer cycle in a fixed order:

1. **issue** — each unit memory's preload/offload engine puts startable
   steps in flight, using the compute count *before* this cycle;
2. **compute decision** — the MAC-array issue stage may issue one
   temporal iteration iff no engine's blocking threshold is reached;
3. **arbitration** — every port's fixed-priority arbiter grants this
   cycle's bandwidth to its requesters (leftover cascades down-rank);
4. **retire** — at cycle end, steps whose legs all drained retire,
   unblocking dependents from the *next* cycle; the compute count
   increments.

CC_comp, CC_preload, CC_offload and the per-unit-memory stall
decomposition are *measured* off this tick stream, not computed.

Exactness
---------
When the lowered program is *integral* (every gate, threshold and leg
duration a whole number of cycles — ``MachineProgram.integral``) and the
run observed **zero contended port cycles**, the two backends' schedules
coincide event for event: every event-engine instant (gate crossing,
threshold block, leg completion) falls on a cycle boundary, and with at
most one requester per port per cycle the fixed-priority grant equals
the processor share. By induction on the first divergence, total cycle
counts must then match **exactly** — the three-way property in
:mod:`repro.verify.properties` asserts equality, not a band, on this
subset. Any contended or fractional case falls back to the sim-vs-sim
band.

A *stride* fast path replays a provably-stable cycle verbatim over a run
of cycles (bounded so no issue, retire, gate crossing or threshold block
can occur inside the run). It is a pure scheduling optimization: state
updates are the same arithmetic, so results are bit-identical with
``stride=False`` (pinned by ``tests/simulator/rtl``).

The tick loop runs on state indexed once at build time. Ranks are static,
so each :class:`~repro.simulator.rtl.components.PortArbiter` holds its
requesters (engine and leg index) in rank order, and each
:class:`~repro.simulator.rtl.components.TransferEngine` keeps its
remaining bits in a list aligned with ``plan.ports``. No engine is
scanned per port and nothing is sorted per cycle. The cached frontier
threshold, queued-head gate and undrained-leg count change only on issue,
drain and retire. That skips no work that could change a number: grants
are the same ``min(pending, left)`` in the same rank order, every port's
busy bits accumulate in that grant order, and every ``min``/``max``
became an exact comparison. Results are bit-identical to the per-cycle
scan, with and without the stride (``tests/simulator/golden_results.json``
pins every field).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.hardware.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.observability.tracer import current_tracer
from repro.simulator.result import SimulationResult
from repro.simulator.rtl.components import (
    MacArrayIssueStage,
    OffloadEngine,
    PortArbiter,
    PreloadEngine,
    TransferEngine,
)
from repro.simulator.rtl.program import MachineProgram, lower_program
from repro.simulator.trace import TraceRecorder

_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class RtlSimulationResult(SimulationResult):
    """A :class:`SimulationResult` plus the RTL backend's measurements.

    ``exact`` certifies that the run satisfied both exactness conditions
    (integral program, zero contended port cycles) — the subset on which
    the event backend must agree on ``total_cycles`` to the cycle.
    ``stall_by_memory`` is the *measured* per-unit-memory stall
    decomposition, keyed like the ledger's ``ss_comb`` map
    (``"W@LB/L0"``).
    """

    exact: bool = False
    integral: bool = False
    contended_port_cycles: float = 0.0
    stall_by_memory: Dict[str, float] = dataclasses.field(default_factory=dict)
    preload_bits: float = 0.0
    offload_bits: float = 0.0

    def summary(self) -> str:
        base = super().summary().replace("Simulation:", "RTL simulation:")
        lines = [
            base,
            f"  exact        = {self.exact} "
            f"(integral={self.integral}, "
            f"contended={self.contended_port_cycles:.0f} port-cycles)",
        ]
        for key in sorted(self.stall_by_memory):
            lines.append(f"  stall[{key}] = {self.stall_by_memory[key]:12.1f} cc")
        return "\n".join(lines)


class RtlSimulator:
    """Tick-driven second oracle for one mapping on one accelerator.

    Shares no evaluation code with the event engine: its own lowering
    (:mod:`repro.simulator.rtl.program`), its own components, its own
    scheduler. The only shared surface is the result shape.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        mapping: Mapping,
        max_cycles: int = 50_000_000,
        trace: Optional[TraceRecorder] = None,
        stride: bool = True,
    ) -> None:
        self.accelerator = accelerator
        self.mapping = mapping
        self.max_cycles = max_cycles
        self.trace = trace
        self.stride = stride
        self.program: MachineProgram = lower_program(accelerator, mapping)

    # ------------------------------------------------------------------ #

    def run(self) -> RtlSimulationResult:
        """Execute the layer tick by tick and measure the timing."""
        tracer = current_tracer()
        with tracer.span("simulator.rtl.run") as span:
            result = self._execute()
            if tracer.enabled:
                span.set_many(
                    accelerator=self.accelerator.name,
                    layer=self.mapping.layer.name or "?",
                    total_cycles=result.total_cycles,
                    stall_cycles=result.stall_cycles,
                    preload_cycles=result.preload_cycles,
                    drain_tail_cycles=result.drain_tail_cycles,
                    exact=result.exact,
                    contended_port_cycles=result.contended_port_cycles,
                )
        return result

    # ------------------------------------------------------------------ #

    def _build(self) -> Tuple[
        List[TransferEngine], List[PreloadEngine], List[PortArbiter],
        MacArrayIssueStage,
    ]:
        engines = [TransferEngine(plan) for plan in self.program.plans]
        arbiters = [
            PortArbiter(key, bw, engines)
            for key, bw in self.program.port_bandwidth.items()
        ]
        inbound: Dict[str, List[TransferEngine]] = {}
        outbound: Dict[str, List[TransferEngine]] = {}
        for engine in engines:
            side = outbound if engine.plan.kind == "flush" else inbound
            side.setdefault(engine.plan.unit_memory, []).append(engine)
        units: List[PreloadEngine] = []
        for key in sorted(set(inbound) | set(outbound)):
            if key in inbound:
                units.append(PreloadEngine(key, inbound[key]))
            if key in outbound:
                units.append(OffloadEngine(key, outbound[key]))
        issue = MacArrayIssueStage(self.program.total_cycles)
        return engines, units, arbiters, issue

    def _execute(self) -> RtlSimulationResult:
        engines, units, arbiters, mac = self._build()
        retired: Dict[str, int] = {e.name: -1 for e in engines}
        # Issue order is unit order; only ports some engine uses arbitrate.
        issue_order = [engine for unit in units for engine in unit.engines]
        live = [arbiter for arbiter in arbiters if arbiter.requesters]
        trace = self.trace
        total = mac.total_cycles

        def retire(now: int) -> int:
            """Retire every fully drained step, in engine order."""
            count = 0
            for engine in engines:
                if engine.active is not None and not engine.legs_left:
                    step = engine.maybe_retire()
                    retired[engine.name] = step.seq
                    count += 1
                    if trace is not None:
                        trace.job_finished(step.engine, step.seq, float(now), step.bits)
            return count

        t = 0
        iterations = 0
        jobs_done = 0
        preload_end: Optional[int] = None
        compute_end: Optional[int] = None
        # The lowest blocking threshold moves only when a step retires.
        limit = min([engine.threshold for engine in engines], default=math.inf)

        while True:
            iterations += 1
            if t > self.max_cycles or iterations > self.max_cycles:
                raise RuntimeError(
                    f"RTL simulation exceeded {self.max_cycles} cycles "
                    f"({jobs_done} steps retired, t={t}, c={mac.c})"
                )
            c = mac.c
            c_eps = c + _EPS

            # 1. Issue stage. Zero-bit steps retire in place, possibly
            # enabling dependents at the same cycle, so iterate to a fixed
            # point. Every other drained step retired at the end of the
            # last cycle, so only a pass that issued something can retire.
            # The last pass also finds the nearest gate still ahead.
            while True:
                issued_any = False
                next_gate = math.inf
                for engine in issue_order:
                    gate = engine.gate
                    if gate <= c_eps:
                        step = engine.try_issue(c, retired)
                        if step is not None:
                            issued_any = True
                            if trace is not None:
                                trace.job_started(step.engine, step.seq, float(t))
                    elif gate < next_gate:
                        next_gate = gate
                if not issued_any:
                    break
                retired_now = retire(t)
                if not retired_now:
                    break
                jobs_done += retired_now
                limit = min([engine.threshold for engine in engines])

            # 2. Compute decision under the lowest blocking threshold.
            computing = mac.can_issue(limit)
            if trace is not None:
                trace.compute_state(computing or mac.finished, float(t), float(c))

            # 3. Arbitration: per-port fixed-priority grants, each arbiter
            # walking its build-time requesters in rank order.
            grants: List[Tuple[PortArbiter, list]] = []
            granted = False
            for arbiter in live:
                port_grants = arbiter.arbitrate()
                if port_grants:
                    granted = True
                    grants.append((arbiter, port_grants))
                elif arbiter.contended:
                    grants.append((arbiter, port_grants))

            # 4. Stride: how many cycles this exact pattern provably
            # repeats (no gate crossing, threshold block, compute finish
            # or leg drain strictly inside the run).
            n = 1
            if self.stride:
                bounds: List[int] = []
                if computing:
                    bounds.append(total - c)
                    if limit < math.inf:
                        bounds.append(max(1, math.ceil(limit - c - _EPS)))
                    if next_gate < math.inf:
                        bounds.append(max(1, math.ceil(next_gate - c - _EPS)))
                for __, port_grants in grants:
                    for engine, leg, rate in port_grants:
                        if rate > _EPS:
                            bounds.append(
                                max(1, int(engine.remaining[leg] / rate + _EPS))
                            )
                if bounds:
                    n = max(1, min(bounds))

            if not computing and not granted and not mac.finished:
                pending = [e.name for e in engines if not e.done]
                raise RuntimeError(
                    f"RTL simulation deadlock at t={t}, c={mac.c}; "
                    f"pending engines: {pending}"
                )

            # 5. Advance n cycles in one step (same arithmetic as n
            # single ticks — see the stride argument in the module doc).
            drained = False
            for arbiter, port_grants in grants:
                if arbiter.advance(port_grants, n):
                    drained = True

            if computing:
                if preload_end is None:
                    preload_end = t
                mac.issue(n)
                if mac.finished and compute_end is None:
                    compute_end = t + n
            elif not mac.finished:
                blockers = sorted({
                    e.unit_memory for e in engines if e.threshold <= c_eps
                })
                mac.stall(float(n), blockers if preload_end is not None else [])
            t += n

            # 6. Retire at cycle end: only a drained leg can complete a step.
            if drained:
                retired_now = retire(t)
                if retired_now:
                    jobs_done += retired_now
                    limit = min([engine.threshold for engine in engines])

            if mac.finished and all(e.done for e in engines):
                break

        if compute_end is None:
            compute_end = t
        if preload_end is None:
            preload_end = 0
        if self.trace is not None:
            self.trace.finish(float(t))

        contended = sum(a.contended_cycles for a in arbiters)
        stall = max(0.0, mac.stall_cycles - float(preload_end))
        return RtlSimulationResult(
            total_cycles=float(t),
            compute_cycles=self.program.total_cycles,
            preload_cycles=float(preload_end),
            stall_cycles=stall,
            drain_tail_cycles=float(t - compute_end),
            port_busy={a.key: a.busy_bits for a in arbiters if a.busy_bits > 0},
            jobs_completed=jobs_done,
            events=iterations,
            exact=self.program.integral and contended == 0.0,
            integral=self.program.integral,
            contended_port_cycles=contended,
            stall_by_memory=dict(mac.stall_by_memory),
            preload_bits=sum(
                u.bits_moved for u in units if u.direction == "preload"
            ),
            offload_bits=sum(
                u.bits_moved for u in units if u.direction == "offload"
            ),
        )
