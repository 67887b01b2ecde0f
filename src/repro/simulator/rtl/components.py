"""Cycle-callable hardware components of the RTL backend.

Each class models one register stage of the abstract machine and exposes
tick-granular methods the scheduler calls in a fixed order every cycle:

* :class:`PortArbiter` — one per physical port. Fixed-priority,
  work-conserving: requesters are served in the documented rank order
  (refills > read-backs > flushes; W > I > O; inner levels first) and any
  bandwidth a winner leaves on the table cascades to the next requester
  in the same cycle. Its requesters are fixed, in rank order, when it is
  built. :meth:`~PortArbiter.arbitrate` grants one cycle and
  :meth:`~PortArbiter.advance` replays it, which is the one place that
  counts contended cycles — a port cycle with two or more requesters is
  exactly where this policy can diverge from the event engine's processor
  sharing, so the count is the dynamic half of the exactness certificate.
* :class:`TransferEngine` — one per DTL FIFO. Holds at most one
  :class:`~repro.simulator.rtl.program.TransferStep` in flight
  (store-and-forward: a tile must fully land before the next is issued)
  and tracks the per-port bits still to drain.
* :class:`PreloadEngine` / :class:`OffloadEngine` — one pair per unit
  memory. The preload engine owns the inbound FIFOs (refills and partial
  -sum read-backs into the memory), the offload engine the outbound
  flush FIFO; the scheduler issues their engines' startable steps at
  tick start, in unit order, and each side accumulates the unit
  memory's measured traffic.
* :class:`MacArrayIssueStage` — the compute front end: issues one
  temporal iteration per cycle while no engine's blocking threshold has
  been reached, and attributes every stalled cycle to the unit memories
  whose pending transfers block it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.simulator.rtl.program import EnginePlan, PortKey, TransferStep

_EPS = 1e-9


class TransferEngine:
    """One DTL's FIFO of transfer steps, at most one in flight.

    ``remaining`` holds the bits each leg still has to move, aligned with
    ``plan.ports`` (all zero while idle), so an arbiter addresses its leg
    by a fixed index. ``legs_left`` counts the legs with bits above
    ``_EPS``: the step retires when it reaches zero. ``gate`` and
    ``threshold`` cache the queued head's gate (``inf`` while busy or
    done) and the frontier's blocking threshold (``inf`` once done); both
    change only on issue and retire.
    """

    def __init__(self, plan: EnginePlan) -> None:
        self.plan = plan
        self.name = plan.name
        self.priority = plan.priority
        self.unit_memory = plan.unit_memory
        self._steps = plan.steps
        self._next = 0
        self.active: Optional[TransferStep] = None
        self.remaining: List[float] = [0.0] * len(plan.ports)
        self.legs_left = 0
        self.bits_moved = 0.0
        self.gate = math.inf
        self.threshold = math.inf
        self._queue_head()

    def _queue_head(self) -> None:
        if self._next < len(self._steps):
            head = self._steps[self._next]
            self.gate, self.threshold = head.gate, head.threshold
        else:
            self.gate = self.threshold = math.inf

    @property
    def done(self) -> bool:
        return self.active is None and self._next >= len(self._steps)

    def try_issue(self, c: int, retired: Dict[str, int]) -> Optional[TransferStep]:
        """Put the queued head in flight if its gate and dependency allow."""
        if self.gate > c + _EPS:
            return None
        step = self._steps[self._next]
        if step.dep is not None and retired.get(step.dep[0], -1) < step.dep[1]:
            return None
        self.active = step
        legs = dict(step.legs)
        self.remaining = [legs.get(port, 0.0) for port in self.plan.ports]
        self.legs_left = sum(1 for bits in self.remaining if bits > _EPS)
        self.gate = math.inf
        return step

    def drain_leg(self, leg: int, bits: float) -> bool:
        """Consume ``bits`` of leg ``leg`` (an index into ``plan.ports``),
        clamped at zero. Returns whether the leg just drained."""
        before = self.remaining[leg]
        after = before - bits
        self.remaining[leg] = after = after if after > 0.0 else 0.0
        if before > _EPS and after <= _EPS:
            self.legs_left -= 1
            return True
        return False

    def maybe_retire(self) -> Optional[TransferStep]:
        """Retire the in-flight step once every leg has drained."""
        if self.active is None or self.legs_left:
            return None
        step = self.active
        self.active = None
        self.remaining = [0.0] * len(self.remaining)
        self._next += 1
        self.bits_moved += step.bits
        self._queue_head()
        return step


class PortArbiter:
    """Fixed-priority, work-conserving arbiter for one physical port.

    The requesters are every engine with a leg on this port, fixed at
    build time and kept in ascending ``priority`` order: ranks are
    static, so nothing is sorted per cycle. Every cycle grants go down
    that order to the engines with bits pending on the port, each taking
    ``min(pending, capacity_left)``, so leftover bandwidth cascades
    downward instead of being wasted. The policy is deliberately *not*
    the event engine's equal split: under contention the two backends
    disagree by design, which is why contended cycles void the
    exact-match certificate and fall back to the banded comparison.
    """

    def __init__(
        self, key: PortKey, bandwidth: float,
        requesters: Iterable[TransferEngine] = (),
    ) -> None:
        self.key = key
        self.bandwidth = bandwidth
        self.busy_bits = 0.0
        self.contended_cycles = 0.0
        #: Whether the last :meth:`arbitrate` saw two or more requesters.
        self.contended = False
        self.requesters: Tuple[Tuple[TransferEngine, int], ...] = tuple(
            (engine, engine.plan.ports.index(key))
            for engine in sorted(requesters, key=lambda e: e.priority)
            if key in engine.plan.ports
        )

    def arbitrate(self) -> List[Tuple[TransferEngine, int, float]]:
        """This cycle's grants as ``(engine, leg, bits per cycle)``.

        Contention is judged on the pre-drain request pattern (two or
        more engines with bits pending on the port) and recorded for
        :meth:`advance`, which counts it.
        """
        grants: List[Tuple[TransferEngine, int, float]] = []
        left = self.bandwidth
        waiting = 0
        for engine, leg in self.requesters:
            pending = engine.remaining[leg]
            if pending > _EPS:
                waiting += 1
                if left > _EPS:
                    grant = left if left < pending else pending
                    left -= grant
                    grants.append((engine, leg, grant))
        self.contended = waiting >= 2
        return grants

    def advance(
        self, grants: List[Tuple[TransferEngine, int, float]], cycles: int = 1
    ) -> bool:
        """Replay ``grants`` for ``cycles`` cycles; True if a leg drained.

        Drains every granted leg, accumulates the port's busy bits in
        grant order and counts the cycles as contended when the last
        :meth:`arbitrate` was. The scheduler's stride fast path passes
        the length of a run of identical cycles (see
        :mod:`repro.simulator.rtl.sim`).
        """
        if self.contended:
            self.contended_cycles += cycles
        drained = False
        for engine, leg, rate in grants:
            bits = rate * cycles
            if engine.drain_leg(leg, bits):
                drained = True
            self.busy_bits += bits
        return drained


class PreloadEngine:
    """Inbound side of one unit memory: refill + read-back FIFOs.

    Groups the engines (the scheduler issues them in unit order) and
    accumulates the unit memory's measured traffic.
    """

    direction = "preload"

    def __init__(self, unit_memory: str, engines: Iterable[TransferEngine]) -> None:
        self.unit_memory = unit_memory
        self.engines = tuple(engines)

    @property
    def bits_moved(self) -> float:
        return sum(e.bits_moved for e in self.engines)


class OffloadEngine(PreloadEngine):
    """Outbound side of one unit memory: the flush FIFO.

    Modelled separately from the preload side so a unit memory can
    preload the next tile while the previous one drains, exactly the
    overlap the predictable-offloading formalization allows.
    """

    direction = "offload"


class MacArrayIssueStage:
    """The compute front end: one temporal iteration per unstalled cycle."""

    def __init__(self, total_cycles: int) -> None:
        self.total_cycles = total_cycles
        self.c = 0
        self.stall_cycles = 0.0
        self.stall_by_memory: Dict[str, float] = {}

    @property
    def finished(self) -> bool:
        return self.c >= self.total_cycles

    def can_issue(self, limit: float) -> bool:
        """Whether the next iteration may issue under ``limit``."""
        return not self.finished and self.c < limit - _EPS

    def issue(self, cycles: int) -> None:
        """Issue ``cycles`` consecutive iterations (scheduler-validated)."""
        self.c += cycles

    def stall(self, cycles: float, blockers: List[str]) -> None:
        """Record stalled cycles, split across the blocking unit memories."""
        self.stall_cycles += cycles
        if blockers:
            share = cycles / len(blockers)
            for key in blockers:
                self.stall_by_memory[key] = (
                    self.stall_by_memory.get(key, 0.0) + share
                )
