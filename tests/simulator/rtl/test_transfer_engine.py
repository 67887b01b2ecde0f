"""Unit tests for the FIFO'd DTL transfer engine.

Store-and-forward semantics in isolation: one step in flight at a time,
gates and cross-engine dependencies hold steps back, retirement requires
every leg drained (backpressure on any leg stalls the whole step).
Legs are addressed by their index into ``plan.ports``: leg 0 is ``RD``,
leg 1 is ``WR``.
"""

import math

from repro.simulator.rtl import EnginePlan, PortArbiter, TransferEngine, TransferStep
from repro.workload.operand import Operand

RD = ("GB", "rd")
WR = ("Reg", "wr")


def make_plan(steps, name="w/refill/L0"):
    return EnginePlan(
        name=name, kind="refill", operand=Operand.W, level=0,
        unit_memory="W@Reg/L0", period=4, window=4.0,
        ports=(RD, WR), steps=tuple(steps),
        priority=(0, 0, 0, name),
    )


def two_leg_step(seq, gate=float("-inf"), threshold=8.0, bits=32.0, dep=None):
    return TransferStep(
        engine="w/refill/L0", seq=seq, gate=gate, threshold=threshold,
        bits=bits, legs=((RD, bits), (WR, bits)), dep=dep,
    )


def test_fifo_one_step_in_flight():
    engine = TransferEngine(make_plan([two_leg_step(0), two_leg_step(1)]))
    first = engine.try_issue(0, {})
    assert first is not None and first.seq == 0
    # Second issue attempt while busy: refused (store-and-forward FIFO).
    assert engine.try_issue(0, {}) is None
    assert engine.active is first
    assert engine.threshold == first.threshold


def test_backpressure_holds_step_until_every_leg_drains():
    engine = TransferEngine(make_plan([two_leg_step(0, bits=16.0)]))
    engine.try_issue(0, {})
    # Fast read leg drains fully, slow write leg only partially.
    assert engine.drain_leg(0, 16.0)
    assert not engine.drain_leg(1, 10.0)
    assert engine.maybe_retire() is None      # write leg backpressures
    assert engine.remaining[0] == 0.0
    assert engine.remaining[1] == 6.0
    assert engine.legs_left == 1
    assert engine.drain_leg(1, 6.0)
    step = engine.maybe_retire()
    assert step is not None and step.seq == 0
    assert engine.bits_moved == 16.0
    assert engine.done


def test_gate_blocks_until_compute_reaches_it():
    engine = TransferEngine(make_plan([two_leg_step(0, gate=4.0)]))
    assert engine.try_issue(3, {}) is None
    assert engine.gate == 4.0
    assert engine.try_issue(4, {}) is not None
    assert engine.gate == math.inf            # busy now


def test_dependency_blocks_until_retired():
    dep_step = two_leg_step(0, dep=("upper/refill/L1", 2))
    engine = TransferEngine(make_plan([dep_step]))
    assert engine.try_issue(0, {}) is None
    assert engine.try_issue(0, {"upper/refill/L1": 1}) is None
    assert engine.try_issue(0, {"upper/refill/L1": 2}) is not None


def test_drain_is_clamped_and_ignores_foreign_ports():
    engine = TransferEngine(make_plan([two_leg_step(0, bits=8.0)]))
    engine.try_issue(0, {})
    # Not a leg of this step: that port's arbiter never addresses it.
    foreign = PortArbiter(("DRAM", "rd"), 100.0, requesters=[engine])
    assert foreign.requesters == ()
    assert foreign.advance(foreign.arbitrate()) is False
    assert engine.remaining[0] == 8.0
    engine.drain_leg(0, 100.0)                # over-grant clamps to zero
    assert engine.remaining[0] == 0.0


def test_fifo_order_and_done_tracking():
    engine = TransferEngine(make_plan([two_leg_step(i) for i in range(3)]))
    for expect in range(3):
        step = engine.try_issue(0, {})
        assert step is not None and step.seq == expect
        engine.drain_leg(0, 32.0)
        engine.drain_leg(1, 32.0)
        assert engine.maybe_retire().seq == expect
    assert engine.done
    assert engine.active is None
    assert engine.threshold == math.inf       # no frontier left
    assert engine.try_issue(0, {}) is None
    assert engine.bits_moved == 96.0


def test_zero_bit_step_retires_without_any_drain():
    step = TransferStep(
        engine="w/refill/L0", seq=0, gate=float("-inf"), threshold=8.0,
        bits=0.0, legs=((RD, 0.0), (WR, 0.0)),
    )
    engine = TransferEngine(make_plan([step]))
    engine.try_issue(0, {})
    assert engine.maybe_retire() is step
    assert engine.done
