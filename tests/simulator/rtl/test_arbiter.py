"""Unit tests for the per-port fixed-priority arbiter.

The arbiter's policy is the documented rank order (refills > read-backs >
flushes, W > I > O, inner levels first) with work-conserving cascade of
leftover bandwidth. The requesters are fixed at build time in rank
order; :meth:`PortArbiter.arbitrate` grants one cycle and
:meth:`PortArbiter.advance` replays it (drains, busy bits, contention).
These tests drive the component in isolation with synthetic engine
plans — no simulator, no lowering.
"""

from repro.simulator.rtl import (
    EnginePlan,
    PortArbiter,
    TransferEngine,
    TransferStep,
)
from repro.simulator.rtl.program import KIND_RANK, OPERAND_RANK
from repro.workload.operand import Operand

PORT = ("GB", "rd")


def make_engine(
    name,
    kind="refill",
    operand=Operand.W,
    level=0,
    bits=32.0,
    gate=float("-inf"),
    issued=True,
):
    """One-step engine on PORT, issued into flight unless ``issued=False``."""
    step = TransferStep(
        engine=name, seq=0, gate=gate, threshold=4.0, bits=bits,
        legs=((PORT, bits),),
    )
    plan = EnginePlan(
        name=name, kind=kind, operand=operand, level=level,
        unit_memory=f"{operand}@X/L{level}", period=4, window=4.0,
        ports=(PORT,), steps=(step,),
        priority=(KIND_RANK[kind], OPERAND_RANK[operand], level, name),
    )
    engine = TransferEngine(plan)
    if issued:
        assert engine.try_issue(0, {}) is step
    return engine


def test_kind_priority_refill_beats_readback_beats_flush():
    refill = make_engine("r", kind="refill", operand=Operand.O)
    readback = make_engine("b", kind="readback", operand=Operand.O)
    flush = make_engine("f", kind="flush", operand=Operand.O)
    arb = PortArbiter(PORT, bandwidth=40.0, requesters=[flush, readback, refill])
    grants = arb.arbitrate()
    # Refill takes its 32, the 8 leftover cascades to the read-back, and
    # the flush gets nothing this cycle (port exhausted).
    assert [(e.name, rate) for e, __, rate in grants] == [("r", 32.0), ("b", 8.0)]


def test_operand_priority_w_beats_i_beats_o():
    w = make_engine("w", operand=Operand.W)
    i = make_engine("i", operand=Operand.I)
    o = make_engine("o", operand=Operand.O)
    arb = PortArbiter(PORT, bandwidth=32.0, requesters=[o, i, w])
    grants = arb.arbitrate()
    assert [e.name for e, __, __ in grants] == ["w"]
    assert grants[0][2] == 32.0  # W takes the whole port


def test_inner_level_beats_outer_within_a_rank():
    inner = make_engine("inner", level=0)
    outer = make_engine("outer", level=1)
    arb = PortArbiter(PORT, bandwidth=16.0, requesters=[outer, inner])
    grants = arb.arbitrate()
    assert grants[0][0] is inner


def test_work_conserving_cascade():
    """A winner's leftover bandwidth goes to the next requester, same cycle."""
    small = make_engine("small", operand=Operand.W, bits=4.0)
    big = make_engine("big", operand=Operand.I, bits=100.0)
    arb = PortArbiter(PORT, bandwidth=10.0, requesters=[big, small])
    grants = dict(
        (e.name, rate) for e, __, rate in arb.arbitrate()
    )
    assert grants == {"small": 4.0, "big": 6.0}


def test_grants_clamped_to_pending_and_bandwidth():
    lone = make_engine("lone", bits=5.0)
    arb = PortArbiter(PORT, bandwidth=64.0, requesters=[lone])
    grants = arb.arbitrate()
    assert grants == [(lone, 0, 5.0)]
    starved = make_engine("starved", bits=100.0)
    arb2 = PortArbiter(PORT, bandwidth=8.0, requesters=[starved])
    assert arb2.arbitrate() == [(starved, 0, 8.0)]


def test_requesters_fixed_in_rank_order_at_build():
    """Ranks are static: the arbiter sorts its requesters once and drops
    engines with no leg on its port."""
    flush = make_engine("f", kind="flush", operand=Operand.O)
    refill = make_engine("r", kind="refill", operand=Operand.I)
    arb = PortArbiter(PORT, bandwidth=8.0, requesters=[flush, refill])
    assert [(e.name, leg) for e, leg in arb.requesters] == [("r", 0), ("f", 0)]
    other = PortArbiter(("DRAM", "rd"), bandwidth=8.0, requesters=[flush, refill])
    assert other.requesters == ()
    assert other.arbitrate() == []


def test_contention_counting():
    """Contended cycles count only when two+ requesters have pending bits."""
    a = make_engine("a", operand=Operand.W, bits=1000.0)
    b = make_engine("b", operand=Operand.I, bits=1000.0, issued=False)
    arb = PortArbiter(PORT, bandwidth=64.0, requesters=[a, b])
    arb.advance(arb.arbitrate())              # b is still queued: no contention
    assert arb.contended_cycles == 0.0
    assert b.try_issue(0, {}) is not None
    arb.advance(arb.arbitrate(), cycles=3)
    assert arb.contended_cycles == 3.0
    # An engine with nothing pending on this port is not a requester.
    a.drain_leg(0, 1e9)
    arb.advance(arb.arbitrate(), cycles=1)
    assert arb.contended_cycles == 3.0


def test_fairness_under_sustained_contention():
    """The loser is served as soon as the winner's FIFO drains: fixed
    priority starves within a cycle, never across retirement."""
    w = make_engine("w", operand=Operand.W, bits=16.0)
    i = make_engine("i", operand=Operand.I, bits=16.0)
    arb = PortArbiter(PORT, bandwidth=8.0, requesters=[w, i])
    served = []
    for _ in range(4):
        grants = arb.arbitrate()
        served.extend((engine.name, rate) for engine, __, rate in grants)
        arb.advance(grants)
    # Cycles 1-2 all-W; once W drains, I gets the full port.
    assert served == [("w", 8.0), ("w", 8.0), ("i", 8.0), ("i", 8.0)]
    assert arb.contended_cycles == 2.0
