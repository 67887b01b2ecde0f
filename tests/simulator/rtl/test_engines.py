"""Preload/offload engines, the MAC issue stage, and whole-backend laws.

Component level: the per-unit-memory engine pair holds independent
FIFOs (preload of the next tile overlaps the previous tile's offload)
and the issue stage attributes stalls to the blocking unit memories. Backend
level: the stride fast path is bit-identical to the plain tick loop, and
on contention-free integral machines the backend certifies exactness and
matches the event engine to the cycle.
"""

import dataclasses

import pytest

from repro.mapping.loop import Loop
from repro.simulator.engine import CycleSimulator
from repro.simulator.rtl import (
    EnginePlan,
    MacArrayIssueStage,
    OffloadEngine,
    PreloadEngine,
    RtlSimulator,
    TransferEngine,
    TransferStep,
)
from repro.testing import make_mapping, private_toy_accelerator, toy_accelerator
from repro.verify.generators import sample_cases
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

RD = ("Buf", "rd")
WR = ("Buf", "wr")


def one_step_engine(name, kind, port, gate=float("-inf")):
    step = TransferStep(
        engine=name, seq=0, gate=gate, threshold=8.0, bits=16.0,
        legs=((port, 16.0),),
    )
    plan = EnginePlan(
        name=name, kind=kind, operand=Operand.O, level=0,
        unit_memory="O@Reg/L0", period=4, window=4.0,
        ports=(port,), steps=(step,),
        priority=(0, 0, 0, name),
    )
    return TransferEngine(plan)


# --------------------------------------------------------------------------- #
# Preload / offload engine pair


def test_preload_and_offload_issue_independently():
    """One unit memory can have a refill and a flush in flight at once —
    the overlap the independent engine pair exists for."""
    refill = one_step_engine("o/readback/L0", "readback", RD)
    flush = one_step_engine("o/flush/L0", "flush", WR)
    preload = PreloadEngine("O@Reg/L0", [refill])
    offload = OffloadEngine("O@Reg/L0", [flush])
    assert preload.direction == "preload"
    assert offload.direction == "offload"
    issued = [
        engine.try_issue(0, {}) for unit in (preload, offload) for engine in unit.engines
    ]
    assert {s.engine for s in issued} == {"o/readback/L0", "o/flush/L0"}
    assert refill.active is not None and flush.active is not None


def test_preload_engine_respects_gates():
    gated = one_step_engine("w/refill/L0", "refill", RD, gate=4.0)
    preload = PreloadEngine("W@Reg/L0", [gated])
    assert [engine.try_issue(0, {}) for engine in preload.engines] == [None]
    assert [engine.try_issue(4, {}) for engine in preload.engines] == [gated.active]
    assert gated.active is not None


def test_engine_pair_accumulates_bits_moved():
    refill = one_step_engine("w/refill/L0", "refill", RD)
    preload = PreloadEngine("W@Reg/L0", [refill])
    refill.try_issue(0, {})
    assert refill.drain_leg(0, 16.0)
    refill.maybe_retire()
    assert preload.bits_moved == 16.0


# --------------------------------------------------------------------------- #
# MAC-array issue stage


def test_issue_stage_gating_and_finish():
    mac = MacArrayIssueStage(total_cycles=10)
    assert mac.can_issue(limit=float("inf"))
    assert not mac.can_issue(limit=0.0)       # threshold reached: stall
    mac.issue(10)
    assert mac.finished
    assert not mac.can_issue(limit=float("inf"))


def test_issue_stage_attributes_stalls_to_blockers():
    mac = MacArrayIssueStage(total_cycles=10)
    mac.stall(4.0, ["W@Reg/L0", "I@Reg/L0"])
    mac.stall(2.0, ["W@Reg/L0"])
    mac.stall(1.0, [])                         # preload phase: unattributed
    assert mac.stall_cycles == 7.0
    assert mac.stall_by_memory == {"W@Reg/L0": 4.0, "I@Reg/L0": 2.0}


# --------------------------------------------------------------------------- #
# Whole-backend laws


def _ws_mapping(b=8, k=4, c=4):
    layer = dense_layer(b, k, c)
    levels = {
        Operand.W: [[Loop(LoopDim.B, b)], [Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.I: [[], [Loop(LoopDim.B, b), Loop(LoopDim.C, c), Loop(LoopDim.K, k)]],
        Operand.O: [[Loop(LoopDim.B, b), Loop(LoopDim.C, c)], [Loop(LoopDim.K, k)]],
    }
    return make_mapping(layer, {}, levels)


STRIDE_CASES = sample_cases(seed=11, count=6)


@pytest.mark.parametrize("case", STRIDE_CASES, ids=lambda c: c.case_id)
def test_stride_fast_path_is_bit_identical(case):
    """stride=True is a pure scheduling optimization: every measured field
    except the iteration counter matches the plain tick loop exactly."""
    fast = RtlSimulator(case.accelerator, case.mapping, stride=True).run()
    slow = RtlSimulator(case.accelerator, case.mapping, stride=False).run()
    assert fast.events <= slow.events
    assert dataclasses.replace(fast, events=0) == dataclasses.replace(
        slow, events=0
    )


def test_exact_certificate_on_private_machine():
    """Fully private chains: integral + uncontended -> cycle-exact match."""
    acc = private_toy_accelerator()
    mapping = _ws_mapping()
    rtl = RtlSimulator(acc, mapping).run()
    event = CycleSimulator(acc, mapping).run()
    assert rtl.integral
    assert rtl.contended_port_cycles == 0.0
    assert rtl.exact
    assert rtl.total_cycles == event.total_cycles
    assert rtl.compute_cycles == event.compute_cycles


def test_exact_certificate_survives_double_buffering():
    acc = private_toy_accelerator(reg_double_buffered=True)
    mapping = _ws_mapping()
    rtl = RtlSimulator(acc, mapping).run()
    event = CycleSimulator(acc, mapping).run()
    assert rtl.exact
    assert rtl.total_cycles == event.total_cycles


def test_fractional_legs_void_the_static_certificate():
    """Bandwidth that splits a tile across a fraction of a cycle must not
    certify: the tick backend quantizes where the event engine doesn't."""
    acc = private_toy_accelerator(reg_bw=16.0, buf_bw=128.0)
    rtl = RtlSimulator(acc, _ws_mapping()).run()
    assert not rtl.integral
    assert not rtl.exact


def test_shared_port_contention_voids_the_dynamic_certificate():
    """On the shared-GB toy machine W and I refills contend at t=0, so the
    run must report contended port cycles and refuse the exact claim."""
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    rtl = RtlSimulator(acc, _ws_mapping()).run()
    assert rtl.contended_port_cycles > 0
    assert not rtl.exact


def test_measured_decomposition_is_consistent():
    """total = preload + compute-span + drain tail; stall keys are real
    unit memories; port traffic is tracked."""
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8, gb_read_bw=2,
                          gb_write_bw=2)
    rtl = RtlSimulator(acc, _ws_mapping()).run()
    assert rtl.total_cycles == pytest.approx(
        rtl.preload_cycles + rtl.compute_cycles + rtl.stall_cycles
        + rtl.drain_tail_cycles
    )
    assert rtl.stall_cycles > 0
    # Per-memory attribution covers exactly the post-preload stalls
    # (preload-phase waiting is reported as preload, not stall).
    assert sum(rtl.stall_by_memory.values()) == pytest.approx(rtl.stall_cycles)
    assert all("@" in key for key in rtl.stall_by_memory)
    assert ("GB", "rd") in rtl.port_busy and rtl.port_busy[("GB", "rd")] > 0
    assert rtl.preload_bits > 0 and rtl.offload_bits > 0
