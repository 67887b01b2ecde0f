"""Engine internals: the slot layout, stream cursors and port fairness."""

import pytest

from repro.mapping.loop import Loop
from repro.simulator import engine
from repro.simulator.engine import CycleSimulator, _Slots
from repro.simulator.streams import JobStream, TransferJob
from repro.simulator.trace import JobEvent, StallInterval, TraceRecorder
from repro.workload.dims import LoopDim
from repro.workload.generator import dense_layer
from repro.workload.operand import Operand

from tests.conftest import make_mapping, toy_accelerator


def _stream(n_jobs=3):
    jobs = [
        TransferJob("s", k, gate_c=float(k), threshold_c=float(k + 1), bits=8.0)
        for k in range(n_jobs)
    ]
    return JobStream(
        name="s", kind="refill", operand=Operand.W, level=0,
        period=1, x_req=1.0, ports=(("GB", "rd"),), jobs=jobs,
    )


def test_stream_state_cursor(monkeypatch):
    """A stream's cursor holds its job ``k`` as the frontier while queued
    and in flight, and the stream stops blocking after its last job.

    Two hand-built streams share one 4-bit/cycle port: ``a`` (two jobs)
    and ``b`` (one job). ``a``'s second job starts at its gate (c = 2)
    and is still in flight when compute reaches its threshold (c = 4), so
    compute stalls until it lands; after that nothing blocks compute.
    """
    port = ("GB", "rd")
    a = JobStream(
        name="a", kind="refill", operand=Operand.W, level=0,
        period=4, x_req=2.0, ports=(port,),
        jobs=[
            TransferJob("a", 0, gate_c=float("-inf"), threshold_c=0.0, bits=8.0),
            TransferJob("a", 1, gate_c=2.0, threshold_c=4.0, bits=12.0),
        ],
    )
    b = JobStream(
        name="b", kind="refill", operand=Operand.I, level=0,
        period=8, x_req=8.0, ports=(port,),
        jobs=[TransferJob("b", 0, gate_c=float("-inf"), threshold_c=0.0, bits=8.0)],
    )
    monkeypatch.setattr(engine, "build_streams", lambda acc, mapping: [a, b])
    levels = {
        Operand.W: [[Loop(LoopDim.B, 2)], [Loop(LoopDim.C, 2), Loop(LoopDim.K, 2)]],
        Operand.I: [[], [Loop(LoopDim.B, 2), Loop(LoopDim.C, 2), Loop(LoopDim.K, 2)]],
        Operand.O: [[Loop(LoopDim.B, 2), Loop(LoopDim.C, 2)], [Loop(LoopDim.K, 2)]],
    }
    mapping = make_mapping(dense_layer(2, 2, 2), {}, levels)
    trace = TraceRecorder()
    result = CycleSimulator(toy_accelerator(gb_read_bw=4.0), mapping, trace=trace).run()
    # a0 and b0 share the port (2 bits/cycle each) and land at t=4; a1
    # starts at t=6 (c=2) alone on the port and lands at t=9.
    assert trace.jobs == [
        JobEvent("a", 0, 0.0, 4.0, 8.0),
        JobEvent("b", 0, 0.0, 4.0, 8.0),
        JobEvent("a", 1, 6.0, 9.0, 12.0),
    ]
    # In flight, a1 stays a's frontier: compute stalls at c=4 until it
    # lands. Once done, neither stream blocks: the 8 compute cycles end
    # at t=13.
    assert trace.stalls == [StallInterval(0.0, 4.0, 0.0), StallInterval(8.0, 9.0, 4.0)]
    assert result.jobs_completed == 3
    assert result.total_cycles == 13.0
    assert result.compute_cycles == 8


def test_slot_layout():
    """One leg per distinct port, per-job lists parallel to the jobs."""
    slots = _Slots([_stream()], {("GB", "rd"): 4.0})
    assert slots.gates == [[0.0, 1.0, 2.0]]
    assert slots.thresholds == [[1.0, 2.0, 3.0]]
    assert slots.deps == [[None, None, None]]
    assert slots.leg_span == [(0, 1)]
    assert slots.port_keys == [("GB", "rd")]
    assert slots.port_bits == [[(8.0,), (8.0,), (8.0,)]]
    assert slots.bandwidth == [4.0]


def test_stream_total_bits():
    assert _stream(4).total_bits == 32.0


def test_port_fairness_under_contention():
    """Two equal streams on one port: the simulator splits bandwidth, so
    their traced transfer times are (nearly) equal."""
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8, gb_read_bw=4, gb_write_bw=64)
    layer = dense_layer(8, 4, 4)
    levels = {
        # W and I both stream every cycle from the shared GB rd port.
        Operand.W: [[], [Loop(LoopDim.C, 4), Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
        Operand.I: [[], [Loop(LoopDim.C, 4), Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.C, 4)], [Loop(LoopDim.B, 8), Loop(LoopDim.K, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    trace = TraceRecorder()
    CycleSimulator(acc, mapping, trace=trace).run()
    by_stream = {}
    for job in trace.jobs:
        by_stream.setdefault(job.stream, []).append(job.duration)
    w = by_stream.get("W-refill-L0", [])
    i = by_stream.get("I-refill-L0", [])
    assert w and i
    mean_w = sum(w) / len(w)
    mean_i = sum(i) / len(i)
    assert mean_w == pytest.approx(mean_i, rel=0.25)


def test_max_events_guard_message():
    acc = toy_accelerator(reg_bits=8, o_reg_bits=24 * 8)
    layer = dense_layer(8, 4, 4)
    levels = {
        Operand.W: [[Loop(LoopDim.B, 8)], [Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.I: [[], [Loop(LoopDim.B, 8), Loop(LoopDim.C, 4), Loop(LoopDim.K, 4)]],
        Operand.O: [[Loop(LoopDim.B, 8), Loop(LoopDim.C, 4)], [Loop(LoopDim.K, 4)]],
    }
    mapping = make_mapping(layer, {}, levels)
    with pytest.raises(RuntimeError) as excinfo:
        CycleSimulator(acc, mapping, max_events=2).run()
    assert "exceeded" in str(excinfo.value)
    assert "jobs done" in str(excinfo.value)
