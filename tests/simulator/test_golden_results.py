"""Bit-identity pins for both simulators.

``golden_results.json`` holds, per case and backend, ``float.hex`` of the
measured ``total_cycles`` and a SHA-256 over every field of the result
(dicts canonicalized with their items sorted). The cases are the verify
benchmark's stream (``sample_cases(0, 100)``), the random-machine
population (``sample_cases(2026, 120)``) and the RTL stride cases
(``sample_cases(11, 6)``). Any change to either simulator's arithmetic,
its order of floating-point operations, its event count or its error
messages shows up here as a digest mismatch.

The RTL backend is pinned twice: with the stride fast path (``rtl``) and
on the plain tick loop (``rtl_tick``), whose event count differs. For the
stride cases the fixture also pins a SHA-256 over every
:class:`~repro.simulator.trace.TraceRecorder` hook call, arguments
included, in call order (``<backend>_trace``).

Regenerate (only when a result is *meant* to change) with::

    PYTHONPATH=src python -m tests.simulator.test_golden_results
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.simulator.engine import CycleSimulator
from repro.simulator.rtl import RtlSimulator
from repro.simulator.trace import TraceRecorder
from repro.verify.generators import sample_cases

FIXTURE = pathlib.Path(__file__).with_name("golden_results.json")

#: (seed, count) of every pinned case population; the last one is traced.
POPULATIONS = ((0, 100), (2026, 120), (11, 6))

BACKENDS = {
    "event": lambda case, trace=None: CycleSimulator(
        case.accelerator, case.mapping, trace=trace
    ),
    "rtl": lambda case, trace=None: RtlSimulator(
        case.accelerator, case.mapping, trace=trace
    ),
    "rtl_tick": lambda case, trace=None: RtlSimulator(
        case.accelerator, case.mapping, trace=trace, stride=False
    ),
}


class _HookLog(TraceRecorder):
    """A trace recorder that also logs every hook call with its arguments."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list = []

    def job_started(self, *args):
        self.calls.append(("job_started",) + args)
        return super().job_started(*args)

    def job_finished(self, *args):
        self.calls.append(("job_finished",) + args)
        return super().job_finished(*args)

    def compute_state(self, *args):
        self.calls.append(("compute_state",) + args)
        return super().compute_state(*args)

    def finish(self, *args):
        self.calls.append(("finish",) + args)
        return super().finish(*args)


def _encode(value) -> str:
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        items = sorted((_encode(k), _encode(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return repr(value)


def digest(result) -> list:
    """``[float.hex(total_cycles), sha256 over every field]``."""
    payload = ";".join(
        f"{field.name}={_encode(getattr(result, field.name))}"
        for field in dataclasses.fields(result)
    )
    return [
        result.total_cycles.hex(),
        hashlib.sha256(payload.encode()).hexdigest(),
    ]


def measure(backend: str, case) -> list:
    """The digest of one run, or ``["error", message]`` if it raised."""
    try:
        return digest(BACKENDS[backend](case).run())
    except RuntimeError as exc:
        return ["error", str(exc)]


def trace_digest(backend: str, case) -> str:
    """SHA-256 over the ``repr`` of every trace hook call of one run."""
    log = _HookLog()
    BACKENDS[backend](case, log).run()
    return hashlib.sha256(repr(log.calls).encode()).hexdigest()


def _cases():
    return [case for seed, count in POPULATIONS for case in sample_cases(seed, count)]


CASES = _cases()
TRACED = sample_cases(*POPULATIONS[-1])


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_results_are_bit_identical_to_the_pins(golden, backend):
    pinned = golden[backend]
    assert sorted(pinned) == sorted(c.case_id for c in CASES)
    mismatches = [
        (case.case_id, pinned[case.case_id], got)
        for case in CASES
        if (got := measure(backend, case)) != pinned[case.case_id]
    ]
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_trace_hooks_fire_in_the_pinned_order(golden, backend):
    pinned = golden[f"{backend}_trace"]
    assert sorted(pinned) == sorted(c.case_id for c in TRACED)
    mismatches = [
        case.case_id for case in TRACED
        if trace_digest(backend, case) != pinned[case.case_id]
    ]
    assert not mismatches


def regenerate() -> None:
    data = {}
    for backend in sorted(BACKENDS):
        data[backend] = {case.case_id: measure(backend, case) for case in CASES}
        data[f"{backend}_trace"] = {
            case.case_id: trace_digest(backend, case) for case in TRACED
        }
    lines = []
    for backend, pins in data.items():
        rows = ",\n".join(
            f"  {json.dumps(case_id)}: {json.dumps(pin)}" for case_id, pin in pins.items()
        )
        lines.append(f" {json.dumps(backend)}: {{\n{rows}\n }}")
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
