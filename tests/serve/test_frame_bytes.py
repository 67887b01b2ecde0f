"""Frame bytes: ``protocol.encode`` writes exactly what the generic
``dataclasses.asdict`` walk wrote, for every message type.

The shallow field walk in ``encode`` is an optimization only; a peer
must not be able to tell the difference. The reference encoder below is
the earlier implementation, kept verbatim as the oracle.
"""

import dataclasses
import json

import pytest

from repro.engine import EvaluationEngine
from repro.mapping.serde import mapping_to_dict
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateBatchRequest,
    EvaluateBatchResponse,
    EvaluateRequest,
    EvaluateResponse,
    HelloRequest,
    HelloResponse,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
)
from repro.verify.generators import sample_cases
from repro.workload.serde import layer_to_dict


def _asdict_encode(message, type_name):
    data = {"v": protocol.PROTOCOL_VERSION, "minor": protocol.PROTOCOL_MINOR,
            "type": type_name}
    data.update({
        k: v for k, v in dataclasses.asdict(message).items() if v is not None
    })
    return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")


def _payloads():
    """Real wire payloads: a layer, a mapping, a report, an energy report."""
    for case in sample_cases(seed=3, count=10):
        engine = EvaluationEngine(case.accelerator, executor="serial")
        try:
            report = engine.evaluate(case.mapping)
        except Exception:
            continue
        return (
            layer_to_dict(case.mapping.layer),
            mapping_to_dict(case.mapping),
            protocol.report_to_dict(report),
            protocol.energy_to_dict(engine.evaluate_energy(case.mapping)),
        )
    raise RuntimeError("no feasible sample case")  # pragma: no cover


LAYER, MAPPING, REPORT, ENERGY = _payloads()
TRACE = {"trace_id": "abc", "span_id": 4, "sampled": True}
SPANS = [{"span_id": -1, "parent_id": None, "name": "serve.request",
          "start_us": 0.5, "duration_us": 5.25, "attributes": {"source": "store"},
          "track": 0}]

MESSAGES = [
    ("hello", HelloRequest(id=1)),
    ("hello", HelloRequest(id=1, client="other")),
    ("hello_ok", HelloResponse(
        id=1, protocol=1, server="s", preset={"p": [1, 2.5]},
        options={"combine_rule": "paper"}, admin="http://127.0.0.1:9",
        minor=protocol.PROTOCOL_MINOR,
    )),
    ("evaluate", EvaluateRequest(id=2, layer=LAYER, mapping=MAPPING)),
    ("evaluate", EvaluateRequest(
        id=2, layer=LAYER, mapping=MAPPING, accelerator={"a": {"b": [1]}},
        options={"x": 1}, validate=False, with_energy=True, trace=TRACE,
    )),
    ("evaluate_ok", EvaluateResponse(id=2, report=REPORT, source="warm")),
    ("evaluate_ok", EvaluateResponse(
        id=2, report=REPORT, energy=ENERGY, source="evaluated", spans=SPANS,
    )),
    ("evaluate_batch", EvaluateBatchRequest(
        id=3, layer=LAYER, mappings=[MAPPING, MAPPING],
    )),
    ("evaluate_batch", EvaluateBatchRequest(
        id=3, layer=LAYER, mappings=[MAPPING], accelerator={"a": 1},
        options={"x": 1}, validate=False, with_energy=True, trace=TRACE,
    )),
    ("evaluate_batch_ok", EvaluateBatchResponse(id=3, results=[
        {"source": "evaluated", "report": REPORT, "energy": ENERGY, "spans": SPANS},
        {"error": "MappingError", "message": "does not fit"},
        {"source": "coalesced", "report": REPORT},
    ])),
    ("stats", StatsRequest(id=4)),
    ("stats_ok", StatsResponse(id=4, stats={"evaluations": 1.0, "requests": 2.5})),
    ("shutdown", ShutdownRequest(id=5)),
    ("shutdown_ok", ShutdownResponse(id=5)),
    ("error", ErrorResponse(id=6, error="ServerDraining", message="bye")),
]


@pytest.mark.parametrize(
    "type_name,message", MESSAGES,
    ids=[f"{name}-{i}" for i, (name, _) in enumerate(MESSAGES)],
)
def test_encode_matches_the_asdict_encoding(type_name, message):
    line = protocol.encode(message)
    assert line == _asdict_encode(message, type_name)
    assert protocol.decode(line) == message


def test_every_message_type_is_pinned():
    pinned = {type(message) for _, message in MESSAGES}
    assert pinned == set(protocol._TYPES.values())


def test_a_pinned_frame_literally():
    assert protocol.encode(EvaluateRequest(id=2, layer={"a": 1}, mapping={"b": 2})) == (
        b'{"id": 2, "layer": {"a": 1}, "mapping": {"b": 2}, "minor": 2, '
        b'"type": "evaluate", "v": 1, "validate": true, "with_energy": false}\n'
    )


def test_hello_ok_carries_minor_once_as_its_own_field():
    """hello_ok's ``minor`` is the frame's ``"minor"`` key: a server's
    revision survives decode, and a hello_ok without one (a pre-1.1
    server's) decodes as ``None``."""
    hello = HelloResponse(id=1, protocol=1, server="s", preset={}, options={},
                          minor=protocol.PROTOCOL_MINOR)
    assert json.loads(protocol.encode(hello))["minor"] == protocol.PROTOCOL_MINOR
    assert protocol.decode(protocol.encode(hello)).minor == protocol.PROTOCOL_MINOR
    bare = dataclasses.replace(hello, minor=None)
    assert "minor" not in json.loads(protocol.encode(bare))
    assert protocol.decode(protocol.encode(bare)).minor is None
