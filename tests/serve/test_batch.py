"""Batch frames against a live daemon, and compatibility with v1.1 peers.

* A v1.1 ``evaluate`` frame is served as a batch of one and answered
  with the same bytes as before ``evaluate_batch`` existed.
* A server older than protocol 1.2 is refused at the handshake.
* One ``evaluate_batch`` frame keeps its order and each entry's
  provenance across store hits, in-frame duplicates, coalescing onto
  another frame's in-flight work, infeasible mappings and fresh misses.
* Big batches travel in frames the server accepts; an oversized or
  malformed frame is answered with a ``ProtocolError``, never dropped.
* Request timing (slow log, flight recorder) is per mapping.
* Remote and in-process ``evaluate_many`` agree bit for bit.
"""

import asyncio
import itertools
import json
import socket
import threading
import time

import pytest

from repro import api
from repro.dse.mapper import TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator
from repro.mapping.mapping import MappingError
from repro.mapping.serde import mapping_from_dict, mapping_to_dict
from repro.serve import RemoteEvaluationError, connect, protocol
from repro.serve.protocol import (
    ErrorResponse,
    EvaluateBatchRequest,
    EvaluateResponse,
    ProtocolError,
    StatsRequest,
    StatsResponse,
)
from repro.workload.generator import dense_layer
from repro.workload.networks import resnet18_layers
from repro.workload.serde import layer_to_dict

PARITY_FIELDS = (
    "cc_ideal", "cc_spatial", "ss_overall", "preload", "offload",
    "scenario", "total_cycles", "utilization",
)


def _assert_parity(local, remote):
    for field in PARITY_FIELDS:
        assert getattr(local, field) == getattr(remote, field), field


def _mappings(count=6):
    """Distinct feasible mappings of one layer, plus one infeasible one."""
    layer = dense_layer(16, 32, 64, name="batch")
    engine = EvaluationEngine.from_preset(case_study_accelerator())
    feasible = [r.mapping for r in api.search(layer, engine=engine, top=count)]
    data = mapping_to_dict(feasible[0])
    # Every loop below every operand's first cut: the register files overflow.
    data["cuts"] = {op: [len(data["loops"])] * len(cut)
                    for op, cut in data["cuts"].items()}
    infeasible = mapping_from_dict(data, layer)
    with pytest.raises(MappingError):
        engine.check(infeasible)
    return layer, feasible, infeasible


class _Raw:
    """A bare protocol connection: frames in, one decoded frame out."""

    def __init__(self, url):
        host, port = url[len("serve://"):].rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.reader = self.sock.makefile("rb")

    def send(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        return self.reader.readline()

    def close(self):
        self.reader.close()
        self.sock.close()


# --------------------------------------------------------------------- #
# v1.1 peers
# --------------------------------------------------------------------- #

def test_v11_evaluate_frame_is_answered_bit_identically(server):
    layer, feasible, _ = _mappings(1)
    mapping = feasible[0]
    # Exactly what a v1.1 client writes: no "minor", no "trace".
    frame = json.dumps({
        "v": 1, "type": "evaluate", "id": 9,
        "layer": layer_to_dict(layer), "mapping": mapping_to_dict(mapping),
    }).encode() + b"\n"
    want_report = EvaluationEngine(case_study_accelerator().accelerator).evaluate(
        mapping
    )
    raw = _Raw(server.url)
    first = raw.send(frame)
    second = raw.send(frame)
    raw.close()
    assert first == protocol.encode(EvaluateResponse(
        id=9, report=protocol.report_to_dict(want_report), source="evaluated",
    ))
    # The repeat is a store hit: same numbers, store provenance (store rows
    # keep no limiting-port names, so those bytes differ by design).
    repeat = protocol.decode(second)
    assert isinstance(repeat, EvaluateResponse) and repeat.source == "store"
    _assert_parity(want_report, protocol.report_from_dict(repeat.report))


def _fake_server(hello_frame: bytes):
    """A one-shot listener that answers any first line with ``hello_frame``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            conn.sendall(hello_frame)
            reader.readline()  # hold the line open until the client hangs up
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"serve://127.0.0.1:{listener.getsockname()[1]}", thread


@pytest.mark.parametrize("minor_key", [{"minor": 1}, {}])
def test_handshake_refuses_a_server_older_than_1_2(minor_key):
    hello = {"v": 1, "type": "hello_ok", "id": 1, "protocol": 1,
             "server": "old", "preset": {}, "options": {}, **minor_key}
    url, thread = _fake_server(json.dumps(hello).encode() + b"\n")
    with pytest.raises(ProtocolError) as err:
        connect(url)
    message = str(err.value)
    assert f"1.{minor_key.get('minor', 0)}" in message  # the server's revision
    assert "1.2" in message                              # the one required
    thread.join(timeout=10)
    assert not thread.is_alive(), "the refused client must close its socket"


# --------------------------------------------------------------------- #
# One frame, every provenance
# --------------------------------------------------------------------- #

def test_mixed_frame_keeps_order_and_per_entry_source(make_server):
    layer, (stored, fresh, held, extra, *_), infeasible = _mappings()
    gate = threading.Event()
    holding = threading.Event()

    def hook(item):
        if held in item.mappings:
            holding.set()
            assert gate.wait(timeout=30)

    handle = make_server(pre_evaluate_hook=hook)
    client = connect(handle.url, use_cache=False)
    client.evaluate(stored)                      # now a store hit

    holder = threading.Thread(target=lambda: connect(
        handle.url, use_cache=False).evaluate(held))
    holder.start()
    assert holding.wait(timeout=30)              # `held` is in flight

    mappings = [stored, fresh, fresh, held, infeasible, extra]
    raw = _Raw(handle.url)
    reply = {}
    reader = threading.Thread(target=lambda: reply.update(line=raw.send(
        protocol.encode(EvaluateBatchRequest(
            id=7, layer=layer_to_dict(layer),
            mappings=[mapping_to_dict(m) for m in mappings], validate=True,
        ))
    )))
    reader.start()
    deadline = time.time() + 30
    while client.server_stats()["coalesced"] < 2 and time.time() < deadline:
        time.sleep(0.01)
    gate.set()
    reader.join(timeout=30)
    holder.join(timeout=30)
    raw.close()

    response = protocol.decode(reply["line"])
    assert response.id == 7
    entries = response.results
    assert [e.get("source", e.get("error")) for e in entries] == [
        "store", "evaluated", "coalesced", "coalesced", "MappingError", "evaluated",
    ]
    assert "capacity" in entries[4]["message"]
    local = EvaluationEngine(case_study_accelerator().accelerator)
    for mapping, entry in zip(mappings, entries):
        if "report" in entry:
            _assert_parity(local.evaluate(mapping),
                           protocol.report_from_dict(entry["report"]))
    stats = client.server_stats()
    client.close()
    # stored + held + one batch of {fresh, infeasible, extra}; the
    # infeasible slot ran the kernel but produced no evaluation.
    assert stats["requests"] == 1 + 1 + len(mappings)
    assert stats["evaluations"] == 4
    assert stats["coalesced"] == 2
    assert stats["store_hits"] == 1
    assert stats["errors"] == 1
    assert stats["engine_batched_evaluations"] == stats["engine_evaluations"]


def test_evaluate_many_sends_one_frame_and_keeps_infeasible_slots_none(server):
    layer, feasible, infeasible = _mappings()
    mappings = feasible[:3] + [infeasible] + feasible[3:]
    client = connect(server.url, use_cache=False)
    got = client.evaluate_many(mappings, validate=True)
    want = EvaluationEngine(case_study_accelerator().accelerator).evaluate_many(
        mappings, validate=True
    )
    assert [g is None for g in got] == [w is None for w in want]
    assert got[3] is None
    for g, w in zip(got, want):
        if w is not None:
            _assert_parity(w.report, g.report)
    stats = client.server_stats()
    client.close()
    assert stats["requests"] == len(mappings)
    assert stats["errors"] == 1
    # One frame, one kernel batch: every evaluation ran vectorized.
    assert stats["engine_batched_evaluations"] == len(feasible)
    assert stats["engine_evaluations"] == len(feasible)


def test_drain_fails_every_queued_member(make_server):
    layer, feasible, _ = _mappings()
    gate = threading.Event()
    started = threading.Event()

    def hook(item):
        started.set()
        assert gate.wait(timeout=30)

    handle = make_server(pre_evaluate_hook=hook, shards=1)
    holder = threading.Thread(
        target=lambda: connect(handle.url).evaluate(feasible[0])
    )
    holder.start()
    assert started.wait(timeout=30)
    errors = []

    def queued():
        try:
            connect(handle.url).evaluate_many(feasible[1:4])
        except RemoteEvaluationError as exc:
            errors.append(exc)

    waiter = threading.Thread(target=queued)
    waiter.start()
    probe = connect(handle.url)
    deadline = time.time() + 30
    while probe.server_stats()["inflight"] < 4 and time.time() < deadline:
        time.sleep(0.01)
    probe.close()
    drain = asyncio.run_coroutine_threadsafe(
        handle.server.drain(reason="test", interrupted=False), handle.server.loop
    )
    waiter.join(timeout=30)
    assert [e.kind for e in errors] == ["ServerDraining"]
    gate.set()
    holder.join(timeout=30)
    drain.result(timeout=30)
    # Every member of the queued batch failed, and the drain counted them.
    assert handle.server.stats.errors == 3
    assert handle.server.stats.drained == 3


# --------------------------------------------------------------------- #
# Parity on a mapper search
# --------------------------------------------------------------------- #

def test_remote_search_matches_in_process_bit_for_bit(server):
    layer = dense_layer(32, 64, 96, name="parity")
    local = api.search(
        layer, engine=EvaluationEngine.from_preset(case_study_accelerator())
    )
    client = connect(server.url)
    remote = api.search(layer, engine=client)
    client.close()
    assert len(remote) == len(local) > 1
    for want, got in zip(local, remote):
        assert got.mapping.fingerprint() == want.mapping.fingerprint()
        assert got.objective == want.objective
        _assert_parity(want.report, got.report)


# --------------------------------------------------------------------- #
# Frame size and shape
# --------------------------------------------------------------------- #

def test_evaluate_many_over_the_frame_limit_on_one_conv_layer(
    make_server, monkeypatch
):
    # Above asyncio's default 64 KiB line limit, and above this server's
    # frame limit, so the client must split the layer's batch.
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 128 * 1024)
    server = make_server()
    preset = case_study_accelerator()
    layer = resnet18_layers()[1]
    mappings = list(itertools.islice(
        TemporalMapper(preset.accelerator, preset.spatial_unrolling).mappings(layer),
        600,
    ))
    payload = json.dumps([mapping_to_dict(m) for m in mappings])
    assert len(payload) > protocol.MAX_FRAME_BYTES
    client = connect(server.url, use_cache=False)
    got = client.evaluate_many(mappings)
    stats = client.server_stats()
    client.close()
    want = EvaluationEngine(preset.accelerator).evaluate_many(mappings)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if w is not None:
            _assert_parity(w.report, g.report)
    assert stats["requests"] == len(mappings)


def test_oversized_frame_is_refused_and_the_connection_survives(
    make_server, monkeypatch
):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    layer, feasible, _ = _mappings(2)
    handle = make_server()
    raw = _Raw(handle.url)
    big_batch = protocol.encode(EvaluateBatchRequest(
        id=5, layer=layer_to_dict(layer),
        mappings=[mapping_to_dict(feasible[0])] * 40,
    ))
    # Arrives in many reads: the line is skipped without ever being buffered.
    huge_stats = json.dumps(
        {"v": 1, "type": "stats", "id": 6, "pad": "x" * (1 << 20)}
    ).encode() + b"\n"
    replies = [protocol.decode(raw.send(frame)) for frame in (big_batch, huge_stats)]
    after = protocol.decode(raw.send(protocol.encode(StatsRequest(id=7))))
    raw.close()
    assert [(r.id, r.error) for r in replies] == [
        (5, "ProtocolError"), (6, "ProtocolError"),
    ]
    assert "4096" in replies[0].message
    assert isinstance(after, StatsResponse) and after.id == 7
    assert after.stats["protocol_errors"] == 2
    assert after.stats["requests"] == 0


@pytest.mark.parametrize("mappings", [None, 5, "loops", {"loops": []}])
def test_malformed_mappings_field_is_a_protocol_error(server, mappings):
    layer, _, _ = _mappings(1)
    frame = json.dumps({
        "v": 1, "type": "evaluate_batch", "id": 3,
        "layer": layer_to_dict(layer), "mappings": mappings,
    }).encode() + b"\n"
    raw = _Raw(server.url)
    reply = protocol.decode(raw.send(frame))
    raw.close()
    assert isinstance(reply, ErrorResponse)
    assert (reply.id, reply.error) == (3, "ProtocolError")
    assert "mappings" in reply.message


# --------------------------------------------------------------------- #
# Per-mapping timing
# --------------------------------------------------------------------- #

def test_slow_log_times_each_mapping_not_the_frame(make_server):
    layer, (stored, fresh, *_), _ = _mappings(2)

    def hook(item):
        if fresh in item.mappings:
            time.sleep(0.3)

    handle = make_server(pre_evaluate_hook=hook, slow_ms=150.0)
    client = connect(handle.url, use_cache=False)
    client.evaluate(stored)
    client.evaluate_many([stored, fresh])
    stats = client.server_stats()
    client.close()
    server = handle.server
    # Only the mapping whose kernel was slow is logged as slow.
    assert stats["slow_requests"] == 1
    [slow] = server.status_payload()["slow_requests"]
    assert slow["outcome"] == "evaluated"
    assert slow["mapping_fp"] == fresh.fingerprint()[:12]
    assert slow["wall_ms"] >= 300
    hit, miss = server.flight.snapshot()[-2:]
    assert (hit["outcome"], miss["outcome"]) == ("store", "evaluated")
    assert hit["wall_ms"] < 150 <= miss["wall_ms"]
