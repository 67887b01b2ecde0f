"""Pinned fingerprint values.

``Mapping.fingerprint`` keys the engine cache, the ledger's ``mapping_fp``
column, the serve result store and its shard routing, and the warm-start
baseline in ``benchmarks/baseline_ledger.jsonl``. Its *values* are part of
the ledger schema: an encoding change that moves them silently orphans
every stored row. These digests were computed with the generic canonical
JSON walk of :mod:`repro.fingerprint`; any faster encoding must reproduce
them byte for byte.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.fingerprint import (
    canonical_json,
    canonical_payload,
    memoized_fingerprint,
    stable_fingerprint,
)
from repro.hardware.presets import case_study_accelerator
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.serve.store import ResultStore
from repro.verify.generators import sample_cases
from repro.workload.dims import LoopDim as D
from repro.workload.generator import dense_layer
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand

CASE_SPATIAL = {D.K: 16, D.B: 8, D.C: 2}
BASELINE = pathlib.Path(__file__).parents[2] / "benchmarks" / "baseline_ledger.jsonl"


def _mapping(layer, spatial, loops, w, i, o):
    temporal = TemporalMapping(
        tuple(Loop(D(d), s) for d, s in loops),
        {Operand.W: w, Operand.I: i, Operand.O: o},
    )
    return Mapping(layer, SpatialMapping(spatial), temporal)


def _case1_b():
    return _mapping(
        dense_layer(64, 128, 1200), CASE_SPATIAL,
        [("C", 2), ("C", 2), ("C", 2), ("C", 3), ("C", 5), ("C", 5),
         ("K", 2), ("K", 2), ("K", 2), ("B", 2), ("B", 2), ("B", 2)],
        (0, 5), (0, 5), (6,),
    )


def _case1_a():
    return _mapping(
        dense_layer(64, 128, 1200), CASE_SPATIAL,
        [("C", 2), ("C", 2), ("C", 2), ("C", 3), ("C", 5),
         ("K", 2), ("K", 2), ("K", 2), ("B", 2), ("B", 2), ("B", 2), ("C", 5)],
        (0, 6), (0, 9), (5,),
    )


def _depthwise():
    layer = LayerSpec(
        LayerType.DEPTHWISE,
        {D.B: 1, D.K: 32, D.OX: 14, D.OY: 14, D.FX: 3, D.FY: 3},
    )
    return _mapping(
        layer, {D.K: 16},
        [("FX", 3), ("FY", 3), ("K", 2), ("OX", 2), ("OX", 7), ("OY", 2), ("OY", 7)],
        (2, 7), (2, 6), (4,),
    )


def _strided_dilated():
    layer = LayerSpec(
        LayerType.CONV2D,
        {D.B: 1, D.K: 32, D.C: 16, D.OX: 8, D.OY: 8, D.FX: 3, D.FY: 3},
        stride_x=2, stride_y=2, dilation_x=2, dilation_y=2,
    )
    return _mapping(
        layer, CASE_SPATIAL,
        [("C", 2), ("C", 2), ("C", 2), ("FX", 3), ("K", 2), ("FY", 3),
         ("OY", 2), ("OY", 2), ("OY", 2), ("OX", 2), ("OX", 2), ("OX", 2)],
        (0, 12), (3, 11), (8,),
    )


def _no_temporal_loops():
    return _mapping(dense_layer(16, 16, 1), {D.K: 16, D.B: 16}, [], (0, 0), (0, 0), (0,))


GOLDEN = [
    (_case1_b, "abbf77bd0009c4154a94375cd8e536e562e1bd9c90562100922ff82d9aa9e306"),
    (_case1_a, "d52e69751dd610e0504aeb0519f916b2ee4eb628667745f980cccc01ffd827fc"),
    (_depthwise, "c90294b233476fe78749880cdaba5df5e4670b4efd4ab277ae7bc69ed14d8460"),
    (_strided_dilated, "4919b2df90a4a56ce0a89406d77cdc709ec6f7451bbac83400eeb91baa0e4c71"),
    (_no_temporal_loops, "90917808a190e34bc5f276a87c75c7970cd30f9704d0edb148c250a248966969"),
]


@pytest.mark.parametrize(
    "build, digest", GOLDEN, ids=[build.__name__.lstrip("_") for build, _ in GOLDEN]
)
def test_mapping_fingerprint_is_pinned(build, digest):
    assert build().fingerprint() == digest


def test_search_result_fingerprint_is_pinned():
    preset = case_study_accelerator()
    mapper = TemporalMapper(
        preset.accelerator,
        preset.spatial_unrolling,
        MapperConfig(max_enumerated=500, samples=200, seed=3),
    )
    best = mapper.search(dense_layer(32, 64, 600))[0]
    assert best.objective == 8834.0
    assert best.mapping.fingerprint() == (
        "eca727b0856b4c94d951863de2faea4978a784456735db8b1a6b3abb2559c463"
    )


def test_case_study_accelerator_matches_baseline_ledger():
    rows = [json.loads(line) for line in BASELINE.read_text().splitlines() if line]
    assert rows
    for row in rows:
        assert row["accelerator_fp"] == case_study_accelerator().accelerator.fingerprint()


def test_serve_store_warm_starts_from_baseline_ledger():
    # The baseline row's mapping, rebuilt: a daemon warm-started from the
    # committed ledger must answer it without evaluating.
    mapping = _mapping(
        dense_layer(64, 128, 1200), CASE_SPATIAL,
        [("C", 5), ("B", 2), ("C", 2), ("K", 2), ("C", 3), ("K", 2),
         ("C", 5), ("C", 2), ("B", 2), ("B", 2), ("C", 2), ("K", 2)],
        (0, 6), (0, 6), (1,),
    )
    engine = EvaluationEngine.from_preset(case_study_accelerator())
    store = ResultStore()
    assert store.warm_start([str(BASELINE)]) == 1
    hit = store.get(
        (engine.accelerator_fingerprint, engine.options_fingerprint, mapping.fingerprint())
    )
    assert hit is not None
    report, warm = hit
    assert warm
    assert report.total_cycles == engine.evaluate(mapping).total_cycles


@settings(max_examples=60, deadline=None)
@given(
    loops=st.lists(
        st.tuples(st.sampled_from(list(D)), st.integers(2, 1_000)), max_size=14
    ),
    data=st.data(),
)
def test_direct_encoding_equals_generic_walk(loops, data):
    def cuts():
        depth = data.draw(st.integers(0, 3))
        positions = st.integers(0, len(loops))
        return tuple(sorted(data.draw(st.lists(positions, min_size=depth, max_size=depth))))

    temporal = TemporalMapping(
        tuple(Loop(dim, size) for dim, size in loops),
        {operand: cuts() for operand in Operand},
    )
    assert temporal.canonical_json() == canonical_json(canonical_payload(temporal))


def test_mapping_fingerprint_equals_generic_composition():
    for case in sample_cases(0, 24):
        mapping = case.mapping
        assert mapping.fingerprint() == stable_fingerprint(
            memoized_fingerprint(mapping.layer),
            memoized_fingerprint(mapping.spatial),
            mapping.temporal,
        )
