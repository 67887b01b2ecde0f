"""The closed-form chunk allocator against the greedy prefix walk.

``TemporalMapper.allocate_many`` chooses every capacity cut of a chunk of
loop orders at once from the closed form ``cut_l = max(cut_{l-1},
first_l - 1)``. That form is only equal to the greedy walk because
footprints never shrink as a prefix grows. The oracle below is the walk
itself — one ``tile_elements`` call per operand, level and prefix — and
the properties check that both give identical cuts on every order, over
layers and machines chosen to stress each ingredient of the footprint:
depthwise channels, stride and dilation in the input window, partially
relevant dims, ceil padding clamped to the layer bounds, per-lane
(``instances > 1``) levels with spatial replication, and per-operand
capacity shares.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.hardware.presets import case_study_accelerator, shared_lb_accelerator
from repro.mapping.footprint import spatial_replication, tile_elements
from repro.mapping.loop import Loop
from repro.verify.generators import random_accelerator
from repro.workload.dims import LoopDim as D
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KB = 8 * 1024


def greedy_cuts(mapper, layer, order):
    """Per-prefix greedy walk: push each loop to the lowest fitting level."""
    loops = tuple(Loop(dim, size) for dim, size in order)
    cuts = {}
    for operand in Operand:
        chain = mapper.accelerator.hierarchy.levels(operand)
        depth = len(chain)
        cut = []
        level = 0
        for index in range(1, len(loops) + 1):
            # The outermost level accepts any footprint.
            while level < depth - 1 and not _fits(
                mapper, layer, operand, loops[:index], chain[level]
            ):
                cut.append(index - 1)
                level += 1
        cut += [len(loops)] * (depth - 1 - len(cut))
        cuts[operand] = tuple(cut)
    return cuts


def _fits(mapper, layer, operand, prefix, level):
    elements = tile_elements(layer, operand, prefix, mapper.spatial)
    bits = elements * layer.precision.of(operand, partial=operand is Operand.O)
    if level.instance.instances > 1:
        bits *= spatial_replication(layer, operand, mapper.spatial)
    return bits <= level.capacity_for(operand)


@st.composite
def layers(draw):
    kind = draw(st.sampled_from(
        [LayerType.DENSE, LayerType.CONV2D, LayerType.DEPTHWISE, LayerType.POINTWISE]
    ))
    small = st.integers(1, 12)
    dims = {D.B: draw(st.integers(1, 4)), D.K: draw(st.integers(1, 40))}
    if kind is not LayerType.DEPTHWISE:
        dims[D.C] = draw(st.integers(1, 40))
    strides = {}
    if kind is not LayerType.DENSE:
        dims[D.OX] = draw(small)
        dims[D.OY] = draw(small)
        if kind is not LayerType.POINTWISE:
            dims[D.FX] = draw(st.integers(1, 5))
            dims[D.FY] = draw(st.integers(1, 5))
            strides = {
                attr: draw(st.integers(1, 3))
                for attr in ("stride_x", "stride_y", "dilation_x", "dilation_y")
            }
    return LayerSpec(kind, dims, **strides)


@st.composite
def machines(draw):
    kind = draw(st.sampled_from(["case-study", "shared-lb", "shared-lb-shares", "random"]))
    if kind == "case-study":
        preset = case_study_accelerator()
        return preset.accelerator, preset.spatial_unrolling
    if kind == "random":
        return random_accelerator(random.Random(draw(st.integers(0, 10_000))))
    lb_bits = draw(st.sampled_from([1 * KB, 4 * KB, 16 * KB, 64 * KB]))
    shares = None
    if kind == "shared-lb-shares":
        # Pinned per-operand splits of the shared LB.
        parts = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
        unit = lb_bits // sum(parts)
        shares = {op: unit * part for op, part in zip(Operand, parts)}
    preset = shared_lb_accelerator(
        macs_k=draw(st.sampled_from([2, 4, 16])),
        macs_b=draw(st.sampled_from([1, 3, 8])),
        macs_c=2,
        lb_bits=lb_bits,
        lb_shares=shares,
    )
    return preset.accelerator, preset.spatial_unrolling


@_SETTINGS
@given(
    machine=machines(),
    layer=layers(),
    lpf_limit=st.sampled_from([None, 1, 2]),
)
def test_chunk_allocator_matches_greedy_walk(machine, layer, lpf_limit):
    accelerator, spatial = machine
    mapper = TemporalMapper(
        accelerator,
        spatial,
        MapperConfig(max_enumerated=300, samples=80, lpf_limit=lpf_limit),
    )
    orders = list(mapper.orders(layer))
    allocated = mapper.allocate_many(layer, orders)
    assert len(allocated) == len(orders)
    for order, temporal in zip(orders, allocated):
        assert [(loop.dim, loop.size) for loop in temporal.loops] == list(order)
        assert dict(temporal.cuts) == greedy_cuts(mapper, layer, order)


@_SETTINGS
@given(machine=machines(), layer=layers())
def test_single_order_allocation_is_the_chunk_case(machine, layer):
    accelerator, spatial = machine
    mapper = TemporalMapper(
        accelerator, spatial, MapperConfig(max_enumerated=40, samples=20)
    )
    orders = list(mapper.orders(layer))
    for order, temporal in zip(orders, mapper.allocate_many(layer, orders)):
        assert mapper.allocate(layer, order) == temporal


def test_allocate_returns_a_mapping_for_every_order(case_preset):
    # A layer far larger than every on-chip level: the outermost level
    # absorbs whatever the lower levels cannot hold, so no order fails.
    layer = LayerSpec(
        LayerType.CONV2D,
        {D.B: 4, D.K: 64, D.C: 64, D.OX: 4, D.OY: 4, D.FX: 3, D.FY: 3},
    )
    mapper = TemporalMapper(
        case_preset.accelerator,
        case_preset.spatial_unrolling,
        MapperConfig(max_enumerated=2_000, samples=300),
    )
    orders = list(mapper.orders(layer))
    assert orders
    for order in orders:
        temporal = mapper.allocate(layer, order)
        assert temporal is not None
        assert len(temporal.loops) == len(order)


def test_empty_chunk_allocates_nothing(case_preset, case1_layer):
    mapper = TemporalMapper(case_preset.accelerator, case_preset.spatial_unrolling)
    assert mapper.allocate_many(case1_layer, []) == []
