"""The full mapping: layer + spatial + temporal, with validity checks."""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List

from repro.fingerprint import digest, memoized, memoized_fingerprint
from repro.mapping.footprint import (
    operand_footprint_bits,
    outputs_are_partial_above,
    spatial_replication,
)
from repro.mapping.loop import dim_product
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.workload.dims import ALL_DIMS
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.accelerator import Accelerator


class MappingError(ValueError):
    """An inconsistent or hardware-infeasible mapping."""


@dataclasses.dataclass(frozen=True)
class Mapping:
    """A complete algorithm-to-hardware mapping of one layer.

    Invariant: for every loop dimension, (product of its temporal loop
    sizes) equals ``ceil(layer bound / spatial unroll)`` — the temporal
    mapping covers exactly the iterations the spatial mapping leaves over.
    """

    layer: LayerSpec
    spatial: SpatialMapping
    temporal: TemporalMapping

    def __post_init__(self) -> None:
        for dim in ALL_DIMS:
            need = self.spatial.temporal_bound(dim, self.layer)
            have = dim_product(self.temporal.loops, dim)
            if need != have:
                raise MappingError(
                    f"temporal loops of {dim} multiply to {have}, expected "
                    f"ceil({self.layer.size(dim)}/{self.spatial.factor(dim)}) = {need}"
                )

    # ------------------------------------------------------------------ #
    # Fig. 1(b) quantities
    # ------------------------------------------------------------------ #

    def ideal_cycles(self, array_size: int) -> float:
        """``CC_ideal = total MAC ops / MAC array size`` (Fig. 1b)."""
        return self.layer.total_macs / array_size

    @property
    def spatial_cycles(self) -> int:
        """``CC_spatial``: cycles with a fully temporally-mapped array."""
        return self.temporal.total_cycles

    def spatial_stall(self, array_size: int) -> float:
        """``CC_spatial - CC_ideal`` (Fig. 1b note)."""
        return self.spatial_cycles - self.ideal_cycles(array_size)

    def spatial_utilization(self, array_size: int) -> float:
        """``U_spatial = CC_ideal / CC_spatial``."""
        return self.ideal_cycles(array_size) / self.spatial_cycles

    # ------------------------------------------------------------------ #

    def footprint_bits(self, operand: Operand, level: int) -> int:
        """``Mem_DATA`` in bits for ``operand`` at ``level``.

        Output tiles in flight below the accumulation loops are stored at
        partial-sum precision.
        """
        partial = operand is Operand.O and outputs_are_partial_above(
            self.layer, self.temporal, level
        )
        return operand_footprint_bits(
            self.layer, operand, self.temporal, self.spatial, level,
            partial_outputs=partial,
        )

    def describe(self) -> str:
        """Multi-line summary: spatial line plus one line per operand."""
        lines = [f"spatial: {self.spatial}"]
        for operand in Operand:
            lines.append(f"{operand}: {self.temporal.describe(operand)}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable content hash of (layer, spatial, temporal).

        Equal mappings fingerprint identically regardless of how they were
        built; the evaluation engine combines this with the accelerator's
        fingerprint as its cache key. Memoized (the dataclass is frozen).
        """
        # Composed hierarchically: the layer and spatial unrolling recur (as
        # the same objects) across every mapping of one search, so their
        # fingerprints are computed once and only the temporal part is
        # encoded per mapping. The text equals the one
        # stable_fingerprint(layer_fp, spatial_fp, self.temporal) hashes.
        return memoized(self, "_fingerprint", lambda m: digest('["%s","%s",%s]' % (
            memoized_fingerprint(m.layer),
            memoized_fingerprint(m.spatial),
            m.temporal.canonical_json(),
        )))


def check_capacity(mapping: Mapping, accelerator: "Accelerator") -> List[str]:
    """Capacity violations of ``mapping`` on ``accelerator`` (empty = fits).

    Checks, per memory level, that the summed footprints of the operands it
    serves fit in the mapper-visible capacity (half of physical for
    double-buffered memories, Table I), honoring per-operand capacity
    shares when the level defines them.
    """
    violations: List[str] = []
    hierarchy = accelerator.hierarchy
    for operand in Operand:
        depth = hierarchy.depth(operand)
        if mapping.temporal.num_levels(operand) != depth:
            violations.append(
                f"{operand}: mapping assumes {mapping.temporal.num_levels(operand)} "
                f"levels but {accelerator.name} has {depth}"
            )
    if violations:
        return violations

    demand: Dict[str, int] = {}
    for level_obj in hierarchy.unique_levels():
        total = 0
        for operand in hierarchy.operands_of(level_obj):
            idx = hierarchy.level_index(operand, level_obj)
            if idx == hierarchy.depth(operand) - 1:
                # The outermost level is the operand's data home, backed by
                # off-chip memory — exempt from the on-chip capacity check.
                continue
            bits = mapping.footprint_bits(operand, idx)
            if level_obj.instance.instances > 1:
                bits *= spatial_replication(mapping.layer, operand, mapping.spatial)
            share = level_obj.capacity_share
            if share is not None and operand in share:
                cap = level_obj.capacity_for(operand)
                if bits > cap:
                    violations.append(
                        f"{level_obj.name}/{operand}: needs {bits} b > share {cap} b"
                    )
            total += bits
        demand[level_obj.name] = total
        cap = level_obj.instance.mapper_visible_bits
        if total > cap:
            violations.append(
                f"{level_obj.name}: operands need {total} b > capacity {cap} b"
            )
    return violations


def is_valid(mapping: Mapping, accelerator: "Accelerator") -> bool:
    """True when ``mapping`` fits ``accelerator``'s array and memories."""
    if not mapping.spatial.fits(accelerator.mac_array.size):
        return False
    return not check_capacity(mapping, accelerator)


def utilization_scenario(mapping: Mapping, array_size: int, temporal_stall: float) -> int:
    """Classify into the four Fig. 1(b) scenarios (1-4)."""
    from repro.core.kernels import scenario_code

    return int(
        scenario_code(
            mapping.ideal_cycles(array_size),
            float(mapping.spatial_cycles),
            temporal_stall,
        )
    )
