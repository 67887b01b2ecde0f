"""LOMA-style temporal-mapping search (the ZigZag-mapper stand-in).

For a layer and a fixed spatial unrolling the mapper:

1. splits every remaining temporal loop bound into prime factors, giving a
   multiset of (dimension, factor) loops;
2. enumerates distinct loop orders — exhaustively when the multinomial
   count is small, otherwise a deterministic enumeration prefix plus
   uniform random samples;
3. allocates each order onto every operand's memory chain bottom-up and
   greedily (push each loop to the lowest level whose mapper-visible
   capacity still holds the grown tile — maximizing low-level reuse, which
   is how ZigZag's allocator behaves), for a chunk of orders at once in
   closed form (:meth:`TemporalMapper.allocate_many`);
4. evaluates the requested objective (latency via the uniform model,
   energy, or EDP) and returns the ranked results.

Case study 1's Mapping A and B are two points of this space; Case study 3
runs :meth:`TemporalMapper.best_mapping` for every architecture candidate
("for each design point, mapping optimization for lowest latency is
performed").
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterator, List, Mapping as TMapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.lowering import (
    DIM_INDEX,
    clamped_extents,
    prefix_dim_products,
    tile_elements_array,
)
from repro.core.report import LatencyReport
from repro.core.step1 import ModelOptions
from repro.dse.factorize import (
    count_permutations,
    multiset_permutations,
    prime_factors,
    sample_permutations,
)
from repro.energy.energy_model import EnergyReport
from repro.engine import EvaluationEngine
from repro.hardware.accelerator import Accelerator
# tile_elements is unused here but stays importable: perfbench/spans.py wraps it by this name.
from repro.mapping.footprint import spatial_replication, tile_elements  # noqa: F401
from repro.mapping.loop import Loop
from repro.mapping.mapping import Mapping, MappingError
from repro.mapping.spatial import SpatialMapping
from repro.mapping.temporal import TemporalMapping
from repro.observability.campaign import current_campaign
from repro.observability.metrics import current_metrics
from repro.observability.progress import current_emitter
from repro.observability.tracer import current_tracer
from repro.workload.dims import ALL_DIMS, LoopDim
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


@dataclasses.dataclass(frozen=True)
class MapperConfig:
    """Search-budget and objective knobs of the mapper."""

    objective: str = "latency"      # "latency" | "energy" | "edp"
    max_enumerated: int = 20_000    # exhaustive enumeration cap
    samples: int = 2_000            # sampled orders when above the cap
    seed: int = 0
    keep_top: int = 50              # results retained by search()
    batch_size: int = 256           # mappings per engine batch
    sample_chunk: int = 64          # samples per RNG stream (determinism unit)
    lpf_limit: Optional[int] = None  # cap loop prime factors per dim (LOMA)
    model_options: ModelOptions = dataclasses.field(default_factory=ModelOptions)

    def __post_init__(self) -> None:
        if self.objective not in ("latency", "energy", "edp"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.batch_size < 1 or self.sample_chunk < 1:
            raise ValueError("batch_size and sample_chunk must be >= 1")
        if self.lpf_limit is not None and self.lpf_limit < 1:
            raise ValueError(f"lpf_limit must be >= 1, got {self.lpf_limit}")


@dataclasses.dataclass(frozen=True)
class MappingSearchResult:
    """One evaluated mapping with its reports and objective value.

    ``cache_hit`` carries the engine's score provenance (persistent-cache
    probe vs. fresh kernel) through to campaign funnel accounting.
    """

    mapping: Mapping
    report: LatencyReport
    energy: Optional[EnergyReport]
    objective: float
    cache_hit: bool = False

    def describe(self) -> str:
        """One-line summary for ranking printouts."""
        energy = f", {self.energy.total_pj / 1e6:.2f} uJ" if self.energy else ""
        return (
            f"{self.report.total_cycles:.0f} cc (U={self.report.utilization:.1%}{energy}) "
            f"| {self.mapping.temporal.describe(Operand.O)}"
        )


class TemporalMapper:
    """Temporal-mapping generator and optimizer for one accelerator."""

    def __init__(
        self,
        accelerator: Accelerator,
        spatial: Union[SpatialMapping, TMapping[LoopDim, int]],
        config: Optional[MapperConfig] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.accelerator = accelerator
        self.spatial = (
            spatial if isinstance(spatial, SpatialMapping) else SpatialMapping(spatial)
        )
        self.config = config or MapperConfig()
        if engine is None:
            engine = EvaluationEngine(accelerator, self.config.model_options)
        elif (
            engine.accelerator is not accelerator
            or engine.options != self.config.model_options
        ):
            # Share the caller's cache/stats/executor but evaluate on this
            # mapper's machine under this mapper's model options.
            engine = engine.derive(
                accelerator=accelerator, options=self.config.model_options
            )
        self.engine = engine

    # ------------------------------------------------------------------ #
    # Loop-order space
    # ------------------------------------------------------------------ #

    def loop_multiset(self, layer: LayerSpec) -> List[Tuple[LoopDim, int]]:
        """The (dim, factor) loop atoms left for temporal mapping.

        With ``config.lpf_limit`` set, each dimension contributes at most
        that many (possibly composite) factors — the LOMA pruning knob.
        """
        atoms: List[Tuple[LoopDim, int]] = []
        for dim in ALL_DIMS:
            bound = self.spatial.temporal_bound(dim, layer)
            atoms.extend(
                (dim, f) for f in prime_factors(bound, self.config.lpf_limit)
            )
        return atoms

    def space_size(self, layer: LayerSpec) -> int:
        """Number of distinct temporal loop orders for ``layer``."""
        return count_permutations(self.loop_multiset(layer))

    def orders(self, layer: LayerSpec) -> Iterator[Tuple[Tuple[LoopDim, int], ...]]:
        """Loop orders: exhaustive when small, seeds+prefix+samples otherwise.

        Above the enumeration cap the stream starts with *seed orders* —
        block orders placing each dimension's factors contiguously in every
        dimension permutation (the classic stationarity corners: all C
        innermost is output-stationary, all B innermost weight-stationary,
        ...) — so the well-known dataflows are always candidates, followed
        by a deterministic enumeration prefix and uniform random samples.
        """
        atoms = self.loop_multiset(layer)
        size = count_permutations(atoms)
        if size <= self.config.max_enumerated:
            yield from multiset_permutations(atoms)
            return
        budget = self.config.samples
        seeds = list(self._seed_orders(layer, atoms))
        yield from seeds
        remaining = max(budget - len(seeds), 16)
        prefix = remaining // 2
        yield from itertools.islice(multiset_permutations(atoms), prefix)
        # Random samples come from fixed-size chunks, each with its own RNG
        # stream derived from (seed, chunk index) — not from one shared
        # stream — so the sampled set is a pure function of the config and
        # identical under the serial and parallel evaluation backends
        # (duplicates across chunks are deduplicated by mappings()).
        to_sample = remaining - prefix
        chunk = self.config.sample_chunk
        for index, start in enumerate(range(0, to_sample, chunk)):
            rng = random.Random(self.config.seed + index)
            yield from sample_permutations(
                atoms, min(chunk, to_sample - start), rng
            )

    def _seed_orders(
        self, layer: LayerSpec, atoms: List[Tuple[LoopDim, int]]
    ) -> Iterator[Tuple[Tuple[LoopDim, int], ...]]:
        """Block orders: contiguous per-dim factor runs, all dim permutations.

        For every permutation of the active dimensions and both in-block
        factor directions (ascending / descending) one order is produced;
        capped at 256 seeds for high-rank layers.
        """
        by_dim: Dict[LoopDim, List[int]] = {}
        for dim, factor in atoms:
            by_dim.setdefault(dim, []).append(factor)
        dims = sorted(by_dim, key=str)
        emitted = 0
        for perm in itertools.permutations(dims):
            for ascending in (True, False):
                order: List[Tuple[LoopDim, int]] = []
                for dim in perm:
                    factors = sorted(by_dim[dim], reverse=not ascending)
                    order.extend((dim, f) for f in factors)
                yield tuple(order)
                emitted += 1
                if emitted >= 256:
                    return

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(
        self, layer: LayerSpec, order: Tuple[Tuple[LoopDim, int], ...]
    ) -> TemporalMapping:
        """Greedy bottom-up level allocation of one loop order.

        The one-order case of :meth:`allocate_many`. It always returns a
        mapping: the outermost level of every operand is its data home
        (backed by off-chip memory) and accepts any footprint, so every
        loop finds a level.
        """
        return self.allocate_many(layer, [order])[0]

    def allocate_many(
        self, layer: LayerSpec, orders: Sequence[Tuple[Tuple[LoopDim, int], ...]]
    ) -> List[TemporalMapping]:
        """Greedy allocation of equal-length loop orders, all cuts at once.

        Footprints never shrink as a prefix grows, so the greedy walk
        (push each loop into the lowest level that still holds the grown
        tile) has the closed form ``cut_l = max(cut_{l-1}, first_l - 1)``
        with ``first_l`` the shortest prefix overflowing level ``l``
        (docs/MODEL.md). Every prefix footprint of every order comes from
        one lowering (:mod:`repro.core.lowering`).
        """
        atoms: Dict[Tuple[LoopDim, int], int] = {}
        rows = [[atoms.setdefault(atom, len(atoms)) for atom in order] for order in orders]
        if not rows:
            return []
        index = np.array(rows, dtype=np.int64)
        atom_dims = np.array([DIM_INDEX[dim] for dim, __ in atoms], dtype=np.int64)
        atom_sizes = np.array([size for __, size in atoms], dtype=np.int64)
        spatial = np.array([self.spatial.factor(dim) for dim in ALL_DIMS], dtype=np.int64)
        ext = clamped_extents(
            layer, prefix_dim_products(atom_dims[index], atom_sizes[index]), spatial
        )
        length = index.shape[1]
        cuts: Dict[Operand, List[List[int]]] = {}
        for operand in Operand:
            # Conservative: in-flight outputs are counted at accumulator width.
            precision = layer.precision.of(operand, partial=operand is Operand.O)
            # Prefixes of length 1..L: the walk never tests the empty one.
            bits = tile_elements_array(layer, operand, ext[:, 1:]) * precision
            cut = np.zeros(len(rows), dtype=np.int64)
            columns = []
            for level in self.accelerator.hierarchy.levels(operand)[:-1]:
                demand = bits
                if level.instance.instances > 1:
                    demand = bits * spatial_replication(layer, operand, self.spatial)
                # Monotone rows: the overflowing prefixes are the last ones.
                over = demand > level.capacity_for(operand)
                cut = np.maximum(cut, length - over.sum(axis=1))
                columns.append(cut)
            cuts[operand] = (
                np.stack(columns, axis=1).tolist() if columns else [[]] * len(rows)
            )
        loops = [Loop(dim, size) for dim, size in atoms]
        return [
            TemporalMapping(
                tuple(loops[a] for a in row),
                {operand: cuts[operand][i] for operand in Operand},
            )
            for i, row in enumerate(rows)
        ]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def mappings(self, layer: LayerSpec) -> Iterator[Mapping]:
        """All allocatable mappings of ``layer`` (within the search budget).

        Beyond exact duplicates, model-equivalent allocations are emitted
        once: two mappings whose loop orders differ only by permuting
        same-dimension loops with no memory-level boundary between them
        produce identical reports (see :meth:`_canonical_key`), so only
        the canonical representative reaches the engine. Skips are
        counted in ``engine.stats.dedup_skipped``.
        """
        if not self.spatial.fits(self.accelerator.mac_array.size):
            return  # spatial unrolling alone exceeds the array: no mappings
        campaign = current_campaign()
        funnel = campaign.phase("mapper") if campaign.enabled else None
        seen = set()
        canonical_seen = set()
        orders = self.orders(layer)
        # Orders are allocated a chunk at a time; everything after
        # allocation (funnel, dedup, yield order) stays per order.
        while chunk := list(itertools.islice(orders, self.config.batch_size)):
            for order, temporal in zip(chunk, self.allocate_many(layer, chunk)):
                if funnel is not None:
                    funnel.admit()
                if order in seen:  # the allocation is a function of the order
                    if funnel is not None:
                        funnel.discard("duplicate")
                    continue
                seen.add(order)
                canonical = self._canonical_key(temporal)
                if canonical in canonical_seen:
                    self.engine.stats.dedup_skipped += 1
                    if funnel is not None:
                        funnel.discard("canonical-equivalent")
                    continue
                canonical_seen.add(canonical)
                try:
                    yield Mapping(layer, self.spatial, temporal)
                except MappingError:
                    if funnel is not None:
                        funnel.discard("mapping-error")
                    continue

    @staticmethod
    def _canonical_key(temporal: TemporalMapping):
        """A key equal for model-equivalent allocations.

        The 3-step model only ever reads loop-size *products* between
        memory-level boundaries (cut positions) and first/last positions
        of each dimension run — never the individual factor order inside
        a maximal run of equal-dimension loops that no operand's cut
        crosses. Sorting the sizes within each such run therefore maps
        every member of an equivalence class to the same key; e.g.
        ``K2 K3 | ...`` and ``K3 K2 | ...`` (same cuts) are one design
        point, not two.
        """
        cuts = tuple(temporal.cuts.values())  # always in Operand order
        boundaries = set().union(*cuts)
        canon: List[Tuple[LoopDim, int]] = []
        dim, sizes = None, []
        for j, loop in enumerate(temporal.loops):
            if loop.dim is not dim or j in boundaries:  # a new run starts
                canon.extend([(dim, size) for size in sorted(sizes)])
                dim, sizes = loop.dim, []
            sizes.append(loop.size)
        canon.extend([(dim, size) for size in sorted(sizes)])
        return tuple(canon), cuts

    @property
    def _wants_energy(self) -> bool:
        return self.config.objective in ("energy", "edp")

    def _objective(
        self, report: LatencyReport, energy: Optional[EnergyReport]
    ) -> float:
        if self.config.objective == "latency":
            return report.total_cycles
        assert energy is not None
        if self.config.objective == "energy":
            return energy.total_pj
        return energy.total_pj * report.total_cycles

    def evaluate(self, mapping: Mapping) -> MappingSearchResult:
        """Score one mapping under the configured objective."""
        report = self.engine.evaluate(mapping, validate=False)
        energy: Optional[EnergyReport] = None
        if self._wants_energy:
            energy = self.engine.evaluate_energy(mapping)
        return MappingSearchResult(
            mapping, report, energy, self._objective(report, energy)
        )

    def score(self, mappings: List[Mapping], funnel=None) -> List[Optional[MappingSearchResult]]:
        """Score ``mappings`` in one engine batch, in order.

        An infeasible mapping (``None`` outcome from the engine) scores
        ``None`` and is discarded as ``engine-infeasible`` on ``funnel``.
        """
        if not mappings:
            return []
        results: List[Optional[MappingSearchResult]] = []
        for outcome in self.engine.evaluate_many(
            mappings, validate=False, with_energy=self._wants_energy
        ):
            if outcome is None:
                if funnel is not None:
                    funnel.discard("engine-infeasible")
                results.append(None)
                continue
            results.append(MappingSearchResult(
                outcome.mapping,
                outcome.report,
                outcome.energy,
                self._objective(outcome.report, outcome.energy),
                cache_hit=outcome.cache_hit,
            ))
        return results

    def _evaluated(self, layer: LayerSpec) -> Iterator[MappingSearchResult]:
        """Stream the feasible scored mappings, one engine batch at a time."""
        campaign = current_campaign()
        funnel = campaign.phase("mapper") if campaign.enabled else None
        mappings = self.mappings(layer)
        while batch := list(itertools.islice(mappings, self.config.batch_size)):
            yield from (r for r in self.score(batch, funnel) if r is not None)

    def _search_key(self, kind: str, layer: LayerSpec):
        """Engine-cache key for a whole search outcome on ``layer``.

        The search is deterministic in (machine, model options, spatial
        unrolling, layer, search config), so its result can be memoized in
        the engine cache alongside per-mapping reports — a repeated layer
        shape skips candidate *generation* as well as evaluation.
        """
        from repro.fingerprint import memoized_fingerprint, stable_fingerprint

        return (
            kind,
            self.engine.accelerator_fingerprint,
            self.engine.options_fingerprint,
            stable_fingerprint(
                memoized_fingerprint(self.spatial),
                memoized_fingerprint(layer),
                self.config,
            ),
        )

    def _note_campaign_context(self, campaign) -> None:
        """Record the replayability context on the mapper's funnel phase.

        Together with the config fingerprint these scalars make a
        campaign exactly replayable from its ledger row alone: chunk
        ``i`` of the sampled stream draws from
        ``random.Random(seed + i)`` (see :meth:`orders`), so the whole
        candidate set is a pure function of the recorded values.
        """
        from repro.fingerprint import stable_fingerprint

        cfg = self.config
        campaign.note_context(
            "mapper",
            config_fp=stable_fingerprint(cfg),
            seed=cfg.seed,
            samples=cfg.samples,
            max_enumerated=cfg.max_enumerated,
            sample_chunk=cfg.sample_chunk,
            keep_top=cfg.keep_top,
            batch_size=cfg.batch_size,
            lpf_limit=0 if cfg.lpf_limit is None else cfg.lpf_limit,
            objective=cfg.objective,
        )

    def _progress_run(self, flow: str, layer: LayerSpec):
        """Open a ``unit="evals"`` progress run sized to this search.

        The engine's ``evaluate_many`` attaches its per-chunk events to
        this run instead of opening one run per batch, so a whole search
        accrues into a single progress bar. The total is the loop-order
        count when the space will be enumerated exhaustively; unknown
        (no ETA) when the mapper samples, since dedup and allocation
        failures make the evaluated count unpredictable.
        """
        emitter = current_emitter()
        if not emitter.enabled:
            return None
        size = self.space_size(layer)
        total = size if size <= self.config.max_enumerated else None
        return emitter.start_run(
            flow,
            total_units=total,
            unit="evals",
            accelerator=self.accelerator.name,
            layer=layer.name or str(layer.layer_type),
        )

    def _memoized(self, kind: str, layer: LayerSpec, compute, best_of):
        """Run one search flow under its span, engine memo and progress run.

        ``compute(run, campaign)`` scores the space and returns
        ``(outcome, candidates, best)``. The outcome is memoized under
        :meth:`_search_key`; a memo hit replays ``best_of(outcome)`` into
        the campaign instead of searching again.
        """
        tracer = current_tracer()
        with tracer.span(
            f"mapper.{kind}",
            layer=layer.name or str(layer.layer_type),
            objective=self.config.objective,
        ) as span:
            current_metrics().counter(
                "repro_mapper_searches_total", "Mapper search() calls."
            ).inc()
            campaign = current_campaign()
            if campaign.enabled:
                self._note_campaign_context(campaign)
            key = self._search_key(kind, layer)
            cached = self.engine.cache.get(key) if self.engine.use_cache else None
            if cached is not None:
                self.engine.stats.cache_hits += 1
                span.set("cache_hit", True)
                campaign.note_memoized_search()
                best = best_of(cached)
                if campaign.enabled and best is not None:
                    campaign.observe(best.objective)
                return cached
            run = self._progress_run(f"mapper.{kind}", layer)
            try:
                outcome, candidates, best = compute(run, campaign)
            except KeyboardInterrupt:
                if run is not None:
                    run.interrupt("KeyboardInterrupt")
                raise
            if tracer.enabled:
                span.set("cache_hit", False)
                span.set("candidates", candidates)
                if best is not None:
                    span.set("best_objective", best.objective)
            if self.engine.use_cache:
                self.engine.cache.put(key, outcome)
            return outcome

    @staticmethod
    def _report_best(run, best: MappingSearchResult, layer: LayerSpec) -> None:
        if run is not None:
            run.best(
                best.objective,
                total_cycles=best.report.total_cycles,
                utilization=best.report.utilization,
                label=layer.name or str(layer.layer_type),
            )

    def search(self, layer: LayerSpec) -> List[MappingSearchResult]:
        """Evaluate the mapping space; return the top results, best first."""

        def compute(run, campaign):
            results = list(self._evaluated(layer))
            current_metrics().counter(
                "repro_mapper_candidates_total",
                "Feasible mapping candidates scored by the mapper.",
            ).inc(len(results))
            if campaign.enabled:
                for result in results:
                    campaign.observe(result.objective)
            scored = len(results)
            results.sort(key=lambda r: r.objective)
            results = results[: self.config.keep_top]
            if campaign.enabled:
                funnel = campaign.phase("mapper")
                for result in results:
                    funnel.retain(cache_hit=result.cache_hit)
                funnel.discard("keep-top", scored - len(results))
            best = results[0] if results else None
            if best is not None:
                self._report_best(run, best, layer)
            if run is not None:
                run.finish()
            return tuple(results), len(results), best

        return list(self._memoized(
            "search", layer, compute, lambda cached: cached[0] if cached else None
        ))

    def best_mapping_verified(
        self, layer: LayerSpec, shortlist: int = 5
    ) -> Tuple[MappingSearchResult, float]:
        """Model-guided search with a simulator-verified shortlist.

        The analytical model ranks the space; the top ``shortlist``
        candidates are re-ranked by the cycle-level simulator, which
        removes the optimizer-bias corner where the model's optimum sits
        in a regime it slightly under-predicts (see EXPERIMENTS.md E10).
        Returns the winning result and its *simulated* cycle count.
        """
        from repro.simulator.engine import CycleSimulator

        candidates = self.search(layer)[:shortlist]
        if not candidates:
            raise MappingError(
                f"no valid temporal mapping of {layer.describe()} on "
                f"{self.accelerator.name} with spatial {self.spatial}"
            )
        best: Optional[Tuple[MappingSearchResult, float]] = None
        for candidate in candidates:
            simulated = CycleSimulator(
                self.accelerator, candidate.mapping
            ).run().total_cycles
            if best is None or simulated < best[1]:
                best = (candidate, simulated)
        assert best is not None
        return best

    def best_mapping(self, layer: LayerSpec) -> MappingSearchResult:
        """The best mapping found (raises if none fits)."""

        def compute(run, campaign):
            best: Optional[MappingSearchResult] = None
            candidates = 0
            for result in self._evaluated(layer):
                candidates += 1
                if campaign.enabled:
                    campaign.observe(result.objective)
                if best is None or result.objective < best.objective:
                    best = result
                    self._report_best(run, best, layer)
            if run is not None:
                run.finish()
            current_metrics().counter(
                "repro_mapper_candidates_total",
                "Feasible mapping candidates scored by the mapper.",
            ).inc(candidates)
            if best is None:
                raise MappingError(
                    f"no valid temporal mapping of {layer.describe()} on "
                    f"{self.accelerator.name} with spatial {self.spatial}"
                )
            if campaign.enabled:
                funnel = campaign.phase("mapper")
                funnel.retain(cache_hit=best.cache_hit)
                funnel.discard("beaten-incumbent", candidates - 1)
            return best, candidates, best

        return self._memoized("best_mapping", layer, compute, lambda cached: cached)
