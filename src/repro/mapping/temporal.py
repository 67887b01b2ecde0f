"""Temporal mapping: ordered loops plus per-operand memory-level cuts.

The temporal mapping is one global loop order (innermost first — the order
in which the MAC array walks the non-spatially-unrolled iterations), and,
for every operand, a partition of that order into its memory levels: the
loops between cut ``l-1`` and cut ``l`` are "allocated to" level ``l``,
meaning level ``l`` is the innermost memory whose tile covers them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.fingerprint import canonical_json, canonical_payload, memoized_json
from repro.mapping.loop import Loop, loops_product
from repro.workload.layer import LayerSpec
from repro.workload.operand import Operand


#: Operand JSON keys of ``cuts``, sorted as the generic canonical walk sorts them.
_CUT_KEYS = sorted((canonical_json(canonical_payload(op)), op) for op in Operand)


@dataclasses.dataclass(frozen=True)
class TemporalMapping:
    """Ordered temporal loops and per-operand level boundaries.

    Parameters
    ----------
    loops:
        Temporal loops, **innermost first**. Size-1 loops are dropped.
    cuts:
        For each operand, the cut positions splitting ``loops`` into that
        operand's memory levels: ``cuts[op]`` has one entry per boundary
        between consecutive levels (``depth - 1`` entries for a chain of
        ``depth`` levels), each an index into ``loops``; loops with index
        ``< cuts[op][0]`` belong to level 0, indices in
        ``[cuts[op][l-1], cuts[op][l])`` to level ``l``, and the rest to the
        outermost level. Cut lists must be non-decreasing.
    """

    loops: Tuple[Loop, ...]
    cuts: Mapping[Operand, Tuple[int, ...]]

    def __post_init__(self) -> None:
        loops = tuple(l if isinstance(l, Loop) else Loop(*l) for l in self.loops)
        loops = tuple(l for l in loops if l.size > 1)
        object.__setattr__(self, "loops", loops)
        cuts: Dict[Operand, Tuple[int, ...]] = {}
        for operand in Operand:
            if operand not in self.cuts:
                raise ValueError(f"temporal mapping missing cuts for {operand}")
            cut = tuple(int(c) for c in self.cuts[operand])
            if any(c < 0 or c > len(loops) for c in cut):
                raise ValueError(
                    f"{operand} cuts {cut} out of range for {len(loops)} loops"
                )
            if list(cut) != sorted(cut):
                raise ValueError(f"{operand} cuts must be non-decreasing, got {cut}")
            cuts[operand] = cut
        object.__setattr__(self, "cuts", cuts)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_level_lists(per_level: Mapping[Operand, Sequence[Sequence[Loop]]]) -> "TemporalMapping":
        """Build from explicit per-operand, per-level loop lists.

        All operands must describe the same global loop order once their
        level lists are concatenated innermost-first; this is validated.
        """
        orders: Dict[Operand, List[Loop]] = {}
        cuts: Dict[Operand, Tuple[int, ...]] = {}
        for operand, levels in per_level.items():
            flat: List[Loop] = []
            cut: List[int] = []
            for level_loops in levels:
                flat.extend(l for l in level_loops if l.size > 1)
                cut.append(len(flat))
            orders[operand] = flat
            cuts[operand] = tuple(cut[:-1])  # last boundary is the end
        reference = None
        for operand, flat in orders.items():
            if reference is None:
                reference = flat
            elif flat != reference:
                raise ValueError(
                    "per-operand level lists disagree on the global loop order: "
                    f"{[str(l) for l in reference]} vs {[str(l) for l in flat]} ({operand})"
                )
        assert reference is not None
        return TemporalMapping(tuple(reference), cuts)

    def canonical_json(self) -> str:
        """``canonical_json(canonical_payload(self))`` without the generic walk:
        memoized per-loop fragments and the cut lists, spliced into the
        identical text (mapping fingerprints keep their values)."""
        loops = ",".join([memoized_json(loop) for loop in self.loops])
        cuts = ",".join([
            "[%s,[%s]]" % (key, ",".join(map(str, self.cuts[op])))
            for key, op in _CUT_KEYS
        ])
        return '["TemporalMapping",[["loops",[%s]],["cuts",[%s]]]]' % (loops, cuts)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def total_cycles(self) -> int:
        """Product of all temporal loop sizes (= ``CC_spatial``)."""
        return loops_product(self.loops)

    def num_levels(self, operand: Operand) -> int:
        """Memory-chain depth this mapping assumes for ``operand``."""
        return len(self.cuts[operand]) + 1

    def level_bounds(self, operand: Operand, level: int) -> Tuple[int, int]:
        """Half-open index range of the loops allocated to ``level``."""
        cut = self.cuts[operand]
        if level < 0 or level > len(cut):
            raise IndexError(f"{operand} has levels 0..{len(cut)}, asked {level}")
        lo = cut[level - 1] if level > 0 else 0
        hi = cut[level] if level < len(cut) else len(self.loops)
        return lo, hi

    def loops_at_level(self, operand: Operand, level: int) -> Tuple[Loop, ...]:
        """Loops allocated to ``level`` of ``operand`` (inner first)."""
        lo, hi = self.level_bounds(operand, level)
        return self.loops[lo:hi]

    def loops_at_or_below(self, operand: Operand, level: int) -> Tuple[Loop, ...]:
        """Loops allocated to levels ``0..level`` of ``operand``."""
        __, hi = self.level_bounds(operand, level)
        return self.loops[:hi]

    def loops_above(self, operand: Operand, level: int) -> Tuple[Loop, ...]:
        """Loops allocated strictly above ``level`` of ``operand``."""
        __, hi = self.level_bounds(operand, level)
        return self.loops[hi:]

    def cycles_at_or_below(self, operand: Operand, level: int) -> int:
        """Plain turnaround product (Fig. 2a's ``Mem_CC`` before extension)."""
        return loops_product(self.loops_at_or_below(operand, level))

    def ir_run_above(self, operand: Operand, level: int, layer: LayerSpec) -> Tuple[Loop, ...]:
        """The maximal run of ``operand``-irrelevant loops just above ``level``.

        These loops prolong the residency of level ``level``'s tile without
        changing it (pure reuse), so they extend the effective ``Mem_CC``.
        pr loops count as relevant (they do change part of the tile).
        """
        run: List[Loop] = []
        for loop in self.loops_above(operand, level):
            if layer.relevance(operand, loop.dim, pr_as_r=True) == "ir":
                run.append(loop)
            else:
                break
        return tuple(run)

    def top_ir_run(self, operand: Operand, level: int, layer: LayerSpec) -> Tuple[Loop, ...]:
        """Maximal run of ir loops at the *top* of ``level``'s residency.

        This is Table I's "top temporal loop type": walking the residency
        window (the loops of ``level`` plus the reuse extension above it)
        from the outermost inwards, collect the irrelevant loops until the
        first relevant one. A non-empty result means a non-double-buffered
        memory has a keep-out zone and its ReqBW scales by the run product.
        """
        run: List[Loop] = list(self.ir_run_above(operand, level, layer))
        for loop in reversed(self.loops_at_level(operand, level)):
            if layer.relevance(operand, loop.dim, pr_as_r=True) == "ir":
                run.append(loop)
            else:
                break
        return tuple(run)

    def describe(self, operand: Operand) -> str:
        """Level-annotated loop order, e.g. ``L0[B8] L1[K4 C2] L2[C300]``."""
        parts = []
        for level in range(self.num_levels(operand)):
            inside = " ".join(str(l) for l in self.loops_at_level(operand, level))
            parts.append(f"L{level}[{inside}]")
        return " ".join(parts)


def loops_from_pairs(pairs: Iterable[Tuple[str, int]]) -> Tuple[Loop, ...]:
    """Convenience: build loops from ("K", 4)-style pairs, inner first."""
    return tuple(Loop(dim, size) for dim, size in pairs)
