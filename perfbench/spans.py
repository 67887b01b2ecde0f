"""Benchmark-owned spans around the program's public functions.

The traced run wraps each layer's public functions from outside, where
the program looks the name up: a class attribute for methods, every
module that imported a function by name (``tile_elements`` lives in four
namespaces), and the entries of ``repro.verify.PROPERTIES``, which are
read at call time. The program's own tracer stays off: enabling it would
switch ``evaluate_many`` to the scalar path and ship spans over the wire,
which is a different program.

A span is ``(id, parent, name, start, end)``. Hot leaf spans (called
tens of thousands of times per pass) are folded into per-name totals
instead of being kept one by one; every span, kept or folded, still adds
its duration to its parent's child time, so the self times of all names
sum to the root spans' durations. :meth:`Recorder.check` verifies that.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

perf_counter = time.perf_counter


class Recorder:
    """In-memory span store with per-name call, total and self times."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.totals: Dict[str, List[float]] = {}   # name -> [calls, incl_s, self_s]
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._ids = itertools.count(1)
        self._stack: List[List] = []                # open frames: [id, child_s]

    # -- span bookkeeping ------------------------------------------------ #

    def _open(self) -> List:
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: List, t0: float, t1: float, keep: bool) -> None:
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = t1 - t0
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if keep:
            self.spans.append((frame[0], parent, name, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-owned span; a root when nothing is open."""
        frame = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, perf_counter(), True)

    # -- wrappers -------------------------------------------------------- #

    def wrap(self, name: str, fn: Callable, keep: bool, note=None) -> Callable:
        """``fn`` inside a span; ``note(counts, args, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, perf_counter(), keep)
            if note is not None:
                note(self.counts, args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every resumption is a span.

        Time spent by the consumer between items belongs to the consumer;
        each ``next()`` is a folded span under whatever span is open at
        that moment. Yields are counted as ``<name>.yields``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    if not self._stack:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                    else:
                        frame = self._open()
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(name, frame, t0, perf_counter(), False)
                    self.counts[name + ".yields"] += 1
                    yield item

            return resumed()

        return wrapper

    # -- results --------------------------------------------------------- #

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def incl_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (the span-name prefix before the dot)."""
        out: Dict[str, float] = {}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def check(self) -> Tuple[bool, float]:
        """Whether the self times of all spans sum to the root spans.

        Returns ``(ok, relative error)``. A span left open, closed out of
        order or attributed to the wrong parent breaks the sum.
        """
        total_self = sum(self_s for _, _, self_s in self.totals.values())
        error = abs(total_self - self.root_s) / self.root_s if self.root_s else 1.0
        return (not self._stack and error < 1e-6), error

    def write(self, path, extra: Dict) -> None:
        """Write the spans, per-name totals and ``extra`` as JSON."""
        with open(path, "w") as handle:
            json.dump({
                "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                "spans": self.spans,
                "totals": {
                    name: {"calls": int(c), "incl_s": i, "self_s": s}
                    for name, (c, i, s) in sorted(self.totals.items())
                },
                "layer_self_s": self.layer_self_s(),
                "counts": dict(self.counts),
                **extra,
            }, handle)


# --------------------------------------------------------------------- #
# What gets wrapped
# --------------------------------------------------------------------- #

def _note_lanes(counts, args, result) -> None:
    counts["core.kernel.lanes"] += len(args[1])


def _note_layers(counts, args, result) -> None:
    counts["analysis.network.layers"] += len(args[1])
    counts["analysis.network.skipped"] += len(result.skipped)


def _note_frame(counts, args, result) -> None:
    from repro.serve.protocol import EvaluateRequest

    counts["serve.frames"] += 1
    counts["serve.mappings"] += isinstance(args[0], EvaluateRequest)


def _note_cycles(name):
    def note(counts, args, result) -> None:
        counts[name + ".cycles"] += result.total_cycles
    return note


def _note_violations(counts, args, result) -> None:
    counts["verify.check.violations"] += len(result)


#: (span name, [(module, attribute path)], kind, keep spans, note).
#: ``kind`` is "call" or "generator"; folded (keep=False) names are the
#: hot leaves.
TARGETS = [
    ("dse.orders", [("repro.dse.mapper", "TemporalMapper.orders")], "generator", False, None),
    ("dse.mappings", [("repro.dse.mapper", "TemporalMapper.mappings")], "generator", False, None),
    ("dse.allocate", [("repro.dse.mapper", "TemporalMapper.allocate")], "call", False, None),
    ("mapping.tile_elements", [
        ("repro.mapping.footprint", "tile_elements"),
        ("repro.dse.mapper", "tile_elements"),
        ("repro.core.step1", "tile_elements"),
        ("repro.energy.access_counts", "tile_elements"),
    ], "call", False, None),
    ("mapping.fingerprint", [("repro.mapping.mapping", "Mapping.fingerprint")], "call", False, None),
    ("engine.evaluate_many", [("repro.engine.evaluation", "EvaluationEngine.evaluate_many")], "call", True, None),
    ("core.kernel", [("repro.core.batch", "BatchEvaluator.evaluate")], "call", True, _note_lanes),
    ("core.plan", [("repro.core.batch", "BatchPlan.__init__")], "call", True, None),
    ("core.scalar", [("repro.core.model", "LatencyModel.evaluate")], "call", False, None),
    ("analysis.network", [("repro.analysis.network", "NetworkEvaluator.evaluate")], "call", True, _note_layers),
    ("serve.encode", [("repro.serve.protocol", "encode")], "call", False, _note_frame),
    ("serve.decode", [("repro.serve.protocol", "decode")], "call", False, None),
    ("serve.serde", [
        ("repro.serve.client", "mapping_to_dict"),
        ("repro.serve.client", "layer_to_dict"),
        ("repro.serve.protocol", "report_from_dict"),
        ("repro.serve.protocol", "energy_from_dict"),
    ], "call", False, None),
    ("serve.remote", [
        ("repro.serve.client", "RemoteEngine.evaluate"),
        ("repro.serve.client", "RemoteEngine.evaluate_many"),
        ("repro.serve.client", "RemoteEngine.evaluate_energy"),
    ], "call", True, None),
    ("simulator.event", [("repro.simulator.engine", "CycleSimulator.run")], "call", True, _note_cycles("simulator.event")),
    ("simulator.rtl", [("repro.simulator.rtl", "RtlSimulator.run")], "call", True, _note_cycles("simulator.rtl")),
    ("verify.generate", [("repro.verify.generators", "generate_case")], "call", True, None),
    ("verify.check", [("repro.verify.properties", "check_case")], "call", True, _note_violations),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Patches:
    """Installs the wrappers of :data:`TARGETS`; ``restore()`` undoes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.recorder
        for name, places, kind, keep, note in TARGETS:
            for module, path in places:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if kind == "generator":
                    wrapped = rec.wrap_generator(name, original)
                else:
                    wrapped = rec.wrap(name, original, keep, note)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
        from repro.verify.properties import PROPERTIES

        for prop, fn in list(PROPERTIES.items()):
            PROPERTIES[prop] = rec.wrap(f"verify.prop.{prop}", fn, True)
            self._undo.append((PROPERTIES, prop, fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def property_names() -> List[str]:
    from repro.verify.properties import PROPERTIES

    return list(PROPERTIES)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, stats: Dict[str, float], scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics from the spans plus counters read from the program.

    ``stats`` holds what the spans cannot see: summed engine stats
    (``hits``, ``misses``, ``evaluations``, ``errors``, ``dedup``), the
    MUW memo delta (``muw_hits``, ``muw_misses``), the daemon's counters
    (``server_*``) and the benchmark-health figures. Span seconds are
    multiplied by ``scale``, the run's reference-speed factor.
    """
    c = rec.counts

    def incl_s(name: str) -> float:
        return rec.incl_s(name) * scale

    def self_s(name: str) -> float:
        return rec.self_s(name) * scale

    evaluations = stats.get("evaluations", 0.0)
    kernel_calls = rec.calls("core.kernel")
    event_s, rtl_s = incl_s("simulator.event"), incl_s("simulator.rtl")
    out = {
        "dse.orders": c["dse.orders.yields"],
        "dse.allocate_calls": rec.calls("dse.allocate"),
        "dse.allocate_s": incl_s("dse.allocate"),
        "dse.enumerate_s": self_s("dse.mappings"),
        "dse.yield_frac": _frac(c["dse.mappings.yields"], c["dse.orders.yields"]),
        "dse.dedup_skipped": stats.get("dedup", 0.0),
        "mapping.tile_elements_calls": rec.calls("mapping.tile_elements"),
        "mapping.tile_elements_s": incl_s("mapping.tile_elements"),
        "mapping.fingerprint_calls": rec.calls("mapping.fingerprint"),
        "mapping.fingerprint_s": incl_s("mapping.fingerprint"),
        "mapping.fingerprints_per_eval": _frac(rec.calls("mapping.fingerprint"), evaluations),
        "engine.evaluate_many_calls": rec.calls("engine.evaluate_many"),
        "engine.evaluate_many_self_s": self_s("engine.evaluate_many"),
        "engine.cache_hits": stats.get("hits", 0.0),
        "engine.cache_misses": stats.get("misses", 0.0),
        "engine.cache_hit_frac": _frac(stats.get("hits", 0.0), stats.get("hits", 0.0) + stats.get("misses", 0.0)),
        "engine.evaluations": evaluations,
        "engine.infeasible": stats.get("errors", 0.0),
        "core.kernel_calls": kernel_calls,
        "core.kernel_s": incl_s("core.kernel"),
        "core.lanes_per_call": _frac(c["core.kernel.lanes"], kernel_calls),
        "core.plan_builds": rec.calls("core.plan"),
        "core.plan_s": incl_s("core.plan"),
        "core.scalar_evals": rec.calls("core.scalar"),
        "core.scalar_s": incl_s("core.scalar"),
        "core.muw_hit_frac": _frac(stats.get("muw_hits", 0.0), stats.get("muw_hits", 0.0) + stats.get("muw_misses", 0.0)),
        "analysis.layers": c["analysis.network.layers"],
        "analysis.self_s": self_s("analysis.network"),
        "analysis.skipped": c["analysis.network.skipped"],
        "serve.frames": c["serve.frames"],
        "serve.mappings_per_frame": _frac(c["serve.mappings"], c["serve.frames"]),
        "serve.encode_s": incl_s("serve.encode"),
        "serve.decode_s": incl_s("serve.decode"),
        "serve.serde_s": incl_s("serve.serde"),
        "serve.wait_s": self_s("serve.remote"),
        "serve.client_cache_hits": stats.get("client_hits", 0.0),
        "serve.server_requests": stats.get("server_requests", 0.0),
        "serve.server_evaluations": stats.get("server_evaluations", 0.0),
        "serve.server_store_hits": stats.get("server_store_hits", 0.0),
        "serve.coalesced": stats.get("server_coalesced", 0.0),
        "serve.queue_highwater": stats.get("server_queue_highwater", 0.0),
        "serve.remote_over_local": stats.get("remote_over_local", 0.0),
        "serve.warm_over_local": stats.get("warm_over_local", 0.0),
        "simulator.event_runs": rec.calls("simulator.event"),
        "simulator.event_s": event_s,
        "simulator.event_cycles": c["simulator.event.cycles"],
        "simulator.event_cycles_per_s": _frac(c["simulator.event.cycles"], event_s),
        "simulator.rtl_runs": rec.calls("simulator.rtl"),
        "simulator.rtl_s": rtl_s,
        "simulator.rtl_cycles": c["simulator.rtl.cycles"],
        "simulator.rtl_cycles_per_s": _frac(c["simulator.rtl.cycles"], rtl_s),
        "verify.cases": rec.calls("verify.check"),
        "verify.generate_s": incl_s("verify.generate"),
        "verify.check_self_s": self_s("verify.check"),
        "verify.violations": c["verify.check.violations"],
    }
    for prop in property_names():
        out[f"verify.prop_s.{prop}"] = incl_s(f"verify.prop.{prop}")
    for key in ("host.cal_ms", "host.raw_wall_s", "trace.overhead_frac", "trace.unattributed_frac"):
        out[key] = stats.get(key, 0.0)
    return {k: float(v) for k, v in out.items()}
