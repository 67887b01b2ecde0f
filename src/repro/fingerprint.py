"""Stable structural fingerprints of model inputs.

The evaluation engine (:mod:`repro.engine`) keys its cache on a canonical
fingerprint of (accelerator, mapping, options). Two objects that are equal
by value — however they were constructed (preset builder, serde round
trip, ``dataclasses.replace`` chain) — must produce the same fingerprint,
and any field mutation must change it. Python's built-in ``hash`` cannot
provide this (it is salted per process and undefined for the dicts inside
the hardware description), so fingerprints are derived from a canonical
JSON encoding instead:

* dataclasses become ``[class name, [[field, value], ...]]`` in field
  declaration order; a class may opt cosmetic fields out of its identity
  by listing them in a ``__fingerprint_exclude__`` class attribute (e.g.
  ``LayerSpec.name`` — two layers that differ only in label are the same
  design point and must share cache entries);
* enums collapse to their values;
* sets/frozensets and dict items are sorted by their canonical encoding,
  so construction order never leaks into the payload;
* everything else must already be a JSON scalar (or is ``repr``-ed as a
  last resort).

The encoding is hashed with SHA-256; the hex digest is the fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any


def canonical_payload(obj: Any) -> Any:
    """Recursively convert ``obj`` into a JSON-serializable canonical form."""
    if isinstance(obj, enum.Enum):
        # Before the dataclass branch: str-based enums are not dataclasses,
        # but IntEnum-style members could otherwise take a wrong path.
        return [type(obj).__name__, obj.value]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        excluded = getattr(type(obj), "__fingerprint_exclude__", ())
        fields = [
            [f.name, canonical_payload(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)
            if f.name not in excluded
        ]
        return [type(obj).__name__, fields]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical_payload(v) for v in obj), key=_ordering)
    if isinstance(obj, dict):
        items = [
            [canonical_payload(k), canonical_payload(v)] for k, v in obj.items()
        ]
        items.sort(key=lambda kv: _ordering(kv[0]))
        return items
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _ordering(payload: Any) -> str:
    """Total order over canonical payloads (their JSON encoding)."""
    return json.dumps(payload, sort_keys=True)


def memoized_fingerprint(obj: Any) -> str:
    """``stable_fingerprint(obj)``, cached on the object itself.

    Only safe for immutable objects (frozen dataclasses). Hot paths use
    this to fingerprint sub-structures that recur across many composite
    fingerprints — e.g. the layer and spatial unrolling shared by every
    mapping of one search — so each is canonicalized and hashed once.
    Objects that reject attribute assignment (slots, builtins) are
    fingerprinted without memoization.
    """
    return memoized(obj, "_fingerprint", stable_fingerprint)


def memoized_json(obj: Any) -> str:
    """``canonical_json(canonical_payload(obj))``, cached like
    :func:`memoized_fingerprint`: direct encoders splice these fragments
    instead of re-walking objects that recur (e.g. a mapper's loops)."""
    return memoized(obj, "_canonical_json", lambda o: canonical_json(canonical_payload(o)))


def memoized(obj: Any, attr: str, compute) -> str:
    """``compute(obj)``, cached on ``obj`` as ``attr`` when it allows."""
    cached = getattr(obj, attr, None)
    if cached is None:
        cached = compute(obj)
        try:
            object.__setattr__(obj, attr, cached)
        except (AttributeError, TypeError):
            pass
    return cached


def canonical_json(payload: Any) -> str:
    """The JSON text fingerprints hash: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(encoded: str) -> str:
    """SHA-256 hex digest of a canonical JSON text."""
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def stable_fingerprint(*objs: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``objs``."""
    return digest(canonical_json([canonical_payload(o) for o in objs]))
