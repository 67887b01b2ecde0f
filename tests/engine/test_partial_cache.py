"""PartialResultCache: LRU semantics, counters, and sharing across threads."""

import sys
import threading

import pytest

from repro.engine.cache import PartialResultCache


def test_hits_misses_and_lru_eviction():
    cache = PartialResultCache(maxsize=2)
    assert cache.get_or_compute("a", lambda: 1) == 1
    assert cache.get_or_compute("b", lambda: 2) == 2
    assert cache.get_or_compute("a", lambda: -1) == 1  # hit, refreshes "a"
    assert cache.get_or_compute("c", lambda: 3) == 3   # evicts "b"
    assert cache.get_or_compute("b", lambda: 4) == 4   # recomputed
    assert (cache.hits, cache.misses) == (1, 4)
    assert len(cache) == 2


def test_none_values_are_cached():
    cache = PartialResultCache(maxsize=4)
    calls = []
    for _ in range(3):
        assert cache.get_or_compute("k", lambda: calls.append(1)) is None
    assert len(calls) == 1
    assert (cache.hits, cache.misses) == (2, 1)


def test_rejects_empty_capacity():
    with pytest.raises(ValueError):
        PartialResultCache(maxsize=0)


class _Key:
    """A key hashed in Python code, so a thread switch can land inside
    any dict operation on it (as it can for keys holding such objects)."""

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, _Key) and other.n == self.n


def test_two_threads_share_a_one_entry_cache():
    """Each thread asks for its own key, so every insert evicts the other
    thread's entry — racing that thread's hit between finding its key
    and reading it. No lookup may fail, every value must be exact, and
    every call is counted once."""
    cache = PartialResultCache(maxsize=1)
    keys = [_Key(0), _Key(1)]
    rounds = 50000
    errors = []
    wrong = []

    def work(key):
        try:
            for _ in range(rounds):
                value = cache.get_or_compute(key, lambda: key.n * 10 + 7)
                if value != key.n * 10 + 7:
                    wrong.append((key.n, value))
        except Exception as exc:  # the failure this test exists to catch
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert wrong == []
    assert cache.hits + cache.misses == 2 * rounds
    assert len(cache) == 1
