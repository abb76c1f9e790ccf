"""A bounded least-recently-used map.

The serve daemon's per-file scope artifacts and per-function fact
digests (``repro.sa.scopes``) are kept in one.  The implementation keeps
an ``OrderedDict``, moving hits to the back and evicting from the front
when capacity is exceeded ("least used keys are moved away").  The
closure's constraint verdicts are not: they are stored by encoding id
(``GraphEngine._feasible_ids``), which bounds them without eviction.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """A bounded least-recently-used map."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """The cached value, or None.  Counts hit/miss statistics."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert/refresh an entry, evicting the least recently used
        one when capacity is exceeded."""
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self.evictions += 1
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
