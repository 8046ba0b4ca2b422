"""A bucket-chained hash index: the second classical baseline access method.

Supports only equality lookups, which is exactly why the paper argues for
richer access methods (tries, kd-trees, quadtrees, the SBC-tree) for
biological workloads.  Bucket accesses are counted as logical I/O.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.index.btree import IndexStatistics

K = TypeVar("K")
V = TypeVar("V")

#: Default number of initial buckets.
DEFAULT_BUCKETS = 64
#: Load factor at which the directory doubles.
MAX_LOAD_FACTOR = 4.0


class HashIndex(Generic[K, V]):
    """A chained hash table with doubling and logical I/O accounting."""

    def __init__(self, num_buckets: int = DEFAULT_BUCKETS):
        self.stats = IndexStatistics()
        self._buckets: List[List[Tuple[K, V]]] = [[] for _ in range(num_buckets)]
        self.stats.nodes_allocated = num_buckets
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def _chain_for(self, key: K) -> List[Tuple[K, V]]:
        index = hash(key) % len(self._buckets)
        self.stats.node_reads += 1
        return self._buckets[index]

    # ------------------------------------------------------------------
    def insert(self, key: K, value: V) -> None:
        bucket = self._chain_for(key)
        bucket.append((key, value))
        self.stats.node_writes += 1
        self._size += 1
        if self._size / len(self._buckets) > MAX_LOAD_FACTOR:
            self._grow()

    def _grow(self) -> None:
        entries = [entry for bucket in self._buckets for entry in bucket]
        new_size = len(self._buckets) * 2
        self._buckets = [[] for _ in range(new_size)]
        self.stats.nodes_allocated += new_size
        for key, value in entries:
            index = hash(key) % new_size
            self._buckets[index].append((key, value))
            self.stats.node_writes += 1

    def delete(self, key: K, value: Optional[V] = None) -> int:
        bucket = self._chain_for(key)
        before = len(bucket)
        if value is None:
            bucket[:] = [(k, v) for k, v in bucket if k != key]
        else:
            bucket[:] = [(k, v) for k, v in bucket if not (k == key and v == value)]
        removed = before - len(bucket)
        if removed:
            self.stats.node_writes += 1
            self._size -= removed
        return removed

    # ------------------------------------------------------------------
    def search(self, key: K) -> List[V]:
        bucket = self._chain_for(key)
        return [value for k, value in bucket if k == key]

    def items(self) -> Iterator[Tuple[K, V]]:
        for bucket in self._buckets:
            yield from bucket
