"""A simple R-tree over axis-aligned rectangles.

Used in two roles, mirroring the paper:

* as the multi-dimensional baseline the SP-GiST experiments compare against
  (Section 7.1), and
* as the 3-sided range structure inside the SBC-tree prototype — the paper
  states "the SBC-tree index is prototyped in PostgreSQL with an R-tree in
  place of the 3-sided structure" (Section 7.2).

Node accesses are counted as logical I/O via :class:`IndexStatistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import IndexError_
from repro.index.btree import IndexStatistics

#: Default maximum number of entries per node.
DEFAULT_MAX_ENTRIES = 16


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (works for points: min == max)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise IndexError_(f"degenerate rectangle {self!r}")

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        return cls(x, y, x, y)

    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.min_x, other.min_x), min(self.min_y, other.min_y),
                    max(self.max_x, other.max_x), max(self.max_y, other.max_y))

    def enlargement(self, other: "Rect") -> float:
        return self.union(other).area() - self.area()

    def intersects(self, other: "Rect") -> bool:
        return not (self.max_x < other.min_x or other.max_x < self.min_x or
                    self.max_y < other.min_y or other.max_y < self.min_y)

    def min_distance_to(self, x: float, y: float) -> float:
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return math.hypot(dx, dy)


class _RNode:
    __slots__ = ("is_leaf", "entries", "children", "bounds")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[Tuple[Rect, Any]] = []
        self.children: List["_RNode"] = []
        self.bounds: Optional[Rect] = None

    def recompute_bounds(self) -> None:
        rects = ([rect for rect, _ in self.entries] if self.is_leaf
                 else [child.bounds for child in self.children if child.bounds])
        if not rects:
            self.bounds = None
            return
        bounds = rects[0]
        for rect in rects[1:]:
            bounds = bounds.union(rect)
        self.bounds = bounds


class RTree:
    """An R-tree with quadratic-ish split and logical I/O accounting."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 4:
            raise IndexError_("R-tree max_entries must be at least 4")
        self.max_entries = max_entries
        self.stats = IndexStatistics()
        self._root = self._new_node(is_leaf=True)
        self._size = 0

    def _new_node(self, is_leaf: bool) -> _RNode:
        self.stats.nodes_allocated += 1
        return _RNode(is_leaf)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, value: Any) -> None:
        split = self._insert(self._root, rect, value)
        if split is not None:
            left, right = split
            new_root = self._new_node(is_leaf=False)
            new_root.children = [left, right]
            new_root.recompute_bounds()
            self._root = new_root
            self.stats.node_writes += 1
        self._size += 1

    def insert_point(self, x: float, y: float, value: Any) -> None:
        self.insert(Rect.point(x, y), value)

    def _insert(self, node: _RNode, rect: Rect, value: Any) -> Optional[Tuple[_RNode, _RNode]]:
        self.stats.node_reads += 1
        if node.is_leaf:
            node.entries.append((rect, value))
            node.recompute_bounds()
            self.stats.node_writes += 1
            if len(node.entries) > self.max_entries:
                return self._split_leaf(node)
            return None
        best = self._choose_child(node, rect)
        split = self._insert(best, rect, value)
        if split is not None:
            left, right = split
            node.children.remove(best)
            node.children.extend([left, right])
            self.stats.node_writes += 1
            if len(node.children) > self.max_entries:
                result = self._split_inner(node)
                node.recompute_bounds()
                return result
        node.recompute_bounds()
        return None

    def _choose_child(self, node: _RNode, rect: Rect) -> _RNode:
        best, best_cost = None, None
        for child in node.children:
            bounds = child.bounds or rect
            cost = (bounds.enlargement(rect), bounds.area())
            if best_cost is None or cost < best_cost:
                best, best_cost = child, cost
        return best

    def _split_leaf(self, node: _RNode) -> Tuple[_RNode, _RNode]:
        self.stats.node_splits += 1
        entries = sorted(node.entries, key=lambda e: (e[0].min_x, e[0].min_y))
        middle = len(entries) // 2
        left, right = self._new_node(True), self._new_node(True)
        left.entries, right.entries = entries[:middle], entries[middle:]
        left.recompute_bounds()
        right.recompute_bounds()
        self.stats.node_writes += 2
        return left, right

    def _split_inner(self, node: _RNode) -> Tuple[_RNode, _RNode]:
        self.stats.node_splits += 1
        children = sorted(node.children,
                          key=lambda c: (c.bounds.min_x if c.bounds else 0.0,
                                         c.bounds.min_y if c.bounds else 0.0))
        middle = len(children) // 2
        left, right = self._new_node(False), self._new_node(False)
        left.children, right.children = children[:middle], children[middle:]
        left.recompute_bounds()
        right.recompute_bounds()
        self.stats.node_writes += 2
        return left, right

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, query: Rect) -> List[Tuple[Rect, Any]]:
        """Every entry whose rectangle intersects ``query``."""
        results: List[Tuple[Rect, Any]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.node_reads += 1
            if node.bounds is not None and not node.bounds.intersects(query):
                continue
            if node.is_leaf:
                for rect, value in node.entries:
                    if rect.intersects(query):
                        results.append((rect, value))
            else:
                for child in node.children:
                    if child.bounds is None or child.bounds.intersects(query):
                        stack.append(child)
        return results

    def point_search(self, x: float, y: float) -> List[Any]:
        return [value for _, value in self.range_search(Rect.point(x, y))]

    def knn(self, x: float, y: float, k: int) -> List[Tuple[float, Any]]:
        """The ``k`` entries nearest to (x, y), as (distance, value) pairs."""
        import heapq
        heap: List[Tuple[float, int, Any]] = []
        counter = 0
        candidates: List[Tuple[float, int, _RNode]] = [(0.0, counter, self._root)]
        results: List[Tuple[float, Any]] = []
        while candidates and len(results) < k:
            distance, _, node = heapq.heappop(candidates)
            self.stats.node_reads += 1
            if node.is_leaf:
                for rect, value in node.entries:
                    counter += 1
                    heapq.heappush(heap, (rect.min_distance_to(x, y), counter, value))
            else:
                for child in node.children:
                    if child.bounds is None:
                        continue
                    counter += 1
                    heapq.heappush(
                        candidates,
                        (child.bounds.min_distance_to(x, y), counter, child),
                    )
            # Pop confirmed results: leaf entries closer than the next node.
            next_node_distance = candidates[0][0] if candidates else float("inf")
            while heap and heap[0][0] <= next_node_distance and len(results) < k:
                best_distance, _, value = heapq.heappop(heap)
                results.append((best_distance, value))
        while heap and len(results) < k:
            best_distance, _, value = heapq.heappop(heap)
            results.append((best_distance, value))
        return results
