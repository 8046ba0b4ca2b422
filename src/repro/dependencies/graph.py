"""Instance-level dependency graphs (paper Section 5, "Storing dependencies").

Schema-level dependencies are captured by :class:`~repro.dependencies.rules.RuleSet`.
Instance-level dependencies — "this particular protein sequence was derived
from that particular gene sequence" — are cell-by-cell edges and are stored
in a dependency graph.  The graph supports forward traversal (what is
affected when a cell changes), reverse traversal (where did a cell come
from), and procedure closure at the instance level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import DependencyError

#: An instance-level cell reference: (table, tuple id, column), lower-cased
#: table and column names.
CellKey = Tuple[str, int, str]


def cell_key(table: str, tuple_id: int, column: str) -> CellKey:
    return (table.lower(), int(tuple_id), column.lower())


@dataclass(frozen=True)
class DependencyEdge:
    """A directed edge: ``source`` cell derives ``target`` cell via ``procedure``."""

    source: CellKey
    target: CellKey
    procedure: str
    executable: bool = False

    def __str__(self) -> str:
        return (f"{self.source[0]}[{self.source[1]}].{self.source[2]} --"
                f"[{self.procedure}]--> "
                f"{self.target[0]}[{self.target[1]}].{self.target[2]}")


class DependencyGraph:
    """A directed graph over cells with procedure-labelled edges."""

    def __init__(self) -> None:
        self._forward: Dict[CellKey, List[DependencyEdge]] = {}
        self._reverse: Dict[CellKey, List[DependencyEdge]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    def add_edge(self, source: CellKey, target: CellKey, procedure: str,
                 executable: bool = False) -> DependencyEdge:
        if source == target:
            raise DependencyError(f"self-dependency on cell {source}")
        edge = DependencyEdge(source, target, procedure, executable)
        existing = self._forward.get(source, [])
        if any(e.target == target and e.procedure == procedure for e in existing):
            return edge  # idempotent
        self._forward.setdefault(source, []).append(edge)
        self._reverse.setdefault(target, []).append(edge)
        self._edge_count += 1
        return edge

    def remove_cell(self, cell: CellKey) -> int:
        """Remove every edge touching ``cell`` (e.g. after a DELETE)."""
        removed = 0
        for edge in self._forward.pop(cell, []):
            self._reverse[edge.target].remove(edge)
            removed += 1
        for edge in self._reverse.pop(cell, []):
            if edge in self._forward.get(edge.source, []):
                self._forward[edge.source].remove(edge)
                removed += 1
        return removed

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def num_cells(self) -> int:
        return len(set(self._forward) | set(self._reverse))

    # ------------------------------------------------------------------
    def dependents_of(self, cell: CellKey) -> List[DependencyEdge]:
        """Direct outgoing edges of ``cell``."""
        return list(self._forward.get(cell, []))

    def affected_closure(self, cells: Iterable[CellKey]) -> Set[CellKey]:
        """Every cell transitively reachable from ``cells`` (excluding them)."""
        visited: Set[CellKey] = set(cells)
        queue = deque(visited)
        reached: Set[CellKey] = set()
        while queue:
            current = queue.popleft()
            for edge in self._forward.get(current, []):
                if edge.target not in visited:
                    visited.add(edge.target)
                    reached.add(edge.target)
                    queue.append(edge.target)
        return reached

    def derivation_closure(self, cell: CellKey) -> Set[CellKey]:
        """Every cell the given cell transitively derives from."""
        visited: Set[CellKey] = {cell}
        queue = deque([cell])
        reached: Set[CellKey] = set()
        while queue:
            current = queue.popleft()
            for edge in self._reverse.get(current, []):
                if edge.source not in visited:
                    visited.add(edge.source)
                    reached.add(edge.source)
                    queue.append(edge.source)
        return reached

    def procedure_closure(self, procedure: str) -> Set[CellKey]:
        """Every cell that transitively depends on edges labelled ``procedure``."""
        direct = {
            edge.target
            for edges in self._forward.values()
            for edge in edges
            if edge.procedure == procedure
        }
        return direct | self.affected_closure(direct)

    def find_cycle(self) -> Optional[List[CellKey]]:
        """Return a cycle of cells if one exists."""
        WHITE, GRAY, BLACK = 0, 1, 2
        state: Dict[CellKey, int] = {}
        stack: List[CellKey] = []

        def visit(node: CellKey) -> Optional[List[CellKey]]:
            state[node] = GRAY
            stack.append(node)
            for edge in self._forward.get(node, []):
                succ = edge.target
                if state.get(succ, WHITE) == GRAY:
                    return stack[stack.index(succ):] + [succ]
                if state.get(succ, WHITE) == WHITE:
                    cycle = visit(succ)
                    if cycle is not None:
                        return cycle
            stack.pop()
            state[node] = BLACK
            return None

        for node in list(self._forward):
            if state.get(node, WHITE) == WHITE:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

    def edges(self) -> Iterable[DependencyEdge]:
        for edge_list in self._forward.values():
            yield from edge_list
