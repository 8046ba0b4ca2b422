"""Execution layer: annotated rows, physical operators, and the engine."""

from repro.executor.engine import Engine, EngineConfig, ExecutionSummary
from repro.executor.row import ColumnInfo, OutputSchema, Row

__all__ = [
    "Engine",
    "EngineConfig",
    "ExecutionSummary",
    "ColumnInfo",
    "OutputSchema",
    "Row",
]
