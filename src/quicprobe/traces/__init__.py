"""Trace model, persistence and the postprocess analytics."""

from .grid import render_grid
from .metrics import (
    OutcomeRow,
    VersionsTable,
    handshake_success_to_csv,
    metric_handshake_success,
    metric_outcomes,
    metric_versions_over_time,
    outcomes_to_csv,
)
from .model import (
    INDEX_NAME,
    CorpusEntry,
    RunCorpus,
    Trace,
    TraceBuilder,
    outcome,
    read_corpus,
    read_trace,
    trace_filename,
    write_trace,
)

__all__ = [
    "INDEX_NAME",
    "CorpusEntry",
    "OutcomeRow",
    "RunCorpus",
    "Trace",
    "TraceBuilder",
    "VersionsTable",
    "handshake_success_to_csv",
    "metric_handshake_success",
    "metric_outcomes",
    "metric_versions_over_time",
    "outcome",
    "outcomes_to_csv",
    "read_corpus",
    "read_trace",
    "render_grid",
    "trace_filename",
    "write_trace",
]
