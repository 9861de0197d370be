"""Longitudinal metrics over a trace corpus.

All three metrics are pure functions of the corpus: announced versions
per date, handshake successes per date, and the outcome percentages of
post-handshake tests restricted to endpoints whose same-date handshake
succeeded.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

from .model import RunCorpus, Trace, outcome


def _requires_handshake_scenarios() -> set[str]:
    from ..scenarios import ALL_SCENARIOS  # late import: scenarios depend on traces

    return {name for name, cls in ALL_SCENARIOS.items() if cls.requires_handshake}


def csv_text(header: list[str], rows) -> str:
    """One CSV document: the header row, then ``rows``."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _handshake_ok(by_scenario: dict[str, Trace]) -> bool:
    trace = by_scenario.get("handshake")
    return trace is not None and trace.error_code == 0


@dataclass
class VersionsTable:
    rows: list[tuple[str, int, int]]  # (date, version, endpoints announcing it)
    tested: list[tuple[str, int]]  # (date, endpoints tested)

    def to_csv(self) -> str:
        return csv_text(
            ["date", "version", "endpoints"],
            [(date, f"0x{version:08x}", count) for date, version, count in self.rows],
        )

    def tested_to_csv(self) -> str:
        return csv_text(["date", "endpoints_tested"], self.tested)


def metric_versions_over_time(corpus: RunCorpus) -> VersionsTable:
    """Per date, how many endpoints announced each version; an endpoint
    announcing several versions counts once per version."""
    rows: list[tuple[str, int, int]] = []
    tested: list[tuple[str, int]] = []
    for date in corpus.dates():
        by_target = corpus.by_target(date)
        tested.append((date, len(by_target)))
        counts: Counter[int] = Counter()
        for by_scenario in by_target.values():
            trace = by_scenario.get("version_negotiation")
            if trace is not None:
                counts.update(set(trace.results.get("versions") or []))
        rows += [(date, version, counts[version]) for version in sorted(counts)]
    return VersionsTable(rows=rows, tested=tested)


def metric_handshake_success(corpus: RunCorpus) -> list[tuple[str, int]]:
    """Per date, how many endpoints completed the handshake test."""
    return [
        (date, sum(map(_handshake_ok, corpus.by_target(date).values())))
        for date in corpus.dates()
    ]


def handshake_success_to_csv(rows: list[tuple[str, int]]) -> str:
    return csv_text(["date", "handshake_success"], rows)


@dataclass
class OutcomeRow:
    date: str
    success_pct: float
    failure_pct: float
    error_pct: float
    endpoints: int  # qualifying (handshake-succeeding) endpoints
    tests: int  # post-handshake test executions counted


def metric_outcomes(
    corpus: RunCorpus, scenario_names: set[str] | None = None
) -> list[OutcomeRow]:
    """Success/failure/error percentages over the tests that require a
    completed handshake, keeping only endpoints whose same-date handshake
    test succeeded. Dates without a qualifying endpoint are omitted."""
    if scenario_names is None:
        scenario_names = _requires_handshake_scenarios()
    out = []
    for date in corpus.dates():
        qualifying = [s for s in corpus.by_target(date).values() if _handshake_ok(s)]
        counts = Counter(
            outcome(trace.error_code)
            for by_scenario in qualifying
            for name, trace in by_scenario.items()
            if name in scenario_names
        )
        total = sum(counts.values())
        if total == 0:
            continue
        out.append(
            OutcomeRow(
                date=date,
                success_pct=100.0 * counts["success"] / total,
                failure_pct=100.0 * counts["failure"] / total,
                error_pct=100.0 * counts["error"] / total,
                endpoints=len(qualifying),
                tests=total,
            )
        )
    return out


def outcomes_to_csv(rows: list[OutcomeRow]) -> str:
    return csv_text(
        ["date", "success_pct", "failure_pct", "error_pct", "endpoints", "tests"],
        [
            (
                row.date,
                f"{row.success_pct:.1f}",
                f"{row.failure_pct:.1f}",
                f"{row.error_pct:.1f}",
                row.endpoints,
                row.tests,
            )
            for row in rows
        ],
    )
