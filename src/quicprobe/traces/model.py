"""Trace data model and persistence.

One JSON file per scenario execution, one directory per run date. Unknown
fields survive a read/write cycle so traces from newer tools degrade
gracefully.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

TRACE_FORMAT = 1

_KNOWN_FIELDS = {
    "format",
    "scenario",
    "scenario_version",
    "target",
    "started_at",
    "duration_ms",
    "error_code",
    "results",
    "packets",
    "notes",
}


@dataclass
class Trace:
    scenario: str
    scenario_version: int
    target: dict  # name, host, port, ip
    started_at: int  # UTC milliseconds
    duration_ms: int
    error_code: int
    results: dict = field(default_factory=dict)
    packets: list[dict] = field(default_factory=list)
    notes: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def date(self) -> str:
        return (
            datetime.fromtimestamp(self.started_at / 1000, tz=timezone.utc).date().isoformat()
        )

    def to_json(self) -> dict:
        doc = {
            "format": TRACE_FORMAT,
            "scenario": self.scenario,
            "scenario_version": self.scenario_version,
            "target": self.target,
            "started_at": self.started_at,
            "duration_ms": self.duration_ms,
            "error_code": self.error_code,
            "results": self.results,
            "packets": self.packets,
            "notes": self.notes,
        }
        doc.update(self.extra)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Trace":
        return cls(
            scenario=doc["scenario"],
            scenario_version=doc.get("scenario_version", 1),
            target=doc.get("target", {}),
            started_at=doc["started_at"],
            duration_ms=doc.get("duration_ms", 0),
            error_code=doc["error_code"],
            results=doc.get("results", {}),
            packets=doc.get("packets", []),
            notes=doc.get("notes", []),
            extra={k: v for k, v in doc.items() if k not in _KNOWN_FIELDS},
        )


class TraceBuilder:
    """Collects one scenario run. A builder belongs to one scenario on one
    thread: ``run_suite`` gives each target thread its own builders, so
    appends need no lock."""

    def __init__(self, scenario: str, scenario_version: int, target: dict):
        self.scenario = scenario
        self.scenario_version = scenario_version
        self.target = target
        self.started_at = int(time.time() * 1000)
        self._t0 = time.monotonic()
        self.packets: list[dict] = []
        self.notes: list[dict] = []

    def _offset_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def log_packet(self, direction: str, level: str, cleartext: bytes, dcid_len: int) -> None:
        entry = {
            "direction": direction,
            "timestamp_ms": self._offset_ms(),
            "level": level,
            "cleartext_hex": cleartext.hex(),
            "dcid_len": dcid_len,
        }
        self.packets.append(entry)

    def log_undecryptable(self, level: str, raw: bytes) -> None:
        entry = {
            "direction": "rx",
            "timestamp_ms": self._offset_ms(),
            "level": level,
            "decrypt_error": True,
            "ciphertext_hex": raw.hex(),
        }
        self.packets.append(entry)

    def note(self, kind: str, detail) -> None:
        self.notes.append({"timestamp_ms": self._offset_ms(), "kind": kind, "detail": detail})

    def finalize(self, error_code: int, results: dict | None = None) -> Trace:
        return Trace(
            scenario=self.scenario,
            scenario_version=self.scenario_version,
            target=self.target,
            started_at=self.started_at,
            duration_ms=self._offset_ms(),
            error_code=error_code,
            results=results or {},
            packets=self.packets,
            notes=self.notes,
        )


def trace_filename(trace: Trace) -> str:
    target = trace.target.get("name", "unknown")
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in target)
    return f"{safe}_{trace.scenario}.json"


def write_trace(trace: Trace, out_dir: str | Path) -> Path:
    """Write one trace under ``out_dir/<run date>/``."""
    day_dir = Path(out_dir) / trace.date
    day_dir.mkdir(parents=True, exist_ok=True)
    path = day_dir / trace_filename(trace)
    with open(path, "w") as fh:
        json.dump(trace.to_json(), fh, indent=1)
    return path


@dataclass
class RunCorpus:
    """Traces grouped by run date and target; (date, target, scenario) unique."""

    traces: list[Trace] = field(default_factory=list)

    def dates(self) -> list[str]:
        return sorted({t.date for t in self.traces})

    def targets(self, date: str | None = None) -> list[str]:
        return sorted(
            {
                t.target.get("name", "unknown")
                for t in self.traces
                if date is None or t.date == date
            }
        )

    def get(self, date: str, target: str, scenario: str) -> Trace | None:
        for t in self.traces:
            if t.date == date and t.target.get("name") == target and t.scenario == scenario:
                return t
        return None

    def on_date(self, date: str) -> list[Trace]:
        return [t for t in self.traces if t.date == date]


def read_corpus(root: str | Path) -> tuple[RunCorpus, list[str]]:
    """Read every trace below ``root``. Malformed files are skipped and
    reported in the returned warning list."""
    corpus = RunCorpus()
    warnings: list[str] = []
    seen: set[tuple[str, str, str]] = set()
    for path in sorted(Path(root).glob("**/*.json")):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            trace = Trace.from_json(doc)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            warnings.append(f"{path}: {exc!r}")
            continue
        key = (trace.date, trace.target.get("name", "unknown"), trace.scenario)
        if key in seen:
            warnings.append(f"{path}: duplicate trace for {key}, keeping the first")
            continue
        seen.add(key)
        corpus.traces.append(trace)
    return corpus, warnings
