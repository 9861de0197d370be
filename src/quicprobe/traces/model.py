"""Trace data model and persistence.

One JSON file per scenario execution, one directory per run date. Unknown
fields survive a read/write cycle so traces from newer tools degrade
gracefully.
"""

from __future__ import annotations

import hashlib
import json
import os
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

# UTC milliseconds from 0001-01-01 to the end of 9999-12-31: what ``Trace.date`` can read
_STARTED_AT_RANGE = range(-62_135_596_800_000, 253_402_300_800_000)


def outcome(code: int) -> str:
    """The band of an error code: "success" (0), "failure" (1-199: the
    tested mechanism misbehaved) or "error" (any other code: the
    prerequisite errors 200-255 and codes outside every band)."""
    if code == 0:
        return "success"
    return "failure" if 1 <= code <= 199 else "error"


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

    @property
    def target_name(self) -> str:
        return self.target.get("name", "unknown")

    @property
    def key(self) -> tuple[str, str, str]:
        """(date, target name, scenario): what a corpus holds one trace of."""
        return (self.date, self.target_name, self.scenario)

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
        """The trace a JSON document holds. A missing required field raises
        KeyError; a field that the corpus index, the metrics or the grid
        read and that has the wrong type raises ValueError, with a one-line
        reason."""
        trace = cls(
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
        # bool is a subclass of int, but JSON true is not a number
        if type(trace.started_at) is not int or trace.started_at not in _STARTED_AT_RANGE:
            raise ValueError("started_at is not an integer of UTC milliseconds in years 1-9999")
        if not isinstance(trace.scenario, str):
            raise ValueError("scenario is not a string")
        if not isinstance(trace.target, dict) or not isinstance(trace.target_name, str):
            raise ValueError("target is not an object with a string name")
        if type(trace.error_code) is not int:
            raise ValueError("error_code is not an integer")
        if not isinstance(trace.results, dict):
            raise ValueError("results is not an object")
        versions = trace.results.get("versions", [])
        if not isinstance(versions, list) or any(type(v) is not int for v in versions):
            raise ValueError("results.versions is not a list of integers")
        return trace


class TraceBuilder:
    """Collects one scenario run. A builder belongs to one scenario on one
    thread: ``run_suite`` runs each scenario in its own thread, so appends
    need no lock."""

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
    """``<target>_<scenario>.json``; a target name that needed sanitizing
    gets a short hash of the raw name, so ``a b`` and ``a_b`` differ."""
    name = trace.target_name
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    if safe != name:
        safe += "-" + hashlib.sha256(name.encode()).hexdigest()[:8]
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
    """Traces indexed by (date, target name, scenario). A key holds one
    trace: of several with the same key the first is kept."""

    traces: list[Trace] = field(default_factory=list)

    def __post_init__(self):
        given, self.traces = self.traces, []
        self._index: dict[str, dict[str, dict[str, Trace]]] = {}
        self._paths: dict[tuple[str, str, str], str] = {}
        for trace in given:
            self.add(trace)

    def add(self, trace: Trace, path: str | None = None) -> bool:
        """Index and keep ``trace``, read from ``path`` below the corpus
        root; False, keeping nothing, if its key is taken."""
        date, target, scenario = trace.key
        by_scenario = self._index.setdefault(date, {}).setdefault(target, {})
        if scenario in by_scenario:
            return False
        by_scenario[scenario] = trace
        self.traces.append(trace)
        if path is not None:
            self._paths[date, target, scenario] = path
        return True

    def path(self, date: str, target: str, scenario: str) -> str:
        """Where the trace of a key lies below the corpus root: the file it
        was read from, else where ``write_trace`` puts it."""
        key = (date, target, scenario)
        return self._paths.get(key) or f"{date}/{trace_filename(self.get(*key))}"

    def dates(self) -> list[str]:
        return sorted(self._index)

    def targets(self, date: str) -> list[str]:
        return sorted(self._index.get(date, ()))

    def by_target(self, date: str) -> dict[str, dict[str, Trace]]:
        """target -> scenario -> trace for one date, in target order."""
        by_target = self._index.get(date, {})
        return {target: by_target[target] for target in sorted(by_target)}

    def get(self, date: str, target: str, scenario: str) -> Trace | None:
        return self._index.get(date, {}).get(target, {}).get(scenario)


def read_corpus(root: str | Path) -> tuple[RunCorpus, list[str]]:
    """Read every ``*.json`` file below ``root`` in path order, which
    compares paths component by component as ``Path`` does. Malformed or
    unreadable files, directories that cannot be listed, and duplicates of
    a key already read are skipped and reported in the returned warning
    list."""
    corpus = RunCorpus()
    warnings: list[str] = []
    root = Path(root)
    prefix = str(root / "x")[:-1]  # the root's share of each path found below it
    below = len(os.path.join(root, ""))  # the length of its share of each os.walk directory

    def warn(path, exc: Exception) -> None:
        # str, not repr: the repr of a UnicodeDecodeError holds the whole input
        warnings.append(f"{path}: {type(exc).__name__}: {exc}")

    found: list[str] = []  # paths relative to root
    for dirpath, _, names in os.walk(root, onerror=lambda exc: warn(exc.filename, exc)):
        base = os.path.join(dirpath[below:], "")
        found.extend(base + name for name in names if name.endswith(".json"))
    found.sort(key=lambda rel: rel.split(os.sep))
    for rel in found:
        path = prefix + rel
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.readall()
            # decoded here, not by json.loads, which would also take a BOM or UTF-16
            trace = Trace.from_json(json.loads(data.decode("utf-8")))
            if not corpus.add(trace, rel):
                warnings.append(f"{path}: duplicate trace for {trace.key}, keeping the first")
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
            warn(path, exc)
    return corpus, warnings
