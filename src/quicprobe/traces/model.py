"""Trace data model and persistence.

One JSON file per scenario execution, one directory per run date. Unknown
fields survive a read/write cycle so traces from newer tools degrade
gracefully. Beside the traces, the corpus root keeps the verdict index
(``INDEX_NAME``), so a report decodes only the traces that are new or
changed since the last one.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ..protection import sha256

TRACE_FORMAT = 1
INDEX_NAME = ".quicprobe-index"  # in the corpus root; not ``*.json``, so no walk takes it for a trace
# Bump this when what a record holds or how ``_indexed`` checks it, the
# checks of ``Trace.from_json`` or what ``RunCorpus.add`` keeps of a trace
# change: a record holds a verdict, not the fields it came from, so records
# of another format are read as absent and the next report decodes every
# trace. tests/test_traces.py checks that a record decides a trace as the
# whole file does.
_INDEX_FORMAT = 2
# A file changed less than this long before a report started can be
# changed again later in the same clock tick, under the same stamp (git's
# "racily clean" rule); 2 s covers the coarsest file-system clock.
_RACY_NS = 2_000_000_000
_clock_ns = time.time_ns  # when a report starts

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
# the values of the 32-bit Version field of a long header (RFC 9000 section 15)
_VERSION_RANGE = range(0x1_0000_0000)


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
        if any(v not in _VERSION_RANGE for v in versions):
            raise ValueError("results.versions holds a number outside the 32-bit version field")
        return trace


class TraceBuilder:
    """Collects one scenario run. A builder belongs to one scenario on one
    thread: ``run_suite`` runs every scenario on one loop in the calling
    thread, so appends need no lock."""

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
        safe += "-" + sha256(name.encode()).hex()[:8]
    return f"{safe}_{trace.scenario}.json"


def _write_atomically(path: Path, write) -> None:
    """Call ``write`` on a new text file beside ``path``, named without
    ``.json``, then rename that file to ``path``. If anything fails, the
    new file is removed and ``path`` is left as it was."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(trace: Trace, out_dir: str | Path) -> Path:
    """Write one trace under ``out_dir/<run date>/``, atomically: a failed
    write leaves the file that was there, and a rewritten trace is a new
    file (a new inode), which the verdict index sees."""
    day_dir = Path(out_dir) / trace.date
    day_dir.mkdir(parents=True, exist_ok=True)
    path = day_dir / trace_filename(trace)
    text = _trace_text(trace.to_json())
    _write_atomically(path, lambda fh: fh.write(text))
    return path


def _trace_text(doc: dict) -> str:
    """A trace document as the file holds it: one top-level field per
    line, and one packet or note per line, each encoded by ``json.dumps``
    (whose C encoder ``indent`` would switch off)."""
    fields = []
    for key, value in doc.items():
        if key in ("packets", "notes") and value:
            items = ",\n".join(map(json.dumps, value))
            fields.append(f"{json.dumps(key)}: [\n{items}\n]")
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    """What the report reads of one trace: its code, the versions it
    recorded (``results.versions``) and its path below the corpus root."""

    error_code: int
    versions: tuple[int, ...]
    path: str


def _keyed_entry(trace: Trace, path: str | None) -> tuple[tuple[str, str, str], CorpusEntry]:
    """The key of ``trace``, evaluated once, and what a corpus keeps of it."""
    date, _, _ = key = trace.key
    entry = CorpusEntry(
        error_code=trace.error_code,
        versions=tuple(trace.results.get("versions") or ()),
        path=path or f"{date}/{trace_filename(trace)}",
    )
    return key, entry


class RunCorpus:
    """An index of verdicts by (date, target name, scenario): one
    ``CorpusEntry`` per key, built from the first trace added with that
    key. The traces themselves are not kept, so a report's memory grows
    with the number of verdicts, not with the bytes of their packet logs.

    ``read_corpus`` counts how it read the corpus: ``from_index`` traces
    taken from the verdict index, ``decoded`` files read by ``read_trace``."""

    def __init__(self, traces: Iterable[Trace] = ()):
        self._index: dict[str, dict[str, dict[str, CorpusEntry]]] = {}
        self.from_index = 0
        self.decoded = 0
        for trace in traces:
            self.add(trace)

    def __len__(self) -> int:
        return sum(
            len(by_scenario) for by_target in self._index.values() for by_scenario in by_target.values()
        )

    def add(self, trace: Trace, path: str | None = None) -> bool:
        """Index ``trace``, read from ``path`` below the corpus root (else
        where ``write_trace`` puts it); False, indexing nothing, if its key
        is taken."""
        return self._put(*_keyed_entry(trace, path))

    def _put(self, key: tuple[str, str, str], entry: CorpusEntry) -> bool:
        date, target, scenario = key
        by_scenario = self._index.setdefault(date, {}).setdefault(target, {})
        if scenario in by_scenario:
            return False
        by_scenario[scenario] = entry
        return True

    def path(self, date: str, target: str, scenario: str) -> str:
        """Where the trace of a key lies below the corpus root."""
        return self.get(date, target, scenario).path

    def dates(self) -> list[str]:
        return sorted(self._index)

    def targets(self, date: str) -> list[str]:
        return sorted(self._index.get(date, ()))

    def by_target(self, date: str) -> dict[str, dict[str, CorpusEntry]]:
        """target -> scenario -> entry for one date, in target order."""
        by_target = self._index.get(date, {})
        return {target: by_target[target] for target in sorted(by_target)}

    def get(self, date: str, target: str, scenario: str) -> CorpusEntry | None:
        return self._index.get(date, {}).get(target, {}).get(scenario)


def read_trace(path: str | Path) -> Trace:
    """The trace in one file: read in one unbuffered binary read, decoded
    as strict UTF-8 (not by ``json.loads``, which would also take a BOM or
    UTF-16), then checked by ``Trace.from_json``."""
    with open(path, "rb", buffering=0) as fh:
        return _decoded(fh)


def _decoded(fh) -> Trace:
    """The trace in a file opened as ``read_trace`` opens it."""
    return Trace.from_json(json.loads(fh.readall().decode("utf-8")))


def _load_index(path: Path) -> dict:
    """The records of the verdict index at ``path``: empty if it is
    missing, unreadable or of another format. Each record is checked only
    when it is used."""
    try:
        with open(path, "rb", buffering=0) as fh:
            doc = json.loads(fh.readall())
    except (OSError, ValueError, RecursionError):
        return {}
    if type(doc) is dict and doc.get("format") == _INDEX_FORMAT and type(doc.get("traces")) is dict:
        return doc["traces"]
    return {}


def _stamp(file: str | int, racy_after_ns: int) -> list[int] | None:
    """The stat stamp of a file, given by path or by the descriptor it is
    read from (``os.stat`` of a descriptor is ``os.fstat``); None if it
    cannot be stat'ed or changed after ``racy_after_ns``, so that it is
    not to be taken from the verdict index nor put in it."""
    try:
        st = os.stat(file)
    except OSError:
        return None  # opening the file meets the same error and warns about it
    if st.st_ctime_ns > racy_after_ns:
        return None
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


# what ``Trace.date`` gives; a report names a grid file after it
_is_date = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


def _indexed(record, stamp: list[int] | None, rel: str) -> tuple[tuple[str, str, str], CorpusEntry] | None:
    """The key and entry of the trace at ``rel`` that a verdict-index
    record holds, if the record is ``[*stamp, date, target name, scenario,
    error code, versions]`` and each value has the type and range that
    ``Trace.from_json`` and ``RunCorpus.add`` would give it."""
    if stamp is None or type(record) is not list or len(record) != 9 or record[:4] != stamp:
        return None
    date, target, scenario, code, versions = record[4:]
    if (
        type(date) is str
        and _is_date(date)
        and type(target) is str
        and type(scenario) is str
        and type(code) is int  # bool is a subclass of int, but JSON true is not a number
        and type(versions) is list
        and all(type(v) is int and v in _VERSION_RANGE for v in versions)
    ):
        return (date, target, scenario), CorpusEntry(code, tuple(versions), rel)
    return None


def read_corpus(root: str | Path) -> tuple[RunCorpus, list[str]]:
    """Index every ``*.json`` file below ``root`` in path order, which
    compares paths component by component as ``Path`` does. Malformed or
    unreadable files, directories that cannot be listed, and duplicates of
    a key already read are skipped and reported in the returned warning
    list.

    A file whose stat stamp (size, mtime, ctime, inode) matches its record
    in the verdict index, ``root/INDEX_NAME``, is not read: the record's
    key and entry stand in for it. Any other file is read as ``read_trace``
    reads it, its stamp taken from the open file before the read, and
    dropped once indexed. The verdict index is then written back if it
    changed, holding each indexed file that changed at least ``_RACY_NS``
    before this call; if it cannot be written, that is one more warning."""
    racy_after_ns = _clock_ns() - _RACY_NS
    corpus = RunCorpus()
    warnings: list[str] = []
    root = Path(root)
    index_path = root / INDEX_NAME
    old = _load_index(index_path)
    new: dict[str, list] = {}
    changed = False
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
        record = old.get(rel)
        try:
            stamp = None if record is None else _stamp(path, racy_after_ns)
            indexed = _indexed(record, stamp, rel)
            if indexed is not None:
                corpus.from_index += 1
            else:
                corpus.decoded += 1
                with open(path, "rb", buffering=0) as fh:
                    stamp = _stamp(fh.fileno(), racy_after_ns)
                    trace = _decoded(fh)
                indexed = _keyed_entry(trace, rel)
                record = None
            key, entry = indexed
            if not corpus._put(key, entry):
                warnings.append(f"{path}: duplicate trace for {key}, keeping the first")
            elif stamp is not None:
                if record is None:
                    record = [*stamp, *key, entry.error_code, entry.versions]
                    changed = True
                new[rel] = record
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
            warn(path, exc)
    # unless changed, every record in new is old's record of that path, so equal sizes mean equal indexes
    if changed or len(new) != len(old):
        doc = {"format": _INDEX_FORMAT, "traces": new}
        try:
            _write_atomically(index_path, lambda fh: fh.write(json.dumps(doc, separators=(",", ":"))))
        except OSError as exc:
            warnings.append(
                f"{index_path}: cannot write the verdict index: {type(exc).__name__}: {exc}"
            )
    return corpus, warnings
