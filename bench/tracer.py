"""Call tracing for the per-layer numbers, installed from outside the program.

``Tracer.install`` replaces every public function of the traced layers
in every module namespace that binds it, so each wrapper carries the
name it is called through (``quicprobe.conn.connection.protect`` and
``quicprobe.faultsrv.server.protect`` are two call sites of one
function). Functions of ``wire.varint`` and ``Trace.date`` are counted
rather than spanned. A few methods that the per-layer metrics name are
wrapped on their classes. Spans go to per-thread buffers in memory;
``summary`` derives self time from them after the run, and ``dump``
writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from array import array
from pathlib import Path

LAYERS = ("wire", "protection", "conn", "scenarios", "traces", "faultsrv", "cli")
# Leaf functions that cost less than a span does: a span would mostly
# time itself and inflate every caller, so their calls are only counted.
COUNTED_MODULES = ("quicprobe.wire.varint",)


class _Buffer:
    """Spans of one thread, in the order they started."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []  # span name by id: the call-site name
        self.keys: list[str] = []  # span key by id: layer.function
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._counts: dict[str, itertools.count] = {}
        self.bytes_tx = 0
        self.bytes_rx = 0

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str, key: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.keys.append(key)
        return self._ids[name]

    def wrap(self, fn, name: str, key: str):
        nid = self._name_id(name, key)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            idx = len(buf.starts)
            buf.name_ids.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0)
            buf.stack.append(idx)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                buf.stack.pop()

        return traced

    def count(self, fn, key: str):
        counter = self._counts.setdefault(key, itertools.count())
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                next(counter)
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced layers; call after every module of the program
        the workload uses has been imported."""
        import select as select_module

        from quicprobe.conn import connection
        from quicprobe.scenarios import ALL_SCENARIOS
        from quicprobe.traces import model

        for module_name, module in sorted(sys.modules.items()):
            parts = module_name.split(".")
            if parts[0] != "quicprobe" or len(parts) < 2 or parts[1] not in LAYERS:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__.split(".")
                if home[0] != "quicprobe" or len(home) < 2 or home[1] not in LAYERS:
                    continue
                key = f"{home[1]}.{value.__name__}"
                if value.__module__ in COUNTED_MODULES:
                    setattr(module, attr, self.count(value, key))
                else:
                    setattr(module, attr, self.wrap(value, f"{module_name}.{attr}", key))

        for cls, attr, key in (
            (connection.Connection, "pump", "conn.Connection.pump"),
            (model.RunCorpus, "get", "traces.RunCorpus.get"),
            (model.TraceBuilder, "log_packet", "traces.TraceBuilder.log_packet"),
        ):
            setattr(cls, attr, self.wrap(vars(cls)[attr], f"{cls.__module__}.{cls.__name__}.{attr}", key))
        for name, cls in ALL_SCENARIOS.items():
            key = f"scenarios.{name}.run"
            cls.run = self.wrap(vars(cls)["run"], f"{cls.__module__}.{cls.__name__}.run", key)

        # the select inside Connection.pump is where the client waits
        connection.select = types.SimpleNamespace(
            select=self.wrap(select_module.select, "quicprobe.conn.connection.select.select", "conn.select")
        )

        model.Trace.date = property(self.count(model.Trace.date.fget, "traces.Trace.date"))

        tracer = self
        stop = connection.Connection.stop

        def counting_stop(conn):
            if tracer.enabled and conn.sock is not None:
                tracer.bytes_tx += conn.bytes_sent
                tracer.bytes_rx += conn.bytes_received
            return stop(conn)

        connection.Connection.stop = counting_stop

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span key: calls, inclusive time and self time in seconds;
        counted functions have calls only. Call once: it reads the counters.
        Times are raw: they include the cost of the spans nested inside."""
        out: dict[str, dict[str, float]] = {}
        for buf in self._buffers:
            n = len(buf.starts)
            child_ns = [0] * n
            for i in range(n):
                parent = buf.parents[i]
                if parent >= 0:
                    child_ns[parent] += buf.ends[i] - buf.starts[i]
            for i in range(n):
                key = self.keys[buf.name_ids[i]]
                row = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                dur = buf.ends[i] - buf.starts[i]
                row["calls"] += 1
                row["incl_s"] += dur / 1e9
                row["self_s"] += (dur - child_ns[i]) / 1e9
        for key, counter in self._counts.items():
            out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})["calls"] += next(counter)
        return out

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then per thread the raw
        name-id, parent, start and end arrays (int64, native order)."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "keys": self.keys,
                "threads": [
                    {"name": buf.thread_name, "spans": len(buf.starts)} for buf in self._buffers
                ],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                for column in (buf.name_ids, buf.parents, buf.starts, buf.ends):
                    array("q", column).tofile(fh)
