"""The host's current speed, from a fixed reference task.

This host is a shared virtual machine whose CPU speed drifts: the same
work has taken from 1x to 2.4x as long within half an hour, CPU time and
wall time alike. A CPU time measured then follows the machine, not the
program. ``Pace.sample`` times a fixed piece of pure-Python work that
imports nothing from the program; the workloads take a sample after
every timed block, outside the clock. ``factor`` scales the run's CPU
times to reference speed: the speed at which that work takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

# The reference task's CPU time at reference speed. A round figure: on a
# 2-vCPU shared VM with Python 3.11 one sample took 12-70 ms, and the
# mean over a 30-s run 27-31 ms.
REFERENCE_S = 0.020

# A packet log of about a megabyte once decoded: larger than a core's
# own cache, as the program's traces are, yet small enough that decoding
# it leaves the process's peak resident set as the program made it.
_PACKETS = json.dumps(
    [
        {
            "dir": "rx" if i % 2 else "tx",
            "t_ms": i,
            "size": 1000 + i % 300,
            "frames": [{"type": "ack", "largest": i}, {"type": "stream", "id": i % 7, "len": i % 1200}],
        }
        for i in range(1000)
    ]
)
_BLOB = bytes(range(256)) * 8


def _reference_task() -> int:
    """Decode JSON, walk and group what it decoded, and parse bytes in
    Python: the kinds of work the program spends its CPU on."""
    acc = 0
    for _ in range(4):
        packets = json.loads(_PACKETS)
        by_size: dict[int, list] = {}
        for packet in packets:
            acc += packet["size"] + sum(frame.get("len", 0) for frame in packet["frames"])
            by_size.setdefault(packet["size"] % 97, []).append(packet)
        acc += len(json.dumps(packets[:75])) + len(by_size)
    for i in range(8000):
        at = i % 2000
        length = 1 << (_BLOB[at] >> 6)
        value = int.from_bytes(_BLOB[at : at + length], "big") & 0x3FFFFFFFFFFFFFFF
        acc = (acc + value) & 0xFFFFFFFF
    return acc


class Pace:
    """CPU times of the reference task, taken through a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the task three times; no collection of the program's heap
        may land in a sample."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.thread_time()
                _reference_task()
                self.samples.append(time.thread_time() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def factor(self) -> float:
        """Scale from this run's CPU times to reference speed. The speed
        changes from one half second to the next, and a CPU time sums
        over them, so the mean sample is the one to scale by."""
        return REFERENCE_S / statistics.fmean(self.samples)
