"""The one loop that runs a run's connections on the calling thread.

Every wait of a connection is a generator step, in the sans-I/O shape of
aioquic's ``QuicConnection``: ``Connection.pump`` yields ``(sock,
timeout_s)``, and whatever waits on it (``run_until``, ``settle``, a
scenario's ``run``) passes that up with ``yield from``; so does the
reference server's ``FaultServer.task``, which ``faultsrv.serve`` registers
in ``SERVING`` to run beside every drive's tasks on the same thread.
``drive`` is the only code of the program that waits: one ``selectors``
call over every socket a task waits on, up to the earliest deadline, and
a poll that does not wait whenever a task begins a wait while others are
queued to run.
"""

from __future__ import annotations

import math
import selectors
import time
from collections import deque
from dataclasses import dataclass, field


# callables that each return a fresh service generator for every drive
SERVING: list = []


@dataclass(eq=False, slots=True)
class _Task:
    """One generator, and the task its return value goes to."""

    gen: object
    parent: _Task | None
    index: int  # where its return value goes in ``parent.results``
    results: list = field(default_factory=list)  # its own children's values
    pending: int = 0  # children that have not returned yet
    sock: object = None
    deadline: float = 0.0


def drive(tasks) -> list:
    """Run the generators ``tasks`` together on this thread until every
    one has returned, and return their return values in order. A service
    from each callable in ``SERVING`` runs alongside them; a last poll
    runs those whose socket is readable, so a served server handles what
    the tasks sent it, and then the services are closed.

    A task yields ``(sock, timeout_s)`` to wait until ``sock`` is readable
    or ``timeout_s`` has passed; a ``timeout_s`` of None never passes. It
    is resumed with the monotonic time of the first select that saw
    ``sock`` readable, the arrival time of whatever it then reads, or with
    None once the timeout has passed. A task yields a list of generators
    to run them as tasks too, and is resumed with their return values once
    all of them have returned.

    Tasks start in order, each running to its first wait before the next
    one starts. When a task begins a wait while others are still queued
    to run, the sockets are polled without waiting, so an answer already
    there is stamped before the queued tasks run (a burst of connection
    starts); a task found readable is queued behind them. An exception in
    a task or service closes every other one and propagates to the caller."""
    root = _Task(None, None, 0)
    ready: deque[tuple[_Task, object]] = deque()  # tasks to resume, with what
    waiting: dict[_Task, None] = {}  # in the order their waits began
    live: dict[_Task, None] = {}

    def spawn(parent: _Task, gens: list) -> None:
        parent.results = [None] * len(gens)
        parent.pending = len(gens)
        if not gens and parent.gen is not None:
            ready.append((parent, parent.results))
        for index, gen in enumerate(gens):
            task = _Task(gen, parent, index)
            live[task] = None
            ready.append((task, None))

    def resume(task: _Task, value) -> None:
        selector.unregister(task.sock)
        del waiting[task]
        ready.append((task, value))

    def poll(timeout_s: float) -> float:
        """Resume every task whose socket is readable within ``timeout_s``
        with the time this select returned, and return that time."""
        events = selector.select(timeout_s)
        now = time.monotonic()
        for key, _ in events:
            resume(key.data, now)
        return now

    spawn(root, list(tasks))
    spawn(_Task(None, None, 0), [service() for service in SERVING])  # a root no one waits for
    drained = False
    with selectors.DefaultSelector() as selector:
        try:
            while True:
                while ready:
                    task, value = ready.popleft()
                    try:
                        request = task.gen.send(value)
                    except StopIteration as stop:
                        del live[task]
                        parent = task.parent
                        parent.results[task.index] = stop.value
                        parent.pending -= 1
                        if parent.pending == 0 and parent.gen is not None:
                            ready.append((parent, parent.results))
                        continue
                    if isinstance(request, list):
                        spawn(task, request)
                        continue
                    task.sock, timeout_s = request
                    task.deadline = math.inf if timeout_s is None else time.monotonic() + timeout_s
                    selector.register(task.sock, selectors.EVENT_READ, task)
                    waiting[task] = None
                    if ready:
                        # the queued tasks may run for a while: stamp what
                        # has arrived before they do
                        poll(0)
                if root.pending == 0:
                    if drained or not waiting:
                        return root.results
                    drained = True
                    poll(0)  # only services still wait
                    continue
                wait_s = min(task.deadline for task in waiting) - time.monotonic()
                now = poll(max(0.0, wait_s) if wait_s < math.inf else None)
                for task in [task for task in waiting if task.deadline <= now]:
                    resume(task, None)
        finally:
            for task in live:
                task.gen.close()
