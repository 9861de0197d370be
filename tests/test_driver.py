"""The one loop that runs every connection of a suite: ``conn.drive``."""

import socket
import threading
import time

import pytest

from quicprobe.conn import Connection, driver, drive
from quicprobe.faultsrv import FAULT_EXPECTATIONS, FaultServer, FaultSpec, ServerConfig, serve
from quicprobe.scenarios import ScenarioContext, SuitePlan, run_suite, scenario_order


@pytest.fixture
def pairs():
    """Three connected socket pairs: a task waits on the first end, the
    test writes to the second."""
    made = [socket.socketpair() for _ in range(3)]
    for a, _ in made:
        a.setblocking(False)
    yield made
    for a, b in made:
        a.close()
        b.close()


def waiter(name, sock, timeout_s, log):
    """Wait once and log (name, what the driver resumed it with, when)."""
    value = yield sock, timeout_s
    log.append((name, value, time.monotonic()))
    return name


def test_a_deadline_wait_is_not_resumed_before_its_deadline(pairs):
    # another socket wakes the loop 20 ms into a 100-ms wait, which goes on
    (quiet, _), (busy, busy_peer), _ = pairs
    writer = threading.Timer(0.02, busy_peer.send, (b"x",))
    log = []
    t0 = time.monotonic()
    writer.start()
    try:
        assert drive([waiter("quiet", quiet, 0.1, log), waiter("busy", busy, 1.0, log)]) == [
            "quiet",
            "busy",
        ]
    finally:
        writer.join(2.0)
    assert [(name, value is None) for name, value, _ in log] == [("busy", False), ("quiet", True)]
    assert log[1][2] - t0 >= 0.1


def test_a_readable_socket_resumes_only_the_task_waiting_on_it(pairs):
    (first, first_peer), (second, _), (third, third_peer) = pairs
    log = []
    t0 = time.monotonic()

    def write_later():
        time.sleep(0.03)
        third_peer.send(b"x")

    writer = threading.Thread(target=write_later)
    writer.start()
    try:
        first_peer.send(b"x")
        drive(
            [
                waiter("first", first, 1.0, log),
                waiter("second", second, 0.5, log),
                waiter("third", third, 1.0, log),
            ]
        )
    finally:
        writer.join(2.0)
    assert not writer.is_alive()
    assert [name for name, _, _ in log] == ["first", "third", "second"]
    (_, first_at, _), (_, third_at, _), (_, second_at, resumed) = log
    assert t0 <= first_at < t0 + 0.03 <= third_at < t0 + 0.5
    assert second_at is None and resumed - t0 >= 0.5


def test_the_arrival_time_is_when_the_select_saw_the_socket(pairs):
    # a task busy for 30 ms must not delay the arrival time of the next
    (a, a_peer), (b, b_peer), _ = pairs
    a_peer.send(b"x")
    b_peer.send(b"x")
    seen = {}

    def slow(sock):
        seen["a"] = yield sock, 1.0
        time.sleep(0.03)

    def timed(sock):
        seen["b"] = yield sock, 1.0
        seen["b_resumed"] = time.monotonic()

    drive([slow(a), timed(b)])
    # each task gets the time of the first select that saw its socket
    # readable: a's as a began its wait, b's as b began its own
    assert seen["a"] <= seen["b"] <= seen["b_resumed"] - 0.03


def test_an_arrival_is_stamped_before_a_slow_start_of_another_task(pairs):
    # a's answer waits in the kernel while b's start is busy for 30 ms
    (a, a_peer), (b, _), (c, _) = pairs
    started = []
    seen = {}

    def answered():
        started.append("a")
        a_peer.send(b"x")
        seen["a"] = yield a, 1.0

    def slow_start():
        started.append("b")
        time.sleep(0.03)
        seen["b_started"] = time.monotonic()
        yield b, 0

    def last():
        started.append("c")
        yield c, 0

    drive([answered(), slow_start(), last()])
    assert started == ["a", "b", "c"]
    assert seen["a"] <= seen["b_started"] - 0.03


def test_a_list_runs_as_tasks_whose_values_resume_their_parent(pairs):
    (a, a_peer), (b, _), _ = pairs
    a_peer.send(b"x")
    log = []

    def parent():
        values = yield [waiter("child", a, 1.0, log), waiter("other", b, 0, log)]
        return values

    def no_children():
        return (yield [])

    assert drive([parent(), no_children()]) == [["child", "other"], []]
    assert [name for name, _, _ in log] == ["child", "other"]


def test_an_exception_closes_every_other_task(pairs):
    (a, _), _, _ = pairs
    closed = []

    def waits_long():
        try:
            yield a, 5.0
        finally:
            closed.append(True)

    def fails():
        yield pairs[1][0], 0
        raise RuntimeError("task bug")

    t0 = time.monotonic()
    try:
        drive([waits_long(), fails()])
    except RuntimeError as exc:
        # checked while the traceback still holds the driver's frame, so
        # no collection of that frame can have closed the task instead
        assert str(exc) == "task bug"
        assert closed == [True] and time.monotonic() - t0 < 1.0
    else:
        pytest.fail("the task's exception did not propagate")


def test_a_service_is_closed_once_the_last_task_returns(monkeypatch, pairs):
    (a, _), (b, b_peer), _ = pairs
    served, closed = [], []

    def service():
        try:
            for _ in range(3):
                served.append((yield a, 0.5))
        finally:
            closed.append(True)

    monkeypatch.setattr(driver, "SERVING", [service])
    b_peer.send(b"x")
    log = []
    assert drive([waiter("task", b, 1.0, log)]) == ["task"]
    assert [name for name, _, _ in log] == ["task"]
    assert served == [] and closed == [True]
    assert drive([]) == [] and closed == [True, True]


def test_a_service_handles_what_a_task_sent_as_it_returned(monkeypatch, pairs):
    (a, a_peer), (b, _), _ = pairs
    handled = []

    def service():
        while True:
            yield a, None
            handled.append(a.recv(16))

    def send_last():
        yield b, 0
        a_peer.send(b"last")
        return "sent"

    monkeypatch.setattr(driver, "SERVING", [service])
    assert drive([send_last()]) == ["sent"]
    assert handled == [b"last"]


def test_an_exception_in_a_service_closes_the_tasks_and_propagates(monkeypatch, pairs):
    (a, _), (b, b_peer), _ = pairs
    closed = []

    def waits_long():
        try:
            yield a, 5.0
        finally:
            closed.append(True)

    def failing_service():
        yield b, None
        raise RuntimeError("service bug")

    monkeypatch.setattr(driver, "SERVING", [failing_service])
    b_peer.send(b"x")
    t0 = time.monotonic()
    try:
        drive([waits_long()])
    except RuntimeError as exc:
        assert str(exc) == "service bug"
        assert closed == [True] and time.monotonic() - t0 < 1.0
    else:
        pytest.fail("the service's exception did not propagate")


def test_a_wait_with_no_deadline_lasts_until_its_socket_is_readable(pairs):
    (a, a_peer), (b, _), _ = pairs
    log = []

    def write_after_a_wait():
        yield b, 0.1
        a_peer.send(b"x")

    t0 = time.monotonic()
    assert drive([waiter("no deadline", a, None, log), write_after_a_wait()]) == [
        "no deadline",
        None,
    ]
    ((_, arrived, _),) = log
    assert arrived is not None and arrived - t0 >= 0.1


@pytest.fixture
def compliant_server():
    server = serve(ServerConfig())
    yield server
    server.stop()
    assert server.errors == []


def test_scenarios_start_in_the_seeded_order(monkeypatch, compliant_server):
    started = []
    connect = ScenarioContext.connect

    def recording_connect(ctx, *args, **kwargs):
        if ctx.trace.scenario not in started:
            started.append(ctx.trace.scenario)
        return connect(ctx, *args, **kwargs)

    monkeypatch.setattr(ScenarioContext, "connect", recording_connect)
    target = {"name": "loopback", "host": "127.0.0.1", "port": compliant_server.port}
    for seed in (3, 8):
        plan = SuitePlan(targets=[target], seed=seed)
        started.clear()
        traces = run_suite(plan)
        assert started == scenario_order(plan.scenarios, seed)
        assert [t.error_code for t in traces] == [0] * len(plan.scenarios)


def test_two_parallel_targets_never_hold_a_third_open(monkeypatch, compliant_server):
    open_sockets = {}  # target name -> sockets open
    most = []
    start, stop = Connection.start, Connection.stop

    def recording_start(conn):
        start(conn)
        name = conn.trace.target["name"]
        open_sockets[name] = open_sockets.get(name, 0) + 1
        most.append(sum(1 for count in open_sockets.values() if count))

    def recording_stop(conn):
        if conn.sock is not None:
            open_sockets[conn.trace.target["name"]] -= 1
        stop(conn)

    monkeypatch.setattr(Connection, "start", recording_start)
    monkeypatch.setattr(Connection, "stop", recording_stop)
    plan = SuitePlan(
        targets=[
            {"name": name, "host": "127.0.0.1", "port": compliant_server.port}
            for name in ("one", "two", "three", "four")
        ],
        seed=6,
        parallel=2,
    )
    traces = run_suite(plan)
    assert [t.error_code for t in traces] == [0] * len(traces)
    assert [t.target["name"] for t in traces] == [
        name for name in ("one", "two", "three", "four") for _ in plan.scenarios
    ]
    assert max(most) == 2
    assert all(count == 0 for count in open_sockets.values())


def test_a_suite_starts_no_thread(monkeypatch, compliant_server):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    plan = SuitePlan(
        targets=[{"name": "loopback", "host": "127.0.0.1", "port": compliant_server.port}] * 2,
        seed=5,
        parallel=2,
    )
    traces = run_suite(plan)
    assert [t.error_code for t in traces] == [0] * len(traces)


def test_a_served_suite_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for fault in ("none", "tp_duplicate"):  # the compliant suite and a matrix row
        server = serve(ServerConfig(fault=FaultSpec(name=fault)))
        target = {"name": "loopback", "host": "127.0.0.1", "port": server.port}
        plan = SuitePlan(targets=[target], seed=11, timeout_ms=2000)
        try:
            traces = run_suite(plan)
        finally:
            server.stop()
        assert {t.scenario: t.error_code for t in traces} == {
            name: FAULT_EXPECTATIONS[fault].get(name, 0) for name in plan.scenarios
        }, fault
        assert server.errors == [], fault


# faults whose suite waits out its timeout for an answer that never comes
TIMED_OUT_FAULTS = {"no_ticket", "reorder_livelock", "stall_after_sh", "vn_silent"}


def test_the_reference_server_serves_suites_on_the_clients_loop(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    faults = sorted(set(FAULT_EXPECTATIONS) - TIMED_OUT_FAULTS)
    assert len(faults) == 10  # the compliant server and 9 of the 13 faults
    for fault in faults:
        server = FaultServer(ServerConfig(fault=FaultSpec(name=fault))).start()
        monkeypatch.setattr(driver, "SERVING", [server.task])
        target = {"name": "loopback", "host": "127.0.0.1", "port": server.port}
        plan = SuitePlan(targets=[target], seed=2, timeout_ms=2000)
        try:
            traces = run_suite(plan)
        finally:
            server.stop()
        assert {t.scenario: t.error_code for t in traces} == {
            name: FAULT_EXPECTATIONS[fault].get(name, 0) for name in plan.scenarios
        }, fault
        assert server.errors == [], fault
