"""Checks that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_fault_server():
    """Fail a test after which a reference-server thread it started is
    still alive: a server it never stopped keeps its sockets open until
    the process exits, so no ResourceWarning would show it."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t.name == "faultsrv" and t not in before]
    if leaked:
        pytest.fail(f"{len(leaked)} faultsrv thread(s) still alive: stop() every server started")
