"""The program waits in one place, ``conn.drive``: a second wait loop, a
sleep or another thread added anywhere in ``quicprobe`` fails here. So
does an import inside a function, but for one documented late import,
and so does a second OpenSSL: every hash comes from ``cryptography``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import quicprobe

PACKAGE = Path(quicprobe.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.rglob("*.py"))
}


def imported(tree) -> set[str]:
    """The absolute modules ``tree`` imports, and each name it imports
    from one as ``module.name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def importers(*modules: str) -> list[str]:
    return [path for path, tree in MODULES.items() if imported(tree) & set(modules)]


def test_only_the_driver_imports_a_selector():
    assert importers("select", "selectors") == ["conn/driver.py"]


def test_no_module_sleeps():
    calls = [
        path
        for path, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "sleep"
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
    ]
    assert calls + importers("time.sleep") == []


def test_no_module_uses_threading():
    # serve() registers its server with drive, which runs it on the
    # caller's thread, so no key or log is shared between threads
    assert importers("threading") == []


def test_no_module_imports_inside_a_function():
    # metrics reads the scenario table late, because scenarios import traces
    late = [
        f"{path} {function.name}"
        for path, tree in MODULES.items()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert late == ["traces/metrics.py _requires_handshake_scenarios"]


def test_no_module_imports_the_standard_library_hashes():
    assert importers("hashlib", "hmac") == []


# a process that imports both entry points and completes a handshake
# with the reference server, then prints whether _hashlib was loaded
HANDSHAKE = """
import sys
import quicprobe.cli, quicprobe.faultsrv
from tests.exchange import Exchange

exchange = Exchange()
for _ in range(20):
    datagram = exchange.next_to_client()
    if datagram is None:
        break
    exchange.receive(datagram)
    exchange.flush_client()
exchange.stop()
assert exchange.conn.handshake_complete
print("_hashlib" in sys.modules)
"""


def test_a_handshake_loads_no_second_openssl():
    # the standard library's _hashlib links the system libcrypto beside
    # the copy cryptography carries, about 3.7 MB of resident memory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", HANDSHAKE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
