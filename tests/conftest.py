"""Checks that hold for every test."""

import contextlib
import warnings

import pytest
from hypothesis import Phase, settings

from quicprobe.conn import driver

# When a property fails, Hypothesis's pytest plugin imports its patch writer,
# which imports libcst, which raises a DeprecationWarning; the warning filters
# in pyproject.toml make that an error, and pytest ends in INTERNALERROR
# instead of printing the falsifying example. Import it once here, that
# warning ignored, and skip the explain phase, which adds nothing readable.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
settings.register_profile("no_explain", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no_explain")


@pytest.fixture(autouse=True)
def no_leaked_fault_server():
    """Fail a test after which a server it served is still registered:
    every later ``drive`` would serve it, and a server never stopped
    keeps its socket open until the process exits, so no ResourceWarning
    would show it."""
    yield
    if driver.SERVING:
        leaked = list(driver.SERVING)
        driver.SERVING.clear()
        pytest.fail(f"{len(leaked)} served server(s) still registered: stop() every server started")
