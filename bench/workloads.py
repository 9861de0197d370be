"""The three workloads. Each is closed loop: one client thread drives one
connection at a time, and each scenario waits for the previous one.

A workload's ``setup`` is the program's own start-up (the reference
server, where there is one). ``prepare`` is the benchmark's untimed
preparation. ``run_round`` runs one round of the workload's operations,
timing only the program's calls, and checks the round's outputs after
the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import quicprobe.cli as cli
import quicprobe.faultsrv as faultsrv
import quicprobe.scenarios as scenarios
import quicprobe.traces as traces

import corpus
from pace import Pace

SUITE_TIMEOUT_MS = 10_000  # the default of quicprobe run
MATRIX_TIMEOUT_MS = 2_000  # the acceptance gate's matrix timeout
# Pairs whose verdict depends on timing, not on the server. The handshake
# scenario ends its 1-RTT probe once any 1-RTT packet has arrived, and its
# closing settle returns with the first datagram, so the corrupted ACK
# that bad_1rtt_protection sends can land after the verdict: 0, not 4, in
# 4 of 34 matrix runs. A run must fail the same share every time.
LEFT_OUT = frozenset({("bad_1rtt_protection", "handshake")})
BODY_BYTES = 160  # flow_control expects 80 bytes, then 160
REPORT_TARGETS = 50
PACE = Pace()  # sampled after every timed block


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0  # process CPU: client and in-process server
    client_cpu_s: float = 0.0  # the client thread's CPU
    attempted: int = 0
    failed: int = 0
    server_packets: int = 0
    problems: list[str] = field(default_factory=list)
    mismatches: list[tuple] = field(default_factory=list)


@contextlib.contextmanager
def timed(rnd: Round, tracer=None):
    """Add the enclosed program calls to the round's times; with a tracer,
    record spans inside the block only, so the checks are not traced.
    Sample the host's pace once the clocks have stopped."""
    w0, c0, t0 = time.perf_counter(), time.process_time(), time.thread_time()
    if tracer is not None:
        tracer.enabled = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.enabled = False
        rnd.wall_s += time.perf_counter() - w0
        rnd.cpu_s += time.process_time() - c0
        rnd.client_cpu_s += time.thread_time() - t0
        PACE.sample()


def _server_config(fault: str = "none") -> faultsrv.ServerConfig:
    return faultsrv.ServerConfig(
        resources={"/index.html": faultsrv.default_body(BODY_BYTES)},
        fault=faultsrv.FaultSpec(name=fault),
    )


def _target(server) -> dict:
    return {"name": "loopback", "host": "127.0.0.1", "port": server.port}


def _run_and_write(
    target: dict, order_seed: int, timeout_ms: int, out: Path, names=corpus.SCENARIOS
):
    """One suite the way ``quicprobe run`` drives it."""
    plan = scenarios.SuitePlan(
        targets=[target], scenarios=list(names), seed=order_seed, timeout_ms=timeout_ms
    )
    suite = scenarios.run_suite(plan)
    return suite, [traces.write_trace(trace, out) for trace in suite]


def _check_suite(
    rnd: Round, fault: str, expected: dict, suite, paths, sent_log, names=corpus.SCENARIOS
) -> None:
    # the checker loads the dissector, so it is imported once set-up is timed
    from checks import check_suite, check_written

    mismatches, problems = check_suite(suite, sent_log, fault, expected, names)
    rnd.attempted += len(suite)
    rnd.failed += len(mismatches)
    rnd.mismatches += mismatches
    rnd.problems += problems + check_written(paths, suite, f"{fault}:")


class CompliantSuite:
    """Full seven-scenario suites against the compliant server, each with
    its own ordering seed and its own output directory."""

    def __init__(self, seed: int, out: Path, server_fault: str = "none"):
        self.rng = random.Random(seed)
        self.out = out
        self.server_fault = server_fault
        self.server = None
        self.tracer = None

    def setup(self) -> None:
        self.server = faultsrv.serve(_server_config(self.server_fault))

    def prepare(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        rnd = Round()
        out = self.out / f"suite{index:04d}"
        start = len(self.server.sent_log)
        with timed(rnd, self.tracer):
            suite, paths = _run_and_write(
                _target(self.server), self.rng.getrandbits(32), SUITE_TIMEOUT_MS, out
            )
        sent = self.server.sent_log[start:]
        rnd.server_packets = len(sent)
        _check_suite(rnd, "none", {}, suite, paths, sent)
        shutil.rmtree(out)
        return rnd

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


class FaultMatrix:
    """One suite against each fault and against the compliant server; the
    compliant server lives from set-up on, the fault servers start and
    stop inside the round as in the acceptance gate."""

    def __init__(self, seed: int, out: Path):
        self.rng = random.Random(seed)
        self.out = out
        self.server = None
        self.tracer = None

    def setup(self) -> None:
        self.server = faultsrv.serve(_server_config())

    def prepare(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        rnd = Round()
        done = []
        for fault in sorted(faultsrv.FAULT_EXPECTATIONS):
            out = self.out / f"matrix{index:04d}" / fault
            order_seed = self.rng.getrandbits(32)
            names = [name for name in corpus.SCENARIOS if (fault, name) not in LEFT_OUT]
            with timed(rnd, self.tracer):
                server = self.server if fault == "none" else faultsrv.serve(_server_config(fault))
                start = len(server.sent_log)
                try:
                    suite, paths = _run_and_write(
                        _target(server), order_seed, MATRIX_TIMEOUT_MS, out, names
                    )
                finally:
                    if server is not self.server:
                        server.stop()
            done.append((fault, names, suite, paths, server.sent_log[start:]))
        for fault, names, suite, paths, sent in done:
            rnd.server_packets += len(sent)
            _check_suite(rnd, fault, faultsrv.FAULT_EXPECTATIONS[fault], suite, paths, sent, names)
        shutil.rmtree(self.out / f"matrix{index:04d}")
        return rnd

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


class ReportCorpus:
    """``quicprobe report`` over a seeded corpus of REPORT_TARGETS targets
    on three 2018 dates."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.corpus_dir = out / "corpus"
        self.expected: dict = {}
        self.tracer = None

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        """Harvest packet logs from one real loopback suite, then write the
        corpus and compute the report it must produce."""
        server = faultsrv.serve(_server_config())
        try:
            suite = scenarios.run_suite(scenarios.SuitePlan(targets=[_target(server)], seed=self.seed))
        finally:
            server.stop()
        templates = {trace.scenario: (trace.packets, trace.results) for trace in suite}
        table = corpus.draw_table(self.seed, REPORT_TARGETS)
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        corpus.write_corpus(table, self.corpus_dir, templates, self.seed)
        self.expected = corpus.expected_report(table)

    def run_round(self, index: int) -> Round:
        rnd = Round(attempted=1)
        out = self.out / f"report{index:04d}"
        stdout = io.StringIO()
        try:
            with timed(rnd, self.tracer), contextlib.redirect_stdout(stdout):
                code = cli.main(["report", "--corpus", str(self.corpus_dir), "--out", str(out)])
        except Exception:
            traceback.print_exc()
            rnd.failed = 1
            return rnd
        if code != 0 or "report written" not in stdout.getvalue():
            rnd.problems.append(f"report exited {code}: {stdout.getvalue()!r}")
        rnd.problems += corpus.check_report(out, self.expected)
        shutil.rmtree(out)
        return rnd

    def close(self) -> None:
        pass


WORKLOADS = {
    "compliant_suite": CompliantSuite,
    "fault_matrix": FaultMatrix,
    "report_corpus": ReportCorpus,
}
