"""The benchmark's own checks must fire on wrong outputs.

    python3 -m pytest bench
"""

import copy
import json
import random

import pytest

import corpus
import workloads
from checks import check_suite, check_written
from quicprobe import cli


def test_compliant_suite_against_vn_echo_reserved_fails_one_operation(tmp_path):
    workload = workloads.CompliantSuite(seed=3, out=tmp_path, server_fault="vn_echo_reserved")
    workload.setup()
    try:
        rnd = workload.run_round(0)
    finally:
        workload.close()
    assert rnd.attempted == 7
    assert rnd.failed == 1
    assert rnd.mismatches == [("none", "version_negotiation", 1, 0)]
    assert rnd.problems == []


@pytest.fixture(scope="module")
def compliant_suite(tmp_path_factory):
    """One compliant suite: its traces, written paths and the server log."""
    out = tmp_path_factory.mktemp("suite")
    server = workloads.faultsrv.serve(workloads._server_config())
    try:
        suite, paths = workloads._run_and_write(workloads._target(server), 5, 10_000, out)
    finally:
        server.stop()
    return suite, paths, list(server.sent_log)


def _first(suite, scenario):
    return next(t for t in suite if t.scenario == scenario)


def _drop_first_rx(suite, sent):
    trace = next(t for t in suite if any(p["direction"] == "rx" for p in t.packets))
    entry = next(p for p in trace.packets if p["direction"] == "rx")
    sent.remove(next(s for s in sent if s["cleartext_hex"] == entry["cleartext_hex"]))


def _truncate_first_packet(suite, sent):
    # a short header cut off inside its connection id
    suite[0].packets[0]["cleartext_hex"] = "40"


def _add_undecryptable(suite, sent):
    suite[0].packets.append(
        {"direction": "rx", "timestamp_ms": 0, "level": "one_rtt", "decrypt_error": True, "ciphertext_hex": "00"}
    )


MUTATIONS = {
    "code not in the registry": lambda suite, sent: setattr(suite[0], "error_code", 99),
    "scenario run twice": lambda suite, sent: suite.append(suite[0]),
    "packet does not re-parse": _truncate_first_packet,
    "decrypted packet not sent": _drop_first_rx,
    "more undecryptable than corrupted": _add_undecryptable,
    "flow_control first burst": lambda suite, sent: _first(suite, "flow_control").results.update(
        first_burst_bytes=81
    ),
    "flow_control total": lambda suite, sent: _first(suite, "flow_control").results.update(
        total_bytes=170
    ),
    "address_validation ratio": lambda suite, sent: _first(suite, "address_validation").results.update(
        ratio=3.5
    ),
}


def test_suite_checks_pass_on_real_output(compliant_suite):
    suite, paths, sent = compliant_suite
    assert check_suite(suite, sent, "none", {}) == ([], [])
    assert check_written(paths, suite, "none:") == []


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_suite_check_fires(compliant_suite, mutation):
    suite, _, sent = copy.deepcopy(compliant_suite)
    MUTATIONS[mutation](suite, sent)
    _, problems = check_suite(suite, sent, "none", {})
    assert problems


def test_written_check_fires_on_a_replaced_file(compliant_suite):
    suite, paths, _ = compliant_suite
    assert check_written([paths[0]] * len(paths), suite, "none:")


def _report(corpus_dir, out):
    assert cli.main(["report", "--corpus", str(corpus_dir), "--out", str(out)]) == 0


def _small_corpus(tmp_path, seed=11):
    table = corpus.draw_table(seed, 24)
    templates = {name: ([], {}) for name in corpus.SCENARIOS}
    corpus.write_corpus(table, tmp_path / "corpus", templates, seed)
    return table, corpus.expected_report(table)


def test_report_check_passes_on_real_output(tmp_path):
    _, expected = _small_corpus(tmp_path)
    _report(tmp_path / "corpus", tmp_path / "report")
    assert corpus.check_report(tmp_path / "report", expected) == []


def test_report_check_fires_on_one_changed_code(tmp_path):
    _, expected = _small_corpus(tmp_path)
    files = sorted((tmp_path / "corpus").glob("*/*.json"))
    path = random.Random(1).choice(files)
    doc = json.loads(path.read_text())
    doc["error_code"] = 0 if doc["error_code"] else 7
    path.write_text(json.dumps(doc))
    _report(tmp_path / "corpus", tmp_path / "report")
    assert corpus.check_report(tmp_path / "report", expected)


@pytest.mark.parametrize("seed", range(1, 11))
def test_corpus_has_every_kind_of_cell(seed):
    targets = workloads.REPORT_TARGETS
    table = corpus.draw_table(seed, targets)
    cells = list(table.values())
    assert len(table) < targets * len(corpus.DATES)  # absent endpoints
    assert any(cell.get("version_negotiation", (0,))[0] == 201 for cell in cells)  # silent
    assert any(cell.get("handshake", (0,))[0] in (2, 3, 4) for cell in cells)  # failed handshake
    assert any(len(cell) < 7 and cell.get("handshake", (None,))[0] == 0 for cell in cells)  # missing pairs
    assert any(len(set((cell.get("version_negotiation") or (0, None))[1] or [])) > 1 for cell in cells)
