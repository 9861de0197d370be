"""The console entry points, driven in-process."""

import contextlib
import io
import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quicprobe.cli import main as quicprobe_main, parse_targets_file
from quicprobe.conn import Connection, driver, drive, perform_handshake
from quicprobe.faultsrv import FaultServer, FaultSpec, ServerConfig, serve
from quicprobe.faultsrv import cli as faultsrv_cli
from quicprobe.faultsrv.cli import main as faultsrv_main
from quicprobe.protection import DEFAULT_PROVIDER_SEED, NullHandshakeProvider
from quicprobe.scenarios import codes
from quicprobe.scenarios.base import default_client_tp
from quicprobe.traces import INDEX_NAME, TraceBuilder, model, read_trace, write_trace
from quicprobe.wire import encode_transport_parameters

from .corpus_fixtures import build_synthetic_corpus, later_clock


@pytest.fixture
def server():
    srv = serve(ServerConfig())
    yield srv
    srv.stop()
    assert srv.errors == []


def test_run_then_report(server, tmp_path, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text(f"local,127.0.0.1:{server.port}\n")
    rc = quicprobe_main(
        [
            "run",
            "--targets",
            str(targets),
            "--scenarios",
            "version_negotiation,handshake",
            "--seed",
            "3",
            "--timeout-ms",
            "5000",
            "--out",
            str(tmp_path / "traces"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "version_negotiation" in out and "handshake" in out and "ok" in out

    written = sorted((tmp_path / "traces").glob("*/*.json"))
    assert len(written) == 2
    doc = json.loads(written[0].read_text())
    assert doc["format"] == 1 and doc["error_code"] == 0

    rc = quicprobe_main(
        ["report", "--corpus", str(tmp_path / "traces"), "--out", str(tmp_path / "report")]
    )
    assert rc == 0
    report = tmp_path / "report"
    assert (report / "versions_over_time.csv").exists()
    assert (report / "handshake_success.csv").exists()
    assert (report / "outcomes.csv").exists()
    grids = list(report.glob("grid_*.html"))
    assert grids and "version_negotiation" in grids[0].read_text()


def test_grid_links_resolve_from_a_separate_report_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    traces = build_synthetic_corpus()
    for trace in traces:
        write_trace(trace, "runs/traces")
    assert quicprobe_main(["report", "--corpus", "runs/traces", "--out", "out/report"]) == 0
    grids = sorted((tmp_path / "out" / "report").glob("grid_*.html"))
    assert len(grids) == 3
    hrefs = 0
    for grid in grids:
        for href in re.findall(r"href='([^']*)'", grid.read_text()):
            assert (grid.parent / href).is_file(), (grid.name, href)
            hrefs += 1
    assert hrefs == len(traces)


def test_grid_links_follow_the_files_read(tmp_path):
    # traces under names write_trace would not give them, as in a corpus
    # written before sanitized target names got their hash suffix
    traces = build_synthetic_corpus()[:2]
    for index, trace in enumerate(traces):
        path = tmp_path / "corpus" / trace.date / "old" / f"kept{index}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace.to_json()))
    out = tmp_path / "report"
    assert quicprobe_main(["report", "--corpus", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    hrefs = [
        href
        for grid in out.glob("grid_*.html")
        for href in re.findall(r"href='([^']*)'", grid.read_text())
    ]
    assert sorted(href.rsplit("/", 1)[1] for href in hrefs) == ["kept0.json", "kept1.json"]
    assert all((out / href).is_file() for href in hrefs)


def test_report_skips_unreadable_entries(tmp_path, capsys):
    trace = build_synthetic_corpus()[0]
    day = tmp_path / "corpus" / "2018-01-01"
    (day / "odd.json").mkdir(parents=True)
    (day / "odd.json" / "kept.json").write_text(json.dumps(trace.to_json()))
    (day / "gone.json").symlink_to(tmp_path / "missing.json")
    out = tmp_path / "report"
    assert quicprobe_main(["report", "--corpus", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1 and "gone.json" in warnings[0]
    grid = (out / f"grid_{trace.date}.html").read_text()
    assert "href='../corpus/2018-01-01/odd.json/kept.json'" in grid


def test_run_rejects_unknown_scenario(server, tmp_path):
    targets = tmp_path / "targets.txt"
    targets.write_text(f"local,127.0.0.1:{server.port}\n")
    with pytest.raises(SystemExit, match="unknown scenarios") as exc:
        quicprobe_main(["run", "--targets", str(targets), "--scenarios", "bogus"])
    assert "available: address_validation," in str(exc.value)


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--timeout-ms", "0", "timeout must be positive, got 0 ms"),
        ("--timeout-ms", "-100", "timeout must be positive, got -100 ms"),
        ("--parallel", "0", "parallel must be at least 1, got 0"),
    ],
)
def test_run_rejects_a_plan_with_its_one_line_reason(tmp_path, flag, value, reason):
    targets = tmp_path / "targets.txt"
    targets.write_text("local,127.0.0.1:4433\n")
    out = tmp_path / "traces"
    with pytest.raises(SystemExit) as exc:
        quicprobe_main(["run", "--targets", str(targets), "--out", str(out), flag, value])
    assert str(exc.value) == reason
    assert not out.exists()


def test_report_empty_corpus_fails(tmp_path):
    with pytest.raises(SystemExit, match="no traces"):
        quicprobe_main(["report", "--corpus", str(tmp_path), "--out", str(tmp_path / "r")])


def test_report_date_writes_that_grid_only(tmp_path):
    good = build_synthetic_corpus()[0]
    write_trace(good, tmp_path / "corpus")
    out = tmp_path / "report"
    args = ["report", "--corpus", str(tmp_path / "corpus"), "--out", str(out), "--date", good.date]
    assert quicprobe_main(args) == 0
    assert sorted(p.name for p in out.glob("grid_*")) == [f"grid_{good.date}.csv", f"grid_{good.date}.html"]


@pytest.mark.parametrize("date", ["../escaped", "2099-01-01"])
def test_report_rejects_a_date_the_corpus_does_not_hold(tmp_path, date):
    good = build_synthetic_corpus()[0]
    write_trace(good, tmp_path / "corpus")
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        quicprobe_main(["report", "--corpus", str(tmp_path / "corpus"), "--out", str(out), "--date", date])
    assert str(exc.value) == f"date {date!r} is not in the corpus; dates: {good.date}"
    assert not out.exists()


def test_faultsrv_list_faults(capsys):
    rc = faultsrv_main(["--list-faults"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "empty_stream_frames" in out and "reorder_livelock" in out


@pytest.mark.parametrize("port", ["0", "70000", "-1"])
def test_targets_file_rejects_out_of_range_ports(tmp_path, port):
    targets = tmp_path / "targets.txt"
    targets.write_text(f"ok,127.0.0.1:4433\nbad,127.0.0.1:{port}\n")
    with pytest.raises(SystemExit, match=rf"targets\.txt:2: port {port} is outside 1-65535"):
        parse_targets_file(str(targets))


@pytest.mark.parametrize("listen", ["127.0.0.1:70000", "127.0.0.1:-1", "127.0.0.1:x"])
def test_faultsrv_rejects_out_of_range_listen_port(capsys, monkeypatch, listen):
    # a server that started would serve until interrupted
    monkeypatch.setattr(faultsrv_cli, "FaultServer", lambda config: pytest.fail(f"served {config}"))
    with pytest.raises(SystemExit) as exc_info:
        faultsrv_main(["--listen", listen])
    assert exc_info.value.code == 2
    assert "0-65535" in capsys.readouterr().err


@pytest.fixture
def served(monkeypatch):
    """The servers the faultsrv CLI builds, in the order it builds them."""
    servers = []

    def recording_server(config):
        servers.append(FaultServer(config))
        return servers[-1]

    monkeypatch.setattr(faultsrv_cli, "FaultServer", recording_server)
    return servers


def test_faultsrv_prints_the_servers_errors_and_fails(capsys, monkeypatch, served):
    def hello_of_another_seed():
        """Stands in for Ctrl-C: sends one client hello of handshake seed
        1, which the server's provider rejects, then interrupts once the
        server has recorded the error."""
        server = served[0]
        provider = NullHandshakeProvider(seed=1, is_client=True)
        conn = Connection("127.0.0.1", server.port, provider, TraceBuilder("handshake", 1, {}))
        conn.start()
        deadline = time.monotonic() + 5
        while not server.errors and time.monotonic() < deadline:
            yield conn.sock, 0.01
        conn.stop()
        raise KeyboardInterrupt

    # the server's task runs until the stand-in interrupts the loop
    monkeypatch.setattr(driver, "SERVING", [lambda: served[0].task()])
    monkeypatch.setattr(faultsrv_cli, "drive", lambda tasks: drive([hello_of_another_seed()]))
    rc = faultsrv_main(["--listen", "127.0.0.1:0"])
    assert served[0].errors
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"faultsrv: {error}" for error in served[0].errors]
    assert "CH seed mismatch" in err[0]


def test_faultsrv_serves_on_the_thread_that_runs_it(capsys, monkeypatch, served):
    def handshake_then_interrupt():
        """Stands in for Ctrl-C once one client completed its handshake."""
        tp = encode_transport_parameters(default_client_tp())
        provider = NullHandshakeProvider(seed=DEFAULT_PROVIDER_SEED, is_client=True, local_tp=tp)
        trace = TraceBuilder("handshake", 1, {})
        conn = Connection("127.0.0.1", served[0].port, provider, trace)
        conn.start()
        try:
            stuck = yield from perform_handshake(conn, 5.0)
        finally:
            conn.stop()
        assert stuck is None
        raise KeyboardInterrupt

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(driver, "SERVING", [lambda: served[0].task()])
    monkeypatch.setattr(faultsrv_cli, "drive", lambda tasks: drive([handshake_then_interrupt()]))
    assert faultsrv_main(["--listen", "127.0.0.1:0"]) == 0
    # the server answered the handshake, and kept no log of it: nothing in
    # the CLI reads one, and a long-running server must not grow
    assert served[0].conns and served[0].errors == []
    assert list(served[0].sent_log) == []
    assert capsys.readouterr().err == ""


def report_warnings(tmp_path, capsys, name: str, content: bytes) -> list[str]:
    """The warnings of a report over one good trace and one file ``name``."""
    good = build_synthetic_corpus()[0]
    write_trace(good, tmp_path / "corpus")
    (tmp_path / "corpus" / good.date / name).write_bytes(content)
    out = tmp_path / "report"
    assert quicprobe_main(["report", "--corpus", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "field, value",
    [
        ("started_at", "x"),
        ("started_at", float("nan")),
        ("started_at", 10**30),
        ("started_at", True),
        ("scenario", 5),
        ("target", "a"),
        ("target", {"name": 7}),
        ("error_code", "zero"),
        ("error_code", False),
        ("results", []),
        ("results", {"versions": 1}),
        ("results", {"versions": ["0x1"]}),
        ("results", {"versions": [-1, 2**40]}),
    ],
)
def test_report_skips_a_trace_with_a_wrongly_typed_field(tmp_path, capsys, field, value):
    doc = build_synthetic_corpus()[1].to_json()
    doc[field] = value
    warnings = report_warnings(tmp_path, capsys, "bad.json", json.dumps(doc).encode())
    assert len(warnings) == 1 and "bad.json: ValueError: " in warnings[0]
    assert field in warnings[0]


def test_report_warning_names_the_reason_not_the_bytes(tmp_path, capsys):
    doc = build_synthetic_corpus()[1].to_json()
    doc["packets"] = [{"direction": "tx", "cleartext_hex": "00" * 4000}]
    content = json.dumps(doc).encode("utf-16")
    assert len(content) > 8000
    warnings = report_warnings(tmp_path, capsys, "wide.json", content)
    assert len(warnings) == 1 and "UnicodeDecodeError" in warnings[0]
    assert "position 0" in warnings[0] and len(warnings[0]) < 300


def test_report_skips_a_too_deeply_nested_trace(tmp_path, capsys):
    warnings = report_warnings(tmp_path, capsys, "deep.json", b"[" * 100_000)
    assert len(warnings) == 1 and "deep.json: RecursionError" in warnings[0]


def report(corpus: Path, out: Path) -> tuple[str, dict[str, bytes], str]:
    """The read-count line, the output files and the stderr of one report."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert quicprobe_main(["report", "--corpus", str(corpus), "--out", str(out)]) == 0
    counts, written = stdout.getvalue().splitlines()
    assert written == f"report written to {out}"
    return counts, {p.name: p.read_bytes() for p in sorted(out.iterdir())}, stderr.getvalue()


def read_counts(indexed: int, from_index: int, decoded: int) -> str:
    return f"indexed {indexed} traces: {from_index} from {INDEX_NAME}, {decoded} files decoded"


def test_report_decodes_only_new_or_changed_traces(tmp_path, monkeypatch):
    traces = build_synthetic_corpus()
    paths = [write_trace(trace, tmp_path / "corpus") for trace in traces]
    corpus, index = tmp_path / "corpus", tmp_path / "corpus" / INDEX_NAME
    n = len(traces)

    # written under 2 s before the report started: read, not indexed
    counts, cold, _ = report(corpus, tmp_path / "r0")
    assert counts == read_counts(n, 0, n) and not index.exists()

    monkeypatch.setattr(model, "_clock_ns", later_clock)
    assert report(corpus, tmp_path / "r1") == (read_counts(n, 0, n), cold, "")
    assert index.is_file()
    assert report(corpus, tmp_path / "r2") == (read_counts(n, n, 0), cold, "")

    # edited in place, same size and mtime: the ctime tells
    edited = paths[1]  # alpha's D1 handshake, code 0
    st = edited.stat()
    text = edited.read_text()
    assert '"error_code": 0' in text
    with open(edited, "r+") as fh:
        fh.write(text.replace('"error_code": 0', '"error_code": 3'))
    os.utime(edited, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (edited.stat().st_size, edited.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    counts, edited_report, _ = report(corpus, tmp_path / "r3")
    assert counts == read_counts(n, n - 1, 1)
    assert edited_report["handshake_success.csv"] != cold["handshake_success.csv"]
    assert report(corpus, tmp_path / "r4") == (read_counts(n, n, 0), edited_report, "")

    # a deleted trace leaves the report and the verdict index
    paths[-1].unlink()
    counts, files, _ = report(corpus, tmp_path / "r5")
    assert counts == read_counts(n - 1, n - 1, 0)
    assert b"203" not in files["grid_2018-05-03.csv"].splitlines()[-1]  # zero_rtt: delta's only
    assert str(paths[-1].relative_to(corpus)) not in json.loads(index.read_bytes())["traces"]
    assert report(corpus, tmp_path / "r6")[0] == read_counts(n - 1, n - 1, 0)


def test_report_decodes_a_trace_changed_within_2_s_of_its_start(tmp_path, monkeypatch):
    """git's racily clean rule: a file whose ctime is that fresh may be
    rewritten later under the same stamp, so its record is not trusted."""
    traces = build_synthetic_corpus()
    paths = [write_trace(trace, tmp_path / "corpus") for trace in traces]
    corpus, n = tmp_path / "corpus", len(traces)
    monkeypatch.setattr(model, "_clock_ns", later_clock)
    _, cold, _ = report(corpus, tmp_path / "r0")
    assert report(corpus, tmp_path / "r1")[0] == read_counts(n, n, 0)

    ctimes = [path.stat().st_ctime_ns for path in paths]
    monkeypatch.setattr(model, "_clock_ns", lambda: min(ctimes) + 1_999_999_999)
    assert report(corpus, tmp_path / "r2") == (read_counts(n, 0, n), cold, "")
    newest = max(ctimes)
    monkeypatch.setattr(model, "_clock_ns", lambda: newest + 2_000_000_000)
    assert report(corpus, tmp_path / "r3") == (read_counts(n, 0, n), cold, "")
    assert report(corpus, tmp_path / "r4") == (read_counts(n, n, 0), cold, "")


def test_report_reflects_a_second_run_on_the_same_day(tmp_path, monkeypatch):
    """``quicprobe run`` replaces a trace of the same date, target and
    scenario; the next report reads the new one, not the indexed one."""
    monkeypatch.setattr(model, "_clock_ns", later_clock)
    corpus = tmp_path / "traces"
    grids = []
    for index, fault in enumerate(("none", "tp_duplicate")):
        server = serve(ServerConfig(fault=FaultSpec(name=fault)))
        try:
            targets = tmp_path / "targets.txt"
            targets.write_text(f"local,127.0.0.1:{server.port}\n")
            args = ["run", "--targets", str(targets), "--scenarios", "handshake,transport_parameters"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert quicprobe_main([*args, "--timeout-ms", "5000", "--out", str(corpus)]) == 0
        finally:
            server.stop()
        counts, files, warnings = report(corpus, tmp_path / f"report{index}")
        assert counts == read_counts(2, 0, 2) and warnings == ""
        assert report(corpus, tmp_path / f"again{index}")[:2] == (read_counts(2, 2, 0), files)
        (grid,) = [body for name, body in files.items() if name.startswith("grid_") and name.endswith(".csv")]
        grids.append(grid.decode().splitlines()[1:])
    assert grids == [
        ["handshake,0", "transport_parameters,0"],
        ["handshake,0", f"transport_parameters,{codes.TP_MALFORMED}"],
    ]


def test_report_warns_once_and_goes_on_when_it_cannot_write_the_index(tmp_path, monkeypatch):
    # the tests run as root, so a read-only mode would not stop the write
    for trace in build_synthetic_corpus():
        write_trace(trace, tmp_path / "corpus")
    corpus = tmp_path / "corpus"
    (corpus / INDEX_NAME).mkdir()
    monkeypatch.setattr(model, "_clock_ns", later_clock)
    counts, blocked, warnings = report(corpus, tmp_path / "r0")
    (warning,) = warnings.splitlines()
    assert warning.startswith(
        f"warning: {corpus / INDEX_NAME}: cannot write the verdict index: IsADirectoryError"
    )
    assert sorted(p.name for p in corpus.iterdir()) == [INDEX_NAME, "2018-05-01", "2018-05-02", "2018-05-03"]

    (corpus / INDEX_NAME).rmdir()
    assert report(corpus, tmp_path / "r1") == (counts, blocked, "")
    assert (corpus / INDEX_NAME).is_file()


def test_report_reads_a_format_1_index_as_absent(tmp_path, monkeypatch):
    """An index in the format before this one, each record holding the
    fields ``Trace.from_json`` took, is rebuilt by the next report."""
    paths = [write_trace(trace, tmp_path / "corpus") for trace in build_synthetic_corpus()]
    corpus, index, n = tmp_path / "corpus", tmp_path / "corpus" / INDEX_NAME, len(paths)
    records = {}
    for path in paths:
        stat, trace = path.stat(), read_trace(path)
        fields = {
            "scenario": trace.scenario,
            "started_at": trace.started_at,
            "error_code": trace.error_code,
            "target": {"name": trace.target_name},
            "results": {"versions": trace.results.get("versions", [])},
        }
        stamp = [stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns, stat.st_ino]
        records[str(path.relative_to(corpus))] = [*stamp, fields]
    index.write_text(json.dumps({"format": 1, "traces": records}, separators=(",", ":")))
    monkeypatch.setattr(model, "_clock_ns", later_clock)
    counts, files, warnings = report(corpus, tmp_path / "r0")
    assert counts == read_counts(n, 0, n) and warnings == ""
    assert json.loads(index.read_bytes())["format"] == 2
    assert report(corpus, tmp_path / "r1") == (read_counts(n, n, 0), files, "")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


# values after the stamp that fail the record check, by their index in a record
_FAILING = [
    *[(4, date) for date in (None, 20180501, "", "../x", "2018-5-1", "2018-05-01/..")],
    *[(5, name) for name in (None, 1, ["alpha"])],
    *[(6, scenario) for scenario in (None, 1, ["handshake"])],
    *[(7, code) for code in (True, False, 0.0, 1.5, "0", None)],
    *[(8, versions) for versions in (None, 1, {}, [True], [1, True], [1.0], ["1"], [2**40], [-1])],
]


def _failing(record: list):
    """``record`` with the values after its stamp made to fail the record check."""
    not_str = _JSON_VALUES.filter(lambda v: type(v) is not str)
    not_ints = _JSON_VALUES.filter(lambda v: type(v) is not list or any(type(x) is not int for x in v))

    def at(index: int, value) -> list:
        return [*record[:index], value, *record[index + 1 :]]

    return st.one_of(
        st.integers(4, 8).map(lambda n: record[:n]),
        st.lists(_JSON_VALUES, min_size=1, max_size=3).map(lambda extra: record + extra),
        st.sampled_from(_FAILING).map(lambda failing: at(*failing)),
        st.tuples(st.integers(4, 6), not_str).map(lambda failing: at(*failing)),
        st.floats().map(lambda code: at(7, code)),
        not_ints.map(lambda versions: at(8, versions)),
    )


def _hostile(data, doc: dict, content: bytes) -> bytes:
    """A verdict index that no report may trust, drawn from a valid one."""
    kind = data.draw(st.sampled_from(["truncated", "format", "record", "stamp", "fields", "deep", "any"]))
    records = doc["traces"]
    rel = data.draw(st.sampled_from(sorted(records)))
    if kind == "truncated":
        return content[: data.draw(st.integers(0, len(content) - 1))]
    if kind == "deep":
        return b'{"format": 2, "traces": ' + b"[" * 100_000
    if kind == "any":
        return json.dumps(data.draw(_JSON_VALUES)).encode()
    if kind == "format":
        doc["format"] = data.draw(_JSON_VALUES.filter(lambda v: v != 2))
    elif kind == "record":
        records[rel] = data.draw(_JSON_VALUES)
    elif kind == "stamp":
        records[rel][data.draw(st.integers(0, 3))] = data.draw(_JSON_VALUES)
    else:  # the stamp matches, the values after it fail the record check
        records[rel] = data.draw(_failing(records[rel]))
    # records of paths that no longer exist
    gone = st.sampled_from(["gone.json", "2018-05-01/gone.json", "../x.json"])
    records.update(data.draw(st.dictionaries(gone, _JSON_VALUES)))
    if data.draw(st.booleans()):
        records["2018-05-02/gone.json"] = records[rel]
    return json.dumps(doc).encode()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_hostile_index_changes_no_report_output(data):
    """Whatever the verdict index holds, the report exits 0 and its
    warnings and outputs are those of a report with no index."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(model, "_clock_ns", later_clock):
        corpus = Path(tmp) / "corpus"
        for trace in build_synthetic_corpus()[::3]:
            write_trace(trace, corpus)
        (corpus / "2018-05-02" / "bad.json").write_text('{"scenario": "handshake"}')
        _, cold, warnings = report(corpus, Path(tmp) / "cold")
        assert warnings.count("warning: ") == 1
        index = corpus / INDEX_NAME
        content = index.read_bytes()
        index.write_bytes(_hostile(data, json.loads(content), content))
        assert report(corpus, Path(tmp) / "hostile")[1:] == (cold, warnings)


@pytest.mark.parametrize("index, value", _FAILING)
def test_report_decodes_each_trace_whose_record_fails_the_check(tmp_path, monkeypatch, index, value):
    for trace in build_synthetic_corpus():
        write_trace(trace, tmp_path / "corpus")
    corpus, path = tmp_path / "corpus", tmp_path / "corpus" / INDEX_NAME
    monkeypatch.setattr(model, "_clock_ns", later_clock)
    counts, cold, _ = report(corpus, tmp_path / "cold")
    doc = json.loads(path.read_bytes())
    for record in doc["traces"].values():
        record[index] = value
    path.write_text(json.dumps(doc))
    assert report(corpus, tmp_path / "failing") == (counts, cold, "")
