"""The console entry points, driven in-process."""

import json
import re

import pytest

from quicprobe.cli import main as quicprobe_main, parse_targets_file
from quicprobe.faultsrv import ServerConfig, serve
from quicprobe.faultsrv import cli as faultsrv_cli
from quicprobe.faultsrv.cli import main as faultsrv_main
from quicprobe.traces import write_trace

from .corpus_fixtures import build_synthetic_corpus


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
    monkeypatch.setattr(faultsrv_cli, "serve", lambda config: pytest.fail(f"served {config}"))
    with pytest.raises(SystemExit) as exc_info:
        faultsrv_main(["--listen", listen])
    assert exc_info.value.code == 2
    assert "0-65535" in capsys.readouterr().err


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
