"""The console entry points, driven in-process."""

import json
import re

import pytest

from quicprobe.cli import main as quicprobe_main
from quicprobe.faultsrv import ServerConfig, serve
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


def test_run_rejects_unknown_scenario(server, tmp_path):
    targets = tmp_path / "targets.txt"
    targets.write_text(f"local,127.0.0.1:{server.port}\n")
    with pytest.raises(SystemExit, match="unknown scenarios"):
        quicprobe_main(["run", "--targets", str(targets), "--scenarios", "bogus"])


def test_report_empty_corpus_fails(tmp_path):
    with pytest.raises(SystemExit, match="no traces"):
        quicprobe_main(["report", "--corpus", str(tmp_path), "--out", str(tmp_path / "r")])


def test_faultsrv_list_faults(capsys):
    rc = faultsrv_main(["--list-faults"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "empty_stream_frames" in out and "reorder_livelock" in out
