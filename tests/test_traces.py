import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from quicprobe.traces import (
    CorpusEntry,
    RunCorpus,
    Trace,
    TraceBuilder,
    metric_handshake_success,
    metric_outcomes,
    metric_versions_over_time,
    outcomes_to_csv,
    read_corpus,
    read_trace,
    render_grid,
    write_trace,
)
from quicprobe.traces import model

from .corpus_fixtures import (
    D1,
    D2,
    D3,
    EXPECTED_HANDSHAKE_SUCCESS,
    EXPECTED_OUTCOMES,
    EXPECTED_TESTED,
    EXPECTED_VERSIONS_ROWS,
    build_synthetic_corpus,
    later_clock,
    make_trace,
)


def corpus() -> RunCorpus:
    return RunCorpus(traces=build_synthetic_corpus())


def entries(corpus: RunCorpus) -> list[tuple[tuple[str, str, str], CorpusEntry]]:
    """Every (key, entry) a corpus indexes, in key order."""
    return [
        ((date, target, scenario), entry)
        for date in corpus.dates()
        for target, by_scenario in corpus.by_target(date).items()
        for scenario, entry in by_scenario.items()
    ]


class TestPersistence:
    def test_write_read_round_trip(self, tmp_path):
        trace = make_trace(D1, "alpha", "handshake", 0, {"versions": [1, 0x51474F]})
        trace.packets.append(
            {"direction": "tx", "timestamp_ms": 1, "level": "initial", "cleartext_hex": "c0", "dcid_len": 8}
        )
        path = write_trace(trace, tmp_path)
        assert path.parent.name == D1
        assert read_trace(path) == trace
        loaded, warnings = read_corpus(tmp_path)
        assert warnings == []
        assert entries(loaded) == [
            ((D1, "alpha", "handshake"), CorpusEntry(0, (1, 0x51474F), f"{D1}/alpha_handshake.json"))
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        packets=st.lists(
            st.fixed_dictionaries(
                {"direction": st.sampled_from(["tx", "rx"]), "cleartext_hex": st.text(max_size=8)}
            ),
            max_size=3,
        ),
        notes=st.lists(
            st.fixed_dictionaries(
                {"kind": st.text(max_size=6), "detail": st.none() | st.integers() | st.lists(st.text())}
            ),
            max_size=3,
        ),
        extra=st.dictionaries(st.text(max_size=6).map(lambda k: "x-" + k), st.text(max_size=6), max_size=2),
    )
    def test_a_written_file_holds_the_document_one_packet_or_note_a_line(
        self, packets, notes, extra
    ):
        trace = make_trace(D1, "alpha", "handshake", 0, {"versions": [1]})
        trace.packets, trace.notes, trace.extra = packets, notes, extra
        with tempfile.TemporaryDirectory() as out:
            text = write_trace(trace, out).read_text()
        assert json.loads(text) == trace.to_json()
        fields = len(trace.to_json())
        lists = [items for items in (packets, notes) if items]
        assert text.count("\n") == 2 + fields + sum(len(items) + 1 for items in lists)

    def test_a_failed_write_leaves_the_old_trace(self, tmp_path, monkeypatch):
        path = write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        before = path.read_bytes()
        inode = path.stat().st_ino

        def half_open(name, mode):
            fh = open(name, mode)
            write = fh.write

            def half(text):
                write(text[:40])
                raise OSError(28, "No space left on device")

            fh.write = half
            return fh

        monkeypatch.setattr(model, "open", half_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_trace(make_trace(D1, "alpha", "handshake", 3), tmp_path)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

        monkeypatch.delattr(model, "open")
        assert write_trace(make_trace(D1, "alpha", "handshake", 3), tmp_path) == path
        assert read_trace(path).error_code == 3
        assert path.stat().st_ino != inode  # a new file, which the verdict index sees
        assert os.listdir(path.parent) == [path.name]

    def test_unknown_fields_preserved(self, tmp_path):
        trace = make_trace(D1, "alpha", "handshake", 0)
        doc = trace.to_json()
        doc["x-custom-annotation"] = {"who": "future tool"}
        path = tmp_path / D1 / "alpha_handshake.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(doc))
        loaded = read_trace(path)
        assert loaded.extra == {"x-custom-annotation": {"who": "future tool"}}
        assert loaded.to_json()["x-custom-annotation"] == {"who": "future tool"}

    def test_corrupt_file_skipped_with_warning(self, tmp_path):
        for i in range(9):
            write_trace(make_trace(D1, f"t{i}", "handshake", 0), tmp_path)
        bad = tmp_path / D1 / "broken.json"
        bad.write_text("{not json")
        loaded, warnings = read_corpus(tmp_path)
        assert len(entries(loaded)) == 9
        assert len(warnings) == 1 and "broken.json" in warnings[0]

    def test_duplicate_key_skipped_with_warning(self, tmp_path):
        write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        dup = tmp_path / D1 / "zzz_duplicate.json"
        dup.write_text(json.dumps(make_trace(D1, "alpha", "handshake", 5).to_json()))
        loaded, warnings = read_corpus(tmp_path)
        assert len(entries(loaded)) == 1
        assert entries(loaded)[0][1].error_code == 0
        assert len(warnings) == 1

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_file_not_in_plain_utf8_skipped_with_warning(self, tmp_path, encoding):
        write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        odd = tmp_path / D1 / "beta_handshake.json"
        doc = make_trace(D1, "beta", "handshake", 0).to_json()
        odd.write_text(json.dumps(doc), encoding=encoding)
        loaded, warnings = read_corpus(tmp_path)
        assert [target for (_, target, _), _ in entries(loaded)] == ["alpha"]
        assert len(warnings) == 1 and warnings[0].startswith(f"{odd}: ")

    def test_paths_are_read_in_component_order(self, tmp_path):
        # a plain string sort would put a-b/y.json before a/z.json
        for rel, code in (("a-b/y.json", 7), ("a/z.json", 5), ("a/b/w.json", 3)):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(make_trace(D1, "alpha", "handshake", code).to_json()))
        loaded, warnings = read_corpus(tmp_path)
        assert [entry.error_code for _, entry in entries(loaded)] == [3]
        assert loaded.path(D1, "alpha", "handshake") == "a/b/w.json"
        assert [w.split(": ", 1)[0] for w in warnings] == [
            str(tmp_path / "a" / "z.json"),
            str(tmp_path / "a-b" / "y.json"),
        ]

    def test_unlistable_directory_is_a_warning(self, tmp_path, monkeypatch):
        write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        write_trace(make_trace(D2, "alpha", "handshake", 0), tmp_path)
        # chmod does not lock a directory against root, so refuse its listing here
        locked = str(tmp_path / D2)
        scandir = os.scandir

        def refusing(path):
            if os.fspath(path) == locked:
                raise PermissionError(13, "Permission denied", path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refusing)
        loaded, warnings = read_corpus(tmp_path)
        assert [date for (date, _, _), _ in entries(loaded)] == [D1]
        assert len(warnings) == 1 and warnings[0].startswith(f"{locked}: PermissionError")

    def test_sanitized_target_names_do_not_collide(self, tmp_path):
        paths = {
            write_trace(make_trace(D1, name, "handshake", 0), tmp_path).name
            for name in ("a b", "a_b")
        }
        assert len(paths) == 2
        assert "a_b_handshake.json" in paths  # a name that needs no change keeps it
        loaded, warnings = read_corpus(tmp_path)
        assert warnings == []
        assert sorted(target for (_, target, _), _ in entries(loaded)) == ["a b", "a_b"]

    def test_vn_results_preserved_exactly(self, tmp_path):
        versions = [1, 0xFF00001D, 0x709A50C4]
        trace = make_trace(D1, "alpha", "version_negotiation", 0, {"versions": versions})
        path = write_trace(trace, tmp_path)
        assert read_trace(path).results["versions"] == versions
        loaded, _ = read_corpus(tmp_path)
        assert loaded.get(D1, "alpha", "version_negotiation").versions == tuple(versions)

    @pytest.mark.parametrize("versions, ok", [([0, 0xFFFFFFFF], True), ([-1], False), ([2**32], False)])
    def test_versions_are_32_bit(self, versions, ok):
        doc = make_trace(D1, "alpha", "version_negotiation", 0, {"versions": versions}).to_json()
        if ok:
            assert Trace.from_json(doc).results["versions"] == versions
        else:
            with pytest.raises(ValueError, match="results.versions"):
                Trace.from_json(doc)

    def test_corpus_holds_its_index_not_its_traces(self, tmp_path):
        """A trace is dropped once indexed, packet log and all: what a read
        corpus holds grows with its verdicts, not with the bytes read."""
        packets = [
            {"direction": "rx", "timestamp_ms": i, "level": "one_rtt", "cleartext_hex": "ab" * 1000, "dcid_len": 8}
            for i in range(20)
        ]
        for n in range(50):
            trace = make_trace(D1, f"ep{n:02d}", "version_negotiation", 0, {"versions": [1]})
            trace.packets = packets
            write_trace(trace, tmp_path)
        sizes = [path.stat().st_size for path in tmp_path.rglob("*.json")]
        assert len(sizes) == 50 and min(sizes) >= 40_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded, warnings = read_corpus(tmp_path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert warnings == [] and len(entries(loaded)) == 50
        assert held < sum(sizes) / 10

    def test_trace_builder_offsets_and_notes(self):
        builder = TraceBuilder("handshake", 1, {"name": "x", "host": "h", "port": 1})
        builder.log_packet("tx", "initial", b"\xc0\x00", 8)
        builder.log_undecryptable("one_rtt", b"\xff")
        builder.note("agent_error", {"agent": "tls"})
        trace = builder.finalize(0, {"ok": True})
        assert trace.packets[0]["cleartext_hex"] == "c000"
        assert trace.packets[1]["decrypt_error"] is True
        assert trace.notes[0]["kind"] == "agent_error"
        assert trace.error_code == 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DROP = object()


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(
        [
            ("scenario",),
            ("started_at",),
            ("target",),
            ("target", "name"),
            ("error_code",),
            ("results",),
            ("results", "versions"),
        ]
    ),
    value=_JSON_VALUES | st.sampled_from([_DROP, 10**30, -(10**30), [-1], [2**40]]),
)
def test_a_mutated_trace_is_indexed_or_named_in_one_warning(path, value):
    """Whatever JSON a field the report reads holds, the report's read,
    metrics and grid run to the end, and the file is either indexed or
    named in exactly one warning."""
    doc = make_trace(D2, "beta", "version_negotiation", 0, {"versions": [1]}).to_json()
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if value is _DROP:
        del holder[last]
    else:
        holder[last] = value
    with tempfile.TemporaryDirectory() as root:
        write_trace(make_trace(D1, "alpha", "handshake", 0), root)
        odd = os.path.join(root, "odd.json")
        with open(odd, "w") as fh:
            json.dump(doc, fh)
        loaded, warnings = read_corpus(root)
        assert len(warnings) == len([w for w in warnings if w.startswith(f"{odd}: ")]) <= 1
        assert len(entries(loaded)) + len(warnings) == 2
        metric_versions_over_time(loaded)
        metric_handshake_success(loaded)
        outcomes_to_csv(metric_outcomes(loaded))
        for date in loaded.dates():
            render_grid(loaded, date)


def _checked(doc: dict) -> Trace | None:
    try:
        return Trace.from_json(doc)
    except (KeyError, TypeError, ValueError):
        return None


@settings(max_examples=300, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(
            st.sampled_from(
                [
                    ("format",),
                    ("scenario",),
                    ("scenario_version",),
                    ("target",),
                    ("target", "name"),
                    ("target", "host"),
                    ("started_at",),
                    ("duration_ms",),
                    ("error_code",),
                    ("results",),
                    ("results", "versions"),
                    ("results", "ok"),
                    ("packets",),
                    ("notes",),
                    ("unknown",),
                ]
            ),
            _JSON_VALUES | st.sampled_from([_DROP, 10**30, [-1], [2**40]]),
        ),
        min_size=1,
        max_size=3,
    )
)
# the edges of each value a record holds, which random mutations rarely reach
@example(mutations=[(("started_at",), -62_135_596_800_000)])  # 0001-01-01
@example(mutations=[(("started_at",), 253_402_300_799_999)])  # 9999-12-31
@example(mutations=[(("target", "name"), ""), (("scenario",), "")])
@example(mutations=[(("error_code",), -(10**30))])
@example(mutations=[(("results", "versions"), [0, 0xFFFF_FFFF])])
def test_the_stored_fields_decide_a_trace_as_the_whole_file_does(mutations):
    """A verdict-index record stands in for its file only if the record
    check accepts the record of every document that ``Trace.from_json``
    accepts, after the record's trip through the index file, and the
    record gives the key and entry that ``RunCorpus.add`` makes of the
    whole trace. An entry read from a field the record does not hold, or
    a record check stricter than ``from_json``, fails here until the
    record holds that field (and ``_INDEX_FORMAT`` is bumped)."""
    doc = make_trace(D2, "beta", "version_negotiation", 0, {"versions": [1]}).to_json()
    for path, value in mutations:
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder.get(key) if type(holder) is dict else None
        if type(holder) is not dict:
            continue
        if value is _DROP:
            holder.pop(last, None)
        else:
            holder[last] = value
    text = json.dumps(doc)
    whole = _checked(json.loads(text))
    rel = os.path.join("d", "a.json")
    with tempfile.TemporaryDirectory() as root, mock.patch.object(model, "_clock_ns", later_clock):
        os.mkdir(os.path.join(root, "d"))
        with open(os.path.join(root, rel), "w") as fh:
            fh.write(text)
        first, first_warnings = read_corpus(root)
        again, again_warnings = read_corpus(root)
    if whole is None:
        assert (len(first_warnings), len(again_warnings), again.decoded) == (1, 1, 1)
        return
    from_file = RunCorpus()
    from_file.add(whole, rel)
    assert first_warnings == again_warnings == []
    assert (first.decoded, again.from_index) == (1, 1)
    assert entries(again) == entries(first) == entries(from_file)


class TestMetrics:
    def test_versions_over_time_matches_hand_count(self):
        table = metric_versions_over_time(corpus())
        assert table.rows == EXPECTED_VERSIONS_ROWS
        assert table.tested == EXPECTED_TESTED

    def test_versions_empty_corpus(self):
        table = metric_versions_over_time(RunCorpus())
        assert table.rows == [] and table.tested == []

    def test_handshake_success_matches_hand_count(self):
        assert metric_handshake_success(corpus()) == EXPECTED_HANDSHAKE_SUCCESS

    def test_outcomes_match_hand_computation(self):
        rows = metric_outcomes(corpus())
        got = [
            (r.date, round(r.success_pct, 6), round(r.failure_pct, 6), round(r.error_pct, 6), r.endpoints, r.tests)
            for r in rows
        ]
        assert got == EXPECTED_OUTCOMES

    def test_outcome_percentages_sum_to_100(self):
        for row in metric_outcomes(corpus()):
            assert abs(row.success_pct + row.failure_pct + row.error_pct - 100.0) < 0.1

    def test_outcomes_csv_shape(self):
        text = outcomes_to_csv(metric_outcomes(corpus()))
        lines = text.strip().splitlines()
        assert lines[0] == "date,success_pct,failure_pct,error_pct,endpoints,tests"
        assert lines[1] == f"{D1},60.0,20.0,20.0,2,10"

    def test_metrics_idempotent(self):
        c = corpus()
        assert metric_versions_over_time(c) == metric_versions_over_time(c)
        assert metric_outcomes(c) == metric_outcomes(c)


class TestGrid:
    def test_two_success_endpoint_shows_two_success_cells(self):
        html_doc, csv_doc = render_grid(corpus(), D3)
        # delta column in the CSV: exactly two zeros
        lines = csv_doc.strip().splitlines()
        header = lines[0].split(",")
        delta_col = header.index("delta")
        codes = [line.split(",")[delta_col] for line in lines[1:]]
        assert codes.count("0") == 2

    def test_full_pass_endpoint_all_success(self):
        _, csv_doc = render_grid(corpus(), D1)
        lines = csv_doc.strip().splitlines()
        alpha_col = lines[0].split(",").index("alpha")
        codes = [line.split(",")[alpha_col] for line in lines[1:]]
        assert all(c == "0" for c in codes)

    def test_missing_pair_is_blank_not_error(self):
        _, csv_doc = render_grid(corpus(), D1)
        lines = csv_doc.strip().splitlines()
        gamma_col = lines[0].split(",").index("gamma")
        vn_row = next(line for line in lines[1:] if line.startswith("version_negotiation"))
        assert vn_row.split(",")[gamma_col] == ""

    def test_html_links_and_colors(self):
        html_doc, _ = render_grid(corpus(), D1)
        assert f"{D1}/alpha_handshake.json" in html_doc
        assert "background:#c8e6c9" in html_doc  # success
        assert "background:#ffcdd2" in html_doc  # failure
        assert "background:#ffe0b2" in html_doc  # error


class TestIndex:
    def test_nameless_target_counts_everywhere_it_is_tested(self):
        traces = [
            make_trace(D1, "alpha", "handshake", 0),
            make_trace(D1, "alpha", "flow_control", 0),
            make_trace(D1, "x", "version_negotiation", 0, {"versions": [1]}),
            make_trace(D1, "x", "handshake", 0),
            make_trace(D1, "x", "flow_control", 7),
        ]
        for trace in traces[2:]:
            del trace.target["name"]
        c = RunCorpus(traces=traces)
        assert c.targets(D1) == ["alpha", "unknown"]
        assert metric_versions_over_time(c).rows == [(D1, 1, 1)]
        assert metric_handshake_success(c) == [(D1, 2)]
        [row] = metric_outcomes(c)
        assert (row.endpoints, row.tests, row.failure_pct) == (2, 2, 50.0)
        _, csv_doc = render_grid(c, D1)
        assert csv_doc.splitlines()[1:] == [
            "flow_control,0,7",
            "handshake,0,0",
            "version_negotiation,,0",
        ]

    def test_first_trace_of_a_key_wins(self):
        first = make_trace(D1, "alpha", "handshake", 0)
        c = RunCorpus(traces=[first, make_trace(D1, "alpha", "handshake", 3)])
        kept = CorpusEntry(0, (), f"{D1}/alpha_handshake.json")
        assert entries(c) == [((D1, "alpha", "handshake"), kept)]
        assert c.get(D1, "alpha", "handshake") == kept

    def test_report_reads_each_trace_date_a_constant_number_of_times(self, monkeypatch):
        traces = [
            make_trace(date, f"ep{n:03d}", scenario, (n + len(scenario)) % 3 * 100, {"versions": [1]})
            for date in (D1, D2, D3)
            for n in range(60)
            for scenario in ("version_negotiation", "handshake", "flow_control", "zero_rtt")
        ]
        evals = 0
        date = Trace.date.fget

        def counted(trace):
            nonlocal evals
            evals += 1
            return date(trace)

        monkeypatch.setattr(Trace, "date", property(counted))
        c = RunCorpus(traces=traces)
        metric_versions_over_time(c)
        metric_handshake_success(c)
        metric_outcomes(c)
        for day in c.dates():
            render_grid(c, day)
        assert evals <= 2 * len(traces)


def test_benchmark_tracer_installs_over_the_program():
    """The benchmark's traced mode wraps program names it looks up by
    string (``RunCorpus.get`` on the class, ``Trace.date``'s getter); a
    rename must fail here, not only under ``bench/run.py --trace 1``."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "bench"), str(root / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import workloads, tracer; tracer.Tracer().install()"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
