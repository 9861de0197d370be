import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from quicprobe.traces import (
    RunCorpus,
    Trace,
    TraceBuilder,
    metric_handshake_success,
    metric_outcomes,
    metric_versions_over_time,
    outcomes_to_csv,
    read_corpus,
    render_grid,
    write_trace,
)

from .corpus_fixtures import (
    D1,
    D2,
    D3,
    EXPECTED_HANDSHAKE_SUCCESS,
    EXPECTED_OUTCOMES,
    EXPECTED_TESTED,
    EXPECTED_VERSIONS_ROWS,
    build_synthetic_corpus,
    make_trace,
)


def corpus() -> RunCorpus:
    return RunCorpus(traces=build_synthetic_corpus())


class TestPersistence:
    def test_write_read_round_trip(self, tmp_path):
        trace = make_trace(D1, "alpha", "handshake", 0, {"versions": [1, 0x51474F]})
        trace.packets.append(
            {"direction": "tx", "timestamp_ms": 1, "level": "initial", "cleartext_hex": "c0", "dcid_len": 8}
        )
        path = write_trace(trace, tmp_path)
        assert path.parent.name == D1
        loaded, warnings = read_corpus(tmp_path)
        assert warnings == []
        assert loaded.traces == [trace]

    def test_unknown_fields_preserved(self, tmp_path):
        trace = make_trace(D1, "alpha", "handshake", 0)
        doc = trace.to_json()
        doc["x-custom-annotation"] = {"who": "future tool"}
        path = tmp_path / D1 / "alpha_handshake.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(doc))
        loaded, _ = read_corpus(tmp_path)
        assert loaded.traces[0].extra == {"x-custom-annotation": {"who": "future tool"}}
        assert loaded.traces[0].to_json()["x-custom-annotation"] == {"who": "future tool"}

    def test_corrupt_file_skipped_with_warning(self, tmp_path):
        for i in range(9):
            write_trace(make_trace(D1, f"t{i}", "handshake", 0), tmp_path)
        bad = tmp_path / D1 / "broken.json"
        bad.write_text("{not json")
        loaded, warnings = read_corpus(tmp_path)
        assert len(loaded.traces) == 9
        assert len(warnings) == 1 and "broken.json" in warnings[0]

    def test_duplicate_key_skipped_with_warning(self, tmp_path):
        write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        dup = tmp_path / D1 / "zzz_duplicate.json"
        dup.write_text(json.dumps(make_trace(D1, "alpha", "handshake", 5).to_json()))
        loaded, warnings = read_corpus(tmp_path)
        assert len(loaded.traces) == 1
        assert loaded.traces[0].error_code == 0
        assert len(warnings) == 1

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_file_not_in_plain_utf8_skipped_with_warning(self, tmp_path, encoding):
        write_trace(make_trace(D1, "alpha", "handshake", 0), tmp_path)
        odd = tmp_path / D1 / "beta_handshake.json"
        doc = make_trace(D1, "beta", "handshake", 0).to_json()
        odd.write_text(json.dumps(doc), encoding=encoding)
        loaded, warnings = read_corpus(tmp_path)
        assert [t.target_name for t in loaded.traces] == ["alpha"]
        assert len(warnings) == 1 and warnings[0].startswith(f"{odd}: ")

    def test_paths_are_read_in_component_order(self, tmp_path):
        # a plain string sort would put a-b/y.json before a/z.json
        for rel, code in (("a-b/y.json", 7), ("a/z.json", 5), ("a/b/w.json", 3)):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(make_trace(D1, "alpha", "handshake", code).to_json()))
        loaded, warnings = read_corpus(tmp_path)
        assert [t.error_code for t in loaded.traces] == [3]
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
        assert [t.date for t in loaded.traces] == [D1]
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
        assert sorted(t.target_name for t in loaded.traces) == ["a b", "a_b"]

    def test_vn_results_preserved_exactly(self, tmp_path):
        versions = [1, 0xFF00001D, 0x709A50C4]
        trace = make_trace(D1, "alpha", "version_negotiation", 0, {"versions": versions})
        write_trace(trace, tmp_path)
        loaded, _ = read_corpus(tmp_path)
        assert loaded.traces[0].results["versions"] == versions

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
    value=_JSON_VALUES | st.sampled_from([_DROP, 10**30, -(10**30)]),
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
        assert len(loaded.traces) + len(warnings) == 2
        metric_versions_over_time(loaded)
        metric_handshake_success(loaded)
        outcomes_to_csv(metric_outcomes(loaded))
        for date in loaded.dates():
            render_grid(loaded, date)


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
        assert c.traces == [first]
        assert c.get(D1, "alpha", "handshake") is first

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
