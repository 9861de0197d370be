"""Output checks for the suite workloads.

Each check is either computed apart from the program under test or a
property the method must have. None compares with a stored copy of
earlier output, and none looks at the date a trace was written on or at
how long anything took.
"""

from __future__ import annotations

import json
from collections import Counter

from quicprobe.dissector import coverage_ok, dissect, quic_v1_description
from quicprobe.scenarios import codes
from quicprobe.wire import parse_frames, parse_header

from corpus import SCENARIOS


def _reparses(entry: dict, desc) -> bool:
    raw = bytes.fromhex(entry["cleartext_hex"])
    header, offset = parse_header(raw, short_dcid_len=entry.get("dcid_len", 8))
    if header.packet_type.value not in ("version_negotiation", "retry"):
        parse_frames(raw[offset:])
    return coverage_ok(dissect(raw, desc), len(raw))


def check_suite(
    traces,
    sent_log: list[dict],
    fault: str,
    expected: dict[str, int],
    names=SCENARIOS,
) -> tuple[list[tuple[str, str, int, int]], list[str]]:
    """Check one suite's traces against its server's own ``sent_log``.

    ``expected`` maps a scenario to its nonzero code; every other
    scenario must return 0. ``names`` are the scenarios the suite ran.
    Returns the mismatches, one (fault, scenario, got, want) for each
    verdict that missed its expectation, and the problems: output checks
    that failed, any of which makes the run incorrect."""
    mismatches: list[tuple[str, str, int, int]] = []
    problems: list[str] = []
    tag = f"{fault}:"
    for trace in traces:
        want = expected.get(trace.scenario, 0)
        if trace.error_code != want:
            mismatches.append((fault, trace.scenario, trace.error_code, want))
        if trace.error_code not in codes.REGISTRY:
            problems.append(f"{tag} {trace.scenario} code {trace.error_code} not in the registry")

    counts = Counter(t.scenario for t in traces)
    if counts != Counter(names):
        problems.append(f"{tag} scenarios run {dict(counts)}, want each of {list(names)} once")

    desc = quic_v1_description()
    decrypted = Counter()
    undecryptable = 0
    for trace in traces:
        for entry in trace.packets:
            if entry.get("decrypt_error"):
                undecryptable += 1
                continue
            try:
                ok = _reparses(entry, desc)
            except Exception as exc:  # any parse error is a finding, not a crash
                ok = False
                problems.append(f"{tag} {trace.scenario} packet does not re-parse: {exc!r}")
            if not ok:
                problems.append(f"{tag} {trace.scenario} packet dissects without full coverage")
            if entry["direction"] == "rx":
                decrypted[entry["cleartext_hex"]] += 1

    sent = Counter(entry["cleartext_hex"] for entry in sent_log)
    unsent = decrypted - sent
    if unsent:
        problems.append(
            f"{tag} {sum(unsent.values())} decrypted packets are not in the server's sent_log"
        )
    corrupted = sum(1 for entry in sent_log if entry["corrupted"])
    if undecryptable > corrupted:
        problems.append(
            f"{tag} {undecryptable} undecryptable packets, server corrupted only {corrupted}"
        )

    if fault == "none":
        by_name = {t.scenario: t for t in traces}
        fc = by_name.get("flow_control")
        if fc is not None and (
            fc.results.get("first_burst_bytes") != 80 or fc.results.get("total_bytes") != 160
        ):
            problems.append(
                f"{tag} flow_control burst {fc.results.get('first_burst_bytes')}, "
                f"total {fc.results.get('total_bytes')}; want 80 then 160"
            )
        av = by_name.get("address_validation")
        ratio = av.results.get("ratio") if av is not None else None
        if av is not None and (ratio is None or ratio > 3):
            problems.append(f"{tag} address_validation ratio {ratio}, want at most 3")
    return mismatches, problems


def check_written(paths, traces, tag: str) -> list[str]:
    """The files ``write_trace`` returned hold the traces' verdicts, one
    file per trace. Compares paths, not the date directories they sit in."""
    problems = []
    if len(set(paths)) != len(traces):
        problems.append(f"{tag} {len(set(paths))} distinct trace files for {len(traces)} traces")
    for path, trace in zip(paths, traces):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("error_code") != trace.error_code or doc.get("scenario") != trace.scenario:
            problems.append(f"{tag} {path.name} does not hold its trace's verdict")
    return problems
