"""Suite runner CLI.

``quicprobe run`` probes targets and writes one JSON trace per
(target, scenario) under a run-date directory; ``quicprobe report``
post-processes a trace corpus into metric CSVs and the results grid.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .protection import DEFAULT_PROVIDER_SEED
from .scenarios import ALL_SCENARIOS, DEFAULT_TIMEOUT_MS, SuitePlan, run_suite
from .traces import (
    handshake_success_to_csv,
    metric_handshake_success,
    metric_outcomes,
    metric_versions_over_time,
    outcomes_to_csv,
    read_corpus,
    render_grid,
    write_trace,
)


def parse_targets_file(path: str) -> list[dict]:
    """One ``name,host:port`` per line; blank lines and # comments skipped."""
    targets = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, endpoint = line.split(",", 1)
            host, port = endpoint.rsplit(":", 1)
            targets.append({"name": name.strip(), "host": host.strip(), "port": int(port)})
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: expected 'name,host:port', got {line!r}")
    if not targets:
        raise SystemExit(f"{path}: no targets")
    return targets


def _cmd_run(args) -> int:
    targets = parse_targets_file(args.targets)
    if args.scenarios == "all":
        names = sorted(ALL_SCENARIOS)
    else:
        names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    try:
        plan = SuitePlan(
            targets=targets,
            scenarios=names,
            seed=args.seed,
            timeout_ms=args.timeout_ms,
            provider_seed=args.provider_seed,
            parallel=args.parallel,
        )
    except ValueError as exc:
        raise SystemExit(f"{exc}; available: {', '.join(sorted(ALL_SCENARIOS))}")
    traces = run_suite(plan)
    out = Path(args.out)
    for trace in traces:
        path = write_trace(trace, out)
        status = "ok" if trace.error_code == 0 else f"code {trace.error_code}"
        print(f"{trace.target['name']:20s} {trace.scenario:28s} {status:10s} -> {path}")
    return 0


def _cmd_report(args) -> int:
    corpus, warnings = read_corpus(args.corpus)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not corpus.traces:
        raise SystemExit("no traces found")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    versions = metric_versions_over_time(corpus)
    (out / "versions_over_time.csv").write_text(versions.to_csv())
    (out / "endpoints_tested.csv").write_text(versions.tested_to_csv())
    (out / "handshake_success.csv").write_text(
        handshake_success_to_csv(metric_handshake_success(corpus))
    )
    (out / "outcomes.csv").write_text(outcomes_to_csv(metric_outcomes(corpus)))
    dates = [args.date] if args.date else corpus.dates()
    corpus_link = Path(os.path.relpath(args.corpus, out)).as_posix()
    for date in dates:
        html_doc, csv_doc = render_grid(corpus, date, corpus_link)
        (out / f"grid_{date}.html").write_text(html_doc)
        (out / f"grid_{date}.csv").write_text(csv_doc)
    print(f"report written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="quicprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenarios against targets")
    run_p.add_argument("--targets", required=True, help="file with one name,host:port per line")
    run_p.add_argument("--scenarios", default="all", help="'all' or a comma-separated list")
    run_p.add_argument("--seed", type=int, default=0, help="scenario ordering seed")
    run_p.add_argument("--timeout-ms", type=int, default=DEFAULT_TIMEOUT_MS, dest="timeout_ms")
    run_p.add_argument("--out", default="traces", help="trace output directory")
    run_p.add_argument("--parallel", type=int, default=1, help="concurrent targets")
    run_p.add_argument(
        "--provider-seed",
        type=int,
        default=DEFAULT_PROVIDER_SEED,
        dest="provider_seed",
        help="scripted-handshake seed (must match the server under test)",
    )
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="generate CSVs and the results grid")
    report_p.add_argument("--corpus", required=True, help="trace directory to read")
    report_p.add_argument("--out", default="report", help="report output directory")
    report_p.add_argument("--date", default=None, help="grid date (default: every date)")
    report_p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
