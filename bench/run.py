"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload compliant_suite --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run (see
README.md). The program is imported from ``src/`` next to this
directory; without it the run fails before printing a result.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from corpus import SCENARIOS  # noqa: E402  (stdlib only; imports no quicprobe)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("compliant_suite", "fault_matrix", "report_corpus")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, first: int) -> list:
    """Whole rounds until the next one would end past ``seconds``; at
    least one."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(workload.run_round(first + len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def layer_metrics(rows: dict, tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics per round of the traced part of the run, from the
    tracer's summary ``rows``."""
    n = len(traced)

    def row(key):
        return rows.get(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def calls(key):
        return row(key)["calls"] / n

    def us_per_call(key):
        r = row(key)
        return r["incl_s"] * 1e6 / r["calls"] if r["calls"] else 0.0

    def seconds(*keys):
        return sum(row(key)["incl_s"] for key in keys) / n

    wait = seconds("conn.select")
    metrics = {
        "wire.decode_varint.calls": (calls("wire.decode_varint"), "count"),
        "wire.parse_frames.calls": (calls("wire.parse_frames"), "count"),
        "wire.parse_frames.us_per_call": (us_per_call("wire.parse_frames"), "us"),
        "wire.serialize_frames.us_per_call": (us_per_call("wire.serialize_frames"), "us"),
        "protection.protect.calls": (calls("protection.protect"), "count"),
        "protection.unprotect.calls": (calls("protection.unprotect"), "count"),
        "protection.protect.us_per_call": (us_per_call("protection.protect"), "us"),
        "protection.unprotect.us_per_call": (us_per_call("protection.unprotect"), "us"),
        "protection.derive_initial_keys.us_per_call": (
            us_per_call("protection.derive_initial_keys"),
            "us",
        ),
        "conn.wait_s": (wait, "s"),
        "conn.busy_s": (seconds("conn.Connection.pump") - wait, "s"),
        "conn.pump.calls": (calls("conn.Connection.pump"), "count"),
        "conn.bytes_tx": (tracer.bytes_tx / n, "count"),
        "conn.bytes_rx": (tracer.bytes_rx / n, "count"),
    }
    for name in SCENARIOS:
        metrics[f"scenarios.{name}.wall_ms"] = (seconds(f"scenarios.{name}.run") * 1e3, "ms")
    metrics.update(
        {
            "traces.log_packet.calls": (calls("traces.TraceBuilder.log_packet"), "count"),
            "traces.write_trace.us_per_call": (us_per_call("traces.write_trace"), "us"),
            "traces.read_corpus_s": (seconds("traces.read_corpus"), "s"),
            "traces.metrics_s": (
                seconds(
                    "traces.metric_versions_over_time",
                    "traces.metric_handshake_success",
                    "traces.metric_outcomes",
                ),
                "s",
            ),
            "traces.render_grid_s": (seconds("traces.render_grid"), "s"),
            "traces.corpus_get.calls": (calls("traces.RunCorpus.get"), "count"),
            "traces.date.evals": (calls("traces.Trace.date"), "count"),
            "faultsrv.cpu_s": (sum(r.cpu_s - r.client_cpu_s for r in traced) / n, "s"),
            "faultsrv.packets_sent": (sum(r.server_packets for r in traced) / n, "count"),
        }
    )
    for metric in ("wall_s", "cpu_s"):
        base = statistics.fmean(getattr(r, metric) for r in untraced)
        with_tracing = statistics.fmean(getattr(r, metric) for r in traced)
        metrics[f"tracing.overhead_{metric[:-2]}_pct"] = (100.0 * (with_tracing - base) / base, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def end_to_end(setup_s: float, rounds: list, factor: float) -> dict:
    """The end-to-end metrics, CPU time at reference speed (see pace.py).

    Set-up is almost all imports, so all of it is scaled; a round's wall
    time keeps its off-CPU part, the waiting, and scales its CPU part.
    """
    wall_s = statistics.fmean(r.wall_s for r in rounds)
    cpu_s = statistics.fmean(r.cpu_s for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"measured: setup_s {setup_s:.4f} wall_s {wall_s:.4f} cpu_s {cpu_s:.4f}"
        f" pace_factor {factor:.4f}",
        file=sys.stderr,
    )
    return {
        "setup_s": {"value": setup_s * factor, "unit": "s"},
        "wall_s": {"value": wall_s + cpu_s * (factor - 1), "unit": "s"},
        "cpu_s": {"value": cpu_s * factor, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quicprobe" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out = OUT / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        # the previous run's output goes only now: removing a corpus is
        # no part of the program's set-up
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workloads.PACE.sample()
        workload.prepare()
        if args.trace:
            import tracer as tracing

            untraced = run_rounds(workload, args.seconds / 2, 0)
            tracer = tracing.Tracer()
            tracer.install()
            workload.tracer = tracer
            traced = run_rounds(workload, args.seconds / 2, len(untraced))
            rounds = untraced + traced
        else:
            rounds = run_rounds(workload, args.seconds, 0)
    finally:
        workload.close()

    for rnd in rounds:
        for mismatch in rnd.mismatches:
            print("mismatch (fault, scenario, got, want): %s" % (mismatch,), file=sys.stderr)
        for problem in rnd.problems:
            print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        tracer.dump(out / "spans.bin")
        rows = tracer.summary()
        (out / "layers.json").write_text(json.dumps(rows, indent=1, sort_keys=True))
        metrics = layer_metrics(rows, tracer, traced, untraced)
    else:
        metrics = end_to_end(setup_s, rounds, workloads.PACE.factor())
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
