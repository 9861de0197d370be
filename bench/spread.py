"""Run one workload once per seed and report each end-to-end metric's
median and quartile spread (interquartile range over median).

    python3 bench/spread.py --workload fault_matrix --seeds 1-10 --seconds 30

Runs are sequential, each in its own process, from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        for line in proc.stderr.splitlines():
            if line.startswith(("mismatch", "check failed")):
                print(f"seed {seed}: {line}")
            if line.startswith("measured:"):
                # the times as measured, before scaling to reference speed
                words = line.split()[1:]
                for name, value in zip(words[::2], words[1::2]):
                    values.setdefault(f"({name})", []).append(float(value))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        print(f"{name:14s} median {q2:.4f}  spread {(q3 - q1) / q2:.4f}")
    print(f"failed shares: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
