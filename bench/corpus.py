"""Seeded trace corpus for the ``report_corpus`` workload, and the report
rows it must produce.

The generator draws an assignment table, one cell per (date, target):
whether the endpoint was tested that day, how it behaved, the code of
each of its seven scenarios and the versions its negotiation reply
announced. Traces are written as plain format-1 JSON; their packet logs
are copied from real loopback traces, so file sizes are realistic.

``expected_report`` derives every CSV row of ``quicprobe report`` from
that table with plain counting. It deliberately imports nothing from
``quicprobe``, so a fault in the program's post-processing cannot also
hide in the expectation.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timezone
from pathlib import Path

DATES = ("2018-03-14", "2018-06-20", "2018-11-07")

SCENARIOS = (
    "version_negotiation",
    "handshake",
    "transport_parameters",
    "address_validation",
    "flow_control",
    "stream_opening_reordering",
    "zero_rtt",
)
# the scenarios whose outcomes count, per the README's outcomes rule
POST_HANDSHAKE = SCENARIOS[2:]

RESERVED_VERSION = 0x1A2A3A4A
# announced version lists, with weights; one repeats a version, one echoes
# the reserved version (a malformed reply, code 1)
VERSION_LISTS = (
    ([0x00000001], 50),
    ([0x00000001, 0xFF00001D], 20),
    ([0xFF00001D], 10),
    ([0x00000001, 0xFF00001D, 0xFF00001C], 10),
    ([0xFF00001C, 0xFF00001D, 0xFF00001D], 5),
)
FAILURE_CODES = {
    "transport_parameters": (5,),
    "address_validation": (6,),
    "flow_control": (7, 8, 9, 10),
    "stream_opening_reordering": (11, 12, 13),
    "zero_rtt": (14, 15, 16),
}
PREREQ_CODES = (200, 203, 204, 205)

# Every share below is chosen so that each path of the report is reached
# on every seed; none is measured, and the mix does not model real
# endpoints. The two that remove traces (absent cells and missing pairs)
# are kept small: one absent target a date and a handful of missing pairs.
# Cell kinds and their shares of a date's targets, in percent:
ABSENT, SILENT, HANDSHAKE_FAILED, WORKING = "absent", "silent", "handshake_failed", "working"
KINDS = ((ABSENT, 2), (SILENT, 7), (HANDSHAKE_FAILED, 15), (WORKING, 76))
MISSING_PAIR_SHARE = 0.005


def _pick(rng: random.Random, weighted):
    values = [value for value, _ in weighted]
    weights = [weight for _, weight in weighted]
    return rng.choices(values, weights)[0]


def _deck(rng: random.Random, n_targets: int) -> list[str]:
    """The cell kinds of one date in exact proportions, shuffled, so every
    seed gives a corpus of the same size."""
    deck = []
    for kind, weight in KINDS[:-1]:
        deck += [kind] * (n_targets * weight // 100)
    deck += [WORKING] * (n_targets - len(deck))
    rng.shuffle(deck)
    return deck


def draw_table(seed: int, n_targets: int) -> dict[tuple[str, str], dict[str, tuple[int, list | None]]]:
    """(date, target) -> {scenario: (code, announced versions or None)}.

    Absent cells are left out; a scenario missing from a cell is a pair
    that was not run, so the grid shows a blank cell for it."""
    rng = random.Random(seed)
    table = {}
    for date in DATES:
        answering = []
        for n, kind in enumerate(_deck(rng, n_targets)):
            if kind == ABSENT:
                continue
            cell: dict[str, tuple[int, list | None]] = {}
            if kind == SILENT:
                cell["version_negotiation"] = (201, None)
                for name in SCENARIOS[1:]:
                    cell[name] = (202, None)
            else:
                versions = list(_pick(rng, VERSION_LISTS))
                vn_code = 0
                if rng.random() < 0.05:
                    versions.append(RESERVED_VERSION)
                    vn_code = 1
                cell["version_negotiation"] = (vn_code, versions)
                if kind == HANDSHAKE_FAILED:
                    cell["handshake"] = (rng.choice((2, 3, 4)), None)
                    for name in POST_HANDSHAKE:
                        # a zero here must not count: the handshake failed
                        cell[name] = (rng.choice((0, 203, 204, 205)), None)
                else:
                    cell["handshake"] = (0, None)
                    for name in POST_HANDSHAKE:
                        r = rng.random()
                        if r < 0.75:
                            code = 0
                        elif r < 0.90:
                            code = rng.choice(FAILURE_CODES[name])
                        else:
                            code = rng.choice(PREREQ_CODES)
                        cell[name] = (code, None)
                answering.append(cell)
            table[(date, f"ep{n:04d}")] = cell
        pairs = [(cell, name) for cell in answering for name in SCENARIOS]
        for cell, name in rng.sample(pairs, round(len(pairs) * MISSING_PAIR_SHARE)):
            del cell[name]
    return {key: cell for key, cell in table.items() if cell}


def _midnight_ms(date: str) -> int:
    day = datetime.fromisoformat(date).replace(tzinfo=timezone.utc)
    return int(day.timestamp() * 1000)


def write_corpus(table, root: Path, templates: dict[str, tuple[list, dict]], seed: int) -> None:
    """Write one trace file per table entry below ``root/<date>/``.

    ``templates`` maps a scenario to the (packets, results) of a real
    loopback trace. Start times fall anywhere inside the cell's UTC day."""
    rng = random.Random(seed ^ 0x5EED)
    for (date, target), cell in sorted(table.items()):
        day_dir = root / date
        day_dir.mkdir(parents=True, exist_ok=True)
        midnight = _midnight_ms(date)
        for scenario, (code, versions) in cell.items():
            packets, results = templates[scenario]
            if scenario == "version_negotiation":
                results = {"versions": versions} if versions is not None else {}
            doc = {
                "format": 1,
                "scenario": scenario,
                "scenario_version": 1,
                "target": {"name": target, "host": "192.0.2.1", "port": 443},
                "started_at": midnight + rng.randrange(86_400_000 - 60_000),
                "duration_ms": rng.randrange(5, 3000),
                "error_code": code,
                "results": results,
                "packets": packets,
                "notes": [],
            }
            with open(day_dir / f"{target}_{scenario}.json", "w") as fh:
                json.dump(doc, fh, indent=1)


def expected_report(table) -> dict[str, list[list[str]]]:
    """The rows of every CSV ``quicprobe report`` writes, header included,
    keyed by file name."""
    by_date: dict[str, dict[str, dict]] = {}
    for (date, target), cell in table.items():
        by_date.setdefault(date, {})[target] = cell

    versions_rows = [["date", "version", "endpoints"]]
    tested_rows = [["date", "endpoints_tested"]]
    handshake_rows = [["date", "handshake_success"]]
    outcome_rows = [["date", "success_pct", "failure_pct", "error_pct", "endpoints", "tests"]]
    files = {}
    for date in sorted(by_date):
        cells = by_date[date]
        tested_rows.append([date, str(len(cells))])

        announced: dict[int, int] = {}
        for cell in cells.values():
            if "version_negotiation" in cell:
                for version in set(cell["version_negotiation"][1] or []):
                    announced[version] = announced.get(version, 0) + 1
        for version in sorted(announced):
            versions_rows.append([date, f"0x{version:08x}", str(announced[version])])

        qualifying = [t for t, cell in cells.items() if cell.get("handshake", (None,))[0] == 0]
        handshake_rows.append([date, str(len(qualifying))])
        success = failure = error = 0
        for target in qualifying:
            for name in POST_HANDSHAKE:
                if name not in cells[target]:
                    continue
                code = cells[target][name][0]
                if code == 0:
                    success += 1
                elif code < 200:
                    failure += 1
                else:
                    error += 1
        total = success + failure + error
        if total:
            outcome_rows.append(
                [
                    date,
                    f"{100.0 * success / total:.1f}",
                    f"{100.0 * failure / total:.1f}",
                    f"{100.0 * error / total:.1f}",
                    str(len(qualifying)),
                    str(total),
                ]
            )

        targets = sorted(cells)
        scenarios = sorted({name for cell in cells.values() for name in cell})
        grid = [["scenario"] + targets]
        for name in scenarios:
            grid.append(
                [name]
                + [str(cells[t][name][0]) if name in cells[t] else "" for t in targets]
            )
        files[f"grid_{date}.csv"] = grid

    files["versions_over_time.csv"] = versions_rows
    files["endpoints_tested.csv"] = tested_rows
    files["handshake_success.csv"] = handshake_rows
    files["outcomes.csv"] = outcome_rows
    return files


# Each percentage is rounded to one decimal, so three of them can miss
# 100 by up to 3 x 0.05 even when the counts behind them are right.
OUTCOME_SUM_TOLERANCE = 0.15


def check_report(out_dir: Path, expected: dict[str, list[list[str]]]) -> list[str]:
    """Compare the report under ``out_dir`` with the expected rows.
    Returns one line per problem; an empty list means the report is right."""
    problems = []
    produced = {p.name for p in out_dir.glob("*.csv")}
    if produced != set(expected):
        problems.append(
            f"csv files: missing {sorted(set(expected) - produced)}, "
            f"unexpected {sorted(produced - set(expected))}"
        )
    for name, rows in sorted(expected.items()):
        path = out_dir / name
        if not path.is_file():
            continue
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        if got != rows:
            bad = next(
                (i for i, (a, b) in enumerate(zip(got, rows)) if a != b),
                min(len(got), len(rows)),
            )
            problems.append(
                f"{name}: row {bad} differs: got {got[bad] if bad < len(got) else None}, "
                f"want {rows[bad] if bad < len(rows) else None}"
            )
        if name == "outcomes.csv":
            for row in got[1:]:
                total = sum(float(x) for x in row[1:4])
                if abs(total - 100.0) > OUTCOME_SUM_TOLERANCE + 1e-9:
                    problems.append(f"outcomes.csv: {row[0]} sums to {total}")
    for name in expected:
        if name.startswith("grid_"):
            html_path = out_dir / (name[: -len(".csv")] + ".html")
            date = name[len("grid_") : -len(".csv")]
            if not html_path.is_file() or f"Results grid {date}" not in html_path.read_text():
                problems.append(f"{html_path.name}: missing or without its title")
    return problems
