"""The scenario x implementation results grid, as static HTML and CSV.

Cells are colour-coded success / failure / error and link to the trace
file behind them; a missing (endpoint, scenario) pair is a blank cell.
"""

from __future__ import annotations

import html
import posixpath

from .metrics import csv_text
from .model import RunCorpus, outcome

_CELL_STYLES = {
    "success": "background:#c8e6c9;color:#1b5e20",
    "failure": "background:#ffcdd2;color:#b71c1c",
    "error": "background:#ffe0b2;color:#e65100",
    "blank": "background:#f5f5f5;color:#999",
}


def render_grid(corpus: RunCorpus, date: str, corpus_link: str = "") -> tuple[str, str]:
    """(html, csv) for one run date. A cell links to the file its trace
    was read from (``CorpusEntry.path``), below ``corpus_link``: the corpus
    root as seen from the HTML file."""
    # joined and escaped once per grid: html.escape works one character at
    # a time, so a cell escapes only its own path
    link = html.escape(posixpath.join(corpus_link, ""))
    by_target = corpus.by_target(date)
    targets = list(by_target)
    scenarios = sorted({name for by_scenario in by_target.values() for name in by_scenario})
    rows = [(name, [by_target[t].get(name) for t in targets]) for name in scenarios]

    csv_doc = csv_text(
        ["scenario"] + targets,
        [
            [name] + ["" if entry is None else str(entry.error_code) for entry in cells]
            for name, cells in rows
        ],
    )

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>Results grid {html.escape(date)}</title></head>",
        "<body style='font-family:sans-serif'>",
        f"<h1>Results grid {html.escape(date)}</h1>",
        "<p>Cell values are error codes: 0 success, 1–199 failure, 200–255 "
        "prerequisite error. Each cell links to its trace.</p>",
        "<table style='border-collapse:collapse'>",
        "<tr><th style='border:1px solid #ccc;padding:4px 8px'>scenario</th>",
    ]
    for target in targets:
        parts.append(f"<th style='border:1px solid #ccc;padding:4px 8px'>{html.escape(target)}</th>")
    parts.append("</tr>")
    for name, cells in rows:
        parts.append(f"<tr><td style='border:1px solid #ccc;padding:4px 8px'>{html.escape(name)}</td>")
        for entry in cells:
            if entry is None:
                parts.append(
                    f"<td style='border:1px solid #ccc;padding:4px 8px;text-align:center;"
                    f"{_CELL_STYLES['blank']}'></td>"
                )
                continue
            style = _CELL_STYLES[outcome(entry.error_code)]
            href = link + html.escape(entry.path)
            parts.append(
                f"<td style='border:1px solid #ccc;padding:4px 8px;text-align:center;{style}'>"
                f"<a style='color:inherit' href='{href}'>{entry.error_code}</a></td>"
            )
        parts.append("</tr>")
    parts.append("</table></body></html>")
    return "".join(parts), csv_doc
