"""Invariants of a workload's CSV that hold exactly for any seed.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read only the CSV text, never the program's state.
"""

from __future__ import annotations

import math


def parse_csv(text: str):
    """Split a fadefusion CSV into (metadata dict, column names, float rows)."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        raise ValueError("no header row")
    columns, rows = body[0], [[float(v) for v in row] for row in body[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("a data row does not match the header")
    return meta, columns, rows


def _check_outage_columns(columns, rows, trials: int, names) -> list[str]:
    problems = []
    budgets = [row[columns.index("p_tot_w")] for row in rows]
    if any(b <= a for a, b in zip(budgets, budgets[1:])):
        problems.append("p_tot_w is not strictly increasing")
    for name in names:
        outage = [row[columns.index(f"outage_{name}")] for row in rows]
        half = [row[columns.index(f"half_width_{name}")] for row in rows]
        if any(not 0.0 <= p <= 1.0 for p in outage):
            problems.append(f"outage_{name} outside [0, 1]")
            continue
        if any(b > a for a, b in zip(outage, outage[1:])):
            problems.append(f"outage_{name} increases with the budget")
        for p, h in zip(outage, half):
            count = round(p * trials)
            if abs(count - p * trials) > 1e-6 * max(1, count):
                problems.append(f"outage_{name} {p!r} is not a count over {trials} trials")
                break
            q = count / trials
            expected = 1.96 * math.sqrt(q * (1.0 - q) / trials)
            if abs(h - expected) > 1e-10 * max(expected, 1e-300):
                problems.append(f"half_width_{name} {h!r} != formula value {expected!r}")
                break
    return problems


def check_outage(text: str, trials: int, seed: int, points: int, names, dominated=None) -> list[str]:
    """Checks for ``outage``/``outage-compare`` CSVs.

    ``names`` are the column suffixes (policies or ``k{K}``); ``dominated``
    is an optional (better, worse) pair whose outages must satisfy
    better <= worse at every point.
    """
    try:
        meta, columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = _check_shape(meta, rows, trials, seed, points)
    expected = ["p_tot_w", "p_tot_dbm"]
    for name in names:
        expected += [f"outage_{name}", f"half_width_{name}"]
    if columns != expected:
        return problems + [f"columns {columns} != {expected}"]
    problems += _check_outage_columns(columns, rows, trials, names)
    if dominated is not None:
        better, worse = (columns.index(f"outage_{name}") for name in dominated)
        if any(row[better] > row[worse] for row in rows):
            problems.append(f"outage_{dominated[0]} exceeds outage_{dominated[1]}")
    return problems


def _check_shape(meta: dict, rows, trials: int, seed: int, points: int) -> list[str]:
    problems = [] if len(rows) == points else [f"{len(rows)} data rows, expected {points}"]
    if meta.get("trials") != str(trials):
        problems.append(f"metadata trials={meta.get('trials')} != {trials}")
    if meta.get("seed") != str(seed):
        problems.append(f"metadata seed={meta.get('seed')} != {seed}")
    return problems
