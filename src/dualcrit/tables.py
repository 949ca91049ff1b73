"""Deterministic text tables and CSV emission.

``render_table`` lays out every table the commands print. ``fmt3`` rounds
a cell to 3 decimals, half away from zero; CSV keeps full float precision
(shortest round-trip repr). Output bytes depend only on the inputs, never
on locale.
"""

from __future__ import annotations

import csv
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path

# Enough digits for any finite float rounded to 3 decimals (at most 309
# before the point).
_FMT3_CONTEXT = Context(prec=320)


def fmt3(x: float) -> str:
    quantum = Decimal(1).scaleb(-3)
    out = Decimal(repr(float(x))).quantize(quantum, rounding=ROUND_HALF_UP, context=_FMT3_CONTEXT)
    if out == 0:
        out = abs(out)
    return str(out)


def fmt_full(x: float) -> str:
    return repr(float(x))


def render_table(caption: str, headers: list[str], rows: list[list[str]]) -> str:
    """The caption, then the headers and each row, cells right-aligned in
    columns two spaces apart; no newline after the last line."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, table has {len(headers)} columns")
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = ("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in [headers, *rows])
    return "\n".join([caption, *lines])


def write_csv(path: str | Path, headers: list[str], rows: list[list]) -> None:
    """Write the headers and rows; a path that cannot be written is a
    ValueError, which the CLI reports as it does an unreadable config."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(headers)
            for row in rows:
                writer.writerow(
                    [cell if isinstance(cell, str) else fmt_full(cell) for cell in row]
                )
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
