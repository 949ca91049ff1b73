"""Deterministic text tables and CSV emission.

Tables round to 3 decimals, half away from zero; CSV keeps full float
precision (shortest round-trip repr). Output bytes depend only on the
inputs, never on locale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path

CSV_OC_HEADER = ["true_effect", "p_go", "p_nogo", "p_inconclusive"]


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


@dataclass
class ResultTable:
    caption: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, cells: list[str]) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.caption]
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        for row in self.rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def render_tables(tables: list[ResultTable]) -> str:
    return "\n\n".join(table.render() for table in tables) + "\n"


def write_csv(path: str | Path, headers: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else fmt_full(cell) for cell in row]
            )
