"""Result-table rendering for sweeps and benches.

Sweeps themselves run through :func:`repro.experiments.parallel.run_many`
(ordered, raise-on-failure) or
:func:`repro.runtime.supervisor.run_supervised` (crash recovery,
deadlines, retry, resume journal).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(rows: List[object],
                 columns: Optional[Sequence[str]] = None) -> str:
    """Render result rows as an aligned text table for bench output.

    Accepts plain dict rows, :class:`~repro.experiments.report.RunReport`
    objects, or :class:`RunResult` objects (anything with a ``row()``).
    ``None`` cells render as ``-`` — a supervised sweep's failure
    placeholders (:func:`repro.experiments.report.placeholder_row`) show
    up as explicit gaps in the table instead of crashing it.
    """
    if not rows:
        return "(no rows)"
    rows = [row.row() if hasattr(row, "row") else row for row in rows]
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    rendered = [[fmt(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i])
                       for i, column in enumerate(columns))
    divider = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(line))
                     for line in rendered)
    return "\n".join([header, divider, body])
