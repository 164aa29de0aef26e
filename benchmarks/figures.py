"""The one figure pipeline: points -> the sweep executor -> rows -> claims.

Every file ``benchmarks/test_*.py`` *declares* the tables and figures of
the paper it regenerates at the scaled bench profile (DESIGN.md) as
:class:`Figure` objects in its module-level ``FIGURES``: points to run,
columns to print, claims the rows must bear out.  :func:`main` is the
one way a figure runs: it sends the points of the figures it is given
(all of :func:`registry` when none) through
:func:`repro.runtime.supervisor.run_supervised` as one sweep, each
distinct config once (``REPRO_JOBS`` fans them out to workers; a point
that fails is a placeholder row, not a crash), writes
``bench_results/<id>.txt`` (table plus one verdict line per claim),
re-renders EXPERIMENTS.md (:func:`render`) and exits 1 on any verdict
but ``holds``::

    REPRO_JOBS=2 PYTHONPATH=src python benchmarks/figures.py [ID ...]

Every cell is a function of the config, so a second pass rewrites the
same bytes.
"""

import glob
import importlib
import os
import re
import sys
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest
from repro.experiments.runner import RunResult
from repro.experiments.sweeps import format_table
from repro.metrics.stats import percentile
from repro.runtime.supervisor import run_supervised
from repro.sim.units import MILLISECOND

#: Simulated time per run; long enough for several init-RTO recoveries.
BENCH_SIM_TIME_NS = 120 * MILLISECOND

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(ROOT, "bench_results")
EXPERIMENTS_MD = os.path.join(ROOT, "EXPERIMENTS.md")

Row = Dict[str, object]


def bench_config(system: str, transport: str = "dctcp", *,
                 sim_time_ns: int = BENCH_SIM_TIME_NS,
                 **kwargs) -> ExperimentConfig:
    return ExperimentConfig.bench_profile(
        system=system, transport=transport, sim_time_ns=sim_time_ns,
        **kwargs)


def incast_loads_for_totals(bg_load: float,
                            totals: Sequence[float]) -> List[float]:
    """Incast fractions that raise the aggregate load to each total."""
    return [round(total - bg_load, 4) for total in totals
            if total > bg_load]


def percentiles(samples: List[float], prefix: str = "") -> Row:
    """A CDF as fixed percentile columns (stable, table-friendly)."""
    row: Row = {f"{prefix}p{point}": percentile(samples, point)
                for point in (25, 50, 75, 90, 99)}
    row[f"{prefix}n"] = len(samples)
    return row


class NotEvaluable(Exception):
    """A claim read an operand that is missing, ``None`` or NaN."""


class Cells:
    """A claim's view of a figure's rows: look-ups that refuse values
    no relation can be judged on and remember what they read."""

    def __init__(self, rows: Sequence[Row]) -> None:
        self._rows = rows
        self.read: List[str] = []

    def all(self, column: str, **where: object) -> List[object]:
        """``column`` of every row whose cells equal ``where``."""
        rows = [row for row in self._rows
                if all(row.get(key) == value
                       for key, value in where.items())]
        spot = ", ".join(f"{key}={value}" for key, value in where.items())
        if not rows:
            raise NotEvaluable(f"no row with {spot}")
        cell = f"{column}({spot})" if spot else column
        values = [row.get(column) for row in rows]
        for value in values:
            if value is None or value != value:  # NaN
                raise NotEvaluable(
                    f"{cell} is {'missing' if value is None else value}")
        shown = ", ".join(f"{value:.4g}" if isinstance(value, float)
                          else str(value) for value in values)
        self.read.append(f"{cell} = {shown}")
        return values

    def __call__(self, column: str, **where: object) -> object:
        """``column`` of the one row whose cells equal ``where``."""
        values = self.all(column, **where)
        if len(values) != 1:
            raise NotEvaluable(f"{len(values)} rows match {where}")
        return values[0]


@dataclass(frozen=True)
class Claim:
    """One sentence a figure must bear out, and the relation that says
    whether its rows do."""

    text: str
    relation: Callable[[Cells], bool]

    def verdict(self, rows: Sequence[Row]) -> str:
        """``<verdict>: <text> [<the cells read>]`` for these rows."""
        cells = Cells(rows)
        try:
            held = self.relation(cells)
        except NotEvaluable as why:
            return f"not evaluable: {self.text} [{why}]"
        return (f"{'holds' if held else 'does not hold'}: {self.text} "
                f"[{'; '.join(cells.read)}]")


@dataclass(frozen=True)
class Point:
    """One run of a figure and the cells that name it in the table."""

    config: ExperimentConfig
    labels: Row = field(default_factory=dict)


@dataclass(frozen=True)
class Figure:
    """A declared table or figure of the paper (or of an extension)."""

    id: str
    title: str
    #: The paper's sentence this figure answers (for an extension, the
    #: question it asks instead).
    paper: str
    points: Sequence[Point]
    columns: Sequence[str]
    claims: Sequence[Claim] = ()
    #: Columns measured from a result beyond ``report().row()``.
    row: Optional[Callable[[RunResult], Row]] = None

    @property
    def result_path(self) -> str:
        return os.path.join(RESULTS_DIR, f"{self.id}.txt")


def split_result(text: str) -> Tuple[str, List[str]]:
    """A ``bench_results`` text as (banner and table, verdict lines)."""
    table, _, verdicts = text.partition("\n\n")
    return table, verdicts.splitlines()


def measure(*figures: Figure) -> List[str]:
    """Run the figures' points as one sweep under ``REPRO_JOBS`` (points
    with equal configs — two panels of one experiment, or one point two
    figures share — run once); per figure, the text of its
    ``bench_results`` file: banner, table, a blank line, one verdict
    line per claim."""
    configs = {config_digest(point.config): point.config
               for figure in figures for point in figure.points}
    report = run_supervised(list(configs.values()))
    ran = dict(zip(configs, zip(report.outcomes, report.rows())))
    texts = []
    for figure in figures:
        rows = []
        for point in figure.points:
            outcome, base = ran[config_digest(point.config)]
            row = {**dict.fromkeys(figure.columns), **base}
            if outcome.ok and figure.row is not None:
                row.update(figure.row(outcome.result))
            row.update(point.labels)
            rows.append(row)
        columns = list(figure.columns) + ([] if report.ok else ["status"])
        texts.append("\n".join([
            f"=== {figure.id}: {figure.title} ===",
            format_table(rows, columns), "",
            *(claim.verdict(rows) for claim in figure.claims)]) + "\n")
    return texts


def write_results(figures: Sequence[Figure], texts: List[str]) -> List[str]:
    """Print and write each figure's ``bench_results`` text; the verdict
    lines that are not ``holds``."""
    failed = []
    for figure, text in zip(figures, texts):
        print("\n" + text, end="")
        with open(figure.result_path, "w") as handle:
            handle.write(text)
        failed += [line for line in split_result(text)[1]
                   if not line.startswith("holds: ")]
    return failed


def registry() -> Dict[str, Figure]:
    """Every declared figure by id, in bench-file order."""
    found: Dict[str, Figure] = {}
    pattern = os.path.join(os.path.dirname(__file__), "test_*.py")
    for path in sorted(glob.glob(pattern)):
        module = importlib.import_module(os.path.basename(path)[:-3])
        for figure in getattr(module, "FIGURES", ()):
            if figure.id in found:
                raise ValueError(f"figure id {figure.id!r} declared twice")
            found[figure.id] = figure
    return found


def render(text: str, figures: Iterable[Figure]) -> str:
    """``text`` (EXPERIMENTS.md) with each figure's ``<!-- figure:ID -->``
    … ``<!-- /figure:ID -->`` region replaced by its paper sentence,
    verdict lines and table (``bench_results/ID.txt``); everything
    outside the regions is hand-written and left byte for byte."""
    for figure in figures:
        with open(figure.result_path) as handle:
            table, verdicts = split_result(handle.read())
        verdicts = "".join(f"- {line}\n" for line in verdicts)
        begin, end = (f"<!-- {slash}figure:{figure.id} -->\n"
                      for slash in ("", "/"))
        region = (f"{begin}**Paper:** {figure.paper}\n\n{verdicts}\n"
                  f"<details><summary>{figure.id}</summary>\n\n"
                  f"```\n{table}\n```\n</details>\n{end}")
        text, count = re.subn(re.escape(begin) + ".*?" + re.escape(end),
                              lambda _: region, text, flags=re.S)
        if count != 1:
            raise ValueError(f"EXPERIMENTS.md has {count} regions for "
                             f"figure {figure.id!r}; it needs exactly one")
    return text


def main(argv: Sequence[str] = ()) -> int:
    """Regenerate the figures named in ``argv`` (every registered one
    when it is empty) as one sweep and re-render EXPERIMENTS.md.  Exit 2
    on an unknown id, 1 on any verdict but ``holds``."""
    known = registry()
    unknown = [figure_id for figure_id in argv if figure_id not in known]
    if unknown:
        print(f"figures.py: unknown figure id {', '.join(unknown)}; known: "
              f"{' '.join(known)}", file=sys.stderr)
        return 2
    figures = [known[figure_id] for figure_id in argv] or list(known.values())
    failed = write_results(figures, measure(*figures))
    with open(EXPERIMENTS_MD) as handle:
        rendered = render(handle.read(), known.values())
    with open(EXPERIMENTS_MD, "w") as handle:
        handle.write(rendered)
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
