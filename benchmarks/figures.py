"""The one figure pipeline: points -> the sweep executor -> rows -> claims.

Every bench under ``benchmarks/test_*.py`` regenerates one table or
figure of the paper at the scaled bench profile (DESIGN.md).  It
*declares* :class:`Figure` objects in its module-level ``FIGURES`` —
points to run, columns to print, claims the rows must bear out — and
its test calls :func:`run_figure`, which sends every point through
:func:`repro.runtime.supervisor.run_supervised` (``REPRO_JOBS`` fans
them out to workers; a point that fails is a placeholder row, not a
crash), writes ``bench_results/<id>.txt`` (table plus one verdict line
per claim) and fails the bench on any claim that does not hold.
``scripts/update_experiments.py`` renders EXPERIMENTS.md from
:func:`registry` and those files.

The whole registry, each distinct config run once::

    REPRO_JOBS=2 PYTHONPATH=src python benchmarks/figures.py
"""

import glob
import importlib
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest
from repro.experiments.runner import RunResult
from repro.experiments.sweeps import format_table
from repro.metrics.stats import percentile
from repro.runtime.supervisor import run_supervised
from repro.sim.units import MILLISECOND

#: Simulated time per run; long enough for several init-RTO recoveries.
BENCH_SIM_TIME_NS = 120 * MILLISECOND

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")

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
    #: Pinned worker count; None defers to ``REPRO_JOBS``.
    jobs: Optional[int] = None

    @property
    def result_path(self) -> str:
        return os.path.join(RESULTS_DIR, f"{self.id}.txt")


def split_result(text: str) -> Tuple[str, List[str]]:
    """A ``bench_results`` text as (banner and table, verdict lines)."""
    table, _, verdicts = text.partition("\n\n")
    return table, verdicts.splitlines()


def measure(*figures: Figure) -> List[str]:
    """Run the figures' points as one sweep at the first one's ``jobs``
    (points with equal configs — two panels of one experiment, or one
    point two figures share — run once); per figure, the text of its
    ``bench_results`` file: banner, table, a blank line, one verdict
    line per claim."""
    configs = {config_digest(point.config): point.config
               for figure in figures for point in figure.points}
    report = run_supervised(list(configs.values()), jobs=figures[0].jobs)
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


def run_figure(benchmark, *figures: Figure) -> None:
    """Regenerate ``figures`` (the timing pytest-benchmark reports is
    the wall time of their one sweep) and hold them to their claims."""
    texts = benchmark.pedantic(measure, args=figures, rounds=1, iterations=1)
    failed = write_results(figures, texts)
    if failed:
        raise AssertionError("\n".join(failed))


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


def main() -> int:
    """Regenerate every registered figure: a figure that pins ``jobs``
    in its own sweep, all others in one, so a config several figures
    name runs once.  Exit 1 on any verdict but ``holds``."""
    figures = list(registry().values())
    batches = [[figure] for figure in figures if figure.jobs is not None]
    batches.append([figure for figure in figures if figure.jobs is None])
    failed = [line for batch in batches if batch
              for line in write_results(batch, measure(*batch))]
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
