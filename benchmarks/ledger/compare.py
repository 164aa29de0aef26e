"""``run.py compare A.json B.json``: is B worse than A beyond the bounds?

One row per workload x end-to-end metric: both values with their
quartiles, the relative change of B against its base A, the metric's
bound, and a verdict:

- ``regressed``  — B is worse than A by more than the bound;
- ``improved``   — B is better than A by more than the bound;
- ``unresolved`` — within the bound, but either side's own IQR exceeds
  the bound, so "unchanged" cannot be claimed;
- ``unchanged``  — within the bound, both sides steady.

Exit status is 1 when any cell regressed (or the files cannot be
compared), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

import catalog


def _load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def verdict(metric: catalog.Metric, base: Dict[str, float],
            new: Dict[str, float]) -> Dict[str, object]:
    """Judge one cell.  ``base``/``new`` carry value, q1, q3."""
    a, b = base["value"], new["value"]
    sign = 1 if metric.better == "lower" else -1
    if a:
        worse = sign * (b - a) / abs(a)
    else:  # a zero base has no relative scale: any worsening counts
        worse = float("inf") if sign * (b - a) > 0 else 0.0

    def own_spread(cell: Dict[str, float]) -> float:
        value = cell["value"]
        return (cell["q3"] - cell["q1"]) / abs(value) if value else 0.0

    if worse > metric.bound:
        label = "regressed"
    elif max(own_spread(base), own_spread(new)) > metric.bound > 0:
        label = "unresolved"
    elif worse < -metric.bound:
        label = "improved"
    else:
        label = "unchanged"
    return {"worse_by": worse, "verdict": label}


def compare(report_a: Dict[str, object], report_b: Dict[str, object]
            ) -> List[Dict[str, object]]:
    rows = []
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None or "e2e" not in entry_a or "e2e" not in entry_b:
            continue
        for metric in catalog.END_TO_END + (catalog.FAIL_SHARE,):
            base = entry_a["e2e"].get(metric.name)
            new = entry_b["e2e"].get(metric.name)
            if base is None or new is None:
                continue
            rows.append({"workload": name, "metric": metric.name,
                         "unit": metric.unit, "bound": metric.bound,
                         "a": base, "b": new, **verdict(metric, base, new)})
    return rows


def _cell(cell: Dict[str, float]) -> str:
    return f"{cell['value']:.4g} [{cell['q1']:.4g}..{cell['q3']:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two ledger reports (--out files) cell by cell.")
    parser.add_argument("a", help="base report (e.g. the parent commit)")
    parser.add_argument("b", help="report judged against the base")
    args = parser.parse_args(argv)
    report_a, report_b = _load(args.a), _load(args.b)
    if report_a.get("mode") != report_b.get("mode"):
        print(f"compare: modes differ ({report_a.get('mode')} vs "
              f"{report_b.get('mode')}); quick and full results are never "
              f"comparable", file=sys.stderr)
        return 1
    rows = compare(report_a, report_b)
    if not rows:
        print("compare: the reports share no workload with end-to-end "
              "results", file=sys.stderr)
        return 1
    print(f"{'workload':18s} {'metric':17s} {'A (base)':>26s} "
          f"{'B':>26s} {'B vs A':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:17s} "
              f"{_cell(row['a']):>26s} {_cell(row['b']):>26s} "
              f"{100 * row['worse_by']:+7.1f}% {100 * row['bound']:5.0f}%  "
              f"{row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} cells: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved (positive % = B worse than A, "
          f"as a share of A)")
    return 1 if regressed else 0
