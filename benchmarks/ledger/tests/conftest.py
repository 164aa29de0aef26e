"""Self-tests of the ledger harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]

for path in (str(ROOT / "src"), str(LEDGER)):
    if path not in sys.path:
        sys.path.insert(0, path)
