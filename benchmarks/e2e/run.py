"""Entry point of the end-to-end benchmark: ``python3 benchmarks/e2e/run.py``.

Same commands as ``python -m benchmarks.e2e``; see ``cli.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
