"""``python -m benchmarks.e2e``: the same command as ``benchmarks/e2e/run.py``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import main  # noqa: E402 — needs the path entry above

sys.exit(main())
