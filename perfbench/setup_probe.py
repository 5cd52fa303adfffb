"""Cold set-up in a fresh interpreter: import dmmsim, resolve the named codes.

Usage: ``python3 perfbench/setup_probe.py [code ...]``.  Prints the
``time.monotonic()`` reading taken once every code is resolved, so the
caller can time the span from spawning this interpreter to that point.
CLOCK_MONOTONIC is shared by all processes on Linux.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dmmsim.builtin_codes import builtin_code  # noqa: E402

for name in sys.argv[1:]:
    builtin_code(name)
print(repr(time.monotonic()))
