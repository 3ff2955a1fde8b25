"""``repro serve`` with spans recorded (the traced serve run).

Usage: ``python3 perfbench/daemon.py TRACE_DIR [repro serve options]``
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    trace_dir = sys.argv[1]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import spans

    spans.install(trace_dir)
    from repro.cli import main

    sys.exit(main(["serve"] + sys.argv[2:]))
