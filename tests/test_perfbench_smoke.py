"""The benchmark harness still runs against the package.

Runs ``perfbench/selfcheck.py`` (every workload at tiny size, plus the
controls that make its correctness checks reject broken outputs), so a
change to the table or coupling representation that breaks the
benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
