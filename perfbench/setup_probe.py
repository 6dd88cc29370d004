"""Time one workload's set-up in a fresh process.

Usage: ``python3 perfbench/setup_probe.py NAME SEED SIZES_JSON`` with the
package's ``src`` directory on ``PYTHONPATH``.  Prints the seconds spent
importing the package plus the workload's set-up; importing the
benchmark's own modules is left out.
"""

import json
import sys
import time

t0 = time.perf_counter()
import leftcurtain  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](**json.loads(sys.argv[3]))
t2 = time.perf_counter()
workload.setup(int(sys.argv[2]))
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
