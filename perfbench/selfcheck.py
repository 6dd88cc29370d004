"""Tiny-size self-check of the benchmark harness.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

First makes sure the correctness checks reject a coupling, a table and a
set of draws that each break one property.  Then runs every workload of
``BENCHMARK.json`` for one round at the sizes in ``workloads.TINY``,
untraced and then traced, and checks each result against the schema the
benchmark promises: the four keys, whole operation counts, every metric
by name with its unit, finite values, and positive end-to-end values.
Exits 0 when everything passes.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def control_problems() -> list[str]:
    """The checks pass the program's output and reject broken copies of it."""
    n = 16
    mu, nu = workloads.uniform_pair(n)
    table = workloads.lc.build_curtain(mu, nu)
    pi = workloads.lc.coupling(table, mu)
    mu_x, mu_w, nu_x, nu_w = workloads.closed_form_uniform(n)
    problems = []
    if workloads.check_coupling(pi, mu_x, mu_w, nu_x, nu_w):
        problems.append("checks reject the program's own coupling")
    heavier = pi.joint_w.copy()
    heavier[0] += 1e-6
    if not checks.check_joint(pi.joint_x, pi.joint_y, heavier, mu_x, mu_w, nu_x, nu_w):
        problems.append("checks accept a coupling with a wrong weight")
    rows = np.array(pi.intervals)
    rows[:, 3:5] = rows[::-1, 3:5]
    if checks.left_monotone_violations(rows) == 0:
        problems.append("checks accept a table with reversed destinations")
    if not checks.check_draws(np.full(2000, nu_x[0]), nu_x, nu_w, workloads.ALPHA_LARGE):
        problems.append("checks accept draws that all land on one atom")
    return problems


def schema_problems(result: dict, wanted: list[dict], end_to_end: bool) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("outputs failed their checks")
    attempted, failed = result["attempted"], result["failed"]
    if not (type(attempted) is int and type(failed) is int and 0 <= failed <= attempted and attempted >= 1):
        problems.append(f"operation counts attempted={attempted!r} failed={failed!r}")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in wanted]:
        problems.append(f"metric names {list(metrics)}")
        return problems
    for spec in wanted:
        entry = metrics[spec["name"]]
        value = entry["value"]
        if entry["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {entry['unit']!r}")
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value!r}")
        elif end_to_end and value <= 0:
            problems.append(f"{spec['name']}: end-to-end value {value!r} is not positive")
    if json.loads(json.dumps(result)) != result:
        problems.append("result does not survive a JSON round trip")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.TINY):
        print("BENCHMARK.json and workloads.TINY name different workloads")
        return 1
    bad = 0
    problems = control_problems()
    bad += bool(problems)
    print(f"check controls: {'ok' if not problems else '; '.join(problems)}")
    for trace in (False, True):
        wanted = spec["per_layer" if trace else "end_to_end"]
        for name, sizes in workloads.TINY.items():
            workload = workloads.WORKLOADS[name](**sizes)
            result = run.run(workload, 1, 0.0, trace, spec, probes=2, slope_sizes=(16, 32, 64))
            problems = schema_problems(result, wanted, not trace)
            bad += bool(problems)
            print(f"{name} trace={int(trace)}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
