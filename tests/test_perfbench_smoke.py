"""The benchmark harness still runs against the package.

Runs ``perfbench/selfcheck.py`` (every workload at tiny size, plus the
controls that make its correctness checks reject broken outputs), so a
change to the table or coupling representation that breaks the
benchmark fails here.  A traced tiny ``cx-bank`` run in this process
checks that ``verify_all`` still shows the time of each verifier.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import leftcurtain
from leftcurtain.curtain import LiftedCoupling

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


def test_a_traced_bank_run_times_each_verifier(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import spans
    import workloads

    # the tracer rebinds the package's functions; each is put back afterwards
    modules = [importlib.import_module(f"leftcurtain.{m}") for m in spans.MODULES]
    for ns in (leftcurtain, *modules):
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(ns, attr, value)
    for attr in ("to_json", "from_json"):
        monkeypatch.setattr(LiftedCoupling, attr, LiftedCoupling.__dict__[attr])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bank = workloads.Bank(**workloads.TINY["cx-bank"])
    result = run.run(bank, 1, 0.0, True, spec, probes=2, slope_sizes=(16, 32, 64))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["verify.verify_marginal_identity.s"]["value"] > 0
    assert metrics["verify.verify_shadow_consistency.self_s"]["value"] > 0
