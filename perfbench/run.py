"""Benchmark of leftcurtain, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``uniform-1000``, ``cx-bank`` and ``cli-pipeline`` (see
``README.md``).  A run sets the workload up, then runs whole rounds of the
same operations until ``--seconds`` of rounds have passed, checking every
round's outputs.  Progress goes to stderr.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The run exits non-zero without a
result when the package source is missing or the run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh processes whose set-up is timed; setup_s is their median.  One
#: runs before the rounds, one after each round and the rest at the end,
#: so the median spans the run's changes in host speed
SETUP_PROBES = 5

#: sizes of the uniform pair behind the log-log slopes of a traced run
SLOPE_SIZES = (250, 500, 1000)

#: a run that has not finished by then stops with an error
DEADLINE_S = 170


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@contextmanager
def paused(tracer):
    """Keep the correctness checks out of the trace."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def slope_section(tracer, sizes) -> None:
    """Build and check shadow consistency of the uniform pair at a few sizes."""
    import workloads  # see run()

    lc = workloads.lc
    for n in sizes:
        mu, nu = workloads.uniform_pair(n)
        with tracer.span(f"slope.{n}"):
            table = lc.build_curtain(mu, nu)
            pi = lc.coupling(table, mu)
            lc.verify_shadow_consistency(table, mu, nu, grid=10, seed=0, coupling_obj=pi)


def run(workload, seed: int, seconds: float, trace: bool, spec: dict, *,
        probes: int = SETUP_PROBES, slope_sizes=SLOPE_SIZES) -> dict:
    """One run of ``workload``; returns the result object."""
    # imported here: they import the package, whose source main() puts on
    # the path only after checking that it is there
    import spans
    import workloads

    ops = workloads.Ops()
    tracer = None
    setup_times: list[float] = []

    def time_setups(until: int) -> None:
        while not trace and len(setup_times) < until:
            setup_times.append(workload.setup_time(seed))

    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    time_setups(1)

    with tracer.span("setup") if tracer else nullcontext():
        inputs = workload.setup(seed)
    state = workload.prepare(seed, inputs)
    rounds: list[dict] = []
    durations: list[float] = []
    problems: list[str] = []
    try:
        # start another round while it should end within half a round of
        # the budget, so a run holds about seconds / round-time rounds
        while not durations or sum(durations) + 0.5 * statistics.median(durations) < seconds:
            with tracer.span("round") if tracer else nullcontext() as root:
                t0 = time.perf_counter()
                times, out = workload.run_round(state, ops, (tracer, root) if tracer else None)
                durations.append(time.perf_counter() - t0)
            rounds.append(times)
            with paused(tracer):
                found = workload.check(state, out)
            problems += found
            time_setups(min(len(setup_times) + 1, probes - 1))
            log(
                f"round {len(rounds)}: {durations[-1]:.2f} s "
                + " ".join(f"{k}={v:.4f}" for k, v in times.items())
                + f" ops={ops.attempted} failed={ops.failed} problems={len(found)}"
            )
        peak_rss_mb = workload.peak_rss_mb()
        time_setups(probes)
        if tracer:
            slope_section(tracer, slope_sizes)
    finally:
        workload.close(state)
    if setup_times:
        log(f"setup probes: {', '.join(f'{t:.3f}' for t in setup_times)} s")

    for problem in problems[:20]:
        log(f"CHECK FAILED: {problem}")
    if trace:
        values = spans.layer_metrics(tracer, spec["per_layer"])
        wanted = spec["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload.name}-seed{seed}.json")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        for metric in ("solve_s", "verify_s", "sample_s"):
            values[metric] = statistics.median(r[metric] for r in rounds if metric in r)
        wanted = spec["end_to_end"]
    return {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _deadline(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "leftcurtain" / "__init__.py").is_file():
        log(f"error: no package source under {src}")
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log(f"error: {spec_path} is missing")
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]()
    result = run(workload, args.seed, args.seconds, bool(args.trace), spec)
    signal.alarm(0)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
