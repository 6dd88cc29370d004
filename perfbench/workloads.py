"""The benchmark's workloads: inputs, one timed round, and its checks.

A workload object is built from keyword sizes (``TINY`` holds the sizes of
the harness self-check).  ``setup`` does the program's set-up work for
one run: generate or quantise the inputs and check their convex order.
``setup_time`` measures that work once in a fresh process.  ``prepare``
makes the benchmark's own random draws from the run seed (untimed).
``run_round`` runs one round of timed operations, recording each in
``ops``, and returns the round's times and outputs; in a traced run
``trace`` is the tracer and the index of the round's span.  ``check``
tests a round's outputs with the independent checks of ``checks``.

The package is imported as ``lc`` and its functions are looked up at call
time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import leftcurtain as lc

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: errors the package raises on a failed build (geometry or decomposition)
BUILD_ERRORS = (RuntimeError, ValueError)

#: confidence of each sampling test: ``1 - alpha``
ALPHA_LARGE = 1e-6
ALPHA_BANK = 1e-9


class Ops:
    """Operations attempted and failed in a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """Run one child process; return its exit code, wall time and peak RSS (MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe_setup(name: str, sizes: dict, seed: int) -> float:
    """Set-up time of an in-process workload, measured in a fresh process."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), json.dumps(sizes)]
    out = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def require_order(mu, nu) -> None:
    if not lc.check_convex_order(mu, nu):
        raise ValueError("benchmark inputs are not in convex order")


def uniform_pair(n: int):
    """The quantised dispersion pair U[-1, 1] -> U[-2, 2] with ``n`` atoms each."""
    mu = lc.quantize_density([-1.0, 1.0], [0.5, 0.5], n)
    nu = lc.quantize_density([-2.0, 2.0], [0.25, 0.25], n)
    return mu, nu


def draws(rng, size: int) -> np.ndarray:
    """Uniform levels in (0, 1), clipped away from the endpoints as the CLI does."""
    return np.clip(rng.uniform(0.0, 1.0, size), np.finfo(float).tiny, 1.0 - 1e-16)


def closed_form_uniform(n: int):
    w = np.full(n, 1.0 / n)
    return checks.uniform_atoms(-1.0, 1.0, n), w, checks.uniform_atoms(-2.0, 2.0, n), w


def check_coupling(pi, mu_x, mu_w, nu_x, nu_w) -> list[str]:
    return checks.check_joint(
        pi.joint_x, pi.joint_y, pi.joint_w, mu_x, mu_w, nu_x, nu_w
    ) + checks.check_rows(pi.intervals, mu_x, mu_w)


class InProcess:
    """A workload whose program calls run in the benchmark's own process."""

    def setup_time(self, seed: int) -> float:
        return probe_setup(self.name, self.sizes, seed)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self, state) -> None:
        pass


class UniformPair(InProcess):
    """``uniform-1000``: one large instance, dominated by the asymptotics."""

    name = "uniform-1000"

    def __init__(self, n: int = 1000, draws: int = 200_000, calls: int = 10):
        self.sizes = {"n": n, "draws": draws, "calls": calls}
        self.n, self.n_draws, self.calls = n, draws, calls

    def setup(self, seed: int):
        mu, nu = uniform_pair(self.n)
        require_order(mu, nu)
        return mu, nu

    def prepare(self, seed: int, inputs):
        # every sampling call takes the same draws, so the harness holds
        # one set of them and the peak RSS stays the program's
        rng = np.random.default_rng(seed)
        return inputs, draws(rng, self.n_draws), draws(rng, self.n_draws)

    def run_round(self, state, ops: Ops, trace=None):
        (mu, nu), us, vs = state
        t0 = time.perf_counter()
        try:
            table = lc.build_curtain(mu, nu)
            pi = lc.coupling(table, mu)
        except BUILD_ERRORS:
            ops.record(False, 2 + self.calls)
            return {}, None
        t1 = time.perf_counter()
        ops.record(True)
        # half of the draws before verify_all and half after, so sample_s
        # averages the host's speed over the round, not one short burst
        half = self.calls // 2
        ys = lc.sample_y_many(table, us, vs)
        for _ in range(half - 1):
            lc.sample_y_many(table, us, vs)
        t2 = time.perf_counter()
        # verify_all keeps its own fixed seed, so this operation does not
        # depend on the run seed
        report = lc.verify_all(table, pi, mu, nu)
        t3 = time.perf_counter()
        ops.record(report.passed())
        for _ in range(self.calls - half - 1):
            lc.sample_y_many(table, us, vs)
        last = lc.sample_y_many(table, us, vs)
        t4 = time.perf_counter()
        ops.record(True, self.calls)
        times = {"solve_s": t1 - t0, "verify_s": t3 - t2, "sample_s": (t2 - t1) + (t4 - t3)}
        return times, (pi, ys, last)

    def check(self, state, out) -> list[str]:
        if out is None:
            return []
        pi, first, last = out
        mu_x, mu_w, nu_x, nu_w = closed_form_uniform(self.n)
        problems = check_coupling(pi, mu_x, mu_w, nu_x, nu_w)
        problems += checks.check_draws(first, nu_x, nu_w, ALPHA_LARGE)
        if not np.array_equal(first, last):
            problems.append("sampling calls on the same draws gave different destinations")
        return problems


def barrier_pair(k: int, shared: bool):
    """Two convex-ordered pairs 80 apart, so the potential gap vanishes between them.

    With ``shared`` a pattern with target mass on the barrier point 0 sits
    in the middle, so the barrier atom is split between two components.
    """
    rng = np.random.default_rng(7_000 + k)
    sides = [
        lc.random_cx_pair(8_000 + 2 * k + j, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        for j in (0, 1)
    ]
    share = 0.25 if shared else 0.5
    offsets = (-40.0, 40.0)
    mu_parts = [(mu.xs + off, mu.ws * share) for (mu, _), off in zip(sides, offsets)]
    nu_parts = [(nu.xs + off, nu.ws * share) for (_, nu), off in zip(sides, offsets)]
    if shared:
        mu_parts.append((np.array([-2.0, 2.0]), np.array([0.25, 0.25])))
        nu_parts.append((np.array([-4.0, 0.0, 4.0]), np.array([0.125, 0.25, 0.125])))
    mu = lc.DiscreteMeasure(*(np.concatenate(p) for p in zip(*mu_parts)))
    nu = lc.DiscreteMeasure(*(np.concatenate(p) for p in zip(*nu_parts)))
    return mu, nu


class Bank(InProcess):
    """``cx-bank``: hundreds of small instances, dominated by per-call cost."""

    name = "cx-bank"

    def __init__(self, n_random: int = 336, n_barrier: int = 48, draws: int = 1000):
        self.sizes = {"n_random": n_random, "n_barrier": n_barrier, "draws": draws}
        self.n_random, self.n_barrier, self.n_draws = n_random, n_barrier, draws
        self._oracle = None

    def setup(self, seed: int):
        # the bank is fixed: every (atoms, spread steps) pair in 1..8 x 0..6
        # the same number of times, then the barrier instances
        pairs = [lc.random_cx_pair(i, 1 + i % 8, (i // 8) % 7) for i in range(self.n_random)]
        pairs += [barrier_pair(k, shared=k % 2 == 0) for k in range(self.n_barrier)]
        for mu, nu in pairs:
            require_order(mu, nu)
        return pairs

    def prepare(self, seed: int, inputs):
        rng = np.random.default_rng(seed)
        return inputs, seed, draws(rng, self.n_draws), draws(rng, self.n_draws)

    def run_round(self, state, ops: Ops, trace=None):
        pairs, seed, us, vs = state
        times = {"solve_s": 0.0, "verify_s": 0.0, "sample_s": 0.0}
        outputs = []
        for mu, nu in pairs:
            t0 = time.perf_counter()
            try:
                table = lc.build_curtain(mu, nu)
                pi = lc.coupling(table, mu)
            except BUILD_ERRORS:
                ops.record(False, 3)
                outputs.append(None)
                continue
            t1 = time.perf_counter()
            report = lc.verify_all(table, pi, mu, nu, seed=seed)
            t2 = time.perf_counter()
            ys = lc.sample_y_many(table, us, vs)
            t3 = time.perf_counter()
            times["solve_s"] += t1 - t0
            times["verify_s"] += t2 - t1
            times["sample_s"] += t3 - t2
            ops.record(True)
            ops.record(report.passed())
            ops.record(True)
            outputs.append((pi, ys))
        return times, outputs

    def check(self, state, outputs) -> list[str]:
        pairs = state[0]
        if self._oracle is None:
            self._oracle = [lc.curtain_incremental(mu, nu) for mu, nu in pairs]
        problems = []
        for k, ((mu, nu), out, oracle) in enumerate(zip(pairs, outputs, self._oracle)):
            if out is None:
                continue
            pi, ys = out
            found = check_coupling(pi, mu.xs, mu.ws, nu.xs, nu.ws)
            found += checks.check_draws(ys, nu.xs, nu.ws, ALPHA_BANK)
            tv = lc.joint_tv((pi.joint_x, pi.joint_y, pi.joint_w), oracle)
            if tv > 1e-8:
                found.append(f"joint TV {tv:.3e} to the LP-shadow oracle above 1e-8")
            problems += [f"instance {k}: {p}" for p in found]
        return problems


class CliPipeline:
    """``cli-pipeline``: the shell user's path, one process per subcommand."""

    name = "cli-pipeline"

    def __init__(self, n: int = 500, draws: int = 200_000):
        self.sizes = {"n": n, "draws": draws}
        self.n, self.n_draws = n, draws
        self._peak_rss_mb = 0.0

    def setup(self, seed: int):
        work = HERE / "out" / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        for name, lo, hi in (("mu", -1.0, 1.0), ("nu", -2.0, 2.0)):
            density = 1.0 / (hi - lo)
            spec = {"type": "grid-density", "xs": [lo, hi], "pdf": [density, density], "n": self.n}
            (work / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
        return work

    def setup_time(self, seed: int) -> float:
        rc, wall, _ = run_child([sys.executable, "-c", "import leftcurtain.cli"])
        if rc != 0:
            raise RuntimeError("the CLI module does not import")
        return wall

    def prepare(self, seed: int, work):
        return work, seed

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest CLI child process."""
        return self._peak_rss_mb

    def close(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)

    def _cli(self, work: Path, command: str, extra: list[str], trace) -> tuple[bool, float]:
        args = [command, "--mu", str(work / "mu.json"), "--nu", str(work / "nu.json"), *extra]
        if trace is None:
            argv = [sys.executable, "-m", "leftcurtain.cli", *args]
        else:
            trace_file = work / "child-trace.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *args]
        rc, wall, rss = run_child(argv)
        self._peak_rss_mb = max(self._peak_rss_mb, rss)
        if trace is not None and rc == 0:
            tracer, root = trace
            tracer.adopt(json.loads(trace_file.read_text(encoding="utf-8")), root)
        return rc == 0, wall

    def run_round(self, state, ops: Ops, trace=None):
        work, seed = state
        for name in ("coupling.json", "curves.csv", "report.json", "samples.csv"):
            (work / name).unlink(missing_ok=True)
        steps = (
            ("solve_s", "curtain", ["--out", str(work / "coupling.json"), "--curves", str(work / "curves.csv")]),
            ("verify_s", "verify", ["--coupling", str(work / "coupling.json"), "--out", str(work / "report.json")]),
            ("sample_s", "sample", ["--n", str(self.n_draws), "--seed", str(seed), "--out", str(work / "samples.csv")]),
        )
        times = {}
        status = {}
        for metric, command, extra in steps:
            status[metric], times[metric] = self._cli(work, command, extra, trace)
            ops.record(status[metric])
        return times, status

    def check(self, state, status) -> list[str]:
        work, _ = state
        n = self.n
        mu_x, mu_w, nu_x, nu_w = closed_form_uniform(n)
        problems = []
        if status["solve_s"]:
            obj = json.loads((work / "coupling.json").read_text(encoding="utf-8"))
            rows = [[r["u_lo"], r["u_hi"], r["x"], r["r"], r["s"]] for r in obj["intervals"]]
            joint = np.array(obj["joint"], dtype=float).reshape(-1, 3)
            problems += checks.check_joint(joint[:, 0], joint[:, 1], joint[:, 2], mu_x, mu_w, nu_x, nu_w)
            problems += checks.check_rows(rows, mu_x, mu_w)
            with open(work / "curves.csv", encoding="utf-8") as fh:
                header = fh.readline().strip()
            curves = np.loadtxt(work / "curves.csv", delimiter=",", skiprows=1, ndmin=2)
            if header != "u,G,R,Q,S,phi" or curves.shape != (2 * len(rows), 6):
                problems.append("curves CSV does not hold two rows per table interval")
            elif np.any(curves[:, 2] > curves[:, 1]) or np.any(curves[:, 1] > curves[:, 4]):
                problems.append("curves CSV breaks R <= G <= S")
        if status["verify_s"]:
            report = json.loads((work / "report.json").read_text(encoding="utf-8"))
            if report.get("pass") is not True:
                problems.append("leftcurtain verify exited 0 without a passing report")
        if status["sample_s"]:
            with open(work / "samples.csv", encoding="utf-8") as fh:
                header = fh.readline().strip()
            rows = np.loadtxt(work / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            if header != "u,v,x,y" or rows.shape != (self.n_draws, 4):
                problems.append("sample CSV has the wrong shape")
            else:
                u, v, x, y = rows.T
                if np.any((u <= 0) | (u >= 1) | (v <= 0) | (v >= 1)):
                    problems.append("a sampled level lies outside (0, 1)")
                problems += checks.check_left_quantile(u, x, n)
                problems += checks.check_draws(y, nu_x, nu_w, ALPHA_LARGE)
        return problems


WORKLOADS = {cls.name: cls for cls in (UniformPair, Bank, CliPipeline)}

#: sizes of the harness self-check
TINY = {
    "uniform-1000": {"n": 40, "draws": 2_000, "calls": 2},
    "cx-bank": {"n_random": 16, "n_barrier": 4, "draws": 500},
    "cli-pipeline": {"n": 40, "draws": 2_000},
}
