"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions of the package's modules wherever a
module of the package binds them, so a call is recorded whichever module
makes it.  ``oracle`` is never wrapped: it only checks results.  Each span
is ``[name_id, start, end, parent, count]``; ``count`` holds a work count
taken from the result (table intervals of a build, components of a
decomposition).  Spans stay in memory and are written out when the run
ends.  ``layer_metrics`` turns the spans of one traced run into the
per-layer figures listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import time
from contextlib import contextmanager

#: the package's layers, in the order they are wrapped
MODULES = ("pwl", "measures", "decompose", "curtain", "shadow", "verify", "cli")

#: private command-line helpers recorded as layer boundaries
CLI_SPANS = {
    "_cmd_curtain": "cli.curtain",
    "_cmd_verify": "cli.verify",
    "_cmd_sample": "cli.sample",
    "_read_json": "cli.read_json",
    "_write_text": "cli.write_text",
}

#: work counts read from a traced call's result: span name -> (metric, count)
COUNTS = {
    "curtain.build_curtain": ("curtain.build_curtain.intervals", lambda t: len(t.intervals)),
    "decompose.decompose": ("decompose.components", lambda dec: len(dec.components)),
}

#: children of ``cli.curtain`` that read the inputs or compute the coupling;
#: the rest of the command serialises (JSON, curves CSV, writing)
CURTAIN_COMPUTE = frozenset(
    {
        "cli.read_json",
        "measures.measure_from_json",
        "measures.check_convex_order",
        "curtain.build_curtain",
        "curtain.coupling",
    }
)

#: children of ``cli.verify`` that parse the coupling file
VERIFY_PARSE = frozenset({"cli.read_json", "curtain.LiftedCoupling.from_json"})


class Tracer:
    """In-memory span recorder; inactive wrappers call straight through."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [self._name_id(name), time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield len(self.spans) - 1
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[4] = count(result)
            return result

        traced.traced_original = fn
        return traced

    def adopt(self, trace: dict, parent: int) -> None:
        """Append the spans another process wrote, under span ``parent``."""
        remap = [self._name_id(name) for name in trace["names"]]
        base = len(self.spans)
        for name_id, start, end, par, count in trace["spans"]:
            self.spans.append(
                [remap[name_id], start, end, parent if par < 0 else base + par, count]
            )

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions where the package binds them.

    Installing again replaces the wrappers of an earlier tracer.
    """
    package = importlib.import_module("leftcurtain")
    modules = {short: importlib.import_module(f"leftcurtain.{short}") for short in MODULES}
    namespaces = [package, *modules.values()]

    def original(value):
        return getattr(value, "traced_original", value)

    def rebind(fn, wrapped):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if original(value) is fn:
                    setattr(ns, attr, wrapped)

    for short, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            fn = original(value)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if short == "cli":
                name = CLI_SPANS.get(attr)
            else:
                name = None if attr.startswith("_") else f"{short}.{attr}"
            if name is not None:
                count = COUNTS[name][1] if name in COUNTS else None
                rebind(fn, tracer.wrap(name, fn, count))

    lifted = modules["curtain"].LiftedCoupling
    lifted.to_json = tracer.wrap("curtain.LiftedCoupling.to_json", original(lifted.to_json))
    lifted.from_json = staticmethod(
        tracer.wrap("curtain.LiftedCoupling.from_json", original(lifted.from_json))
    )


def _per_root(names: list[str], spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer sums for every root span, keyed by the root's index."""
    n = len(spans)
    child_time = [0.0] * n
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    root = [0] * n
    nested = [False] * n
    for i, span in enumerate(spans):
        parent = span[3]
        root[i] = i if parent < 0 else root[parent]
        # a span inside a span of the same name adds no time to that name
        j = parent
        while j >= 0 and not nested[i]:
            nested[i] = spans[j][0] == span[0]
            j = spans[j][3]

    sums: dict[int, dict[str, float]] = {}
    for i, (name_id, start, end, parent, count) in enumerate(spans):
        if parent < 0:
            sums[i] = {}
            continue
        acc = sums[root[i]]
        name = names[name_id]
        dur = end - start
        acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
        if not nested[i]:
            acc[f"{name}.s"] = acc.get(f"{name}.s", 0.0) + dur
        acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        if count is not None:
            key = COUNTS[name][0]
            acc[key] = acc.get(key, 0) + count
        parent_name = names[spans[parent][0]]
        if parent_name == "cli.curtain" and name in CURTAIN_COMPUTE:
            acc["cli.curtain.compute_s"] = acc.get("cli.curtain.compute_s", 0.0) + dur
        if parent_name == "cli.verify" and name in VERIFY_PARSE:
            acc["cli.verify.parse_s"] = acc.get("cli.verify.parse_s", 0.0) + dur
    for acc in sums.values():
        if "cli.curtain.s" in acc:
            acc["cli.curtain.serialise_s"] = acc["cli.curtain.s"] - acc.get(
                "cli.curtain.compute_s", 0.0
            )
    return sums


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def layer_metrics(tracer: Tracer, wanted: list[dict]) -> dict[str, float]:
    """Per-layer figures for one set-up plus one (median) round.

    Roots named ``setup`` add once; roots named ``round`` give one value per
    round and the median is taken; roots named ``slope.<n>`` feed the
    log-log slopes.  A layer the workload never calls reads 0.
    """
    sums = _per_root(tracer.names, tracer.spans)
    setup: dict[str, float] = {}
    rounds: list[dict[str, float]] = []
    slopes: dict[int, dict[str, float]] = {}
    for i, acc in sums.items():
        root_name = tracer.names[tracer.spans[i][0]]
        if root_name == "setup":
            for key, value in acc.items():
                setup[key] = setup.get(key, 0) + value
        elif root_name == "round":
            rounds.append(acc)
        elif root_name.startswith("slope."):
            slopes[int(root_name.split(".")[1])] = acc
    if not rounds:
        raise RuntimeError("traced run recorded no round")

    sizes = sorted(slopes)
    metrics: dict[str, float] = {}
    for entry in wanted:
        name = entry["name"]
        if name.endswith(".loglog_slope"):
            key = name[: -len(".loglog_slope")] + ".s"
            metrics[name] = loglog_slope(sizes, [slopes[n][key] for n in sizes])
            continue
        values = [acc.get(name, 0) for acc in rounds]
        value = statistics.median(values) + setup.get(name, 0)
        if entry["unit"] == "count":
            value = int(value)
        metrics[name] = value
    return metrics
