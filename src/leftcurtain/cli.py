"""Command-line surface.

Subcommands
-----------
shadow     compute the shadow of one measure in another
curtain    build the left-curtain coupling (JSON, optional curve CSV)
verify     check a coupling file against its marginals
sample     draw reproducible destination samples
decompose  list irreducible components

Measures are JSON files, either explicit atoms::

    {"type": "atoms", "atoms": [[x, w], ...]}

or a density to be quantised::

    {"type": "grid-density", "xs": [...], "pdf": [...], "n": 1000}

``-`` stands for stdin/stdout; at most one input reads stdin.  Exit codes:
0 success, 1 verification failure, 2 I/O, format or input error (an array
too large for memory included), 3 convex-order failure.  CSV output is
built, formatted and written in blocks of ``CSV_BLOCK_ROWS`` rows, so
``sample`` holds no array of ``--n`` entries.  Sampling uses NumPy's PCG64
generator (``numpy.random.default_rng``) seeded from ``--seed``: ``u`` is
its first ``--n`` draws and ``v`` the next ``--n``, which a second copy of
the generator, advanced by ``--n``, draws block by block.  So runs
reproduce bit for bit across platforms.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Callable, Iterable

import numpy as np

from .curtain import LiftedCoupling, _check_pair, build_curtain, coupling, curve_rows
from .decompose import Decomposition, decompose
from .measures import (
    DecomposeError,
    DiscreteMeasure,
    _level_index,
    measure_from_json,
    measure_to_json,
)
from .shadow import shadow
from .verify import DEFAULT_TOL, verify_all

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_IO = 2
EXIT_ORDER = 3

#: rows of CSV output formatted and written at a time
CSV_BLOCK_ROWS = 8192


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _open_out(path: str):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _write_csv(
    path: str, header: str, n: int, block: Callable[[slice], Iterable[Iterable[str]]]
) -> None:
    """Write ``header`` and ``n`` rows in blocks of ``CSV_BLOCK_ROWS``, each
    built, formatted and written before the next: ``block`` gives the texts
    of the rows of a slice, one iterable per column, and is called once per
    block, in order."""
    with _open_out(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            columns = block(slice(lo, min(lo + CSV_BLOCK_ROWS, n)))
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _floats(values: np.ndarray) -> Iterable[str]:
    """The texts of ``values``: ``repr`` of each."""
    return map(repr, values.tolist())


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each entry of ``values``, as an object array of its shape."""
    return np.array(list(map(repr, values.ravel().tolist())), dtype=object).reshape(values.shape)


def _load_measure(path: str) -> DiscreteMeasure:
    return measure_from_json(_read_json(path))


def _load_pair(args) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    return mu, nu


def _components_payload(dec: Decomposition) -> list[dict]:
    payload = []
    for k, comp in enumerate(dec.components):
        payload.append(
            {
                "index": k,
                "interval": [comp.a, comp.b],
                "includes_endpoints": [comp.includes_a, comp.includes_b],
                "mass": comp.mass,
                "mu_part": measure_to_json(comp.mu_part),
                "nu_part": measure_to_json(comp.nu_part),
            }
        )
    return payload


def _cmd_shadow(args) -> int:
    mu, nu = _load_pair(args)
    result = shadow(mu, nu)
    _write_text(args.out, json.dumps(measure_to_json(result), indent=2))
    return EXIT_OK


def _cmd_curtain(args) -> int:
    mu, nu = _load_pair(args)
    table = build_curtain(mu, nu)
    pi = coupling(table, mu)
    components = _components_payload(decompose(pi, mu, nu)) if args.components else []
    _write_text(args.out, json.dumps(pi.to_json(components=components), indent=2))
    if args.curves:
        rows = curve_rows(table)
        _write_csv(
            args.curves, "u,G,R,Q,S,phi", len(rows), lambda block: map(_floats, rows[block].T)
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < np.inf:  # NaN fails too
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    mu, nu = _load_pair(args)
    _check_pair(mu, nu)  # an unordered pair exits before the file is read
    pi = LiftedCoupling.from_json(_read_json(args.coupling))
    rep = verify_all(None, pi, mu, nu, tol=args.tol)
    _write_text(args.out, rep.to_json())
    return EXIT_OK if rep.passed() else EXIT_VERIFICATION


def _cmd_sample(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    mu, nu = _load_pair(args)
    table = build_curtain(mu, nu)
    # u is the generator's draws 0 .. n - 1 and v its draws n .. 2n - 1, each
    # column drawn a block at a time from its own copy of the generator
    draw_u, draw_v = np.random.default_rng(args.seed), np.random.default_rng(args.seed)
    draw_v.bit_generator.advance(args.n)
    # x is quantile_left(mu, u), the atom of mu at u's index in its cumulative
    # weights, and y is sample_y_many(table, u, v), the lower destination of
    # u's row where v is at most the row's share and the upper one otherwise:
    # each is written as its text, built once per atom and per destination,
    # so -0.0 keeps its sign
    u_hi = table.intervals[:, 1]
    lower, share, _ = table._kernels
    x_texts = _reprs(mu.xs)
    y_texts = _reprs(np.column_stack((lower, table.intervals[:, 4])))
    # avoid the measure-zero endpoints where the quantile is undefined
    eps = np.finfo(float).tiny

    def block(rows: slice) -> tuple:
        size = rows.stop - rows.start
        us = np.clip(draw_u.uniform(0.0, 1.0, size=size), eps, 1.0 - 1e-16)
        vs = np.clip(draw_v.uniform(0.0, 1.0, size=size), eps, 1.0 - 1e-16)
        xs = x_texts[_level_index(mu.cum_weights, us, mu)]
        row = _level_index(u_hi, us, table)
        ys = y_texts[row, (vs > share[row]).view(np.int8)]  # column 1: the upper one
        return _floats(us), _floats(vs), xs.tolist(), ys.tolist()

    _write_csv(args.out, "u,v,x,y", args.n, block)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    mu, nu = _load_pair(args)
    dec = decompose(coupling(build_curtain(mu, nu), mu), mu, nu)
    payload = {
        "components": _components_payload(dec),
        "static": measure_to_json(dec.static),
    }
    _write_text(args.out, json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftcurtain",
        description="Left-curtain martingale coupling toolkit",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 I/O error, 3 order failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--mu", required=True, help="source measure JSON ('-' for stdin)")
        p.add_argument("--nu", required=True, help="target measure JSON ('-' for stdin)")

    p = sub.add_parser("shadow", help="shadow of --mu in --nu")
    add_pair(p)
    p.add_argument("--out", default="-", help="output measure JSON")
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("curtain", help="left-curtain coupling")
    add_pair(p)
    p.add_argument("--out", default="-", help="coupling JSON output")
    p.add_argument("--curves", default=None, help="CSV of u,G,R,Q,S,phi rows")
    p.add_argument(
        "--components", action="store_true", help="embed the irreducible decomposition"
    )
    p.set_defaults(func=_cmd_curtain)

    p = sub.add_parser(
        "verify",
        help="verify a coupling file",
        description="Check a coupling file against its marginals; every check reads the file.",
    )
    add_pair(p)
    p.add_argument("--coupling", required=True, help="coupling JSON to check")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default="-", help="report JSON output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="reproducible destination samples")
    add_pair(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output (u,v,x,y)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="irreducible component listing")
    add_pair(p)
    p.add_argument("--out", default="-", help="decomposition JSON output")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # stdin can be read once: a second input from it would read nothing
        stdin = [f"--{key}" for key in ("mu", "nu", "coupling") if getattr(args, key, None) == "-"]
        if len(stdin) > 1:
            raise ValueError(f"{stdin[0]} and {stdin[1]} cannot both read stdin")
        return args.func(args)
    except DecomposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except (OSError, MemoryError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
