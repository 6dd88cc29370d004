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

``-`` stands for stdin/stdout.  Exit codes: 0 success, 1 verification
failure, 2 I/O, format or input error (an array too large for memory
included), 3 convex-order failure.  CSV output is formatted and written in
blocks of ``CSV_BLOCK_ROWS`` rows.  Sampling uses
NumPy's PCG64 generator (``numpy.random.default_rng``) seeded from
``--seed``, so runs reproduce bit for bit across platforms.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Callable, Iterable

import numpy as np

from .curtain import LiftedCoupling, _check_pair, build_curtain, coupling, curve_rows, sample_y_many
from .decompose import Decomposition, decompose
from .measures import (
    DecomposeError,
    DiscreteMeasure,
    measure_from_json,
    measure_to_json,
    quantile_left,
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
    path: str, header: str, n: int, columns: list[Callable[[slice], Iterable[str]]]
) -> None:
    """Write ``header`` and ``n`` rows in blocks of ``CSV_BLOCK_ROWS``, each
    formatted and written before the next is built; ``columns`` give the
    texts of a block of rows, one per column."""
    with _open_out(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            fh.write("\n".join(map(",".join, zip(*(column(block) for column in columns)))) + "\n")


def _floats(column: np.ndarray) -> Callable[[slice], Iterable[str]]:
    """The texts of a block of ``column``: ``repr`` of each value."""
    return lambda block: map(repr, column[block].tolist())


def _reprs(column: np.ndarray) -> Callable[[slice], Iterable[str]]:
    """The texts of a block of ``column``, which has few distinct values:
    ``repr`` of each distinct bit pattern once (so ``-0.0`` keeps its sign),
    which a block indexes."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return lambda block: texts[inverse[block]].tolist()


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
        _write_csv(args.curves, "u,G,R,Q,S,phi", len(rows), [_floats(c) for c in rows.T])
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
    rng = np.random.default_rng(args.seed)
    us = rng.uniform(0.0, 1.0, size=args.n)
    vs = rng.uniform(0.0, 1.0, size=args.n)
    # avoid the measure-zero endpoints where the quantile is undefined
    eps = np.finfo(float).tiny
    us = np.clip(us, eps, 1.0 - 1e-16)
    vs = np.clip(vs, eps, 1.0 - 1e-16)
    ys = sample_y_many(table, us, vs)
    xs = quantile_left(mu, us)
    # the columns are whole arrays, drawn and mapped before the file opens;
    # only their text is built in blocks
    _write_csv(args.out, "u,v,x,y", args.n, [_floats(us), _floats(vs), _reprs(xs), _reprs(ys)])
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
        return args.func(args)
    except DecomposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except (OSError, MemoryError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
