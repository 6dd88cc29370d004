import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import leftcurtain
from leftcurtain import (
    DiscreteMeasure,
    LiftedCoupling,
    build_curtain,
    coupling,
    decompose,
    measure_from_json,
    measure_to_json,
    quantile_left,
    random_cx_pair,
    sample_y_many,
)
from leftcurtain.cli import CSV_BLOCK_ROWS, EXIT_IO, EXIT_OK, EXIT_ORDER, EXIT_VERIFICATION, main
from leftcurtain.measures import _GUIDE_MIN_LEVELS
from conftest import dm


@pytest.fixture
def pair_files(tmp_path):
    mu = dm((0.0, 1.0))
    nu = dm((-1.0, 0.5), (1.0, 0.5))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    return mu_path, nu_path


def test_shadow_command(pair_files, tmp_path):
    mu_path, nu_path = pair_files
    out = tmp_path / "shadow.json"
    assert main(["shadow", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["type"] == "atoms"
    assert obj["atoms"] == [[-1.0, 0.5], [1.0, 0.5]]


def test_shadow_command_reads_a_measure_from_stdin(pair_files, tmp_path, monkeypatch):
    mu_path, nu_path = pair_files
    from_file, from_stdin = tmp_path / "file.json", tmp_path / "stdin.json"
    assert main(["shadow", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(from_file)]) == EXIT_OK
    monkeypatch.setattr(sys, "stdin", io.StringIO(mu_path.read_text()))
    assert main(["shadow", "--mu", "-", "--nu", str(nu_path), "--out", str(from_stdin)]) == EXIT_OK
    assert from_stdin.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize(
    "command, inputs",
    [
        (["shadow", "--mu", "-", "--nu", "-"], "--mu and --nu"),
        (["verify", "--mu", "-", "--nu", "nu.json", "--coupling", "-"], "--mu and --coupling"),
    ],
    ids=["pair", "coupling"],
)
def test_two_inputs_from_stdin_are_an_input_error(pair_files, monkeypatch, capsys, command, inputs):
    # stdin can be read once, so the command is refused before it reads any
    # input, with a message that names the options
    mu_path, nu_path = pair_files
    monkeypatch.chdir(nu_path.parent)
    stdin = io.StringIO(mu_path.read_text())
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([*command, "--out", "out"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {inputs} cannot both read stdin"]
    assert stdin.tell() == 0
    assert not (nu_path.parent / "out").exists()


def test_shadow_command_of_an_empty_source(pair_files, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(measure_to_json(DiscreteMeasure([], []))))
    out = tmp_path / "shadow.json"
    assert main(["shadow", "--mu", str(empty), "--nu", str(pair_files[1]), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == {"type": "atoms", "atoms": []}


def assert_coupling_file_reads_back_bitwise(mu_path, nu_path, out):
    """The rows and joint that ``curtain`` writes for the pair read back
    through ``LiftedCoupling.from_json`` bit for bit as the table's rows and
    the coupling's joint."""
    assert main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)]) == EXIT_OK
    mu, nu = (measure_from_json(json.loads(path.read_text())) for path in (mu_path, nu_path))
    table = build_curtain(mu, nu)
    pi = coupling(table, mu)
    back = LiftedCoupling.from_json(json.loads(out.read_text()))
    for name, got, want in (
        ("intervals", back.intervals, table.intervals),
        ("joint_x", back.joint_x, pi.joint_x),
        ("joint_y", back.joint_y, pi.joint_y),
        ("joint_w", back.joint_w, pi.joint_w),
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("pair", ["barrier", "uniform40"])
def test_golden_coupling_file_reads_back_as_the_tables_rows(pair, tmp_path):
    d = Path(__file__).parent / "golden" / pair
    assert_coupling_file_reads_back_bitwise(d / "mu.json", d / "nu.json", tmp_path / "out.json")


def test_bank_coupling_files_read_back_as_the_tables_rows(tmp_path):
    # the first 50 random pairs of the benchmark's cx-bank
    mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
    for i in range(50):
        mu, nu = random_cx_pair(i, 1 + i % 8, (i // 8) % 7)
        mu_path.write_text(json.dumps(measure_to_json(mu)))
        nu_path.write_text(json.dumps(measure_to_json(nu)))
        assert_coupling_file_reads_back_bitwise(mu_path, nu_path, tmp_path / "out.json")


def test_curtain_command_and_verify_round_trip(pair_files, tmp_path):
    mu_path, nu_path = pair_files
    out = tmp_path / "coupling.json"
    rc = main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["intervals"]) == 1
    assert sorted(map(tuple, obj["joint"])) == [(0.0, -1.0, 0.5), (0.0, 1.0, 0.5)]

    report_path = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--mu", str(mu_path),
            "--nu", str(nu_path),
            "--coupling", str(out),
            "--out", str(report_path),
        ]
    )
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["pass"] is True

    # re-running reproduces an identical report
    report2_path = tmp_path / "report2.json"
    main(
        [
            "verify",
            "--mu", str(mu_path),
            "--nu", str(nu_path),
            "--coupling", str(out),
            "--out", str(report2_path),
        ]
    )
    assert json.loads(report2_path.read_text()) == report


def test_verify_flags_corrupted_coupling(pair_files, tmp_path):
    mu_path, nu_path = pair_files
    out = tmp_path / "coupling.json"
    main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)])
    obj = json.loads(out.read_text())
    obj["joint"][0][2] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc = main(
        ["verify", "--mu", str(mu_path), "--nu", str(nu_path), "--coupling", str(bad)]
    )
    assert rc == EXIT_VERIFICATION


def test_curves_csv_upper_function_monotone(tmp_path):
    mu = {
        "type": "grid-density",
        "xs": [-1.0, 1.0],
        "pdf": [0.5, 0.5],
        "n": 50,
    }
    nu = {
        "type": "grid-density",
        "xs": [-2.0, 2.0],
        "pdf": [0.25, 0.25],
        "n": 50,
    }
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(mu))
    nu_path.write_text(json.dumps(nu))
    out = tmp_path / "coupling.json"
    curves = tmp_path / "curves.csv"
    rc = main(
        [
            "curtain",
            "--mu", str(mu_path),
            "--nu", str(nu_path),
            "--out", str(out),
            "--curves", str(curves),
            "--components",
        ]
    )
    assert rc == EXIT_OK
    with open(curves) as fh:
        rows = list(csv.DictReader(fh))
    s_vals = [float(r["S"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(s_vals, s_vals[1:]))
    assert [*rows[0]] == ["u", "G", "R", "Q", "S", "phi"]


def test_sample_command_reproducible(pair_files, tmp_path):
    mu_path, nu_path = pair_files
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sample", "--mu", str(mu_path), "--nu", str(nu_path), "--n", "100", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    ys = {float(r["y"]) for r in rows}
    assert ys <= {-1.0, 1.0}
    assert all(float(r["x"]) == 0.0 for r in rows)


def test_sample_x_is_left_quantile_of_multi_atom_source(tmp_path):
    mu = dm((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))
    nu = dm((-2.0, 0.125), (0.0, 0.125), (0.5, 0.5), (1.0, 0.125), (3.0, 0.125))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    out = tmp_path / "s.csv"
    args = ["sample", "--mu", str(mu_path), "--nu", str(nu_path), "--n", "400", "--seed", "3"]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400
    for r in rows:
        u = float(r["u"])
        expected = -1.0 if u <= 0.25 else (0.5 if u <= 0.75 else 2.0)
        assert float(r["x"]) == expected
    assert {float(r["x"]) for r in rows} == {-1.0, 0.5, 2.0}


@pytest.mark.parametrize(
    "n, stdout",
    [
        *(
            pytest.param(n, False, id=str(n))
            for n in sorted(
                {
                    0,
                    500,
                    CSV_BLOCK_ROWS - 1,
                    CSV_BLOCK_ROWS,
                    CSV_BLOCK_ROWS + 1,
                    2 * _GUIDE_MIN_LEVELS,
                    3 * CSV_BLOCK_ROWS + 5,
                }
            )
        ),
        pytest.param(CSV_BLOCK_ROWS + 1, True, id=f"{CSV_BLOCK_ROWS + 1}-stdout"),
    ],
)
def test_sample_csv_matches_per_row_repr(tmp_path, capsys, n, stdout):
    # mu's atom at -0.0 keeps its sign in x and in the point-kernel draws of
    # y, while the upper destination 0.0 is nu's atom: both zeros appear in
    # y.  The reference draws one row at a time, by the binary search, so
    # the larger values of n also pin the guide table's rows, and the writer's blocks
    # of CSV_BLOCK_ROWS rows end on either side of n.  The reference takes u
    # and v from one generator, all of u first, while the command draws them
    # block by block from two, the second advanced by n: at 3 * CSV_BLOCK_ROWS
    # + 5 the second, third and fourth blocks pin where each copy resumes.
    mu = DiscreteMeasure([-1.0, -0.0, 1.0], [0.25, 0.5, 0.25])
    nu = dm((-2.0, 0.2), (0.0, 0.6), (2.0, 0.2))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    out = tmp_path / "s.csv"
    args = ["sample", "--mu", str(mu_path), "--nu", str(nu_path), "--n", str(n), "--seed", "11"]
    assert main(args + ["--out", "-" if stdout else str(out)]) == EXIT_OK
    text = capsys.readouterr().out if stdout else out.read_text()

    rng = np.random.default_rng(11)
    us = np.clip(rng.uniform(0.0, 1.0, size=n), np.finfo(float).tiny, 1.0 - 1e-16)
    vs = np.clip(rng.uniform(0.0, 1.0, size=n), np.finfo(float).tiny, 1.0 - 1e-16)
    table = build_curtain(mu, nu)
    rows = [
        (u, v, quantile_left(mu, u), sample_y_many(table, [u], [v])[0])
        for u, v in zip(us.tolist(), vs.tolist())
    ]
    lines = ["u,v,x,y"] + [",".join(repr(float(v)) for v in row) for row in rows]
    assert text == "\n".join(lines) + "\n"
    if n:
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} >= {"-0.0", "0.0"}


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, 3 * CSV_BLOCK_ROWS + 5, 10**6 + 3])
def test_an_advanced_generator_draws_on_from_where_it_is_advanced_to(n):
    # sample draws u and v block by block from two copies of one PCG64
    # generator, the second advanced by n, and writes what one generator
    # draws whole: u its draws 0 .. n - 1 and v its draws n .. 2n - 1
    k = CSV_BLOCK_ROWS + 3
    whole = np.random.default_rng(2024).uniform(0.0, 1.0, size=n + k)
    ahead = np.random.default_rng(2024)
    ahead.bit_generator.advance(n)
    assert np.array_equal(ahead.uniform(0.0, 1.0, size=k), whole[n:])
    blocks = np.random.default_rng(2024)
    drawn = [blocks.uniform(0.0, 1.0, size=size) for size in (1, CSV_BLOCK_ROWS, 2)]
    assert np.array_equal(np.concatenate(drawn), whole[:k])


def grid_density_files(tmp_path, cells=500):
    """The benchmark's pair of uniform grid densities with ``cells`` atoms
    each, as ``--mu`` and ``--nu`` arguments."""
    for name, lo, hi in (("mu", -1.0, 1.0), ("nu", -2.0, 2.0)):
        spec = {"type": "grid-density", "xs": [lo, hi], "pdf": [1 / (hi - lo)] * 2, "n": cells}
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    return ["--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")]


@pytest.mark.parametrize(
    "n, cells, message",
    [
        ("-1", 500, "error: --n must be non-negative, got -1"),
        ("10", 10**14, "error: Unable to allocate"),
    ],
    ids=["negative", "beyond-memory"],
)
def test_sample_count_out_of_range_is_an_input_error(tmp_path, capsys, n, cells, message):
    # 1e14 grid cells ask for more than the user address space, so the
    # allocation fails at once and touches no memory, before the file opens;
    # the draws are made in blocks, so no --n fails this way
    pair = grid_density_files(tmp_path, cells)
    out = tmp_path / "s.csv"
    assert main(["sample", *pair, "--n", n, "--seed", "0", "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert not out.exists()


def test_sample_memory_is_flat_in_the_number_of_draws(tmp_path):
    # the draws are made, looked up, formatted and written a block at a
    # time, so no array or text of all the rows exists: the tracemalloc peak
    # at 2e5 draws is that at 2e4 (with whole columns it read 4.1 and 16.6 MB)
    pair = grid_density_files(tmp_path)
    peaks = []
    tracemalloc.start()
    try:
        for n in (20_000, 200_000):
            tracemalloc.reset_peak()
            args = ["sample", *pair, "--n", str(n), "--seed", "1", "--out", str(tmp_path / "s.csv")]
            assert main(args) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    small, large = peaks
    assert abs(large - small) <= 0.5 * 2**20
    assert large < 4 * 2**20


def test_verify_reads_the_destinations_of_the_coupling_file(three_atom, tmp_path):
    # the first row sends its upper share to 3 in place of 0; the joint is
    # untouched, and the destination law read off the rows sees the move
    mu, nu = three_atom
    pair = []
    for name, eta in (("mu", mu), ("nu", nu)):
        (tmp_path / f"{name}.json").write_text(json.dumps(measure_to_json(eta)))
        pair += [f"--{name}", str(tmp_path / f"{name}.json")]
    out, report = tmp_path / "coupling.json", tmp_path / "report.json"
    assert main(["curtain", *pair, "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["intervals"][0]["s"] == 0.0
    obj["intervals"][0]["s"] = 3.0
    out.write_text(json.dumps(obj))
    rc = main(["verify", *pair, "--coupling", str(out), "--out", str(report)])
    assert rc == EXIT_VERIFICATION
    assert json.loads(report.read_text())["checks"]["proby_residual_max"]["pass"] is False


def test_verify_ties_the_joint_of_the_coupling_file_to_its_rows(tmp_path, monkeypatch):
    # the README pair with the right curtain's joint in place of the left
    # one: a martingale coupling of (mu, nu), but not the rows' integral
    monkeypatch.chdir(tmp_path)
    mu, nu = dm((-1.0, 0.5), (1.0, 0.5)), dm((-3.0, 1 / 3), (0.0, 1 / 3), (3.0, 1 / 3))
    pair = ["--mu", "mu.json", "--nu", "nu.json"]
    for name, eta in (("mu", mu), ("nu", nu)):
        (tmp_path / f"{name}.json").write_text(json.dumps(measure_to_json(eta)))
    assert main(["curtain", *pair, "--out", "coupling.json"]) == EXIT_OK
    obj = json.loads((tmp_path / "coupling.json").read_text())
    obj["joint"] = [[1.0, 3.0, 1 / 6], [1.0, 0.0, 1 / 3], [-1.0, 3.0, 1 / 6], [-1.0, -3.0, 1 / 3]]
    (tmp_path / "coupling.json").write_text(json.dumps(obj))
    assert main(["verify", *pair, "--coupling", "coupling.json", "--out", "report.json"]) == (
        EXIT_VERIFICATION
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert [k for k, check in report["checks"].items() if not check["pass"]] == ["joint_rows_tv"]
    assert report["joint_rows_tv"] == pytest.approx(2 / 3, rel=1e-12)


def test_verify_counts_monotonicity_on_the_coupling_file(tmp_path):
    mu = dm((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))
    nu = dm((-2.0, 0.125), (0.0, 0.125), (0.5, 0.5), (1.0, 0.125), (3.0, 0.125))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    out = tmp_path / "coupling.json"
    assert main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    first, last = obj["intervals"][0], obj["intervals"][-1]
    (first["r"], first["s"]), (last["r"], last["s"]) = (last["r"], last["s"]), (first["r"], first["s"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    report = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--mu", str(mu_path),
            "--nu", str(nu_path),
            "--coupling", str(bad),
            "--out", str(report),
        ]
    )
    assert rc == EXIT_VERIFICATION
    assert json.loads(report.read_text())["monotonicity_violations"] > 0


def verify_own_coupling(tmp_path, mu, nu):
    """Exit code of ``verify`` on the ``curtain`` output of ``(mu, nu)``, and its report."""
    mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    pair = ["--mu", str(mu_path), "--nu", str(nu_path)]
    out, report = tmp_path / "coupling.json", tmp_path / "report.json"
    assert main(["curtain", *pair, "--out", str(out)]) == EXIT_OK
    rc = main(["verify", *pair, "--coupling", str(out), "--out", str(report)])
    return rc, json.loads(report.read_text())


def test_verify_passes_target_atoms_closer_than_pos_eps(tmp_path):
    nu = dm((-1.0, 0.5), (1.0, 0.25), (1.0 + 5e-12, 0.25))
    mu = dm((nu.mean, 1.0))
    rc, report = verify_own_coupling(tmp_path, mu, nu)
    assert rc == EXIT_OK
    assert report["shadow_certificate_max"] <= 1e-15


def test_verify_passes_a_source_atom_within_pos_eps_of_a_target_atom(near_atom, tmp_path):
    rc, report = verify_own_coupling(tmp_path, *near_atom)
    assert rc == EXIT_OK
    assert report["monotonicity_violations"] == 0


def test_curtain_with_components_decomposes_once(split_pair, tmp_path, monkeypatch):
    import leftcurtain.cli as cli
    import leftcurtain.curtain as curtain

    calls = {"decompose": 0, "walk": 0}

    def counted_decompose(pi, mu, nu):
        calls["decompose"] += 1
        return decompose(pi, mu, nu)

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    walk = curtain._walk
    monkeypatch.setattr(cli, "decompose", counted_decompose)
    monkeypatch.setattr(curtain, "_walk", counted_walk)
    mu, nu = split_pair
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    out = tmp_path / "coupling.json"
    args = ["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)]
    assert main(args + ["--components"]) == EXIT_OK
    # one decomposition, and one walk: the build's, which is its order check
    assert calls == {"decompose": 1, "walk": 1}
    obj = json.loads(out.read_text())
    assert [c["interval"] for c in obj["components"]] == [[-2.0, 0.0], [0.0, 2.0]]
    plain = tmp_path / "plain.json"
    assert main(args[:-1] + [str(plain)]) == EXIT_OK
    assert json.loads(plain.read_text())["intervals"] == obj["intervals"]


def test_decompose_command(tmp_path):
    mu = dm((-1.0, 0.5), (1.0, 0.5))
    nu = dm((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    out = tmp_path / "dec.json"
    assert main(["decompose", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["components"]) == 2
    assert obj["components"][0]["interval"] == [-2.0, 0.0]


def test_order_failure_exit_code(tmp_path):
    mu = dm((-1.0, 0.5), (1.0, 0.5))
    nu = dm((0.0, 1.0))
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(json.dumps(measure_to_json(mu)))
    nu_path.write_text(json.dumps(measure_to_json(nu)))
    rc = main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_ORDER


@pytest.mark.parametrize(
    "extra",
    [
        # the pair is checked before the coupling file is read, which is not JSON
        ["verify", "--coupling", "bad.json"],
        ["sample", "--n", "10", "--seed", "0"],
        ["decompose"],
    ],
    ids=["verify", "sample", "decompose"],
)
def test_order_failure_exit_code_of_every_pair_command(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(dm((-1.0, 0.5), (1.0, 0.5)))))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(dm((0.0, 1.0)))))
    (tmp_path / "bad.json").write_text("{not json")
    rc = main([extra[0], "--mu", "mu.json", "--nu", "nu.json", *extra[1:], "--out", "out"])
    assert rc == EXIT_ORDER
    assert "not in convex order" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["curtain"],
        ["decompose"],
        ["sample", "--n", "10", "--seed", "0"],
        # the pair is checked before the coupling file is read, which is not JSON
        ["verify", "--coupling", "bad.json"],
        ["shadow"],
    ],
    ids=["curtain", "decompose", "sample", "verify", "shadow"],
)
def test_source_atom_outside_the_target_by_rounding_is_an_order_failure(
    tmp_path, monkeypatch, capsys, extra
):
    # mu's upper atom lies 2.3e-10 right of nu's, beyond POS_EPS: the walk
    # finds no target atom right of it, and the pair is not in convex order
    w = (0.7922671063943849, 0.20773289360561503)
    mu = DiscreteMeasure([999999.9421465949, 999999.9730576744], w)
    nu = DiscreteMeasure([999999.9421465949, 999999.9730576742], w)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(mu)))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(nu)))
    (tmp_path / "bad.json").write_text("{not json")
    rc = main([extra[0], "--mu", "mu.json", "--nu", "nu.json", *extra[1:], "--out", "out"])
    assert rc == EXIT_ORDER
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: inputs not in convex order")
    # the message names the atom and the mass it could not send
    assert "999999.9730576744 for its last 2.077e-01 of mass" in line
    assert not (tmp_path / "out").exists()


def test_verify_judges_rows_that_send_mass_to_no_target_atom(tmp_path, monkeypatch):
    # hand-written rows send mu's upper atom to itself, no target atom: the
    # certificate fails by that row's mass, the joint, which sends it to
    # nu's atoms, is not the rows' integral, and the rows' destination law
    # misses nu.  With no rows at all, every check that reads the rows fails.
    mu, nu = dm((0.0, 0.5), (1.0, 0.5)), dm((0.0, 0.5), (0.5, 0.25), (1.5, 0.25))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(mu)))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(nu)))
    rows = [[0.0, 0.5, 0.0, 0.0, 0.0], [0.5, 1.0, 1.0, 1.0, 1.0]]
    joint = [[0.0, 0.0, 0.5], [1.0, 0.5, 0.25], [1.0, 1.5, 0.25]]
    argv = ["verify", "--mu", "mu.json", "--nu", "nu.json", "--coupling", "c.json", "--out", "out"]
    by_rows = {}
    for name, intervals in (("hand", rows), ("none", [])):
        keyed = [dict(zip(("u_lo", "u_hi", "x", "r", "s"), row)) for row in intervals]
        (tmp_path / "c.json").write_text(json.dumps({"intervals": keyed, "joint": joint}))
        assert main(argv) == EXIT_VERIFICATION
        by_rows[name] = json.loads((tmp_path / "out").read_text())
    failed = [k for k, check in by_rows["hand"]["checks"].items() if not check["pass"]]
    assert failed == ["joint_rows_tv", "proby_residual_max", "shadow_certificate_max"]
    assert by_rows["hand"]["shadow_certificate_max"] == 0.5
    assert by_rows["hand"]["joint_rows_tv"] == 0.5
    failed = [k for k, check in by_rows["none"]["checks"].items() if not check["pass"]]
    assert failed == [
        "joint_rows_tv", "proby_residual_max", "phi_sandwich_violation_max", "shadow_certificate_max"
    ]


@pytest.mark.parametrize(
    "extra",
    [
        ["curtain"],
        ["curtain", "--components"],
        # the pair is checked before the coupling file is read, which is not JSON
        ["verify", "--coupling", "bad.json"],
        ["sample", "--n", "10", "--seed", "0"],
        ["decompose"],
    ],
    ids=["curtain", "curtain-components", "verify", "sample", "decompose"],
)
def test_pair_of_mass_two_is_an_input_error(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(dm((0.0, 1.0), (1.0, 1.0)))))
    nu = dm((-1.0, 0.5), (0.5, 1.0), (2.0, 0.5))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(nu)))
    (tmp_path / "bad.json").write_text("{not json")
    rc = main([extra[0], "--mu", "mu.json", "--nu", "nu.json", *extra[1:], "--out", "out"])
    assert rc == EXIT_IO
    assert "probability measures" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_atom_is_an_input_error(tmp_path):
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text('{"type": "atoms", "atoms": [[NaN, 0.5], [1.0, 0.5]]}')
    nu_path.write_text(json.dumps(measure_to_json(dm((-1.0, 0.5), (2.0, 0.5)))))
    rc = main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_IO


@pytest.mark.parametrize(
    "where, bad",
    [
        ("s", float("nan")),
        ("u_hi", float("inf")),
        ("joint", -float("inf")),
        ("joint", -1e-3),
        ("x", None),
        ("rows", "lists"),
        pytest.param("document", [1, 2], id="document-list"),
        pytest.param("joint", "flat", id="joint-flat"),
        ("x", True),
        ("joint", False),
    ],
)
def test_non_finite_coupling_entry_is_an_input_error(tmp_path, capsys, where, bad):
    # the coupling file of the n = 500 uniform grid densities, one entry
    # edited: NaN compares false, so a verifier could pass over it, and
    # negative weights of points that match no atom could cancel
    for name, (a, b) in (("mu", (-1.0, 1.0)), ("nu", (-2.0, 2.0))):
        density = {"type": "grid-density", "xs": [a, b], "pdf": [0.5 / b] * 2, "n": 500}
        (tmp_path / f"{name}.json").write_text(json.dumps(density))
    pair = ["--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")]
    good, bad_path = tmp_path / "coupling.json", tmp_path / "bad.json"
    assert main(["curtain", *pair, "--out", str(good)]) == EXIT_OK
    obj = json.loads(good.read_text())
    if where == "joint" and bad == "flat":
        obj["joint"] = [entry for row in obj["joint"] for entry in row]
    elif where == "joint":
        obj["joint"][3][2] = bad
    elif where == "rows":
        obj["intervals"] = [list(row.values()) for row in obj["intervals"]]
    elif where == "document":
        obj = bad
    else:
        obj["intervals"][len(obj["intervals"]) // 2][where] = bad
    bad_path.write_text(json.dumps(obj))
    report = tmp_path / "report.json"
    assert main(["verify", *pair, "--coupling", str(good), "--out", str(report)]) == EXIT_OK
    rc = main(["verify", *pair, "--coupling", str(bad_path), "--out", str(report)])
    assert rc == EXIT_IO
    assert "finite" in capsys.readouterr().err


def grid(xs, pdf, n=4):
    return {"type": "grid-density", "xs": xs, "pdf": pdf, "n": n}


@pytest.mark.parametrize(
    "measure, message",
    [
        ({"type": "atoms", "atoms": [[0.0, 1.5], [1.0, -0.5]]}, "atom weights must be non-negative"),
        (grid([0.0], [1.0]), "need at least two grid points"),
        (grid([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]), "grid must be strictly increasing"),
        (grid([0.0, 1.0], [1.0, -1.0]), "density must be non-negative"),
        (grid([0.0, 1.0], [1.0, 1.0], n=0), "need at least one cell"),
        ({"type": "dirac", "at": 0.0}, "unknown measure type: 'dirac'"),
        ({"type": "atoms", "atoms": 5}, "atoms must be a list of [x, w] pairs of numbers"),
        ([1, 2], "a measure must be a JSON object, got list"),
        ({"type": "atoms", "atoms": [[0.0, None]]}, "atoms must be a list of [x, w] pairs of numbers"),
        (grid([0.0, 1.0], [1.0, 1.0], n=None), "grid-density n must be a whole number, got None"),
        (grid([0.0, 1.0], [1.0, 1.0], n=2.7), "grid-density n must be a whole number, got 2.7"),
        (grid([0.0, 1.0], [1.0, 1.0], n=True), "grid-density n must be a whole number, got True"),
        (grid([{}, 1.0], [1.0, 1.0]), "grid-density xs and pdf must be lists of numbers"),
        ({"type": "atoms", "atoms": [[True, 1.0]]}, "atoms must be a list of [x, w] pairs of numbers"),
        ({"type": "atoms", "atoms": [[0.0, True]]}, "atoms must be a list of [x, w] pairs of numbers"),
        (grid([False, 1.0], [1.0, 1.0]), "grid-density xs and pdf must be lists of numbers"),
        (grid([0.0, 1.0], [1.0, True]), "grid-density xs and pdf must be lists of numbers"),
        ({"type": "atoms", "atoms": [["0.0", 1.0]]}, "atoms must be a list of [x, w] pairs of numbers"),
    ],
    ids=[
        "negative-weight",
        "one-point-grid",
        "flat-grid",
        "negative-pdf",
        "no-cells",
        "unknown-type",
        "atoms-not-a-list",
        "top-level-list",
        "null-weight",
        "null-cells",
        "fractional-cells",
        "boolean-cells",
        "object-in-grid",
        "boolean-position",
        "boolean-weight",
        "boolean-grid",
        "boolean-pdf",
        "string-position",
    ],
)
def test_a_bad_measure_file_is_an_input_error(tmp_path, monkeypatch, capsys, measure, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(dm((0.0, 1.0)))))
    rc = main(["curtain", "--mu", "mu.json", "--nu", "nu.json", "--out", "out"])
    assert rc == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_a_source_heavier_than_its_target_is_an_order_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(dm((0.0, 1.0)))))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(dm((0.0, 0.5)))))
    rc = main(["shadow", "--mu", "mu.json", "--nu", "nu.json", "--out", "out"])
    assert rc == EXIT_ORDER
    assert capsys.readouterr().err.splitlines() == ["error: source mass 1.0 exceeds target mass 0.5"]
    assert not (tmp_path / "out").exists()


def test_io_failure_exit_code(tmp_path):
    rc = main(["shadow", "--mu", str(tmp_path / "missing.json"), "--nu", str(tmp_path / "missing.json")])
    assert rc == EXIT_IO


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-0.5e-9"])
def test_verify_rejects_a_bad_tolerance(pair_files, tmp_path, capsys, tol):
    # a NaN tolerance would fail every check and write "tol": NaN, which is
    # not JSON; inf would pass every check
    mu_path, nu_path = pair_files
    pair = ["--mu", str(mu_path), "--nu", str(nu_path)]
    coupling_path, report = tmp_path / "coupling.json", tmp_path / "report.json"
    assert main(["curtain", *pair, "--out", str(coupling_path)]) == EXIT_OK
    verify_args = ["verify", *pair, "--coupling", str(coupling_path), "--out", str(report)]
    assert main([*verify_args, f"--tol={tol}"]) == EXIT_IO
    assert "error: --tol" in capsys.readouterr().err
    assert not report.exists()
    assert main([*verify_args, "--tol=0"]) == EXIT_OK


@pytest.mark.parametrize(
    "command",
    [
        ["curtain"],
        ["verify", "--coupling", "coupling.json"],
        ["sample", "--n", "50", "--seed", "1"],
        ["decompose"],
        ["shadow"],
    ],
)
def test_no_command_imports_numpy_ma(tmp_path, monkeypatch, command):
    # np.unique, and so np.union1d, imports numpy.ma on first use, which
    # costs 10-17 ms in every fresh process
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(dm((0.0, 0.5), (0.2, 0.5)))))
    nu = dm((-1.0, 0.3), (0.1, 0.4), (1.2, 0.3))
    (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(nu)))
    pair = ["--mu", "mu.json", "--nu", "nu.json"]
    assert main(["curtain", *pair, "--out", "coupling.json"]) == EXIT_OK
    src = str(Path(leftcurtain.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys; from leftcurtain.cli import main; print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code, command[0], *pair, *command[1:], "--out", "out"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_OK), "False"]
