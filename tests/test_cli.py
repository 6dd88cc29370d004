import csv
import json

import pytest

from leftcurtain import measure_to_json
from leftcurtain.cli import EXIT_IO, EXIT_OK, EXIT_ORDER, EXIT_VERIFICATION, main
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


def test_non_finite_atom_is_an_input_error(tmp_path):
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text('{"type": "atoms", "atoms": [[NaN, 0.5], [1.0, 0.5]]}')
    nu_path.write_text(json.dumps(measure_to_json(dm((-1.0, 0.5), (2.0, 0.5)))))
    rc = main(["curtain", "--mu", str(mu_path), "--nu", str(nu_path), "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_IO


def test_io_failure_exit_code(tmp_path):
    rc = main(["shadow", "--mu", str(tmp_path / "missing.json"), "--nu", str(tmp_path / "missing.json")])
    assert rc == EXIT_IO
