"""Command-line output bytes on two fixed pairs, against the files kept in
``tests/golden``.

``barrier`` is a pair of atoms with four irreducible components, two
static atoms and point-kernel rows; ``uniform40`` quantises U[-1, 1] ->
U[-2, 2] at n = 40 from grid densities.  Each directory holds the inputs
``mu.json`` and ``nu.json`` and the outputs of::

    leftcurtain curtain --mu mu.json --nu nu.json --out coupling.json \\
                        --curves curves.csv --components
    leftcurtain verify  --mu mu.json --nu nu.json --coupling coupling.json \\
                        --out report.json
    leftcurtain sample  --mu mu.json --nu nu.json --n 200 --seed 7 --out samples.csv

Regenerate them with these commands only for a deliberate change of the
output, and say so where the change is recorded.
"""

from pathlib import Path

import pytest

from leftcurtain.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("pair", ["barrier", "uniform40"])
def test_cli_bytes_match_the_golden_files(pair, tmp_path):
    d = GOLDEN / pair
    io = ["--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
    commands = [
        ["curtain", *io, "--out", str(tmp_path / "coupling.json"),
         "--curves", str(tmp_path / "curves.csv"), "--components"],
        ["verify", *io, "--coupling", str(d / "coupling.json"),
         "--out", str(tmp_path / "report.json")],
        ["sample", *io, "--n", "200", "--seed", "7", "--out", str(tmp_path / "samples.csv")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv[0]
    for name in ("coupling.json", "curves.csv", "report.json", "samples.csv"):
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name
