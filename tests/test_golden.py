"""Golden outputs: ``focksolve verify`` reports compared byte for byte.

Each file in ``tests/golden`` is the output of one fixed ``verify`` command.
The reports hold exact rationals drawn from a string-seeded
``random.Random``, so their bytes are the same on every platform.

To regenerate a file after a deliberate change of the report, run its
command from the repository root with ``--output`` pointing at the file, for
example::

    PYTHONPATH=src python3 -m focksolve.cli verify --k 2 --trials 3 \\
        --output tests/golden/verify-k2.json

and explain the regeneration, with the diff of the report, in CHANGES.md.
"""

from pathlib import Path

import pytest

from focksolve import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify-k1.json": ["verify", "--k", "1", "--trials", "3"],
    "verify-k2.json": ["verify", "--k", "2", "--trials", "3"],
    "verify-k3.json": ["verify", "--k", "3", "--trials", "3"],
    "verify-k4.json": ["verify", "--k", "4", "--trials", "3"],
    "verify-k6.json": ["verify", "--k", "6", "--trials", "3"],
    "verify.json": ["verify", "--trials", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_verify_output_matches_its_golden_file(tmp_path, name):
    out = tmp_path / name
    assert cli.run([*COMMANDS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_its_command():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(COMMANDS)
