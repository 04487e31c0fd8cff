"""Every command-line case in one table, and the one runner that checks it.

A row gives an argv, the text of its input file, its exit code, its error
text (exact, or a part of it), an optional wall-time limit, and what it
writes: a golden file under ``tests/golden``, the same bytes on a rerun, or
nothing.  Tier-1 runs every row in process through ``focksolve.cli.run``
(``tests/test_cli.py``); CI runs the same rows through the installed
``focksolve`` script, from any directory::

    python tests/cli_cases.py

Each row reads and writes its files in a temporary directory of its own,
so the checkout gains no file.  In an argv, ``{tmp}`` is that directory,
``{in}`` the row's input file in it, ``{out}`` its output file, and
``{examples}`` and ``{golden}`` the checked-in directories.  A row whose argv has no ``{out}`` writes to
stdout, and its expectation is about stdout.

The runner checks every row for its exit code.  A row that exits 0 prints
nothing on stderr.  A row that exits 2 writes nothing, and prints exactly
one stderr line, ``{"error": ...}``, except a usage row, where argparse
prints its usage message.

Golden files.  ``verify`` reports hold exact rationals drawn from a
string-seeded ``random.Random``, so they are compared byte for byte on every
platform.  The other golden files hold floats, whose last bits depend on
libm and numpy: they are compared byte for byte where Python's minor version
and numpy's version are those of ``FLOAT_PLATFORM``, the platform that made
them, and elsewhere a rerun must write the same bytes.  The runner says
which comparison it made.

To regenerate a golden file after a deliberate change of the output, run its
row's argv from the repository root with ``PYTHONPATH=src python3 -m
focksolve.cli``, ``{golden}``/``{examples}`` read as ``tests/golden`` and
``examples`` and ``{out}`` as the golden file (or stdout redirected to it),
for example::

    PYTHONPATH=src python3 -m focksolve.cli verify --k 2 --trials 3 \\
        --output tests/golden/verify-k2.json

set ``FLOAT_PLATFORM`` to the platform of a float file's run, and explain
the regeneration, with the diff of the output, in CHANGES.md.
"""

import io
import json
import math
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES, GOLDEN = ROOT / "examples", ROOT / "tests" / "golden"
# the Python minor version and numpy version that made the float golden files
FLOAT_PLATFORM = ("3.11", "2.4.6")
PLATFORM = (".".join(platform.python_version_tuple()[:2]), np.__version__)
RERUN = "rerun"


class Case(NamedTuple):
    name: str
    argv: str  # split at spaces
    data: object = None  # the text of {in}: a str as it is, anything else through json.dumps
    code: int = 0
    error: str = None  # exit 2: the whole error text
    says: str = None  # exit 2: a part of the error text, or of argparse's usage message
    out: str = None  # a golden file's name or RERUN; exit 0 defaults to RERUN, exit 2 to nothing
    seconds: float = None  # wall-time limit
    usage: bool = False  # argparse refuses the argv and prints its usage message


def coeffs(*rows, basis="hermite"):
    """A coefficient block of (m, n, re, im) rows."""
    return {"basis": basis, "coeffs": [dict(zip(("m", "n", "re", "im"), row)) for row in rows]}


def mono(*rows):
    return coeffs(*rows, basis="monomial")


ONE = [(0, 0, 1.0, 0.0)]
SOLVE, EVAL, DISK = (f"{command} --input {{in}} --output {{out}}" for command in ("solve", "eval", "disk"))
COMMANDS = ("solve", "verify", "certify", "probe", "eval", "disk")
# the README's edge disk file, without its truncation
EDGE = {"radius": 0.3, "k": 3, "c": {"re": 10.0, "im": 0.0}, "f": mono(*ONE)}
# solve files whose numbers are malformed, each refused where it is read, with its whole error text
NUMBERS = [
    ('{"k": 1e999, "f": {"coeffs": []}}', "ValueError: k = inf is not an integer"),
    ('{"k": 2.5, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}', "ValueError: k = 2.5 is not an integer"),
    ('{"k": 1, "f": {"coeffs": [{"m": Infinity, "n": 0, "re": 1.0}]}}', "ValueError: m = inf is not an integer"),
    (
        '{"k": 1, "f": {"basis": "monomial", "coeffs": [{"m": 1, "n": 0, "re": Infinity}]}}',
        "ValueError: monomial coefficient (inf+0j) at (m, n) = (1, 0) is not finite",
    ),
    ('{"k": true, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}', "ValueError: k = True is not an integer"),
    ('{"k": "1", "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}', "ValueError: k = '1' is not an integer"),
    ('{"k": 1, "truncation": true, "f": {"coeffs": []}}', "ValueError: truncation = True is not an integer"),
    ('{"k": 1, "c": {"re": "1e1"}, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}',
     "ValueError: re = '1e1' is not a JSON number"),
    ('{"k": 1, "f": {"coeffs": [{"m": 0, "n": 0, "re": "1", "im": "0"}]}}',
     "ValueError: re = '1' is not a JSON number"),
    ('{"k": 1, "c": {"im": 1' + "0" * 400 + '}, "f": {"coeffs": []}}', "ValueError: im is an integer past float range"),
    ('{"k": 1, "f": {"coeffs": {}}}', "TypeError: expected a JSON list, got {}"),
    ('{"k": 1, "f": {"basis": "monomial", "coeffs": {"m": 1}}}', "TypeError: expected a JSON list, got {'m': 1}"),
]

CASES = [
    Case("help", "--help"),
    *(Case(f"{command} help", f"{command} --help") for command in COMMANDS),
    Case("no command", "", code=2, usage=True, says="the following arguments are required: command"),
    Case("unknown flag", "solve --nope", code=2, usage=True, says="the following arguments are required: --input"),
    *(
        Case(f"{command} without its required option", command, code=2, usage=True,
             says="the following arguments are required")
        for command in ("solve", "eval", "disk", "probe")
    ),
    # verify: exact reports, so the golden bytes hold everywhere
    *(
        Case(f"verify k = {k}", f"verify --k {k} --trials 3 --output {{out}}", out=f"verify-k{k}.json")
        for k in (1, 2, 3, 4, 6)
    ),
    Case("verify with the default suites", "verify --trials 3 --output {out}", out="verify.json"),
    Case("verify with its seed given", "verify --k 1 --trials 3 --seed 42 --output {out}", out="verify-k1.json"),
    Case("verify rerun", "verify --k 1 --trials 2 --output {out}"),
    Case("verify with no trial", "verify --k 1 --trials 0", code=2, says="trials must be at least 1"),
    Case("verify with no trial, default k", "verify --trials 0 --output {out}", code=2,
         says="trials must be at least 1"),
    Case("verify with negative trials", "verify --trials -3 --output {out}", code=2, says="trials must be at least 1"),
    Case("verify at k = 0", "verify --k 0 --trials 0 --output {out}", code=2, says="k must be a positive integer"),
    # certify and probe
    Case("certify to stdout", "certify --k-max 1 --trials 1 --truncation 8"),
    Case("certify", "certify --k-max 2 --trials 2 --truncation 12 --output {out}", out="certify-ci.json"),
    Case("certify at truncation 64", "certify --k-max 4 --trials 1 --truncation 64 --output {out}",
         out="certify-64.json"),
    # the large-box assembly: 25,921 box cells and 321 chains at k = 1
    Case("certify at truncation 160", "certify --k-max 2 --trials 1 --truncation 160 --output {out}",
         out="certify-160.json"),
    Case("certify with no trial", "certify --trials 0 --output {out}", code=2, says="trials must be at least 1"),
    Case("certify with k_min above k_max", "certify --k-min 3 --k-max 1 --output {out}", code=2,
         says="k_min 3 is above k_max 1"),
    Case("certify past the cell budget", "certify --truncation 1448 --output {out}", code=2, says="truncation 1448"),
    # every cell is checked before the first solve, not when its own turn comes
    Case("certify past the box bound", "certify --k-max 171 --truncation 170 --trials 1 --output {out}", code=2,
         says="k = 131 with", seconds=20),
    Case("certify with k above the truncation", "certify --k-max 33 --truncation 32 --trials 1 --output {out}", code=2,
         says="at least k"),
    Case("README probe", "probe --k 1 --c-re 0 --c-im 0", out="probe-readme.json"),
    Case("probe to stdout", "probe --k 1 --trials 2 --truncation 8"),
    Case("probe", "probe --k 2 --c-re 1 --c-im 1 --trials 3 --truncation 16 --output {out}", out="probe-ci.json"),
    Case("probe with no trial", "probe --k 1 --trials 0", code=2, says="trials must be at least 1"),
    Case("probe past the cell budget", "probe --k 1 --truncation 1448 --output {out}", code=2, says="truncation 1448"),
    # solve
    Case("README solve", "solve --input {examples}/problem.json --output {out}", out="solve-readme.json"),
    Case("monomial solve", SOLVE, {"k": 2, "c": {"re": 0.5, "im": -1.0}, "truncation": 10, "f": mono(
        (0, 0, 1.0, 0.0), (2, 1, 0.5, -2.0), (3, 3, 1, 0))}, out="solve-monomial.json"),
    Case("solve rerun", SOLVE, {"k": 1, "c": {"re": 1.0, "im": 1.0}, "truncation": 12, "f": coeffs(*ONE)}),
    Case("solve of a missing file", "solve --input {tmp}/missing.json", code=2, says="No such file or directory"),
    Case("solve of unterminated JSON", "solve --input {in}", '{"k": 1', 2,
         error="JSONDecodeError: Expecting ',' delimiter: line 1 column 8 (char 7)"),
    Case("solve of data outside the box", "solve --input {in}",
         {"k": 1, "truncation": 4, "f": coeffs((4, 4, 1.0, 0.0))}, 2, says="outside the box"),
    *(
        Case(f"solve of malformed numbers {i}", "solve --input {in}", text, 2, error=error)
        for i, (text, error) in enumerate(NUMBERS)
    ),
    # the later row used to replace the earlier: f_norm read 5·√π, exit 0
    Case("solve of two rows at one index", SOLVE,
         {"k": 1, "truncation": 4, "f": coeffs((0, 0, 1.0, 0.0), (0, 0, 5.0, 0.0))}, 2,
         error="ValueError: two coefficient rows at (m, n) = (0, 0)"),
    Case("solve of two monomial rows at one index", SOLVE, {"k": 1, "truncation": 4, "f": mono(
        (1, 0, 1.0, 0.0), (1, 0, 5.0, 0.0))}, 2, error="ValueError: two coefficient rows at (m, n) = (1, 0)"),
    Case("solve of an index past int64", SOLVE, {"k": 1, "truncation": 4, "f": coeffs(*ONE, (10**30, 0, 1.0, 0.0))},
         2, says="is past the int64 range"),
    # refused before f is read: a monomial f at (3000, 3000) would spend seconds in the change of basis
    Case("solve past the writable index", SOLVE, {"k": 1, "truncation": 100000, "f": mono((3000, 3000, 1.0, 0.0))},
         2, says="reaches index 100001 > 170", seconds=10),
    Case("solve with a NaN shift and truncation 100000", SOLVE, {"k": 1, "c": {"re": math.nan}, "truncation": 100000,
         "f": mono((3000, 3000, 1.0, 0.0))}, 2, error="ValueError: shift c = (nan+0j) is not finite"),
    Case("solve with truncation below k", SOLVE, {"k": 3, "truncation": 2, "f": mono((3000, 3000, 1.0, 0.0))}, 2,
         says="truncation must be at least k", seconds=10),
    Case("solve with a NaN shift", "solve --input {in}", {"k": 1, "c": {"re": math.nan}, "truncation": 16,
         "f": coeffs(*ONE)}, 2, says="not finite"),
    # √(π·50!·50!) ≈ 5e64: the orthonormal amplitude overflows to inf
    Case("solve of raw data that overflow", SOLVE, {"k": 1, "c": {"re": 1.0, "im": 0.0}, "truncation": 60,
         "f": coeffs((50, 50, 1e300, 0.0))}, 2, says="non-finite amplitude"),
    # the Hermite expansion of 1e300·z²⁰z̄²⁰ has raw amplitudes past the float range
    Case("solve of monomial data that overflow", SOLVE, {"k": 1, "c": {"re": 1.0, "im": 0.0}, "truncation": 60,
         "f": mono((20, 20, 1e300, 0.0))}, 2, says="f has an amplitude that overflows a float"),
    # M + k = 171: √(π·171!·171!) is past float range, so u's raw block cannot be written
    Case("solve past index 170", SOLVE, {"k": 1, "c": {"re": 1.0}, "truncation": 170, "f": mono(*ONE)}, 2,
         says="index 171 > 170"),
    # both parts are finite, the magnitude is not
    *(
        Case(f"{command} of a monomial coefficient past float range", f"{command} --input {{in}} --output {{out}}",
             {"k": 1, "c": {"re": 1.0}, "truncation": 8, "radius": 0.5, "f": mono((0, 0, 1.5e308, 1.5e308))}, 2,
             error="ValueError: monomial coefficient (1.5e+308+1.5e+308j) at (m, n) = (0, 0) is not finite")
        for command in ("solve", "disk")
    ),
    *(
        Case(f"{command} of JSON nested too deeply", f"{command} --input {{in}}", "[" * 200_000, 2, says="too deeply")
        for command in ("solve", "eval", "disk")
    ),
    # eval
    Case("README eval", "eval --input {golden}/solve-readme.json --step 0.1 --output {out}", out="eval-readme.csv"),
    *(
        Case(f"eval with a shift {shown}", EVAL, f'{{"k": 1, "c": {c}, "u": {block}, "f": {block}}}', 2,
             error=f"ValueError: shift c = {shown} is not finite")
        for block in ['{"coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]}']
        for c, shown in [('{"re": NaN}', "(nan+0j)"), ('{"re": Infinity, "im": -Infinity}', "(inf-infj)"),
                         ('{"re": 1.5e308, "im": 1.5e308}', "(1.5e+308+1.5e+308j)")]
    ),
    *(
        Case(f"{command} of coefficients that are not a list", f"{command} --input {{in}} --output {{out}}",
             {"k": 1, "radius": 1.0, "u": block, "f": block}, 2, error="TypeError: expected a JSON list, got {'m': 1}")
        for block in [{"basis": "monomial", "coeffs": {"m": 1}}]
        for command in ("eval", "disk")
    ),
    # disk
    Case("README disk", "disk --input {examples}/disk.json --output {out}", out="disk-readme.json"),
    Case("edge disk", DISK, {**EDGE, "truncation": 160}, out="disk-edge.json"),
    # the data keep their coefficients from (98, 98) on, so u reaches (165, 165),
    # whose raw amplitude u/√(π·165!·165!) is below the normal float range
    Case("edge disk past the normal range", DISK, {**EDGE, "truncation": 164}, 2,
         says="raw amplitude at index (165, 165) is below the normal float range"),
    # |f| is finite on the nodes, |f|² and the FFT's sums are not: no numpy warning, one error
    Case("disk of data past float range on the nodes", DISK,
         {"radius": 0.5, "k": 1, "c": {"re": 1.0, "im": 0.0}, "truncation": 8, "f": mono((1, 0, 1e308, 1e308))}, 2,
         error="ValueError: f leaves the float range on the quadrature nodes: sum w·|f|² = inf"),
    # the weighted sum that the projection checks is finite; ∫_U|f|² on radius 13 is not
    Case("disk integral past float range", DISK, {"radius": 13, "k": 1, "c": {"re": 1.0}, "truncation": 8,
         "f": mono((0, 0, 1e153, 0.0))}, 2, error="ValueError: the disk integral ∫_U|f|² leaves the float range"),
    # nonzero on the nodes, but no projected amplitude of normal size: the certificate would hold for residue
    *(
        Case(f"disk of data at {value!r}", DISK,
             {"radius": 1.0, "k": 1, "c": {"re": 1.0, "im": 0.0}, "truncation": 8, "f": mono((0, 0, value, 0.0))}, 2,
             says=f"keeps no coefficient of normal float size (the largest |b| is {b})")
        for value, b in [(5e-324, "0.0"), (math.ldexp(1, -1060), "9.0706e-320")]
    ),
    Case("disk with a radius given as a string", "disk --input {in}", {"radius": "1.0", "k": 1, "f": mono(*ONE)}, 2,
         error="ValueError: radius = '1.0' is not a JSON number"),
    Case("disk of two monomial rows at one index", DISK,
         {"k": 1, "c": {"re": 1.0}, "truncation": 4, "radius": 0.5, "f": mono((1, 0, 1.0, 0.0), (1, 0, 5.0, 0.0))}, 2,
         error="ValueError: two coefficient rows at (m, n) = (1, 0)"),
    Case("disk past index 170", DISK, {"k": 1, "c": {"re": 1.0}, "truncation": 170, "radius": 1.0, "f": mono(*ONE)},
         2, says="index 171 > 170"),
    Case("disk with node counts past the cell budget", "disk --input {in}", {"k": 1, "radius": 1.0,
         "radial_nodes": 100000, "f": mono(*ONE)}, 2, says="radial_nodes 100000"),
]
CASE = {case.name: case for case in CASES}


def in_process(argv, seconds):
    """(exit code, stdout, stderr) of ``focksolve.cli.run``."""
    # imported here: run as a script, this module checks the installed focksolve and imports none
    from focksolve import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue().encode(), err.getvalue()


def installed(argv, seconds):
    """(exit code, stdout, stderr) of the ``focksolve`` script on PATH, killed past ``seconds``."""
    done = subprocess.run(["focksolve", *argv], capture_output=True, timeout=seconds)
    return done.returncode, done.stdout, done.stderr.decode()


def check(case, execute, tmp) -> str:
    """Run ``case`` in the directory ``tmp`` with ``execute``; say which output comparison ran."""
    tmp = Path(tmp)
    if case.data is not None:
        text = case.data if isinstance(case.data, str) else json.dumps(case.data)
        (tmp / "in.json").write_text(text)

    def written(out):
        places = {"tmp": tmp, "in": tmp / "in.json", "out": tmp / out, "examples": EXAMPLES, "golden": GOLDEN}
        argv = [part.format(**places) for part in case.argv.split()]
        start = time.perf_counter()
        code, stdout, stderr = execute(argv, case.seconds)
        elapsed = time.perf_counter() - start
        assert code == case.code, f"exit {code}, not {case.code}: {stderr}"
        assert case.seconds is None or elapsed <= case.seconds, f"{elapsed:.1f} s, past {case.seconds} s"
        if code == 0:
            assert stderr == "", stderr
        elif case.usage:
            assert stderr.startswith("usage: focksolve") and case.says in stderr, stderr
        else:
            lines = stderr.splitlines()
            assert len(lines) == 1, f"{len(lines)} stderr lines: {stderr}"
            error = json.loads(lines[0])
            assert list(error) == ["error"], lines[0]
            assert error["error"] == case.error if case.error else case.says in error["error"], error["error"]
        if "{out}" not in case.argv:
            return stdout or None
        return (tmp / out).read_bytes() if (tmp / out).exists() else None

    first = written("out")
    expect = case.out or (RERUN if case.code == 0 else None)
    if expect is None:
        assert first is None, "wrote an output"
        return "no output"
    assert first is not None, "wrote no output"
    if expect != RERUN and (case.argv.startswith("verify") or PLATFORM == FLOAT_PLATFORM):
        assert first == (GOLDEN / expect).read_bytes(), f"output differs from {expect}"
        return f"bytes of {expect}"
    assert written("rerun") == first, "a rerun wrote other bytes"
    if expect == RERUN:
        return "rerun bytes"
    return f"rerun bytes: {expect} was made on Python {FLOAT_PLATFORM[0]}, numpy {FLOAT_PLATFORM[1]}"


def main() -> int:
    if not shutil.which("focksolve"):
        print("no focksolve script on PATH")
        return 2
    failed = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                how = check(case, installed, tmp)
            except Exception as exc:  # every failure is reported, and the next row runs
                failed.append(case.name)
                how = f"FAILED: {type(exc).__name__}: {exc}"
        print(f"{case.name}: {how}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases pass on Python {PLATFORM[0]}, numpy {PLATFORM[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
