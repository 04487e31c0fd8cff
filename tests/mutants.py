"""Mutants of ``src/`` that the tests must kill, and the runner that checks it.

Each mutant is a one-line patch of a file under ``src/``, as (old text,
new text), with the cheapest test node ids known to fail on it.  The
runner first runs every listed node id on the checkout, where all must
pass.  Then, for each mutant, it copies ``src/`` to a temporary directory,
applies the patch there and runs the mutant's node ids against the copy
with ``-x``.  It fails when a patch's old text is not in its file exactly
once (the mutant no longer matches the code), or when the node ids do not
fail on the copy (the mutant survived).  The checkout gains no file::

    python tests/mutants.py

A mutant that survives stays in the table: it is a gap in the tests, not
in the table.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    kills: Tuple[str, ...]  # node ids relative to the repository root


MUTANTS = (
    Mutant(
        "tau scaled by 1 + 1e-12 on every seventh edge",
        "focksolve/solver.py",
        "return np.where(tau > 1e300, math.inf, tau)",
        "return np.where(tau > 1e300, math.inf, tau * np.where(np.arange(tau.size) % 7, 1.0, 1 + 1e-12))",
        ("tests/test_solver.py::test_tail_weights_match_scalar_series[1-32]",),
    ),
    Mutant(
        "couplings (m+k)_k^2 in place of (m+k)_k (n+k)_k",
        "focksolve/solver.py",
        "couplings = np.sqrt(pm * pn)",
        "couplings = np.sqrt(pm * pm)",
        ("tests/test_solver.py::test_each_box_equation_pairs_a_stored_entry_with_the_next[1]",),
    ),
    Mutant(
        "data at step j turned by turn[j] in place of turn[j+1]",
        "focksolve/solver.py",
        "rhs.real * tr[1:], rhs.imag * ti[1:], y[:, 0]",
        "rhs.real * tr[:-1], rhs.imag * ti[:-1], y[:, 0]",
        ("tests/test_solver.py::test_solve_residual_is_true_operator_residual",),
    ),
    Mutant(
        "a kernel vector added to every chain: the reverse sweep starts from p = 1e-9",
        "focksolve/solver.py",
        "p, turned = np.zeros((2, rows)), np.empty((2, 2, rows))",
        "p, turned = np.full((2, rows), 1e-9), np.empty((2, 2, rows))",
        ("tests/test_solver.py::test_solve_zero_data",),
    ),
    Mutant(
        "kept factors looked up by round(|c|)",
        "focksolve/solver.py",
        "kept = factors.get(rho)",
        "kept = factors.get(round(rho))",
        ("tests/test_solver.py::test_a_data_major_loop_keeps_the_bits_and_factors_each_modulus_once",),
    ),
)


def run_pytest(src: Path, node_ids) -> subprocess.CompletedProcess:
    """Run ``node_ids`` with ``-x`` from the repository root, importing focksolve from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def imported_from(src: Path) -> bool:
    """Whether focksolve imports from ``src`` with it first on the path, not from an installed copy."""
    probe = "import focksolve; print(focksolve.__file__)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    return out.returncode == 0 and Path(out.stdout.strip()).resolve().is_relative_to(src.resolve())


def run_mutant(mutant: Mutant) -> str:
    """'' when the mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"its old text occurs {text.count(mutant.old)} times in src/{mutant.path}, not once"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        if not imported_from(src):
            return "focksolve does not import from the patched copy"
        result = run_pytest(src, mutant.kills)
    if result.returncode == 0:
        return "it survived: every listed test passed"
    if result.returncode != 1:
        return f"pytest exited {result.returncode}, not 1 for failed tests:\n{result.stdout}{result.stderr}"
    return ""


def main() -> int:
    start = time.perf_counter()
    baseline = run_pytest(ROOT / "src", [node for mutant in MUTANTS for node in mutant.kills])
    if baseline.returncode != 0:
        print(f"the listed tests do not all pass on the checkout:\n{baseline.stdout}{baseline.stderr}")
        return 1
    failed = 0
    for mutant in MUTANTS:
        why = run_mutant(mutant)
        failed += bool(why)
        print(f"{mutant.name}: {why or 'killed'}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
