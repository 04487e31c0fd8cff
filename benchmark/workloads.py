"""The benchmark's three workloads: inputs, operations and their checks.

Every input is generated here from the workload seed; focksolve receives only
the generated data.  A workload is a sequence of rounds, each a fixed list of
operations (the same kinds, sizes and parameters in every round; only the
random data changes), so every run attempts whole rounds of one mix.

An operation is one call into focksolve, timed alone; its check runs after
it, outside the timed span.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from focksolve import cli, identities, solver
from focksolve.basis import HermiteCoeffs
from focksolve.ring import ExactScalar, PolyZZbar

import checks


@dataclass
class Op:
    """One timed call and the check of what it returned."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _gaussian_box(rng: np.random.Generator, side: int) -> dict:
    """Dense complex Gaussian amplitudes on [0, side−1]²."""
    a = rng.standard_normal((side, side, 2))
    return {
        (m, n): complex(a[m, n, 0], a[m, n, 1]) for m in range(side) for n in range(side)
    }


# ---------------------------------------------------------------------------
# certify-sweep


class CertifySweep:
    """Library ``solve`` on dense orthonormal data, k = 1..4 × the shift grid.

    The trials of one (k, c) cell run back to back, as ``certify`` runs
    them; many right-hand sides therefore share one (k, c, M).
    """

    name = "certify-sweep"
    M = 32
    KS = (1, 2, 3, 4)
    TRIALS = 2
    # the grid of `certify`, copied so that the workload does not move if
    # the program's grid does
    C_GRID = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j, 10 + 0j, -10j, 1e6 + 0j)
    EXPECTED = ("solver.solve", "solver.kernel")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rep: int) -> None:
        # warm-up at a (k, c, M) that no timed op uses, new in every repetition
        rng = np.random.default_rng([self.seed, 0, rep])
        f = _gaussian_box(rng, 24)
        c = complex(2 + rep, 0.5)
        solver.solve(solver.ProblemSpec(k=1, c=c, truncation=24, f=HermiteCoeffs(f, "orthonormal")))
        self._first = self._build(0)

    def round(self, r: int) -> list:
        if r == 0:
            return self._first
        return self._build(r)

    def _build(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 1, r])
        ops = []
        for k in self.KS:
            for c in self.C_GRID:
                for _ in range(self.TRIALS):
                    f = _gaussian_box(rng, self.M - k + 1)
                    ops.append(self._op(k, c, f))
        return ops

    def _op(self, k: int, c: complex, f: dict) -> Op:
        spec = solver.ProblemSpec(k=k, c=c, truncation=self.M, f=HermiteCoeffs(f, "orthonormal"))
        # solver.solve is looked up at call time, so that the traced run's
        # wrapper is seen

        def check(out):
            u, _report = out
            checks.check_solution(k, c, self.M, f, u.entries)

        return Op("solve", lambda: solver.solve(spec), check)


# ---------------------------------------------------------------------------
# exact-identities


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def _random_terms(rng: random.Random, degree: int, count: int, real: bool = False) -> dict:
    """``count`` nonzero terms of total degree ≤ ``degree``, as (re, im) Fractions.

    With ``real=True`` terms come in conjugate pairs (a, b), (b, a), so the
    polynomial is real-valued, as a weight exponent must be.
    """
    spots = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a) if not real or a >= b]
    terms = {}
    for a, b in rng.sample(spots, count):
        re, im = _rational(rng), _rational(rng)
        if real and a == b:
            im = Fraction(0)
        if re == 0 and im == 0:
            re = Fraction(1)
        terms[(a, b)] = (re, im)
        if real and a != b:
            terms[(b, a)] = (re, -im)
    return terms


def _poly(terms: dict) -> PolyZZbar:
    return PolyZZbar({key: ExactScalar(re, im) for key, (re, im) in terms.items()})


class ExactIdentities:
    """The exact verifiers, called as ``verify`` calls them.

    One round is, for k = 1, 2, 3 with one random φ and shift c each, the
    adjoint-norm split, the quadratic form and coercivity; then one k = 1
    weight identity for a random real weight g.
    """

    name = "exact-identities"
    KS = (1, 2, 3)
    PHI_DEGREE = 4
    PHI_TERMS = 4
    WEIGHT_DEGREE = 3
    WEIGHT_TERMS = 2
    EXPECTED = (
        "identities.verify_adjoint_norm_split",
        "identities.verify_quadratic_form",
        "identities.verify_coercivity",
        "identities.verify_weight_identity_k1",
        "identities.commutator",
        "ring.gaussian_pairing",
        "ring.poly_mul",
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rep: int) -> None:
        # warm-up at k = 4, which no timed op uses
        phi = PolyZZbar({(1, 0): 1, (0, 2): ExactScalar(Fraction(1, 2), 1)})
        c = ExactScalar(Fraction(rep + 2, 7), Fraction(-1, rep + 2))
        identities.verify_adjoint_norm_split(4, c, phi)
        identities.verify_quadratic_form(4, phi)
        identities.verify_coercivity(4, c, phi)
        g = PolyZZbar({(1, 1): 1, (2, 0): ExactScalar(0, 1), (0, 2): ExactScalar(0, -1)})
        identities.verify_weight_identity_k1(g, phi)
        self._first = self._build(0)

    def round(self, r: int) -> list:
        if r == 0:
            return self._first
        return self._build(r)

    def _build(self, r: int) -> list:
        rng = random.Random(f"exact-identities:{self.seed}:{r}")
        ops = []
        for k in self.KS:
            terms = _random_terms(rng, self.PHI_DEGREE, self.PHI_TERMS)
            phi = _poly(terms)
            c = ExactScalar(
                Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                Fraction(rng.randint(-3, 3), rng.choice((1, 3))),
            )
            ops.append(self._op("verify_adjoint_norm_split", (k, c, phi), k, terms))
            ops.append(self._op("verify_quadratic_form", (k, phi), k, terms))
            ops.append(self._op("verify_coercivity", (k, c, phi), k, terms))
        weight = _random_terms(rng, self.WEIGHT_DEGREE, self.WEIGHT_TERMS, real=True)
        weight[(1, 1)] = (Fraction(1), Fraction(0))
        phi_terms = _random_terms(rng, 3, 3)
        weight_args = (_poly(weight), _poly(phi_terms))
        ops.append(self._op("verify_weight_identity_k1", weight_args, 1, phi_terms))
        return ops

    @staticmethod
    def _op(verifier: str, args: tuple, k: int, phi_terms: dict) -> Op:
        # looked up at call time, so that the traced run's wrappers are seen
        return Op(
            verifier,
            lambda: getattr(identities, verifier)(*args),
            lambda report: checks.check_identity_report(report.as_dict(), k, phi_terms),
        )


# ---------------------------------------------------------------------------
# problem-files


def _c_json(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _quarter(rng: random.Random) -> Fraction:
    """A random multiple of 1/4 in [−2, 2]: exact in binary, so in JSON."""
    return Fraction(rng.randint(-8, 8), 4)


class ProblemFiles:
    """In-process ``focksolve.cli.run`` on problem files.

    One round writes its files before it starts, outside the timed spans:
    eleven dense Hermite-basis solves, four monomial-basis solves, one sparse
    k = 1, c = 0 solve whose solution ``eval`` then reads, and two ``disk``
    files.  Shifts c ≠ 0 are grid values scaled by 1 + r/1024 in round r,
    and the c = 0 files take truncation 16 + (r mod 33), so no two files of
    a run share a (k, c, M) until round 33.
    """

    name = "problem-files"
    # (k, c, truncation): dense orthonormal Gaussian data on the certified box
    HERMITE = (
        (1, -1 + 0j, 48),
        (2, 1j, 40),
        (3, 10 + 0j, 32),
        (4, 1e6 + 0j, 24),
        (1, 1 + 1j, 44),
        (2, -10j, 28),
        (3, -1j, 20),
        # four of one size and k with |c| near 1: with the (2, −10i, 28)
        # solve they are the middle five of the round's latencies, seven
        # below and seven above, so that op_ms_p50 falls inside one cluster
        (2, 1 + 0j, 30),
        (2, -1 + 0j, 30),
        (2, 1 + 1j, 30),
        (2, -1j, 30),
    )
    # (k, c, truncation or None for 16 + r mod 33, degree): every monomial of
    # total degree ≤ degree, coefficients multiples of 1/4
    MONOMIAL = ((1, 1 + 0j, 20, 6), (2, -1j, 36, 8), (3, 0j, None, 5), (4, -1 + 0j, 44, 8))
    # (k, c, truncation, radius): quadratic data on a disk about a random centre
    DISK = ((1, 1 + 0j, 16, 1.0), (2, 1j, 20, 0.8))
    EVAL_ROWS = 19 * 19  # interior of the default 21 × 21 grid on [−1, 1]²
    EXPECTED = (
        "cli.run",
        "cli.cmd_solve",
        "cli.cmd_eval",
        "cli.cmd_disk",
        "cli._atomic_write",
        "solver.solve",
        "solver.kernel",
        "solver.solve_disk",
        "numerics.synthesize",
        "numerics.fd_residual_rows",
        "basis.to_hermite",
        "basis.to_raw",
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._round_dir = None

    def setup(self, rep: int) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        # warm-up at a (k, c, M) that no timed op uses, new in every repetition
        c = complex(3 + rep, 0)
        warm = os.path.join(self.workdir, f"warm-{rep}")
        os.makedirs(warm, exist_ok=True)
        rng = random.Random(f"problem-files-warm:{self.seed}:{rep}")
        f = _gaussian_box(np.random.default_rng([self.seed, 2, rep]), 12)
        ops = [
            self._hermite_op(warm, "h", 1, c, 12, f),
            self._monomial_op(warm, "p", 2, c, 12, 3, rng),
            *self._eval_ops(warm, "e", 9 + rep, rng),
            self._disk_op(warm, "d", 1, c, 12, 0.5, rng),
        ]
        for op in ops:
            if op.call() != 0:
                raise RuntimeError(f"warm-up {op.kind} failed")
        shutil.rmtree(warm)
        self._first = self._build(0)

    def round(self, r: int) -> list:
        if self._round_dir is not None:
            shutil.rmtree(self._round_dir, ignore_errors=True)
        ops = self._first if r == 0 else self._build(r)
        self._round_dir = os.path.join(self.workdir, f"round-{r}")
        return ops

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _build(self, r: int) -> list:
        folder = os.path.join(self.workdir, f"round-{r}")
        os.makedirs(folder, exist_ok=True)
        np_rng = np.random.default_rng([self.seed, 3, r])
        rng = random.Random(f"problem-files:{self.seed}:{r}")
        scale = 1 + r / 1024
        cycled = 16 + r % 33
        ops = []
        for i, (k, c, M) in enumerate(self.HERMITE):
            f = _gaussian_box(np_rng, M - k + 1)
            ops.append(self._hermite_op(folder, f"h{i}", k, c * scale, M, f))
        for i, (k, c, M, degree) in enumerate(self.MONOMIAL):
            ops.append(self._monomial_op(folder, f"p{i}", k, c * scale, M or cycled, degree, rng))
        ops.extend(self._eval_ops(folder, "e", cycled, rng))
        for i, (k, c, M, radius) in enumerate(self.DISK):
            ops.append(self._disk_op(folder, f"d{i}", k, c * scale, M, radius, rng))
        return ops

    # -- one file each ------------------------------------------------------

    @staticmethod
    def _write(path: str, payload: dict) -> None:
        with open(path, "w") as handle:
            json.dump(payload, handle)

    def _solve_op(self, folder, tag, k, c, M, f_block, f_orth) -> Op:
        problem = os.path.join(folder, f"{tag}.json")
        out = os.path.join(folder, f"{tag}.out.json")
        self._write(problem, {"k": k, "c": _c_json(c), "truncation": M, "f": f_block})

        def check(code):
            checks.require(code == 0, f"solve {tag} exited {code}")
            with open(out) as handle:
                data = json.load(handle)
            u = {(e["m"], e["n"]): complex(e["re"], e["im"]) for e in data["u"]["coeffs"]}
            checks.check_solution(k, c, M, f_orth, checks.raw_to_orthonormal(u))

        return Op("solve", lambda: cli.run(["solve", "--input", problem, "--output", out]), check)

    def _hermite_op(self, folder, tag, k, c, M, f_orth) -> Op:
        coeffs = [
            {"m": m, "n": n, "re": v.real, "im": v.imag}
            for (m, n), v in ((key, b / checks.hermite_norm(*key)) for key, b in f_orth.items())
        ]
        return self._solve_op(folder, tag, k, c, M, {"basis": "hermite", "coeffs": coeffs}, f_orth)

    def _monomial_op(self, folder, tag, k, c, M, degree, rng) -> Op:
        terms = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                re, im = _quarter(rng), _quarter(rng)
                if re or im:
                    terms[(a, b)] = (re, im)
        coeffs = [
            {"m": a, "n": b, "re": float(re), "im": float(im)} for (a, b), (re, im) in terms.items()
        ]
        f_orth = checks.exact_to_orthonormal(checks.monomials_to_hermite(terms))
        return self._solve_op(folder, tag, k, c, M, {"basis": "monomial", "coeffs": coeffs}, f_orth)

    def _eval_ops(self, folder, tag, M, rng) -> list:
        """Solve k = 1, c = 0 with data on H00, H10, H01 (u is a cubic), then eval it."""
        f_raw = {
            key: complex(float(_quarter(rng)), float(_quarter(rng))) or 1 + 0j
            for key in ((0, 0), (1, 0), (0, 1))
        }
        coeffs = [{"m": m, "n": n, "re": v.real, "im": v.imag} for (m, n), v in f_raw.items()]
        solve_op = self._solve_op(
            folder, tag, 1, 0j, M, {"basis": "hermite", "coeffs": coeffs}, checks.raw_to_orthonormal(f_raw)
        )
        solution = os.path.join(folder, f"{tag}.out.json")
        csv_path = os.path.join(folder, f"{tag}.csv")

        def check(code):
            checks.require(code == 0, f"eval {tag} exited {code}")
            with open(solution) as handle:
                data = json.load(handle)
            u = {(e["m"], e["n"]): complex(e["re"], e["im"]) for e in data["u"]["coeffs"]}
            with open(csv_path) as handle:
                checks.check_eval_csv(handle.read(), self.EVAL_ROWS, u)

        eval_op = Op("eval", lambda: cli.run(["eval", "--input", solution, "--output", csv_path]), check)
        return [solve_op, eval_op]

    def _disk_op(self, folder, tag, k, c, M, radius, rng) -> Op:
        problem = os.path.join(folder, f"{tag}.json")
        out = os.path.join(folder, f"{tag}.out.json")
        coeffs = [
            {"m": a, "n": b, "re": float(_quarter(rng)), "im": float(_quarter(rng))}
            for a in range(3)
            for b in range(3 - a)
        ]
        center = {"re": rng.randint(-2, 2) / 8, "im": rng.randint(-2, 2) / 8}
        payload = {
            "center": center,
            "radius": radius,
            "k": k,
            "c": _c_json(c),
            "truncation": M,
            "f": {"basis": "monomial", "coeffs": coeffs},
        }
        self._write(problem, payload)

        def check(code):
            checks.require(code == 0, f"disk {tag} exited {code}")
            with open(out) as handle:
                data = json.load(handle)
            checks.check_disk_report(data["report"], k, radius)

        return Op("disk", lambda: cli.run(["disk", "--input", problem, "--output", out]), check)


WORKLOADS = {cls.name: cls for cls in (CertifySweep, ExactIdentities, ProblemFiles)}
