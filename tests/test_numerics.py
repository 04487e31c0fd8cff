"""Evaluation recurrences, quadrature projection, finite-difference residuals."""

import math
import random

import numpy as np
import pytest

from focksolve import HermiteCoeffs, QuadratureRule, project, synthesize
from focksolve.basis import hermite_polynomial, norm_squared
from focksolve.numerics import (
    GridSpec,
    QuadratureResolutionError,
    fd_residual_k1,
    fd_residual_rows,
    hermite_lower_walk,
    quadrature_norm_sq,
)
from focksolve.solver import dense_data


def eval_table(M, z):
    """H_{m,n}(z) for 0 ≤ m, n ≤ M: the diagonal walk plus its conjugate mirror."""
    values = {}
    for (m, n), value in hermite_lower_walk(M, z):
        values[(m, n)] = value
        if m != n:
            values[(n, m)] = np.conjugate(value)
    return values


def test_eval_table_examples():
    assert eval_table(1, 0j)[(1, 1)] == pytest.approx(-1.0)
    assert eval_table(1, 1 + 0j)[(1, 1)] == pytest.approx(0.0, abs=1e-15)
    assert eval_table(2, 1j)[(2, 1)] == pytest.approx(-1j)


def test_eval_table_matches_polynomials_up_to_20():
    # Oracle: exact rational evaluation of the closed-form polynomials.  At
    # indices near (20, 20) the value can sit many orders below the monomial
    # terms (oscillation), where no f64 evaluation is pointwise-relatively
    # accurate, so the comparison there uses the term-magnitude scale; at
    # moderate indices the plain relative tolerance applies.
    from fractions import Fraction

    from focksolve import ExactScalar

    rng = random.Random(6)
    points = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(25)]
    points = [z if abs(z) <= 4 else 4 * z / abs(z) for z in points]
    for z in points:
        table = eval_table(20, z)
        exact_z = ExactScalar(Fraction(z.real), Fraction(z.imag))
        for m in range(21):
            for n in range(21):
                poly = hermite_polynomial((m, n))
                direct = poly.evaluate_exact(exact_z).to_complex()
                err = abs(table[(m, n)] - direct)
                if m <= 12 and n <= 12:
                    assert err <= 1e-10 * max(abs(direct), 1.0)
                majorant = sum(
                    abs(c.to_complex()) * abs(z) ** (a + b) for (a, b), c in poly.terms.items()
                )
                assert err <= 1e-12 * max(majorant, 1.0)


def test_eval_table_vectorized_matches_scalar():
    z = np.array([0.5 + 0.5j, -1 + 2j, 3 - 0.25j])
    table = eval_table(6, z)
    for i, point in enumerate(z):
        single = eval_table(6, complex(point))
        for key, vec in table.items():
            assert vec[i] == pytest.approx(single[key], rel=1e-13, abs=1e-13)


def test_synthesize_examples():
    assert synthesize(HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j), 5 - 2j) == pytest.approx(1.0)
    assert synthesize(HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j), 2.0 + 0j) == pytest.approx(3.0)
    assert synthesize(HermiteCoeffs.zero(), 1.0 + 0j) == 0j
    # orthonormal amplitudes rescale by 1/√(π·m!·n!)
    ortho = HermiteCoeffs.basis_vector(1, 1, math.sqrt(math.pi) + 0j, "orthonormal")
    assert synthesize(ortho, 2.0 + 0j) == pytest.approx(3.0)


def test_project_examples():
    rule = QuadratureRule.full_plane(10, 21)
    got, _ = project(lambda z: np.ones_like(z), 3, rule)
    assert got.entries[(0, 0)] == pytest.approx(1.0, rel=1e-13)
    assert all(abs(v) < 1e-12 for k, v in got.entries.items() if k != (0, 0))

    got, _ = project(lambda z: (z * np.conjugate(z)), 3, rule)
    assert got.entries[(0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert got.entries[(1, 1)] == pytest.approx(1.0, rel=1e-12)

    got, _ = project(lambda z: z**2 * np.conjugate(z), 4, rule)
    assert got.entries[(1, 0)] == pytest.approx(2.0, rel=1e-12)
    assert got.entries[(2, 1)] == pytest.approx(1.0, rel=1e-12)


def test_project_detects_under_resolution():
    # z^6 z̄^6 against a rule exact only to total degree 7
    with pytest.raises(QuadratureResolutionError):
        project(lambda z: (z * np.conjugate(z)) ** 6, 2, QuadratureRule.full_plane(4, 9))


def test_project_synthesize_identity():
    rng = random.Random(91)
    entries = {}
    for _ in range(12):
        m, n = rng.randrange(8), rng.randrange(8)
        entries[(m, n)] = complex(rng.gauss(0, 1), rng.gauss(0, 1)) / math.sqrt(
            math.factorial(m) * math.factorial(n)
        )
    u = HermiteCoeffs(entries, "raw")
    d = 14
    rule = QuadratureRule.full_plane(d + 8 + 1, 2 * (d + 8) + 1)
    got, defect = project(lambda z: synthesize(u, z), 8, rule)
    assert abs(defect) <= 1e-10
    for key in entries:
        assert got.entries[key] == pytest.approx(entries[key], rel=1e-10, abs=1e-12)
    others = [v for k, v in got.entries.items() if k not in entries]
    assert max(abs(v) for v in others) < 1e-11


def test_parseval_quadrature_vs_coefficients():
    u = dense_data(random.Random(15), 9)
    rule = QuadratureRule.full_plane(32, 48)
    quad = quadrature_norm_sq(u, rule)
    assert quad == pytest.approx(norm_squared(u).value(), rel=1e-10)


def test_fd_residual_examples():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 0.1)
    u11 = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    f00 = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    assert fd_residual_k1(u11, f00, 0j, grid) <= 1e-10
    assert fd_residual_k1(HermiteCoeffs.zero(), HermiteCoeffs.zero(), 2 + 1j, grid) == 0.0


def test_fd_residual_second_order():
    u = HermiteCoeffs.basis_vector(2, 2, 0.25 + 0j)
    f = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    res = [
        fd_residual_k1(u, f, 0j, GridSpec(-1, 1, -1, 1, h)) for h in (0.1, 0.05, 0.025)
    ]
    slopes = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    for slope in slopes:
        assert abs(slope - 2.0) <= 0.2


def test_fd_residual_validates_spectral_solve():
    # End to end: spectral solve for low-degree data, then the independent
    # five-point check.  Degree ≤ 1 data gives a cubic solution, on which the
    # stencil is exact.
    from focksolve import PolyZZbar, ProblemSpec, solve, to_hermite

    f_poly = PolyZZbar({(0, 0): 2, (1, 0): -1, (0, 1): 3})
    f = to_hermite(f_poly)
    f_float = HermiteCoeffs(
        {k: v.to_complex() for k, v in f.entries.items()}, "raw"
    )
    u, rep = solve(ProblemSpec(k=1, c=0j, truncation=8, f=f_float))
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 0.1)
    assert fd_residual_k1(u, f_float, 0j, grid) <= 1e-10
    assert rep.bound_holds


def test_fd_residual_includes_shift_term():
    # (Δ/4 + c)·H00 − c·H00 = 0 pointwise
    u = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    f = HermiteCoeffs.basis_vector(0, 0, 2.5 - 1j)
    grid = GridSpec(-1, 1, -1, 1, 0.25)
    assert fd_residual_k1(u, f, 2.5 - 1j, grid) <= 1e-13


def test_fd_rows_cover_interior():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 0.5)
    rows = fd_residual_rows(
        HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j),
        HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j),
        0j,
        grid,
    )
    assert len(rows) == 9  # 5x5 grid minus one boundary layer
    xs = {r[0] for r in rows}
    assert xs == {-0.5, 0.0, 0.5}
    assert all(abs(r[2]) < 1e-12 and abs(r[3]) < 1e-12 for r in rows)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 0.0, 1.0, -0.1)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule.disk(0j, -1.0, 8, 8)
    with pytest.raises(ValueError):
        QuadratureRule.full_plane(0, 8)


def test_disk_rule_integrates_area():
    rule = QuadratureRule.disk(1 + 1j, 2.0, 24, 32)
    z, w = rule.points_and_weights()
    assert float(np.sum(w)) == pytest.approx(math.pi * 4.0, rel=1e-12)
    # centered first moment vanishes
    assert complex(np.sum(w * (z - (1 + 1j)))) == pytest.approx(0j, abs=1e-12)
