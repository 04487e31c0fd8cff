"""Evaluation recurrences, quadrature projection, finite-difference residuals."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from focksolve import ExactScalar, HermiteCoeffs, QuadratureRule, project, synthesize
from focksolve.basis import hermite_polynomial, sqrt_norm
from focksolve.numerics import (
    DISK,
    GridSpec,
    QuadratureResolutionError,
    fd_residual_rows,
    _legendre,
    _orthonormal_walk,
    scaled_quadrature_norm_sq,
    unscale,
)
from focksolve.solver import dense_data
from oracles import evaluate_exact, fd_residual_k1


def hermite_lower_walk(M: int, z):
    """Yield ((m, n), H_{m,n}(z)) over the triangle 0 ≤ n ≤ m ≤ M: the raw diagonal walk.

    Walks each diagonal offset α = m − n with the unscaled three-term
    recurrence H_{m+1,n+1} = (|z|² − (m+n+1))·H_{m,n} − m·n·H_{m−1,n−1} from
    H_{α,0} = z^α; the upper triangle follows by conjugation.  The oracle of
    the orthonormal walk of :mod:`focksolve.numerics`, for indices where the
    raw values stay in float range.
    """
    t = np.real(z * np.conjugate(z))
    for alpha in range(M + 1):
        x = z**alpha
        yield (alpha, 0), x
        x_prev = 0.0 * x
        for n in range(M - alpha):
            x_prev, x = x, (t - (2 * n + alpha + 1)) * x - (n * (n + alpha)) * x_prev
            yield (n + 1 + alpha, n + 1), x


def reference_project(f, M, rule, check_parseval=False):
    """The per-node projection: the walk over all R·A nodes, with no polar structure.

    The reference of :func:`project`'s FFT in angle and walk over the radii;
    it returns the Parseval defect without checking it.
    """
    z, w = rule.points_and_weights
    fv = np.asarray(f(z), dtype=complex)
    if rule.domain == DISK:
        z = z - rule.center
        w = w * np.exp(-np.real(z * np.conjugate(z)))
    wf = w * fv
    norm_sq = float(np.real(np.sum(w * fv * np.conjugate(fv))))
    coeffs = {}
    mass = 0.0
    for (m, n), h in hermite_lower_walk(M, z):
        weight = math.pi * math.factorial(m) * math.factorial(n)
        a = complex(np.sum(np.conjugate(h) * wf)) / weight
        coeffs[(m, n)] = a
        mass += weight * abs(a) ** 2
        if m != n:
            b = complex(np.sum(h * wf)) / weight
            coeffs[(n, m)] = b
            mass += weight * abs(b) ** 2
    return HermiteCoeffs(coeffs, "raw"), (norm_sq - mass) / norm_sq if norm_sq > 0 else 0.0


def reference_synthesize(u, z):
    """The raw walk: raw amplitudes in a dict, looked up per (m, n).

    Orthonormal amplitudes are divided by :func:`sqrt_norm` as Python's
    ``complex / float`` divides.
    """
    if not u.entries:
        return np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
    scale = u.normalization == "orthonormal"
    raw = {key: complex(amp) / sqrt_norm(*key) if scale else complex(amp) for key, amp in u.entries.items()}
    mmax, nmax = max(m for m, _ in raw), max(n for _, n in raw)

    def coeff_at(m, n):
        return raw.get((m, n)) or None

    total = np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
    for (m, n), value in hermite_lower_walk(max(mmax, nmax), z):
        coeff = coeff_at(m, n)
        if coeff is not None:
            total = total + coeff * value
        if m != n:
            mirror = coeff_at(n, m)
            if mirror is not None:
                total = total + mirror * np.conjugate(value)
    return total


def reference_norm_sq(u, rule):
    """Synthesize u on every node about the rule's centre by the raw walk, then sum w·|u|²."""
    z, w = rule.points_and_weights
    values = reference_synthesize(u, z - rule.center)
    return float(np.real(np.sum(w * values * np.conjugate(values))))


# (rule, M): full plane and disk, each once with A ≤ 2M, where the angular sum aliases
POLAR_CASES = [
    (QuadratureRule.full_plane(30, 61), 20),
    (QuadratureRule.full_plane(24, 17), 20),
    (QuadratureRule.disk(1 + 1j, 1.0, 64, 64), 15),
    (QuadratureRule.disk(-0.5j, 2.0, 48, 20), 18),
]
POLAR_IDS = ["plane", "plane-aliased", "disk", "disk-aliased"]


def smooth_data(z):
    """A polynomial plus a non-polynomial part, so that no rule integrates it exactly."""
    polynomial = (0.3 - 1.1j) + 0.7 * z - 0.2j * np.conjugate(z) * z**2
    return polynomial + np.exp(-0.4 * z.real) * np.cos(z.imag)


def eval_table(M, z, walk=hermite_lower_walk):
    """H_{m,n}(z) for 0 ≤ m, n ≤ M: the diagonal walk plus its conjugate mirror.

    ``walk`` is the raw walk, or :func:`orthonormal_walk` for ψ_{m,n}(z).
    """
    values = {}
    for (m, n), value in walk(M, z):
        values[(m, n)] = value
        if m != n:
            values[(n, m)] = np.conjugate(value)
    return values


def orthonormal_walk(M, z):
    """ψ_{m,n}(z) = H_{m,n}(z)/√(π·m!·n!) over the triangle 0 ≤ n ≤ m ≤ M."""
    return _orthonormal_walk(z, range(M + 1, 0, -1))


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
    rng = random.Random(6)
    points = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(25)]
    points = [z if abs(z) <= 4 else 4 * z / abs(z) for z in points]
    # the orthonormal walk is checked the same way, as ψ_{m,n}·√(π·m!·n!)
    for z in points:
        table = eval_table(20, z)
        psi = eval_table(20, z, orthonormal_walk)
        exact_z = ExactScalar(Fraction(z.real), Fraction(z.imag))
        for m in range(21):
            for n in range(21):
                poly = hermite_polynomial((m, n))
                direct = evaluate_exact(poly, exact_z).to_complex()
                majorant = sum(
                    abs(c.to_complex()) * abs(z) ** (a + b) for (a, b), c in poly.terms.items()
                )
                for value in (table[(m, n)], psi[(m, n)] * sqrt_norm(m, n)):
                    err = abs(value - direct)
                    if m <= 12 and n <= 12:
                        assert err <= 1e-10 * max(abs(direct), 1.0)
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


SYNTHESIS_VECTORS = {
    "dense": dense_data(random.Random(12), 12),
    "raw": dense_data(random.Random(13), 9).to_raw(),
    "exact": HermiteCoeffs({(1, 0): 2, (0, 3): Fraction(-1, 3), (4, 4): 1}, "raw"),
    "mirror only": HermiteCoeffs({(1, 4): 1 - 1j, (0, 7): 0.5j, (2, 3): -2.0}, "raw"),
    # raw amplitudes 1e−60/√(π·m!·n!) underflow to 0; the orthonormal ones do not
    "underflow": HermiteCoeffs({(0, 0): 1 + 0j, (150, 155): 1e-60j, (158, 152): -1e-60 + 0j}, "orthonormal"),
    "empty": HermiteCoeffs.zero(),
}


def exact_amplitude(u, key):
    """u's amplitude at key as an exact raw amplitude: an orthonormal one divided by sqrt_norm exactly."""
    amp = u.entries[key]
    if u.exact:
        return amp
    norm = Fraction(sqrt_norm(*key)) if u.normalization == "orthonormal" else 1
    return ExactScalar(Fraction(amp.real) / norm, Fraction(amp.imag) / norm)


@pytest.mark.parametrize("name", list(SYNTHESIS_VECTORS))
def test_synthesize_matches_the_exact_sum(name):
    # Oracle: exact rational Σ a·H at each point, a the raw amplitudes; the
    # error is measured against the term majorant Σ |a|·Σ |coefficient|·|z|^degree
    u = SYNTHESIS_VECTORS[name]
    for z in (0.3 - 0.7j, -2.5 + 1.25j, np.array([[0.1 + 0.2j, -1.5 + 2j], [3 - 1j, 0j]])):
        got = synthesize(u, z)
        # a complex scalar at a scalar point, an array of z's shape at an array
        assert isinstance(got, np.ndarray if isinstance(z, np.ndarray) else complex)
        assert np.shape(got) == np.shape(z)
        for point, value in zip(np.ravel(z).tolist(), np.ravel(got).tolist()):
            exact_z = ExactScalar(Fraction(point.real), Fraction(point.imag))
            exact, majorant = ExactScalar(0), 0.0
            for key in u.entries:
                amp = exact_amplitude(u, key)
                poly = hermite_polynomial(key)
                exact = exact + amp * evaluate_exact(poly, exact_z)
                majorant += abs(amp.to_complex()) * sum(
                    abs(c.to_complex()) * abs(point) ** (a + b) for (a, b), c in poly.terms.items()
                )
            assert abs(value - exact.to_complex()) <= 2e-15 * majorant


def test_synthesize_far_out_walks_each_offset_only_over_the_support():
    # at z = 100 H_{170,0} = 1e340 and ψ_{170,170} ≈ 1e373 overflow, but
    # ψ_{170,0} ≈ 1e186 does not, and u's support on offset 0 ends at n = 0
    u = HermiteCoeffs({(0, 0): 1 + 0j, (170, 0): 1e-100 + 0j}, "orthonormal")
    with np.errstate(all="raise"):
        got = synthesize(u, 100 + 0j)
    want = 1 / math.sqrt(math.pi) + 1e-100 * 100.0**85 * 100.0**85 / sqrt_norm(170, 0)
    assert got == pytest.approx(want, rel=1e-13)


def test_synthesize_memory_follows_the_support_not_the_largest_index():
    # a table with a row per offset and a column per index would hold 1401² entries
    u = HermiteCoeffs({(0, 0): 1 + 0j, (1400, 0): 1e-3 + 0j}, "orthonormal")
    tracemalloc.start()
    try:
        got = synthesize(u, 0.5 + 0.25j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # ψ_{1400,0}(z) = z^1400/√(π·1400!) underflows to zero, leaving ψ_{0,0} = 1/√π
    assert (got.real.hex(), got.imag) == ((1 / math.sqrt(math.pi)).hex(), 0.0)


def test_project_examples():
    rule = QuadratureRule.full_plane(10, 21)
    got, _ = project(lambda z: np.ones_like(z), 3, rule)
    got = got.to_raw()
    assert got.entries[(0, 0)] == pytest.approx(1.0, rel=1e-13)
    assert all(abs(v) < 1e-12 for k, v in got.entries.items() if k != (0, 0))

    got, _ = project(lambda z: (z * np.conjugate(z)), 3, rule)
    got = got.to_raw()
    assert got.entries[(0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert got.entries[(1, 1)] == pytest.approx(1.0, rel=1e-12)

    got, _ = project(lambda z: z**2 * np.conjugate(z), 4, rule)
    got = got.to_raw()
    assert got.entries[(1, 0)] == pytest.approx(2.0, rel=1e-12)
    assert got.entries[(2, 1)] == pytest.approx(1.0, rel=1e-12)

    # from m = n = 98 on π·m!·n! is past float range; the orthonormal
    # coefficients there are kept and counted in the defect
    disk = QuadratureRule.disk(0j, 1.0, 64, 64)
    _, d97 = project(lambda z: np.ones_like(z), 97, disk, check_parseval=False)
    _, d98 = project(lambda z: np.ones_like(z), 98, disk, check_parseval=False)
    assert 0 < d98 <= d97
    got, d160 = project(lambda z: np.ones_like(z), 160, disk, check_parseval=False)
    assert got.entries[(98, 98)] == pytest.approx(3.385e-3, rel=1e-3)
    assert 0 < d160 < d97
    # past M = 170, where m! leaves the float range, the values stay finite
    got, d300 = project(lambda z: np.ones_like(z), 300, disk, check_parseval=False)
    assert np.isfinite(got.arrays()[1]).all() and 0 < d300 < d160


@pytest.mark.parametrize("rule, M", POLAR_CASES, ids=POLAR_IDS)
def test_project_matches_per_node_reference(rule, M):
    got, defect = project(smooth_data, M, rule, check_parseval=False)
    want, want_defect = reference_project(smooth_data, M, rule)
    assert got.normalization == "orthonormal"
    assert set(got.entries) == set(want.entries)
    ortho = {key: amp * sqrt_norm(*key) for key, amp in want.entries.items()}
    scale = max(map(abs, ortho.values()))
    for key, amp in got.entries.items():
        assert abs(amp - ortho[key]) <= 1e-14 * scale
    assert abs(defect - want_defect) <= 1e-14


@pytest.mark.parametrize("rule, M", POLAR_CASES, ids=POLAR_IDS)
def test_quadrature_norm_sq_matches_synthesis(rule, M):
    u = dense_data(random.Random(M), M)
    exact = HermiteCoeffs({(1, 0): 2, (0, 3): Fraction(-1, 3), (M, M - 1): 1}, "raw")
    for v in (u, u.to_raw(), exact):
        want = reference_norm_sq(v, rule)
        assert unscale(*scaled_quadrature_norm_sq(v, rule)) == pytest.approx(want, rel=1e-13)
    assert unscale(*scaled_quadrature_norm_sq(HermiteCoeffs.zero(), rule)) == 0.0


def test_polar_structure_builds_the_nodes():
    rule = QuadratureRule.disk(1 - 2j, 1.5, 5, 7)
    r, wr = rule.polar
    z, w = rule.points_and_weights
    theta = 2 * math.pi * np.arange(7) / 7
    assert np.array_equal(z.reshape(5, 7), (1 - 2j) + r[:, None] * np.exp(1j * theta))
    assert np.array_equal(w.reshape(5, 7), np.repeat(wr[:, None], 7, axis=1))
    assert not (r.flags.writeable or wr.flags.writeable)


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
    got = got.to_raw()
    assert abs(defect) <= 1e-10
    for key in entries:
        assert got.entries[key] == pytest.approx(entries[key], rel=1e-10, abs=1e-12)
    others = [v for k, v in got.entries.items() if k not in entries]
    assert max(abs(v) for v in others) < 1e-11


def test_parseval_quadrature_vs_coefficients():
    u = dense_data(random.Random(15), 9)
    rule = QuadratureRule.full_plane(32, 48)
    quad = unscale(*scaled_quadrature_norm_sq(u, rule))
    assert quad == pytest.approx(sum(abs(amp) ** 2 for amp in u.entries.values()), rel=1e-10)


def test_fd_residual_examples():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 0.1)
    u11 = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    f00 = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    assert fd_residual_k1(u11, f00, 0j, grid) <= 1e-10
    assert fd_residual_k1(HermiteCoeffs.zero(), HermiteCoeffs.zero(), 2 + 1j, grid) == 0.0
    # values near the float limit overflow the stencil
    with pytest.raises(ValueError, match="residual leaves the float range"):
        fd_residual_k1(HermiteCoeffs.basis_vector(1, 1, 1e308 + 0j), f00, 0j, grid)


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
    for radius in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radius"):
            QuadratureRule.disk(0j, radius, 4, 4)
    centers = (complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1), complex(1.5e308, 1.5e308))
    for center in centers:
        with pytest.raises(ValueError, match="center"):
            QuadratureRule.disk(center, 1.0, 4, 4)


def test_project_rejects_a_negative_index_bound():
    with pytest.raises(ValueError, match="M = -1"):
        project(lambda z: np.ones_like(z), -1, QuadratureRule.full_plane(4, 4))


def test_disk_rule_integrates_area():
    rule = QuadratureRule.disk(1 + 1j, 2.0, 24, 32)
    z, w = rule.points_and_weights
    assert float(np.sum(w)) == pytest.approx(math.pi * 4.0, rel=1e-12)
    # centered first moment vanishes
    assert complex(np.sum(w * (z - (1 + 1j)))) == pytest.approx(0j, abs=1e-12)


def test_legendre_rule_is_computed_once_per_node_count(monkeypatch):
    _legendre.cache_clear()
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    a = QuadratureRule.disk(0j, 1.0, 24, 8)
    b = QuadratureRule.disk(1 + 1j, 2.5, 24, 16)
    assert a.polar[0].tolist() == [0.5 * (x + 1.0) for x in leggauss(24)[0].tolist()]
    b.polar, QuadratureRule.disk(0j, 1.0, 12, 8).polar
    assert calls == [24, 12] and _legendre.cache_info().hits == 1
    # the two rules of R = 24 share one read-only pair
    x, wx = _legendre(24)
    assert _legendre(24)[0] is x
    for array in (x, wx):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
