"""Scaled-weight and bounded-domain (disk) solve variants."""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from focksolve import (
    DiskProblem,
    ExactScalar,
    HermiteCoeffs,
    PolyZZbar,
    ProblemSpec,
    ScaledProblem,
    solve,
    solve_disk,
    solve_scaled,
)
from focksolve import numerics, solver
from focksolve.numerics import CELL_BUDGET, QuadratureResolutionError, _legendre
from test_numerics import reference_norm_sq, reference_project


def base_spec(k=1, c=0j, truncation=16, f=None):
    if f is None:
        f = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j, "orthonormal")
    return ProblemSpec(k=k, c=c, truncation=truncation, f=f)


def test_scaled_hand_case_lambda_2():
    # λ = 2, z₀ = 0, k = 1, c = 0, data H_{1,1}(w): v = H_{2,2}/4 and the
    # z-variable squared-norm ratio is exactly 1/16 ≤ 1/4.
    f = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    sol, rep = solve_scaled(ScaledProblem(lam=2.0, z0=0j, base=base_spec(f=f)))
    raw = sol.v.to_raw()
    assert set(raw.entries) == {(2, 2)}
    assert raw.entries[(2, 2)] == pytest.approx(0.25, rel=1e-13)
    assert rep.sq_norm_ratio == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert rep.bound_constant_sq == pytest.approx(0.25)
    assert rep.bound_holds
    assert sol.prefactor == pytest.approx(0.5)


def test_scaled_identity_when_lambda_one():
    spec = base_spec()
    u, rep = solve(spec)
    sol, srep = solve_scaled(ScaledProblem(lam=1.0, z0=0j, base=spec))
    assert sol.v == u
    assert srep.base_report == rep
    assert srep.sq_norm_ratio == pytest.approx((rep.u_norm / rep.f_norm) ** 2)


def test_scaled_bound_over_parameter_grid():
    for lam in (0.5, 1.0, 2.0, 3.0):
        for z0 in (0j, 1 + 1j):
            for k in (1, 2):
                spec = base_spec(k=k, truncation=12)
                _, rep = solve_scaled(ScaledProblem(lam=lam, z0=z0, base=spec))
                assert rep.bound_holds
                assert rep.sq_norm_ratio <= rep.bound_constant_sq * (1 + 1e-10)


def test_scaled_shift_rescaling():
    # the w-problem shift is c/λ^{2k}
    f = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    lam = 2.0
    base = ProblemSpec(k=1, c=4 + 0j, truncation=12, f=f)
    sol, _ = solve_scaled(ScaledProblem(lam=lam, z0=0j, base=base))
    direct, _ = solve(ProblemSpec(k=1, c=1 + 0j, truncation=12, f=f))
    assert sol.v == direct


def test_scaled_rejects_bad_lambda():
    with pytest.raises(ValueError):
        ScaledProblem(lam=0.0, z0=0j, base=base_spec())


@pytest.mark.parametrize(
    "lam, z0, match",
    [
        (math.inf, 0j, "lambda = inf must be positive and finite"),
        (math.nan, 0j, "lambda = nan must be positive and finite"),
        (1e10, 0j, r"lambda = 10000000000.0 with k = 20: .* normal float range"),
        (1e-200, 0j, "lambda = 1e-200 with k = 20: .* normal float range"),
        (1.0, complex(math.inf, 0), r"z0 = \(inf\+0j\) is not finite"),
        (1.0, complex(0, math.nan), r"z0 = nanj is not finite"),
    ],
    ids=["lambda-inf", "lambda-nan", "lambda-1e10", "lambda-1e-200", "z0-inf", "z0-nan"],
)
def test_scaled_rejects_non_finite_or_out_of_range_input(lam, z0, match):
    # k = 20: λ^{40} overflows at λ = 1e10 and underflows to 0 at λ = 1e−200
    f = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    with pytest.raises(ValueError, match=match):
        ScaledProblem(lam=lam, z0=z0, base=base_spec(k=20, c=1 + 0j, truncation=32, f=f))


def test_scaled_lambda_bound_admits_its_edge():
    # k = 1: λ = 2^±511 puts λ^{∓2} on the smallest normal float; at 2^±511.5 it is subnormal
    for lam in (2.0**511, 2.0**-511):
        _, rep = solve_scaled(ScaledProblem(lam=lam, z0=0j, base=base_spec()))
        assert rep.bound_holds
    for lam in (2.0**511.5, 2.0**-511.5):
        with pytest.raises(ValueError, match="normal float range"):
            ScaledProblem(lam=lam, z0=0j, base=base_spec())


def test_disk_zero_data():
    p = DiskProblem(center=0j, radius=1.0, f_poly=PolyZZbar.zero(), k=1, c=0j, truncation=8)
    u, rep = solve_disk(p)
    assert not u.entries
    assert rep.ratio == 0.0 and rep.bound_holds
    assert rep.f_sq_on_disk == 0.0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "poly",
    [PolyZZbar.constant(1), PolyZZbar.var_z(), PolyZZbar.monomial(1, 1)],
    ids=["one", "z", "zzbar"],
)
def test_disk_unit_cases(k, poly):
    p = DiskProblem(center=0j, radius=1.0, f_poly=poly, k=k, c=0j, truncation=24)
    u, rep = solve_disk(p)
    assert rep.diameter == 2.0
    assert rep.bound_constant == pytest.approx(math.exp(4.0) / math.factorial(k) ** 2)
    assert rep.bound_holds
    assert rep.ratio <= rep.bound_constant
    assert rep.resolution_shift <= 1e-6
    assert rep.base_report.bound_holds


@pytest.mark.parametrize("exponent", [550, 600, 900, 1000, 1020])
def test_disk_ratio_keeps_its_bits_when_the_integrals_are_subnormal(exponent):
    # f = 2^−exponent: ∫_U|f|² underflows a float, the ratio is taken on f's
    # scale, and the projection's Parseval defect on the scale of f's values
    def report(s):
        p = DiskProblem(0j, 1.0, PolyZZbar.constant(s), k=1, c=1 + 0j, truncation=8)
        return solve_disk(p)[1]

    unit, scaled = report(1), report(Fraction(1, 2**exponent))
    assert unit.ratio.hex() == (0.1503553830999539).hex()
    assert scaled.truncation_defect.hex() == unit.truncation_defect.hex() == (0.06912271091688119).hex()
    # from 2⁻¹⁰²⁰ on, f's projected amplitudes are subnormal: the ratio may move by one ulp
    ulps = 1 if exponent >= 1020 else 0
    assert abs(scaled.ratio - unit.ratio) <= ulps * math.ulp(unit.ratio)


@pytest.mark.parametrize("exponent", [1073, 1074])
def test_disk_data_that_project_to_nothing_raise(exponent):
    # f is nonzero on every node, but no coefficient survives the projection:
    # u = 0 would certify the bound whatever f is
    p = DiskProblem(0j, 1.0, PolyZZbar.constant(Fraction(1, 2**exponent)), k=1, c=1 + 0j, truncation=8)
    with pytest.raises(ValueError, match="keeps no coefficient"):
        solve_disk(p)


def test_disk_under_resolution_raises():
    p = DiskProblem(
        center=0j,
        radius=1.0,
        f_poly=PolyZZbar.monomial(6, 6),
        k=1,
        c=0j,
        truncation=24,
        radial_nodes=3,
        angular_nodes=4,
    )
    with pytest.raises(QuadratureResolutionError):
        solve_disk(p)


@pytest.mark.parametrize(
    "center, radius, name",
    [
        (0j, math.nan, "radius"),
        (0j, math.inf, "radius"),
        # e^{(2·20)²} overflows: the certified constant would be inf
        (0j, 20.0, "radius"),
        (complex(math.inf, 0), 1.0, "center"),
    ],
)
def test_disk_rejects_non_finite_radius_or_center(center, radius, name):
    with pytest.raises(ValueError, match=name):
        DiskProblem(center=center, radius=radius, f_poly=PolyZZbar.constant(1), k=1, c=0j)


@pytest.mark.parametrize(
    "k, truncation, message",
    [(3, 2, "truncation must be at least k"), (0, 8, "k must be a positive integer")],
)
def test_disk_rejects_k_and_truncation_as_solve_does(k, truncation, message):
    with pytest.raises(ValueError, match=message):
        DiskProblem(0j, 1.0, PolyZZbar.constant(1), k, 0j, truncation=truncation)
    # the same words as ProblemSpec's
    with pytest.raises(ValueError, match=message):
        ProblemSpec(k=k, c=0j, truncation=truncation, f=HermiteCoeffs.zero()).validate()


def _never_projected(*args, **kwargs):
    raise AssertionError("projected before the shift check")


@pytest.mark.parametrize("c", [math.inf, complex(0, math.nan)])
def test_disk_rejects_a_non_finite_shift_at_construction(monkeypatch, c):
    # refused before solve_disk projects anything, in ProblemSpec's words
    monkeypatch.setattr(solver, "project", _never_projected)
    message = f"shift c = {c} is not finite"
    with pytest.raises(ValueError) as raised:
        solve_disk(DiskProblem(0j, 1.0, PolyZZbar.constant(1), 1, c, truncation=160))
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        ProblemSpec(k=1, c=c, truncation=160, f=HermiteCoeffs.zero()).validate()
    assert str(raised.value) == message


def _never_transformed(*args, **kwargs):
    raise AssertionError("transformed data past float range")


def test_disk_data_past_float_range_on_the_nodes_is_refused_before_the_fft(monkeypatch):
    # each part of f = (1e308 + 1e308i)·z is finite on the radius-0.5 disk, but |f|²
    # and the angular sums overflow: refused with f named, before any transform
    poly = PolyZZbar({(1, 0): ExactScalar(Fraction(1e308), Fraction(1e308))})
    p = DiskProblem(0j, 0.5, poly, 1, 1 + 0j, truncation=8)
    monkeypatch.setattr(np.fft, "fft", _never_transformed)
    with pytest.raises(ValueError, match="^f leaves the float range on the quadrature nodes"):
        solve_disk(p)


def test_disk_integral_of_f_past_float_range_is_refused_by_name():
    # the weighted sum that project checks is finite; ∫_U|f|² ≈ 1e306·π·13² is not
    poly = PolyZZbar({(0, 0): ExactScalar(Fraction(1e153), Fraction(0))})
    p = DiskProblem(0j, 13.0, poly, 1, 1 + 0j, truncation=8)
    with pytest.raises(ValueError, match="^the disk integral ∫_U\\|f\\|² leaves the float range$"):
        solve_disk(p)


def test_disk_integral_of_u_past_float_range_is_refused_by_name(monkeypatch):
    # both passes scaled alike: the shift check passes, and ∫_U|u|² unscales to inf
    scaled = solver.scaled_quadrature_norm_sq

    def past_range(u, rule):
        value, exponent = scaled(u, rule)
        return value, exponent + 2048

    monkeypatch.setattr(solver, "scaled_quadrature_norm_sq", past_range)
    p = DiskProblem(0j, 0.5, PolyZZbar.constant(1), 1, 1 + 0j, truncation=8)
    with pytest.raises(ValueError, match="^the disk integral ∫_U\\|u\\|² leaves the float range$"):
        solve_disk(p)


@pytest.mark.parametrize("k, truncation", [(171, 700), (200, 250)])
def test_disk_rejects_couplings_past_float_range_at_construction(k, truncation):
    # refused before solve_disk projects anything, in ProblemSpec's words
    message = f"k = {k} with truncation {truncation}: the box couplings exceed the float range"
    with pytest.raises(ValueError, match=message):
        DiskProblem(0j, 0.5, PolyZZbar.constant(1), k, 0j, truncation)
    with pytest.raises(ValueError, match=message):
        ProblemSpec(k=k, c=0j, truncation=truncation, f=HermiteCoeffs.zero()).validate()


def test_disk_off_center():
    p = DiskProblem(
        center=1 + 1j, radius=0.5, f_poly=PolyZZbar.constant(1), k=1, c=0j, truncation=16
    )
    _, rep = solve_disk(p)
    assert rep.bound_holds
    assert rep.f_sq_on_disk == pytest.approx(math.pi * 0.25, rel=1e-10)
    assert rep.bound_constant == pytest.approx(math.exp(1.0))


def test_scaled_solve_at_k_100():
    # (k!)² = (100!)² is past float range; the constant is a subnormal 1/(100!)²
    f = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j, "orthonormal")
    _, rep = solve_scaled(ScaledProblem(lam=1.0, z0=0j, base=base_spec(k=100, truncation=100, f=f)))
    want = Fraction(1, math.factorial(100) ** 2)
    assert rep.bound_constant_sq == pytest.approx(float(want), rel=1e-6)
    # f = H₀₀ at c = 0 attains the bound: the subnormal sides are equal to rounding
    assert rep.sq_norm_ratio == pytest.approx(rep.bound_constant_sq, rel=1e-6)
    assert rep.bound_holds and rep.base_report.bound_ratio == pytest.approx(1.0, rel=1e-12)


def test_disk_solve_at_k_100():
    # (100!)² is past float range.  u = a·H_{100,100} with a ≈ 1/100!, so on a
    # wide disk ∫_U|u|² stays a normal float; |u|²·r has degree 401 in r.
    p = DiskProblem(
        0j, 13.0, PolyZZbar.constant(1), 100, 0j, 100, radial_nodes=256, angular_nodes=8
    )
    _, rep = solve_disk(p)
    want = Fraction(math.exp(26.0**2)) / math.factorial(100) ** 2
    assert rep.bound_constant == pytest.approx(float(want), rel=1e-14)
    assert rep.bound_holds and rep.resolution_shift <= 1e-12


def test_disk_solve_at_k_100_on_a_small_disk():
    # on radius 0.5, ∫_U|u|² ≈ 3e−319 is subnormal: unscaled, the doubling check
    # compared rounding and read a shift of 2.1e−3
    p = DiskProblem(0j, 0.5, PolyZZbar.constant(1), 100, 0j, 100, radial_nodes=256, angular_nodes=8)
    _, rep = solve_disk(p)
    assert 0 < rep.u_sq_on_disk < sys.float_info.min
    assert rep.f_sq_on_disk == pytest.approx(math.pi / 4, rel=1e-14)
    assert rep.bound_holds and rep.resolution_shift <= 1e-12


def _unscaled(values):
    return np.ascontiguousarray(values, dtype=complex), 0


@pytest.mark.parametrize("radius, k, truncation", [(1.0, 1, 16), (0.8, 2, 20), (2.0, 3, 24), (0.05, 4, 12)])
def test_disk_reports_keep_the_bits_of_unscaled_integrals(monkeypatch, radius, k, truncation):
    # a power-of-two scale is exact: where the integrals are normal floats, the
    # report is the one computed without scaling, bit for bit
    poly = PolyZZbar({(0, 0): ExactScalar(Fraction(1, 3)), (2, 1): ExactScalar(0, Fraction(-7, 4))})
    p = DiskProblem(0.25 + 0.5j, radius, poly, k, 1 - 1j, truncation, radial_nodes=40, angular_nodes=24)
    _, rep = solve_disk(p)
    assert rep.u_sq_on_disk >= sys.float_info.min
    with monkeypatch.context() as patch:
        patch.setattr(solver, "scale_down", _unscaled)
        patch.setattr(numerics, "scale_down", _unscaled)
        _, want = solve_disk(p)
    assert repr(dataclasses.asdict(rep)) == repr(dataclasses.asdict(want))


@pytest.mark.parametrize(
    "radial, angular", [(100000, 64), (64, 10**7), (0, 64), (64, 0), (724, 1), (513, 512)]
)
def test_disk_rejects_node_counts_past_the_grid_bound(radial, angular):
    # rejected in the constructor, before any rule or companion matrix exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="radial_nodes"):
            DiskProblem(
                center=0j,
                radius=1.0,
                f_poly=PolyZZbar.constant(1),
                k=1,
                c=0j,
                radial_nodes=radial,
                angular_nodes=angular,
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_disk_rejects_a_truncation_past_the_box_bound():
    # rejected in the constructor, before any projection walks (M + 1)² cells
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="box cells"):
            DiskProblem(0j, 1.0, PolyZZbar.constant(1), 1, 0j, truncation=1448)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert 1448**2 <= CELL_BUDGET < 1449**2
    assert DiskProblem(0j, 1.0, PolyZZbar.constant(1), 1, 0j, truncation=1447).truncation == 1447


def test_disk_grid_bound_admits_its_edge():
    p = DiskProblem(0j, 1.0, PolyZZbar.constant(1), 1, 0j, radial_nodes=512, angular_nodes=512)
    assert 4 * 512 * 512 + 4 * 512**2 == CELL_BUDGET
    assert p.radial_nodes == 512


def test_disk_reports_match_per_node_reference(monkeypatch):
    # the polar project and scaled_quadrature_norm_sq against the per-node walk and synthesis
    poly = PolyZZbar(
        {
            (0, 0): ExactScalar(Fraction(1, 2), Fraction(-1)),
            (1, 0): ExactScalar(Fraction(3, 4)),
            (1, 1): ExactScalar(0, Fraction(-5, 4)),
            (0, 2): ExactScalar(Fraction(1, 4), Fraction(1, 4)),
        }
    )
    cases = [
        DiskProblem(0.5 - 0.25j, 1.0, poly, 1, 1 + 0j, truncation=16),
        DiskProblem(-1 + 1j, 0.8, poly, 2, 1j, truncation=20, radial_nodes=48, angular_nodes=40),
    ]
    for p in cases:
        u, rep = solve_disk(p)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "project", reference_project)
            patch.setattr(
                solver, "scaled_quadrature_norm_sq", lambda u, rule: (reference_norm_sq(u, rule), 0)
            )
            want_u, want = solve_disk(p)
        assert set(u.entries) == set(want_u.entries)
        got, exp = dataclasses.asdict(rep), dataclasses.asdict(want)
        got.update({f"base.{k}": v for k, v in got.pop("base_report").items()})
        exp.update({f"base.{k}": v for k, v in exp.pop("base_report").items()})
        f_norm = exp["base.f_norm"]
        for name, value in exp.items():
            if name == "resolution_shift":
                # a rounding-level difference of two integrals
                assert abs(got[name] - value) <= 1e-14, name
            elif name == "base.residual_norm":
                # rounding of the solve, at 1e−16 of f_norm
                assert abs(got[name] - value) <= 1e-14 * f_norm, name
            else:
                assert got[name] == pytest.approx(value, rel=1e-12), name


def test_disk_reports_do_not_depend_on_cached_rules_or_factors():
    p = DiskProblem(0.5 - 0.25j, 1.0, PolyZZbar.var_z(), 2, 1j, truncation=16, radial_nodes=32)
    u, rep = solve_disk(p)
    _legendre.cache_clear()
    solver._factor.cache_clear()
    solver._layout.cache_clear()
    cold_u, cold = solve_disk(p)
    assert repr(dataclasses.asdict(rep)) == repr(dataclasses.asdict(cold))
    assert list(u.entries.items()) == list(cold_u.entries.items())
