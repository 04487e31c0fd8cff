"""Scaled-weight and bounded-domain (disk) solve variants."""

import math

import pytest

from focksolve import (
    DiskProblem,
    HermiteCoeffs,
    PolyZZbar,
    ProblemSpec,
    ScaledProblem,
    solve,
    solve_disk,
    solve_scaled,
)
from focksolve.numerics import QuadratureResolutionError


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


def test_disk_off_center():
    p = DiskProblem(
        center=1 + 1j, radius=0.5, f_poly=PolyZZbar.constant(1), k=1, c=0j, truncation=16
    )
    _, rep = solve_disk(p)
    assert rep.bound_holds
    assert rep.f_sq_on_disk == pytest.approx(math.pi * 0.25, rel=1e-10)
    assert rep.bound_constant == pytest.approx(math.exp(1.0))
