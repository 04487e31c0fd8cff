"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the exact suites run at zero
tolerance (rational equality), the floating suites at the stated budgets.
"""

import math
import random
import time

import pytest

from focksolve import (
    CERTIFICATION_C_GRID,
    DiskProblem,
    HermiteCoeffs,
    PolyZZbar,
    ProblemSpec,
    QuadratureRule,
    ScaledProblem,
    operator_norm_probe,
    project,
    run_identity_suite,
    run_weight_identity_suite,
    solve,
    solve_disk,
    solve_scaled,
    synthesize,
)
from focksolve.numerics import GridSpec, scaled_quadrature_norm_sq, unscale
from focksolve.solver import dense_data
from oracles import fd_residual_k1, gaussian_derivative_closed_form, iterated_gaussian_derivative

SEED = 42


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_1_exact_lemma_suite():
    start = time.monotonic()
    failures = 0
    checks = 0
    for k in (1, 2, 3):
        reports = run_identity_suite(k, trials=20, seed=SEED)
        checks += len(reports)
        failures += sum(not r.holds for r in reports)
    elapsed = time.monotonic() - start
    passed = failures == 0 and elapsed < 60.0
    report(
        1,
        "exact adjoint-norm / quadratic-form / coercivity suite, k in {1,2,3}, 20 seeded phi",
        passed,
        f"{checks} checks, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_gaussian_derivative_closed_form():
    bad = [
        (j, i)
        for j in range(7)
        for i in range(7)
        if gaussian_derivative_closed_form(j, i) != iterated_gaussian_derivative(j, i)
    ]
    report(
        2,
        "Gaussian-derivative closed form equals iterated differentiation, 49 cases, exact",
        not bad,
        f"{49 - len(bad)}/49 exact",
    )


def test_criterion_3_weight_identity_k1():
    reports = run_weight_identity_suite(trials=10, seed=SEED)
    failures = [r for r in reports if not r.holds]
    report(
        3,
        "k=1 commutator expansion exact for 10 seeded random real weights",
        not failures,
        f"{len(reports) - len(failures)}/{len(reports)} exact",
    )


def test_criterion_4_bound_certification():
    worst_ratio = 0.0
    worst_resid = 0.0
    ok = True
    for k in (1, 2, 3, 4):
        rng = random.Random(f"certify:{SEED}:{k}")
        margin = 32 - k
        datasets = [dense_data(rng, margin) for _ in range(100)]
        for c in CERTIFICATION_C_GRID:
            for f in datasets:
                _, rep = solve(ProblemSpec(k=k, c=c, truncation=32, f=f))
                rel = rep.residual_norm / rep.f_norm
                worst_ratio = max(worst_ratio, rep.bound_ratio)
                worst_resid = max(worst_resid, rel)
                ok &= rep.bound_holds and rel <= 1e-10
    report(
        4,
        "certified bound over k in {1..4}, 9 shifts, 100 random f at truncation 32",
        ok,
        f"max ratio {worst_ratio:.12f}, max residual {worst_resid:.2e}",
    )


def test_criterion_5_sharpness():
    worst = 0.0
    for k in (1, 2, 3, 4):
        f = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j, "orthonormal")
        _, rep = solve(ProblemSpec(k=k, c=0j, truncation=32, f=f))
        worst = max(worst, abs(rep.bound_ratio - 1.0))
    report(
        5,
        "sharpness at c=0, f=H00: bound ratio equals one for k in {1..4}",
        worst <= 1e-12,
        f"max |ratio-1| = {worst:.2e}",
    )


def test_criterion_6_operator_norm_probe():
    ok = True
    details = []
    for k in (1, 2, 3, 4):
        upper = 1.0 / math.factorial(k)
        for c in CERTIFICATION_C_GRID:
            value = operator_norm_probe(k, c, trials=25, M=32, seed=SEED)
            ok &= value <= upper + 1e-10
            if c == 0:
                ok &= value >= upper - 1e-10
                details.append(f"k={k}: {value:.12f}")
    report(
        6,
        "operator-norm probe within 1/k! and attaining it at c=0",
        ok,
        "; ".join(details),
    )


def test_criterion_7_scaled_weight():
    ok = True
    hand = None
    for lam in (0.5, 1.0, 2.0, 3.0):
        for z0 in (0j, 1 + 1j):
            for k in (1, 2):
                f = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
                base = ProblemSpec(k=k, c=0j, truncation=16, f=f)
                _, rep = solve_scaled(ScaledProblem(lam=lam, z0=z0, base=base))
                ok &= rep.sq_norm_ratio <= rep.bound_constant_sq * (1 + 1e-10)
                if lam == 2.0 and z0 == 0j and k == 1:
                    hand = rep.sq_norm_ratio
    ok &= hand is not None and abs(hand - 1.0 / 16.0) <= 1e-12
    report(
        7,
        "scaled-weight bound over lambda/z0/k grid with the lambda=2 hand case = 1/16",
        ok,
        f"hand case ratio {hand:.15f}",
    )


def test_criterion_8_disk_inequality():
    ok = True
    details = []
    for k in (1, 2):
        for poly, name in (
            (PolyZZbar.constant(1), "1"),
            (PolyZZbar.var_z(), "z"),
            (PolyZZbar.monomial(1, 1), "zzb"),
        ):
            problem = DiskProblem(
                center=0j, radius=1.0, f_poly=poly, k=k, c=0j, truncation=24
            )
            _, rep = solve_disk(problem)
            constant = math.exp(4.0) / math.factorial(k) ** 2
            ok &= rep.bound_holds and rep.ratio <= constant
            ok &= rep.resolution_shift <= 1e-6
            details.append(f"k={k},f={name}: ratio {rep.ratio:.3e}")
    report(
        8,
        "unit-disk inequality with integrals stable to 1e-6 under quadrature doubling",
        ok,
        "; ".join(details[:3]) + " ...",
    )


def test_criterion_9_finite_difference_cross_check():
    u11 = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    f00 = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j)
    exact = fd_residual_k1(u11, f00, 0j, GridSpec(-1, 1, -1, 1, 0.1))
    u22 = HermiteCoeffs.basis_vector(2, 2, 0.25 + 0j)
    f11 = HermiteCoeffs.basis_vector(1, 1, 1.0 + 0j)
    res = [fd_residual_k1(u22, f11, 0j, GridSpec(-1, 1, -1, 1, h)) for h in (0.1, 0.05, 0.025)]
    slopes = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    ok = exact <= 1e-10 and all(abs(s - 2.0) <= 0.2 for s in slopes)
    report(
        9,
        "five-point Laplacian cross-check: exact on H11 and order 2 on H22/4",
        ok,
        f"exact {exact:.2e}; slopes {slopes[0]:.3f}, {slopes[1]:.3f}",
    )


def test_criterion_10_basis_numerics_coherence():
    u = dense_data(random.Random(f"parseval:{SEED}"), 20)
    rule = QuadratureRule.full_plane(61, 121)
    quad = unscale(*scaled_quadrature_norm_sq(u, rule))
    coeff = sum(abs(amp) ** 2 for amp in u.entries.values())
    parseval_rel = abs(quad - coeff) / coeff

    raw = u.to_raw()
    got, _ = project(lambda z: synthesize(raw, z), 20, rule)
    got = got.to_raw()
    num = 0.0
    den = 0.0
    for key in set(got.entries) | set(raw.entries):
        a = got.entries.get(key, 0j)
        b = raw.entries.get(key, 0j)
        w = math.pi * math.factorial(key[0]) * math.factorial(key[1])
        num += w * abs(a - b) ** 2
        den += w * abs(b) ** 2
    roundtrip_rel = math.sqrt(num / den)
    ok = parseval_rel <= 1e-8 and roundtrip_rel <= 1e-10
    report(
        10,
        "Parseval (1e-8) and project∘synthesize (1e-10) on coefficients in [0,20]²",
        ok,
        f"parseval {parseval_rel:.2e}; roundtrip {roundtrip_rel:.2e}",
    )
