"""Exact verification of the Gaussian-weight operator identities."""

import random

from focksolve import (
    ExactScalar,
    PolyZZbar,
    run_identity_suite,
    run_weight_identity_suite,
    verify_coercivity,
    verify_adjoint_norm_split,
    verify_quadratic_form,
    verify_weight_identity_k1,
)
from focksolve.basis import hermite_polynomial
from focksolve.identities import (
    commutator,
    commutator_expansion,
    formal_adjoint_weighted,
    gaussian_derivative_closed_form,
    iterated_gaussian_derivative,
    random_polynomial,
)
from focksolve.ring import gaussian_pairing

GAUSS = PolyZZbar.gaussian_exponent()


def test_closed_form_examples():
    assert gaussian_derivative_closed_form(1, 1) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert gaussian_derivative_closed_form(0, 1) == PolyZZbar({(1, 0): -1})
    assert gaussian_derivative_closed_form(2, 0) == PolyZZbar({(0, 2): 1})


def test_closed_form_matches_iterated_differentiation():
    for j in range(7):
        for i in range(7):
            assert gaussian_derivative_closed_form(j, i) == iterated_gaussian_derivative(j, i)


def test_closed_form_generates_hermite_polynomials():
    for m in range(6):
        for n in range(6):
            expected = (-1) ** (m + n) * gaussian_derivative_closed_form(n, m)
            assert hermite_polynomial((m, n)) == expected


def test_formal_adjoint_examples():
    one = PolyZZbar.constant(1)
    assert formal_adjoint_weighted(1, one, GAUSS) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert formal_adjoint_weighted(1, PolyZZbar.var_z(), GAUSS) == PolyZZbar(
        {(2, 1): 1, (1, 0): -2}
    )
    assert formal_adjoint_weighted(2, one, GAUSS) == PolyZZbar(
        {(2, 2): 1, (1, 1): -4, (0, 0): 2}
    )


def test_commutator_examples_gaussian_weight():
    one = PolyZZbar.constant(1)
    assert commutator(1, one, GAUSS) == one
    # The first-order commutator acts on H_{m,n} with eigenvalue m + n + 1.
    z = PolyZZbar.var_z()
    assert commutator(1, z, GAUSS) == 2 * z
    zb2 = PolyZZbar.monomial(0, 2)
    assert commutator(1, zb2, GAUSS) == 3 * zb2
    zzb = PolyZZbar.monomial(1, 1)
    assert commutator(1, zzb, GAUSS) == PolyZZbar({(1, 1): 3, (0, 0): -2})
    for m in range(4):
        for n in range(4):
            h = hermite_polynomial((m, n))
            assert commutator(1, h, GAUSS) == (m + n + 1) * h


def test_commutator_shift_independence():
    # (∂^k∂̄^k + c)(adjoint) − (adjoint)(∂^k∂̄^k + c) reduces to the shift-free
    # commutator; verify by assembling both composites with a nonzero shift.
    rng = random.Random(2)
    phi = random_polynomial(rng, 3)
    c = ExactScalar(2, -3)
    for k in (1, 2):
        adj = formal_adjoint_weighted(k, phi, GAUSS) + phi * c.conjugate()
        left = adj.deriv(k, k) + c * adj
        inner = phi.deriv(k, k) + c * phi
        right = formal_adjoint_weighted(k, inner, GAUSS) + inner * c.conjugate()
        assert left - right == commutator(k, phi, GAUSS)


def test_commutator_matches_leibniz_expansion():
    rng = random.Random(41)
    for k in (1, 2, 3):
        for _ in range(4):
            phi = random_polynomial(rng, 4)
            direct = commutator(k, phi, GAUSS)
            assert commutator_expansion(k, phi, GAUSS) == direct
    # and for a non-Gaussian weight
    g = PolyZZbar({(1, 1): 1, (1, 0): 1, (0, 1): 1})
    phi = random_polynomial(rng, 3)
    assert commutator_expansion(2, phi, g) == commutator(2, phi, g)


def test_commutator_general_weight_against_second_order_factor():
    # ∂∂̄(e^{g}∂∂̄e^{−g}) scales φ when the cross terms vanish (constant φ).
    rng = random.Random(12)
    for _ in range(5):
        g = random_polynomial(rng, 3, real=True)
        q = formal_adjoint_weighted(1, PolyZZbar.constant(1), g)
        assert commutator(1, PolyZZbar.constant(1), g) == q.deriv(1, 1)


def test_verify_adjoint_norm_split_examples():
    one = PolyZZbar.constant(1)
    r = verify_adjoint_norm_split(1, 0, one)
    assert r.holds and r.details["lhs_over_pi"] == "1"
    r = verify_adjoint_norm_split(2, 0, one)
    assert r.holds and r.details["lhs_over_pi"] == "4"
    assert verify_adjoint_norm_split(1, ExactScalar(1, 1), PolyZZbar.var_z()).holds


def test_verify_quadratic_form_examples():
    one = PolyZZbar.constant(1)
    r1 = verify_quadratic_form(1, one)
    assert r1.holds and r1.details["lhs_over_pi"] == "1"
    r2 = verify_quadratic_form(2, one)
    assert r2.holds and r2.details["lhs_over_pi"] == "4"
    assert r2.details["terms"]["(0,0)"]["coefficient"] == "4"
    assert r2.details["terms"]["(0,1)"]["coefficient"] == "8"
    assert r2.details["terms"]["(1,0)"]["coefficient"] == "8"
    assert r2.details["terms"]["(1,1)"]["coefficient"] == "16"
    r3 = verify_quadratic_form(2, PolyZZbar.monomial(1, 1))
    assert r3.holds
    assert r3.details["lhs_over_pi"] == "40"
    # nonzero first-derivative contributions for φ = z z̄
    assert r3.details["terms"]["(1,0)"]["norm_sq_over_pi"] == "1"


def test_commutator_pairing_real_nonnegative():
    rng = random.Random(77)
    for k in (1, 2, 3):
        for _ in range(6):
            phi = random_polynomial(rng, 4)
            value = gaussian_pairing(phi, commutator(k, phi, GAUSS))
            assert value.im == 0
            assert value.re >= 0


def test_verify_coercivity_examples():
    one = PolyZZbar.constant(1)
    r = verify_coercivity(1, 0, one)
    assert r.holds and r.details["equality"] and r.details["ratio"] == "1"
    r = verify_coercivity(2, 0, one)
    assert r.holds and r.details["equality"]
    r = verify_coercivity(2, ExactScalar(3, -2), PolyZZbar.monomial(2, 1))
    assert r.holds and not r.details["equality"]


def test_verify_weight_identity_examples():
    z = PolyZZbar.var_z()
    r = verify_weight_identity_k1(GAUSS, z)
    assert r.holds and r.details["principal_factor"] == "1"
    assert verify_weight_identity_k1(GAUSS**2, z).holds
    assert verify_weight_identity_k1(
        PolyZZbar({(1, 1): 1, (1, 0): 1, (0, 1): 1}), PolyZZbar.constant(1)
    ).holds
    # constant φ has no cross terms: the principal term is the whole identity
    rc = verify_weight_identity_k1(GAUSS**2, PolyZZbar.constant(2))
    assert rc.holds and rc.details["principal_term_only"]


def test_weight_identity_reduces_to_gaussian_constant():
    # For g = |z|² the second-order factor is the constant one, so the
    # curvature expression 16·∂∂̄(e^{g}∂∂̄e^{−g}) equals the coercivity
    # constant 16/(1!)² · (k!)² bookkeeping of the unweighted case.
    q = formal_adjoint_weighted(1, PolyZZbar.constant(1), GAUSS)
    assert q.deriv(1, 1) == PolyZZbar.constant(1)


def test_random_suites_all_hold():
    for k in (1, 2, 3):
        reports = run_identity_suite(k, trials=6, seed=123)
        assert all(r.holds for r in reports)
    wreports = run_weight_identity_suite(trials=6, seed=123)
    assert all(r.holds for r in wreports)


def test_random_polynomial_determinism_and_realness():
    a = random_polynomial(random.Random("x"), 4)
    b = random_polynomial(random.Random("x"), 4)
    assert a == b
    g = random_polynomial(random.Random(99), 3, real=True)
    assert g.is_real()
    assert not a.is_zero()
