"""Complex Hermite basis: closed forms, basis changes, ladder actions."""

import math
import random
from fractions import Fraction

import pytest

from focksolve import ExactScalar, HermiteCoeffs, PolyZZbar, to_hermite, to_monomial
from focksolve.basis import (
    apply_operator,
    hermite_polynomial,
    inner_product,
    lower,
    norm_squared,
    raise_,
    sqrt_norm,
)
from focksolve.identities import formal_adjoint_weighted
from focksolve.ring import WeightedGaussianFunction, gaussian_pairing


def oracle_hermite(m, n):
    """(−1)^{m+n} e^{|z|²} ∂^n ∂̄^m e^{−|z|²} by iterated weighted differentiation."""
    w = WeightedGaussianFunction(PolyZZbar.constant(1), PolyZZbar.gaussian_exponent())
    return (-1) ** (m + n) * w.deriv(n, m).poly


def test_hermite_polynomial_examples():
    assert hermite_polynomial((0, 0)) == PolyZZbar.constant(1)
    assert hermite_polynomial((1, 1)) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert hermite_polynomial((2, 2)) == PolyZZbar({(2, 2): 1, (1, 1): -4, (0, 0): 2})


def test_hermite_polynomial_against_derivative_oracle():
    for m in range(6):
        for n in range(6):
            poly = hermite_polynomial((m, n))
            assert poly == oracle_hermite(m, n)
            assert poly.terms[(m, n)] == ExactScalar(1)


def test_to_hermite_examples():
    zzb = PolyZZbar({(1, 1): 1})
    assert to_hermite(zzb).entries == {(1, 1): ExactScalar(1), (0, 0): ExactScalar(1)}
    z2zb = PolyZZbar({(2, 1): 1})
    assert to_hermite(z2zb).entries == {(2, 1): ExactScalar(1), (1, 0): ExactScalar(2)}
    assert to_hermite(PolyZZbar.constant(1)).entries == {(0, 0): ExactScalar(1)}


def test_to_monomial_examples():
    u = HermiteCoeffs({(1, 1): 1})
    assert to_monomial(u) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert to_monomial(HermiteCoeffs.zero()).is_zero()
    mixed = HermiteCoeffs({(1, 0): 2, (2, 1): 1})
    assert to_monomial(mixed) == PolyZZbar({(2, 1): 1})


def test_basis_round_trip_random():
    rng = random.Random(23)
    for _ in range(8):
        entries = {}
        for _ in range(6):
            m, n = rng.randrange(11), rng.randrange(11)
            entries[(m, n)] = ExactScalar(
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
            )
        u = HermiteCoeffs(entries)
        assert to_hermite(to_monomial(u)) == u


def test_inner_product_orthogonality_table():
    for m in range(9):
        for n in range(9):
            for p in range(9):
                for q in range(9):
                    value = inner_product(
                        HermiteCoeffs.basis_vector(m, n), HermiteCoeffs.basis_vector(p, q)
                    )
                    assert value.pi_exponent == 1
                    expected = (
                        ExactScalar(math.factorial(m) * math.factorial(n))
                        if (m, n) == (p, q)
                        else ExactScalar(0)
                    )
                    assert value.coeff == expected


def test_orthogonality_against_exact_gaussian_pairing():
    # Same statement via the moment-based pairing on the monomial images.
    for m in range(9):
        for n in range(9):
            for p in range(9):
                for q in range(9):
                    value = gaussian_pairing(
                        hermite_polynomial((m, n)), hermite_polynomial((p, q))
                    )
                    expected = (
                        ExactScalar(math.factorial(m) * math.factorial(n))
                        if (m, n) == (p, q)
                        else ExactScalar(0)
                    )
                    assert value == expected


def test_lower_examples():
    assert lower(1, HermiteCoeffs({(2, 2): 1})).entries == {(1, 1): ExactScalar(4)}
    assert lower(2, HermiteCoeffs({(1, 1): 1})).entries == {}
    assert lower(1, HermiteCoeffs({(1, 0): 1})).entries == {}


def test_lower_matches_symbolic_differentiation():
    rng = random.Random(9)
    for _ in range(6):
        entries = {
            (rng.randrange(7), rng.randrange(7)): ExactScalar(rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(4)
        }
        u = HermiteCoeffs(entries)
        for k in (1, 2):
            direct = to_monomial(u).deriv(k, k)
            assert to_monomial(lower(k, u)) == direct


def test_raise_examples_via_weighted_adjoint():
    g = PolyZZbar.gaussian_exponent()
    assert raise_(1, HermiteCoeffs({(0, 0): 1})).entries == {(1, 1): ExactScalar(1)}
    assert raise_(1, HermiteCoeffs({(1, 0): 1})).entries == {(2, 1): ExactScalar(1)}
    assert raise_(3, HermiteCoeffs.zero()).entries == {}
    # e^{g} ∂^k ∂̄^k (H_{m,n} e^{−g}) = H_{m+k,n+k}
    for m, n, k in [(0, 0, 1), (1, 0, 1), (2, 1, 2), (1, 1, 3)]:
        adj = formal_adjoint_weighted(k, hermite_polynomial((m, n)), g)
        assert adj == hermite_polynomial((m + k, n + k))


def test_adjointness_of_raise_and_lower():
    rng = random.Random(31)
    for _ in range(6):
        u = HermiteCoeffs(
            {(rng.randrange(8), rng.randrange(8)): ExactScalar(rng.randint(-4, 4), 1)}
        )
        v = HermiteCoeffs(
            {(rng.randrange(8), rng.randrange(8)): ExactScalar(rng.randint(-4, 4), -2)}
        )
        for k in (1, 2, 3):
            lhs = inner_product(raise_(k, u), v)
            rhs = inner_product(u, lower(k, v))
            assert lhs == rhs


def test_shift_consistency():
    for m in range(5):
        for n in range(5):
            for k in (1, 2, 3):
                u = HermiteCoeffs.basis_vector(m, n)
                round_trip = lower(k, raise_(k, u))
                factor = math.perm(m + k, k) * math.perm(n + k, k)
                assert round_trip.entries == {(m, n): ExactScalar(factor)}


def test_derivation_rules():
    for m in range(1, 9):
        for n in range(9):
            poly = to_monomial(HermiteCoeffs.basis_vector(m, n))
            assert poly.dz() == m * to_monomial(HermiteCoeffs.basis_vector(m - 1, n))
    for m in range(9):
        for n in range(1, 9):
            poly = to_monomial(HermiteCoeffs.basis_vector(m, n))
            assert poly.dzbar() == n * to_monomial(HermiteCoeffs.basis_vector(m, n - 1))


def test_apply_operator_examples():
    assert apply_operator(1, 0, HermiteCoeffs({(2, 2): 1})).entries == {(1, 1): ExactScalar(4)}
    assert apply_operator(1, 1, HermiteCoeffs({(0, 0): 1})).entries == {(0, 0): ExactScalar(1)}
    got = apply_operator(2, ExactScalar(0, 1), HermiteCoeffs({(2, 2): 1}))
    assert got.entries == {(0, 0): ExactScalar(4), (2, 2): ExactScalar(0, 1)}


def test_norm_squared_and_normalization_round_trip():
    u = HermiteCoeffs({(1, 1): 1, (3, 2): ExactScalar(0, 2)})
    nsq = norm_squared(u)
    assert nsq.pi_exponent == 1
    assert nsq.coeff == Fraction(1) * 1 + 4 * math.factorial(3) * math.factorial(2)
    ortho = u.to_orthonormal()
    assert norm_squared(ortho).coeff == pytest.approx(nsq.value(), rel=1e-14)
    back = ortho.to_raw()
    for key, amp in u.entries.items():
        assert back.entries[key] == pytest.approx(amp.to_complex(), rel=1e-14)


def test_zero_pruning_and_context_rules():
    u = HermiteCoeffs({(0, 0): 0, (1, 1): Fraction(1, 2)})
    assert (0, 0) not in u.entries and u.exact
    v = HermiteCoeffs({(0, 0): 1e-301 + 0j, (2, 2): 1.0 + 0j})
    assert (0, 0) not in v.entries and not v.exact
    with pytest.raises(TypeError):
        HermiteCoeffs({(0, 0): 1, (1, 1): 0.5 + 0j})
    with pytest.raises(TypeError):
        HermiteCoeffs({(0, 0): 1}, "orthonormal")


@pytest.mark.parametrize(
    "amp",
    [complex(math.nan, 0.0), math.inf, complex(0.0, -math.inf), 1.5e308 + 1.5e308j],
    ids=["nan", "inf", "-inf", "overflow"],
)
@pytest.mark.parametrize("normalization", ["raw", "orthonormal"])
def test_non_finite_float_amplitude_rejected(amp, normalization):
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        HermiteCoeffs({(0, 0): 1.0 + 0j, (3, 1): amp}, normalization)
    # a raw amplitude that overflows once rescaled is rejected the same way
    with pytest.raises(ValueError, match=r"\(50, 50\)"):
        HermiteCoeffs({(50, 50): 1e300 + 0j}).to_orthonormal()


def test_sqrt_norm_past_the_float_product():
    # π·m!·n! overflows to inf from (98, 98) on; the norm itself stays finite
    for m, n in ((98, 98), (120, 120), (170, 170), (200, 3)):
        want = math.exp(0.5 * (math.log(math.pi) + math.lgamma(m + 1) + math.lgamma(n + 1)))
        assert sqrt_norm(m, n) == pytest.approx(want, rel=1e-13)
    # inside the float range the direct product is kept bit for bit
    assert sqrt_norm(20, 30) == math.sqrt(math.pi * math.factorial(20) * math.factorial(30))
    assert sqrt_norm(400, 400) == math.inf
