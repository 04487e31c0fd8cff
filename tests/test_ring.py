"""Exact scalar / polynomial ring behavior and the Gaussian pairing oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focksolve import ExactScalar, PolyZZbar, QuadratureRule
from focksolve.identities import random_polynomial, verify_weight_identity_k1
from focksolve.ring import gaussian_pairing, weighted_deriv, weighted_norm_sq
from oracles import reference_gaussian_pairing


def test_exact_scalar_arithmetic_is_exact():
    a = ExactScalar(Fraction(1, 3), Fraction(-2, 7))
    b = ExactScalar(Fraction(5, 2), Fraction(1, 3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert a.abs2() == Fraction(1, 9) + Fraction(4, 49)


def test_exact_scalar_rejects_floats():
    with pytest.raises(TypeError):
        ExactScalar.coerce(0.5)


class FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize("value", [True, 3, FractionSubclass(1, 2)])
def test_exact_scalar_stores_plain_fractions(value):
    x = ExactScalar(value, value)
    assert type(x.re) is type(x.im) is Fraction
    assert (x.re, x.im) == (value, value)


# The references below multiply plain (re, im) pairs of Fractions, not ExactScalars.
PAIRS = settings(derandomize=True, deadline=None, max_examples=100)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
pairs = st.tuples(rationals, rationals)
factors = st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]), st.integers(-50, 50), rationals)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
unit_monomials = exponents.map(lambda key: {key: (Fraction(1), Fraction(0))})
polys = st.dictionaries(exponents, pairs, max_size=6)


def pair_product(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def poly_product(p, q):
    out = {}
    for (a1, b1), x in p.items():
        for (a2, b2), y in q.items():
            re, im = out.get((a1 + a2, b1 + b2), (0, 0))
            dre, dim = pair_product(x, y)
            out[(a1 + a2, b1 + b2)] = (re + dre, im + dim)
    return {key: value for key, value in out.items() if value != (0, 0)}


def plain_parts(x):
    assert type(x.re) is type(x.im) is Fraction
    return x.re, x.im


def exact_poly(terms):
    return PolyZZbar({key: ExactScalar(*value) for key, value in terms.items()})


@PAIRS
@given(pairs, factors, pairs)
def test_exact_scalar_products_match_the_pair_products(x, n, y):
    s = ExactScalar(*x)
    scaled = (x[0] * n, x[1] * n)
    for product in (s * n, n * s, s * ExactScalar(n)):
        assert plain_parts(product) == scaled
    assert plain_parts(s * ExactScalar(*y)) == pair_product(x, y)
    assert s * 1 is s and 1 * s is s and s * Fraction(1) is s and s * ExactScalar(1) is s


@PAIRS
@given(polys, st.one_of(unit_monomials, polys))
def test_poly_products_match_the_pair_convolution(p, q):
    product = exact_poly(p) * exact_poly(q)
    assert {key: plain_parts(c) for key, c in product.terms.items()} == poly_product(p, q)


def test_poly_ring_axioms():
    rng = random.Random(11)
    p = random_polynomial(rng, 3)
    q = random_polynomial(rng, 3)
    r = random_polynomial(rng, 2)
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p - p).is_zero()
    assert p * PolyZZbar.constant(1) == p


def test_conjugation_swaps_exponents():
    p = PolyZZbar({(2, 1): ExactScalar(1, 3)})
    c = p.conjugate()
    assert c.terms == {(1, 2): ExactScalar(1, -3)}
    assert PolyZZbar.gaussian_exponent().is_real()


def test_wirtinger_derivatives():
    p = PolyZZbar({(2, 1): 1})  # z² z̄
    assert p.dz() == PolyZZbar({(1, 1): 2})
    assert p.dzbar() == PolyZZbar({(2, 0): 1})
    assert p.deriv(1, 1) == PolyZZbar({(1, 0): 2})
    # mixed partials commute
    rng = random.Random(3)
    q = random_polynomial(rng, 4)
    assert q.dz().dzbar() == q.dzbar().dz()


def test_weighted_derivative_examples():
    g = PolyZZbar.gaussian_exponent()
    one = PolyZZbar.constant(1)
    assert weighted_deriv(one, g, ndzbar=1) == PolyZZbar({(1, 0): -1})
    assert weighted_deriv(one, g, 2) == PolyZZbar({(0, 2): 1})
    assert weighted_deriv(one, g) == one


def test_weight_exponent_must_be_real():
    with pytest.raises(ValueError):
        weighted_deriv(PolyZZbar.constant(1), PolyZZbar.var_z())
    with pytest.raises(ValueError):
        verify_weight_identity_k1(PolyZZbar.var_z(), PolyZZbar.constant(1))


def test_gaussian_pairing_examples():
    one = PolyZZbar.constant(1)
    h11 = PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert gaussian_pairing(one, one) == ExactScalar(1)
    assert gaussian_pairing(h11, h11) == ExactScalar(1)  # 2! − 2·1! + 0! = 1
    assert gaussian_pairing(PolyZZbar.var_z(), PolyZZbar.monomial(0, 1)) == ExactScalar(0)
    # the termwise sum equals the product definition exactly
    rng = random.Random(23)
    zero = PolyZZbar.zero()
    pairs = [(one, h11), (h11, h11), (zero, h11), (h11, zero), (zero, zero)]
    for _ in range(8):
        p, q = random_polynomial(rng, 4), random_polynomial(rng, 4)
        weight = random_polynomial(rng, 3, real=True)
        term = PolyZZbar.monomial(rng.randint(0, 4), rng.randint(0, 4), ExactScalar(rng.randint(-5, 5), 2))
        pairs += [(p, q), (p, p), (weight, q), (weight, weight), (term, p), (p, term), (term, term), (zero, p)]
    # no shared diagonal: p on diagonals 0 and 2, q on 1 and −1
    apart = PolyZZbar({(0, 0): 2, (1, 1): ExactScalar(1, -1), (3, 1): Fraction(1, 3)})
    other = PolyZZbar({(1, 0): ExactScalar(0, 1), (2, 1): 5, (0, 1): ExactScalar(-2, 3)})
    assert gaussian_pairing(apart, other) == ExactScalar(0)
    pairs += [(apart, other), (other, apart)]
    # several terms on each diagonal, on both sides
    for _ in range(6):
        p, q = random_on_diagonals(rng, (0, 1), 4), random_on_diagonals(rng, (0, 1, -2), 4)
        pairs += [(p, q), (q, p), (p, p), (q, q)]
    for p, q in pairs:
        assert gaussian_pairing(p, q) == reference_gaussian_pairing(p, q)


def random_on_diagonals(rng, diagonals, per_diagonal):
    """Random polynomial with ``per_diagonal`` terms on each diagonal a − b = d."""
    terms = {}
    for d in diagonals:
        for s in rng.sample(range(6), per_diagonal):
            terms[(s + max(d, 0), s + max(-d, 0))] = ExactScalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            )
    return PolyZZbar(terms)


def test_weighted_norm_sq_is_the_real_self_pairing():
    rng = random.Random(29)
    polys = [PolyZZbar.zero(), PolyZZbar.constant(ExactScalar(2, -3))]
    for _ in range(10):
        polys.append(random_polynomial(rng, 4))
        polys.append(random_on_diagonals(rng, (0, 2, -1), 3))
        # conjugate-paired terms: c·z^a z̄^b and c̄·z^b z̄^a
        polys.append(random_polynomial(rng, 4, real=True))
        polys.append(random_polynomial(rng, 3) + random_on_diagonals(rng, (1,), 4))
    for p in polys:
        self_pairing = gaussian_pairing(p, p)
        assert self_pairing.im == 0
        assert weighted_norm_sq(p) == self_pairing.re
        assert weighted_norm_sq(p) == reference_gaussian_pairing(p, p).re
    assert weighted_norm_sq(PolyZZbar.zero()) == 0


def test_gaussian_pairing_conjugate_symmetry():
    rng = random.Random(5)
    for _ in range(10):
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        assert gaussian_pairing(p, q) == gaussian_pairing(q, p).conjugate()


def test_gaussian_moment_oracle_against_quadrature():
    # The pairing is built on ∫ z^a z̄^b e^{−|z|²} dσ = π·a!·δ_{ab}; check that
    # moment table independently with the polar product rule.
    rule = QuadratureRule.full_plane(16, 33)
    z, w = rule.points_and_weights
    for a in range(6):
        for b in range(6):
            approx = complex(np.sum(w * z**a * np.conjugate(z) ** b))
            exact = math.pi * math.factorial(a) if a == b else 0.0
            assert approx == pytest.approx(exact, abs=1e-9)


def test_weighted_norm_sq_matches_quadrature():
    rng = random.Random(17)
    rule = QuadratureRule.full_plane(16, 33)
    z, w = rule.points_and_weights
    for _ in range(5):
        p = random_polynomial(rng, 3)
        values = p.evaluate(z)
        quad = float(np.real(np.sum(w * values * np.conjugate(values))))
        exact = float(weighted_norm_sq(p)) * math.pi
        assert quad == pytest.approx(exact, rel=1e-11)
