"""Exact scalar / polynomial ring behavior and the Gaussian pairing oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from focksolve import ExactScalar, PolyZZbar, QuadratureRule
from focksolve.identities import random_polynomial
from focksolve.ring import WeightedGaussianFunction, gaussian_pairing, weighted_norm_sq


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
    one = WeightedGaussianFunction(PolyZZbar.constant(1), g)
    assert one.derivative("dzbar", 1).poly == PolyZZbar({(1, 0): -1})
    assert one.derivative("dz", 2).poly == PolyZZbar({(0, 2): 1})
    assert one.derivative("dz", 0) == one


def test_weight_exponent_must_be_real():
    with pytest.raises(ValueError):
        WeightedGaussianFunction(PolyZZbar.constant(1), PolyZZbar.var_z())


def test_gaussian_pairing_examples():
    one = PolyZZbar.constant(1)
    h11 = PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert gaussian_pairing(one, one) == ExactScalar(1)
    assert gaussian_pairing(h11, h11) == ExactScalar(1)  # 2! − 2·1! + 0! = 1
    assert gaussian_pairing(PolyZZbar.var_z(), PolyZZbar.var_zbar()) == ExactScalar(0)


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
    z, w = rule.points_and_weights()
    for a in range(6):
        for b in range(6):
            approx = complex(np.sum(w * z**a * np.conjugate(z) ** b))
            exact = math.pi * math.factorial(a) if a == b else 0.0
            assert approx == pytest.approx(exact, abs=1e-9)


def test_weighted_norm_sq_matches_quadrature():
    rng = random.Random(17)
    rule = QuadratureRule.full_plane(16, 33)
    z, w = rule.points_and_weights()
    for _ in range(5):
        p = random_polynomial(rng, 3)
        values = p.evaluate(z)
        quad = float(np.real(np.sum(w * values * np.conjugate(values))))
        exact = float(weighted_norm_sq(p)) * math.pi
        assert quad == pytest.approx(exact, rel=1e-11)
