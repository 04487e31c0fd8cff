"""Reference implementations that only the tests call.

Each is a direct form of something the library computes another way, and
the tests compare the library against it:

* the ladder actions of ∂^k∂̄^k and its weighted adjoint on Hermite
  coefficients (:func:`lower`, :func:`raise_`, :func:`apply_operator`),
  with the entrywise sum and scalar multiple they use (:func:`plus`,
  :func:`scaled`);
* exact rational evaluation of a polynomial (:func:`evaluate_exact`);
* the Gaussian pairing by its definition (:func:`reference_gaussian_pairing`);
* the closed form of e^{|z|²} ∂^j ∂̄^i e^{−|z|²} and its iterated oracle;
* the max-norm five-point residual at k = 1 (:func:`fd_residual_k1`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from focksolve.basis import RAW, HermiteCoeffs
from focksolve.numerics import GridSpec, _laplacian_residual
from focksolve.ring import ExactScalar, PolyZZbar, weighted_deriv

_ONE = ExactScalar(1)


# ---------------------------------------------------------------------------
# Hermite coefficients: linear structure and the ladder actions


def plus(u: HermiteCoeffs, other: HermiteCoeffs) -> HermiteCoeffs:
    if u.normalization != other.normalization:
        raise ValueError("normalization mismatch")
    out = dict(u.entries)
    for key, amp in other.entries.items():
        out[key] = out[key] + amp if key in out else amp
    return HermiteCoeffs(out, u.normalization)


def scaled(u: HermiteCoeffs, scalar) -> HermiteCoeffs:
    return HermiteCoeffs({key: amp * scalar for key, amp in u.entries.items()}, u.normalization)


def _root_product(a: int, b: int) -> float:
    """√(a·b) for integers; √a·√b where the product's conversion to float overflows."""
    try:
        return math.sqrt(a * b)
    except OverflowError:
        return math.sqrt(a) * math.sqrt(b)


def lower(k: int, u: HermiteCoeffs) -> HermiteCoeffs:
    """Action of ∂^k∂̄^k: H_{m,n} ↦ (m)_k (n)_k H_{m−k,n−k}, zero when m<k or n<k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    out: dict = {}
    for (m, n), amp in u.entries.items():
        if m < k or n < k:
            continue
        if u.normalization == RAW:
            factor = math.perm(m, k) * math.perm(n, k)
        else:
            factor = _root_product(math.perm(m, k), math.perm(n, k))
        value = amp * factor
        key = (m - k, n - k)
        out[key] = out[key] + value if key in out else value
    return HermiteCoeffs(out, u.normalization)


def raise_(k: int, u: HermiteCoeffs) -> HermiteCoeffs:
    """Weighted adjoint action: H_{m,n} ↦ H_{m+k,n+k}, amplitude preserved (raw)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    out: dict = {}
    for (m, n), amp in u.entries.items():
        if u.normalization == RAW:
            value = amp
        else:
            value = amp * _root_product(math.perm(m + k, k), math.perm(n + k, k))
        out[(m + k, n + k)] = value
    return HermiteCoeffs(out, u.normalization)


def apply_operator(k: int, c, u: HermiteCoeffs) -> HermiteCoeffs:
    """(∂^k∂̄^k + c) u = lower(k, u) + c·u, linear and context-preserving."""
    if u.exact:
        c = ExactScalar.coerce(c)
    elif isinstance(c, (int, Fraction, ExactScalar)):
        c = ExactScalar.coerce(c).to_complex()
    return plus(lower(k, u), scaled(u, c))


# ---------------------------------------------------------------------------
# Exact polynomials


def evaluate_exact(poly: PolyZZbar, z: ExactScalar) -> ExactScalar:
    """Exact rational evaluation at a Gaussian-rational point."""
    z = ExactScalar.coerce(z)
    zbar = z.conjugate()
    max_a = max((a for a, _ in poly.terms), default=0)
    max_b = max((b for _, b in poly.terms), default=0)
    zpow = [_ONE]
    for _ in range(max_a):
        zpow.append(zpow[-1] * z)
    zbpow = [_ONE]
    for _ in range(max_b):
        zbpow.append(zbpow[-1] * zbar)
    total = ExactScalar(0)
    for (a, b), coeff in poly.terms.items():
        total = total + coeff * zpow[a] * zbpow[b]
    return total


def reference_gaussian_pairing(p: PolyZZbar, q: PolyZZbar) -> ExactScalar:
    """The pairing by its definition: form p̄·q, then sum a!·[p̄ q]_{(a,a)}."""
    prod = p.conjugate() * q
    total = ExactScalar(0)
    for (a, b), coeff in prod.terms.items():
        if a == b:
            total = total + coeff * math.factorial(a)
    return total


def gaussian_derivative_closed_form(j: int, i: int) -> PolyZZbar:
    """Closed form of e^{|z|²} ∂^j ∂̄^i e^{−|z|²}.

    Equals Σ_n (−1)^{n+i} C(j,n) · i!/(i−j+n)! · z^{i−j+n} z̄^n over
    n with 0 ≤ n ≤ j and i−j+n ≥ 0.  Must agree with iterated product-rule
    differentiation; that equality is the correctness test.
    """
    if i < 0 or j < 0:
        raise ValueError("derivative orders must be nonnegative")
    terms = {}
    for n in range(max(0, j - i), j + 1):
        coeff = (-1) ** (n + i) * math.comb(j, n) * (
            math.factorial(i) // math.factorial(i - j + n)
        )
        terms[(i - j + n, n)] = coeff
    return PolyZZbar(terms)


def iterated_gaussian_derivative(j: int, i: int) -> PolyZZbar:
    """Oracle for the closed form: apply ∂̄ i times then ∂ j times to e^{−|z|²}."""
    return weighted_deriv(PolyZZbar.constant(1), PolyZZbar.gaussian_exponent(), j, i)


# ---------------------------------------------------------------------------
# Finite differences


def fd_residual_k1(
    u: HermiteCoeffs, f: HermiteCoeffs, c: complex, grid: GridSpec
) -> float:
    """Max-norm residual of (Δ/4 + c)u − f on interior grid points.

    A boundary layer of width h is excluded (the stencil needs interior
    points).  Exact to rounding when u synthesizes to a polynomial of degree
    ≤ 2 in (x, y); otherwise O(h²).
    """
    _, res = _laplacian_residual(u, f, complex(c), grid)
    if res.size == 0:
        raise ValueError("grid interior is empty")
    return float(np.max(np.abs(res)))
