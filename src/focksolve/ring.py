"""Exact arithmetic for polynomials in the commuting pair (z, z̄).

Coefficients are Gaussian rationals: complex numbers whose real and imaginary
parts are arbitrary-precision `fractions.Fraction` values.  Nothing in this
module rounds; the Gaussian-weighted pairing returns the exact rational
coefficient of π instead of a float.

The three layers are

* :class:`ExactScalar`, the coefficient field,
* :class:`PolyZZbar`, sparse polynomials  Σ c_{a,b} z^a z̄^b,
* :class:`WeightedGaussianFunction`, expressions  P · e^{−g}  with polynomial
  P and a real polynomial weight exponent g, closed under the Wirtinger
  derivatives ∂ = ∂/∂z and ∂̄ = ∂/∂z̄ via the product rule
  ∂(P e^{−g}) = (∂P − P ∂g) e^{−g}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

ScalarLike = Union[int, Fraction, "ExactScalar"]

_DZ = "dz"
_DZBAR = "dzbar"


class ExactScalar:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value: ScalarLike) -> "ExactScalar":
        """Accept an int, Fraction or ExactScalar; reject floats (no rounding)."""
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into an exact scalar")

    def __add__(self, other: ScalarLike) -> "ExactScalar":
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        other = ExactScalar.coerce(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "ExactScalar":
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        other = ExactScalar.coerce(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "ExactScalar":
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        return ExactScalar.coerce(other) - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "ExactScalar":
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        other = ExactScalar.coerce(other)
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ExactScalar":
        other = ExactScalar.coerce(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|² as an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = ExactScalar.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


_ZERO = ExactScalar(0)
_ONE = ExactScalar(1)


class PolyZZbar:
    """Sparse polynomial Σ c_{a,b} z^a z̄^b with ExactScalar coefficients.

    Terms are stored as ``{(a, b): coefficient}``; zero coefficients are never
    stored.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, ScalarLike] = ()):
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), coeff in items:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term ({a},{b})")
            coeff = ExactScalar.coerce(coeff)
            if coeff.is_zero():
                continue
            key = (int(a), int(b))
            if key in clean:
                total = clean[key] + coeff
                if total.is_zero():
                    del clean[key]
                else:
                    clean[key] = total
            else:
                clean[key] = coeff
        self.terms = clean

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyZZbar":
        return cls()

    @classmethod
    def constant(cls, value: ScalarLike) -> "PolyZZbar":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: ScalarLike = 1) -> "PolyZZbar":
        return cls({(a, b): coeff})

    @classmethod
    def var_z(cls) -> "PolyZZbar":
        return cls({(1, 0): 1})

    @classmethod
    def var_zbar(cls) -> "PolyZZbar":
        return cls({(0, 1): 1})

    @classmethod
    def gaussian_exponent(cls) -> "PolyZZbar":
        """The standard weight exponent z·z̄ = |z|²."""
        return cls({(1, 1): 1})

    # ---- ring operations ---------------------------------------------------

    def __add__(self, other: "PolyZZbar") -> "PolyZZbar":
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            if key in out:
                total = out[key] + coeff
                if total.is_zero():
                    del out[key]
                else:
                    out[key] = total
            else:
                out[key] = coeff
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = out
        return poly

    def __sub__(self, other: "PolyZZbar") -> "PolyZZbar":
        return self + (-other)

    def __neg__(self) -> "PolyZZbar":
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = {key: -coeff for key, coeff in self.terms.items()}
        return poly

    def __mul__(self, other) -> "PolyZZbar":
        if isinstance(other, (int, Fraction, ExactScalar)):
            scalar = ExactScalar.coerce(other)
            if scalar.is_zero():
                return PolyZZbar.zero()
            poly = PolyZZbar.__new__(PolyZZbar)
            poly.terms = {key: coeff * scalar for key, coeff in self.terms.items()}
            return poly
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                prod = c1 * c2
                if key in out:
                    total = out[key] + prod
                    if total.is_zero():
                        del out[key]
                    else:
                        out[key] = total
                else:
                    out[key] = prod
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = out
        return poly

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyZZbar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = PolyZZbar.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "PolyZZbar":
        """Swap z ↔ z̄ and conjugate each coefficient."""
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = {(b, a): coeff.conjugate() for (a, b), coeff in self.terms.items()}
        return poly

    # ---- calculus -----------------------------------------------------------

    def dz(self) -> "PolyZZbar":
        """Wirtinger derivative ∂/∂z."""
        out = {}
        for (a, b), coeff in self.terms.items():
            if a > 0:
                out[(a - 1, b)] = coeff * a
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = out
        return poly

    def dzbar(self) -> "PolyZZbar":
        """Wirtinger derivative ∂/∂z̄."""
        out = {}
        for (a, b), coeff in self.terms.items():
            if b > 0:
                out[(a, b - 1)] = coeff * b
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = out
        return poly

    def deriv(self, ndz: int = 0, ndzbar: int = 0) -> "PolyZZbar":
        """Apply ∂ ``ndz`` times and ∂̄ ``ndzbar`` times (they commute)."""
        poly = self
        for _ in range(ndz):
            poly = poly.dz()
        for _ in range(ndzbar):
            poly = poly.dzbar()
        return poly

    # ---- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """True when the polynomial equals its own conjugate."""
        return self == self.conjugate()

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def coefficient(self, a: int, b: int) -> ExactScalar:
        return self.terms.get((a, b), _ZERO)

    def evaluate(self, z) -> complex:
        """Float evaluation at a point (or numpy array) z."""
        zbar = z.conjugate()
        total = 0j
        for (a, b), coeff in self.terms.items():
            total = total + coeff.to_complex() * z**a * zbar**b
        return total

    def evaluate_exact(self, z: ExactScalar) -> ExactScalar:
        """Exact rational evaluation at a Gaussian-rational point."""
        z = ExactScalar.coerce(z)
        zbar = z.conjugate()
        max_a = max((a for a, _ in self.terms), default=0)
        max_b = max((b for _, b in self.terms), default=0)
        zpow = [_ONE]
        for _ in range(max_a):
            zpow.append(zpow[-1] * z)
        zbpow = [_ONE]
        for _ in range(max_b):
            zbpow.append(zbpow[-1] * zbar)
        total = ExactScalar(0)
        for (a, b), coeff in self.terms.items():
            total = total + coeff * zpow[a] * zbpow[b]
        return total

    def sorted_terms(self) -> Iterator[tuple]:
        return iter(sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), coeff in self.sorted_terms():
            mono = "*".join(
                filter(None, [f"z^{a}" if a > 1 else "z" if a == 1 else "",
                              f"zb^{b}" if b > 1 else "zb" if b == 1 else ""])
            )
            parts.append(f"{coeff!r}*{mono}" if mono else f"{coeff!r}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PolyZZbar({self})"


class WeightedGaussianFunction:
    """Expression P(z, z̄) · e^{−g(z, z̄)} with a real polynomial exponent g.

    Real-valuedness of g is enforced structurally; without it the adjoint
    computations built on top of this class would be silently wrong.
    """

    __slots__ = ("poly", "weight_exponent")

    def __init__(self, poly: PolyZZbar, weight_exponent: PolyZZbar):
        if not weight_exponent.is_real():
            raise ValueError("weight exponent must be a real-valued polynomial")
        self.poly = poly
        self.weight_exponent = weight_exponent

    def dz(self) -> "WeightedGaussianFunction":
        g = self.weight_exponent
        return WeightedGaussianFunction(self.poly.dz() - self.poly * g.dz(), g)

    def dzbar(self) -> "WeightedGaussianFunction":
        g = self.weight_exponent
        return WeightedGaussianFunction(self.poly.dzbar() - self.poly * g.dzbar(), g)

    def derivative(self, direction: str, order: int) -> "WeightedGaussianFunction":
        if direction not in (_DZ, _DZBAR):
            raise ValueError(f"direction must be '{_DZ}' or '{_DZBAR}'")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        out = self
        for _ in range(order):
            out = out.dz() if direction == _DZ else out.dzbar()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGaussianFunction):
            return NotImplemented
        return self.poly == other.poly and self.weight_exponent == other.weight_exponent

    def __repr__(self) -> str:
        return f"({self.poly}) * exp(-({self.weight_exponent}))"


def gaussian_pairing(p: PolyZZbar, q: PolyZZbar) -> ExactScalar:
    """Exact (1/π)·∫ p̄ q e^{−|z|²} dσ.

    Uses the moment identity ∫ z^a z̄^b e^{−|z|²} dσ = π·a!·δ_{ab}, so the
    value is Σ_a a!·[p̄ q]_{(a,a)}.  The returned scalar is the coefficient
    of π; conjugate-linear in p, linear in q.
    """
    prod = p.conjugate() * q
    total = ExactScalar(0)
    for (a, b), coeff in prod.terms.items():
        if a == b:
            total = total + coeff * math.factorial(a)
    return total


def weighted_norm_sq(p: PolyZZbar) -> Fraction:
    """Exact ‖p‖²/π against the Gaussian weight, as a rational."""
    value = gaussian_pairing(p, p)
    if value.im != 0:
        raise ArithmeticError("self-pairing produced a nonreal value")
    return value.re
