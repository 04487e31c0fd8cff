"""Exact arithmetic for polynomials in the commuting pair (z, z̄).

Coefficients are Gaussian rationals: complex numbers whose real and imaginary
parts are arbitrary-precision `fractions.Fraction` values.  Nothing in this
module rounds; the Gaussian-weighted pairing returns the exact rational
coefficient of π instead of a float.

The three layers are

* :class:`ExactScalar`, the coefficient field,
* :class:`PolyZZbar`, sparse polynomials  Σ c_{a,b} z^a z̄^b, whose Wirtinger
  derivatives ∂^i ∂̄^j = ∂^i/∂z^i ∂^j/∂z̄^j are taken in closed form,
  z^a z̄^b ↦ (a)_i·(b)_j·z^{a−i} z̄^{b−j}, in one pass over the terms,
* :func:`weighted_deriv`, the weighted derivative e^{g} ∂^i ∂̄^j (P · e^{−g})
  of a polynomial P for a real polynomial weight exponent g, by the product
  rule ∂(P e^{−g}) = (∂P − P ∂g) e^{−g}, applied one derivative at a time:
  the direct differentiation that the identity verifiers certify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

ScalarLike = Union[int, Fraction, "ExactScalar"]


class ExactScalar:
    """Complex number with exact rational real and imaginary parts.

    Instances are treated as immutable: results may share their parts, and
    ``x * 1``, ``1 * x`` and ``x * ExactScalar(1)`` return ``x`` itself.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

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
        if isinstance(other, (int, Fraction)):
            return self if other == 1 else ExactScalar(self.re * other, self.im * other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if other.re == 1 and other.im == 0:
            return self
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


def _accumulate(out: dict, key: tuple, coeff: ExactScalar) -> None:
    """out[key] += coeff, dropping the key when the sum is zero."""
    if key in out:
        total = out[key] + coeff
        if total.is_zero():
            del out[key]
        else:
            out[key] = total
    else:
        out[key] = coeff


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
            if not coeff.is_zero():
                _accumulate(clean, (int(a), int(b)), coeff)
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
    def gaussian_exponent(cls) -> "PolyZZbar":
        """The standard weight exponent z·z̄ = |z|²."""
        return cls({(1, 1): 1})

    # ---- ring operations ---------------------------------------------------

    def __add__(self, other: "PolyZZbar") -> "PolyZZbar":
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(out, key, coeff)
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
        poly = PolyZZbar.__new__(PolyZZbar)
        if len(other.terms) == 1:
            ((a2, b2), c2), = other.terms.items()
            if c2.re == 1 and c2.im == 0:
                # a unit monomial z^a2 z̄^b2 shifts the exponents and keeps the coefficients
                poly.terms = {(a + a2, b + b2): c for (a, b), c in self.terms.items()}
                return poly
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                _accumulate(out, (a1 + a2, b1 + b2), c1 * c2)
        poly.terms = out
        return poly

    __rmul__ = __mul__

    def conjugate(self) -> "PolyZZbar":
        """Swap z ↔ z̄ and conjugate each coefficient."""
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = {(b, a): coeff.conjugate() for (a, b), coeff in self.terms.items()}
        return poly

    # ---- calculus -----------------------------------------------------------

    def dz(self) -> "PolyZZbar":
        """Wirtinger derivative ∂/∂z."""
        return self.deriv(1, 0)

    def dzbar(self) -> "PolyZZbar":
        """Wirtinger derivative ∂/∂z̄."""
        return self.deriv(0, 1)

    def deriv(self, ndz: int = 0, ndzbar: int = 0) -> "PolyZZbar":
        """∂^ndz ∂̄^ndzbar in closed form: z^a z̄^b ↦ (a)_ndz·(b)_ndzbar·z^{a−ndz} z̄^{b−ndzbar}."""
        poly = PolyZZbar.__new__(PolyZZbar)
        poly.terms = {
            (a - ndz, b - ndzbar): coeff * (math.perm(a, ndz) * math.perm(b, ndzbar))
            for (a, b), coeff in self.terms.items()
            if a >= ndz and b >= ndzbar
        }
        return poly

    # ---- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """True when the polynomial equals its own conjugate."""
        return self == self.conjugate()

    def evaluate(self, z) -> complex:
        """Float evaluation at a point (or numpy array) z."""
        zbar = z.conjugate()
        total = 0j
        for (a, b), coeff in self.terms.items():
            total = total + coeff.to_complex() * z**a * zbar**b
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), coeff in sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
            mono = "*".join(
                filter(None, [f"z^{a}" if a > 1 else "z" if a == 1 else "",
                              f"zb^{b}" if b > 1 else "zb" if b == 1 else ""])
            )
            parts.append(f"{coeff!r}*{mono}" if mono else f"{coeff!r}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PolyZZbar({self})"


def weighted_deriv(poly: PolyZZbar, g: PolyZZbar, ndz: int = 0, ndzbar: int = 0) -> PolyZZbar:
    """e^{g} ∂^ndz ∂̄^ndzbar (poly · e^{−g}) for a real polynomial weight exponent g.

    Applies ∂̄ ``ndzbar`` times, then ∂ ``ndz`` times (they commute), each by
    the product rule ∂(P e^{−g}) = (∂P − P ∂g) e^{−g}.  A complex g is
    refused: the adjoint computations built on this would be silently wrong.
    """
    if not g.is_real():
        raise ValueError("weight exponent must be a real-valued polynomial")
    dg, dgbar = g.dz(), g.dzbar()
    for _ in range(ndzbar):
        poly = poly.dzbar() - poly * dgbar
    for _ in range(ndz):
        poly = poly.dz() - poly * dg
    return poly


def _diagonals(p: PolyZZbar) -> dict:
    """p's terms c·z^a z̄^b as {a − b: [(a, b, c.re, c.im), ...]}."""
    groups: dict = {}
    for (a, b), c in p.terms.items():
        groups.setdefault(a - b, []).append((a, b, c.re, c.im))
    return groups


def _diagonal_sums(row: list, b: int) -> tuple:
    """Real and imaginary parts of Σ d·(b + a′)! over the terms d·z^{a′} z̄^{b′} of row."""
    sr = si = 0
    for a2, _, dr, di in row:
        f = math.factorial(b + a2)
        sr += dr * f
        si += di * f
    return sr, si


def gaussian_pairing(p: PolyZZbar, q: PolyZZbar) -> ExactScalar:
    """Exact (1/π)·∫ p̄ q e^{−|z|²} dσ.

    Uses the moment identity ∫ z^a z̄^b e^{−|z|²} dσ = π·a!·δ_{ab}: the terms
    c·z^a z̄^b of p and d·z^{a′} z̄^{b′} of q pair to c̄·d·(b + a′)! when
    a − b = a′ − b′, and to 0 otherwise, so p̄ q is never formed and only
    the pairs on one diagonal are visited, each term of p against the sum
    Σ d·(b + a′)! over its diagonal.  The returned scalar is the coefficient
    of π; conjugate-linear in p, linear in q.
    """
    qd = _diagonals(q)
    re = im = Fraction(0)
    for (a, b), c in p.terms.items():
        if a - b in qd:
            sr, si = _diagonal_sums(qd[a - b], b)
            re += c.re * sr + c.im * si
            im += c.re * si - c.im * sr
    return ExactScalar(re, im)


def weighted_norm_sq(p: PolyZZbar) -> Fraction:
    """Exact ‖p‖²/π against the Gaussian weight, as a rational.

    The self-pairing summed once per unordered pair of terms: |c|²·(a + b)!
    for each term, plus 2·Re(c̄_i·c_j)·(b_i + a_j)! for each pair i < j on
    one diagonal, where (b_i + a_j)! = (b_j + a_i)!.  Real by construction.
    """
    diag = cross = Fraction(0)
    for row in _diagonals(p).values():
        for i, (a, b, cr, ci) in enumerate(row):
            diag += (cr * cr + ci * ci) * math.factorial(a + b)
            sr, si = _diagonal_sums(row[i + 1:], b)
            cross += cr * sr + ci * si
    return diag + 2 * cross
