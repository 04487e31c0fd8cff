"""Complex Hermite basis of L²(ℂ, e^{−|z|²}) and the index-shift operator actions.

The basis elements are the complex Hermite polynomials

    H_{m,n}(z, z̄) = Σ_{r=0}^{min(m,n)} (−1)^r r! C(m,r) C(n,r) z^{m−r} z̄^{n−r},

orthogonal under ⟨f, g⟩ = ∫ f̄ g e^{−|z|²} dσ with ‖H_{m,n}‖² = π·m!·n!.
The operator ∂^k∂̄^k lowers both indices by k with falling-factorial scaling,
and its weighted adjoint raises both indices by k with amplitude one; these
two shifts are what make the solver's chain decomposition possible.

Coefficient vectors (:class:`HermiteCoeffs`) come in two flavors:

* the exact context stores raw amplitudes (multiplying H_{m,n}) as
  :class:`~focksolve.ring.ExactScalar` values, and every inner product is a
  rational multiple of π, tracked symbolically via :class:`PiScaled`;
* the numeric context stores orthonormal amplitudes (multiplying
  H_{m,n}/√(π·m!·n!)) as complex floats, which keeps stored magnitudes O(1);
  raw float amplitudes under/overflow once indices reach ≈ 85.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Tuple

from .ring import ExactScalar, PolyZZbar

BasisIndex = Tuple[int, int]

RAW = "raw"
ORTHONORMAL = "orthonormal"

_NUMERIC_PRUNE = 1e-300


def sqrt_norm(m: int, n: int) -> float:
    """√(π·m!·n!) = ‖H_{m,n}‖ as a float; log-space once π·m!·n! leaves f64 range."""
    try:
        value = math.sqrt(math.pi * math.factorial(m) * math.factorial(n))
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    try:
        return math.exp(0.5 * (math.log(math.pi) + math.lgamma(m + 1) + math.lgamma(n + 1)))
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def hermite_polynomial(idx: BasisIndex) -> PolyZZbar:
    """Exact H_{m,n} as a polynomial; leading monomial z^m z̄^n with coefficient 1."""
    m, n = idx
    if m < 0 or n < 0:
        raise ValueError("basis indices must be nonnegative")
    terms = {}
    for r in range(min(m, n) + 1):
        coeff = (-1) ** r * math.factorial(r) * math.comb(m, r) * math.comb(n, r)
        terms[(m - r, n - r)] = coeff
    return PolyZZbar(terms)


class PiScaled:
    """A value of the form coeff · π^pi_exponent.

    In the exact context ``coeff`` is an :class:`ExactScalar` (or Fraction)
    and π is never numerically expanded; comparisons reduce to exact rational
    comparisons when the exponents match.  In the numeric context ``coeff``
    is a float or complex and :meth:`value` gives the usual number.
    """

    __slots__ = ("coeff", "pi_exponent")

    def __init__(self, coeff, pi_exponent: int = 1):
        self.coeff = coeff
        self.pi_exponent = pi_exponent

    def value(self):
        """Float (or complex) value, expanding π numerically."""
        c = self.coeff
        if isinstance(c, ExactScalar):
            c = c.to_complex()
            if c.imag == 0:
                c = c.real
        elif isinstance(c, Fraction):
            c = float(c)
        return c * math.pi**self.pi_exponent

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self.pi_exponent == other.pi_exponent and self.coeff == other.coeff

    def __repr__(self) -> str:
        return f"({self.coeff!r})*pi^{self.pi_exponent}"


class HermiteCoeffs:
    """Finitely supported coefficient vector over the complex Hermite basis.

    ``entries`` maps (m, n) to an amplitude.  Exact amplitudes
    (:class:`ExactScalar`) require the raw normalization, since the
    orthonormal rescaling by √(π·m!·n!) is irrational.  Zero entries are
    pruned on construction: exact zeros in the exact context, magnitudes
    below 1e−300 in the numeric context.  A float amplitude that is NaN, ±inf
    or of a magnitude past float range raises ``ValueError``.
    """

    __slots__ = ("entries", "normalization", "exact")

    def __init__(self, entries: Mapping[BasisIndex, object] = (), normalization: str = RAW):
        if normalization not in (RAW, ORTHONORMAL):
            raise ValueError(f"unknown normalization {normalization!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        clean: dict = {}
        saw_exact = False
        saw_float = False
        for key, amp in items:
            m, n = key
            if m < 0 or n < 0:
                raise ValueError(f"negative basis index ({m},{n})")
            # floats first: the Fraction test goes through ABCMeta and is slow
            numeric = type(amp) is complex or isinstance(amp, float)
            if numeric or not isinstance(amp, (int, Fraction, ExactScalar)):
                if type(amp) is not complex:
                    amp = complex(amp)
                try:
                    size = abs(amp)
                except OverflowError:
                    size = math.inf
                if not _NUMERIC_PRUNE <= size < math.inf:
                    if size < _NUMERIC_PRUNE:
                        continue
                    raise ValueError(f"non-finite amplitude {amp} at index ({m}, {n})")
                saw_float = True
            else:
                amp = ExactScalar.coerce(amp)
                if amp.is_zero():
                    continue
                saw_exact = True
            # int-tuple keys are kept as given: rebuilding each costs a third of the loop
            if type(key) is not tuple or type(m) is not int or type(n) is not int:
                key = (int(m), int(n))
            clean[key] = amp
        if saw_exact and saw_float:
            raise TypeError("cannot mix exact and floating amplitudes")
        if saw_exact and normalization != RAW:
            raise TypeError("exact amplitudes are stored in raw normalization only")
        self.entries = clean
        self.normalization = normalization
        self.exact = saw_exact

    # ---- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, normalization: str = RAW) -> "HermiteCoeffs":
        return cls({}, normalization)

    @classmethod
    def basis_vector(cls, m: int, n: int, amplitude=1, normalization: str = RAW) -> "HermiteCoeffs":
        return cls({(m, n): amplitude}, normalization)

    # ---- structure ----------------------------------------------------------

    def max_index(self) -> BasisIndex:
        """Componentwise maximum of the support; (-1, -1) when empty."""
        if not self.entries:
            return (-1, -1)
        return (max(m for m, _ in self.entries), max(n for _, n in self.entries))

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermiteCoeffs):
            return NotImplemented
        return self.normalization == other.normalization and self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"({m},{n}): {amp!r}" for (m, n), amp in self.items())
        return f"HermiteCoeffs({{{inner}}}, {self.normalization})"

    # ---- normalization ------------------------------------------------------

    def to_orthonormal(self) -> "HermiteCoeffs":
        """Rescale to orthonormal amplitudes (floating point)."""
        if self.normalization == ORTHONORMAL:
            return self
        out = {}
        for (m, n), amp in self.entries.items():
            value = amp.to_complex() if isinstance(amp, ExactScalar) else amp
            out[(m, n)] = value * sqrt_norm(m, n)
        return HermiteCoeffs(out, ORTHONORMAL)

    def to_raw(self) -> "HermiteCoeffs":
        """Rescale to raw amplitudes (floating point when starting orthonormal)."""
        if self.normalization == RAW:
            return self
        out = {}
        for (m, n), amp in self.entries.items():
            out[(m, n)] = amp / sqrt_norm(m, n)
        return HermiteCoeffs(out, RAW)

    # ---- linear structure -----------------------------------------------------

    def plus(self, other: "HermiteCoeffs") -> "HermiteCoeffs":
        if self.normalization != other.normalization:
            raise ValueError("normalization mismatch")
        out = dict(self.entries)
        for key, amp in other.entries.items():
            out[key] = out[key] + amp if key in out else amp
        return HermiteCoeffs(out, self.normalization)

    def scaled(self, scalar) -> "HermiteCoeffs":
        return HermiteCoeffs(
            {key: amp * scalar for key, amp in self.entries.items()}, self.normalization
        )


def to_hermite(p: PolyZZbar) -> HermiteCoeffs:
    """Exact change of basis from monomials to Hermite coefficients.

    Triangular back-substitution against the H_{m,n} table: repeatedly peel
    the highest-total-degree monomial c·z^a z̄^b, emit c·H_{a,b}, and subtract
    c·H_{a,b} from the remainder.  Inverse of :func:`to_monomial`.
    """
    remainder = PolyZZbar(p.terms)
    out: dict = {}
    while not remainder.is_zero():
        (a, b), coeff = max(remainder.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))
        out[(a, b)] = coeff
        remainder = remainder - coeff * hermite_polynomial((a, b))
    return HermiteCoeffs(out, RAW)


def to_monomial(u: HermiteCoeffs) -> PolyZZbar:
    """Exact evaluation of Σ a_{m,n} H_{m,n} as a polynomial in (z, z̄)."""
    if not u.exact and u.entries:
        raise TypeError("to_monomial requires exact amplitudes")
    if u.normalization != RAW:
        raise TypeError("to_monomial requires raw normalization")
    total = PolyZZbar.zero()
    for (m, n), amp in u.entries.items():
        total = total + amp * hermite_polynomial((m, n))
    return total


def inner_product(u: HermiteCoeffs, v: HermiteCoeffs) -> PiScaled:
    """⟨u, v⟩ = ∫ ū v e^{−|z|²} dσ, conjugate-linear in u.

    Raw amplitudes give Σ π·m!·n!·ū·v, returned as a PiScaled with π-exponent
    one (exact when both inputs are exact).  Orthonormal amplitudes already
    absorb √π, so the pairing is Σ ū·v with π-exponent zero.
    """
    if u.normalization != v.normalization:
        raise ValueError("inner_product requires matching normalizations")
    if u.exact != v.exact and u.entries and v.entries:
        raise TypeError("cannot pair exact with floating amplitudes")
    if u.normalization == RAW:
        total = ExactScalar(0) if u.exact or v.exact else 0j
        for key, amp in u.entries.items():
            other = v.entries.get(key)
            if other is None:
                continue
            m, n = key
            weight = math.factorial(m) * math.factorial(n)
            total = total + amp.conjugate() * other * weight
        return PiScaled(total, 1)
    total = 0j
    for key, amp in u.entries.items():
        other = v.entries.get(key)
        if other is not None:
            total += amp.conjugate() * other
    return PiScaled(total, 0)


def norm_squared(u: HermiteCoeffs) -> PiScaled:
    """Squared weighted norm ‖u‖²; raw gives Σ π·m!·n!·|a|² exactly."""
    pairing = inner_product(u, u)
    if isinstance(pairing.coeff, ExactScalar):
        return PiScaled(pairing.coeff.re, pairing.pi_exponent)
    return PiScaled(pairing.coeff.real, pairing.pi_exponent)


def lower(k: int, u: HermiteCoeffs) -> HermiteCoeffs:
    """Action of ∂^k∂̄^k: H_{m,n} ↦ (m)_k (n)_k H_{m−k,n−k}, zero when m<k or n<k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    out: dict = {}
    for (m, n), amp in u.entries.items():
        if m < k or n < k:
            continue
        factor = math.perm(m, k) * math.perm(n, k)
        if u.normalization != RAW:
            factor = math.sqrt(factor)
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
            value = amp * math.sqrt(math.perm(m + k, k) * math.perm(n + k, k))
        out[(m + k, n + k)] = value
    return HermiteCoeffs(out, u.normalization)


def apply_operator(k: int, c, u: HermiteCoeffs) -> HermiteCoeffs:
    """(∂^k∂̄^k + c) u = lower(k, u) + c·u, linear and context-preserving."""
    if u.exact:
        c = ExactScalar.coerce(c)
    elif isinstance(c, (int, Fraction, ExactScalar)):
        c = ExactScalar.coerce(c).to_complex()
    return lower(k, u).plus(u.scaled(c))
