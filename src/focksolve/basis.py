"""Complex Hermite basis of L²(ℂ, e^{−|z|²}): polynomials, norms and coefficient vectors.

The basis elements are the complex Hermite polynomials

    H_{m,n}(z, z̄) = Σ_{r=0}^{min(m,n)} (−1)^r r! C(m,r) C(n,r) z^{m−r} z̄^{n−r},

orthogonal under ⟨f, g⟩ = ∫ f̄ g e^{−|z|²} dσ with ‖H_{m,n}‖² = π·m!·n!.
The operator ∂^k∂̄^k lowers both indices by k with falling-factorial scaling,
and its weighted adjoint raises both indices by k with amplitude one; these
two shifts are what make the solver's chain decomposition possible.  The
solver applies them chain by chain; their entrywise actions on a vector are
the tests' reference oracles (``tests/oracles.py``).

Coefficient vectors (:class:`HermiteCoeffs`) come in two flavors:

* the exact context stores raw amplitudes (multiplying H_{m,n}) as
  :class:`~focksolve.ring.ExactScalar` values;
* the numeric context stores complex floats, raw (the CLI's files and
  ``to_raw``) or orthonormal (multiplying H_{m,n}/√(π·m!·n!)); the solver's
  orthonormal ones stay O(1), where raw ones under/overflow from index ≈ 85.

Every vector is stored as two read-only arrays in entry order, the
(entries × 2) int64 ``index`` of its (m, n) pairs and its ``values``
(complex, or ``object`` holding the exact amplitudes); its ``entries``
mapping is a read-only view built on first access.  The per-entry
constructor (over mappings) and ``HermiteCoeffs._from_array`` (over arrays)
both store through ``HermiteCoeffs._store``, which prunes numeric zeros
and refuses NaN and ±inf, with no threshold on the scale of the data.
Every vector is read as arrays through :meth:`HermiteCoeffs.arrays`, in
the vector's own normalization.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from .ring import ExactScalar, PolyZZbar

BasisIndex = Tuple[int, int]

RAW = "raw"
ORTHONORMAL = "orthonormal"

#: The largest n whose n! is a float: 171! is past float range.
FACTORIAL_TOP = 170
_FACTORIALS = np.array([float(math.factorial(i)) for i in range(FACTORIAL_TOP + 1)])
_FACTORIALS.setflags(write=False)


def sqrt_norm(m: int, n: int) -> float:
    """√(π·m!·n!) = ‖H_{m,n}‖ as a float; log-space once π·m!·n! leaves f64 range."""
    value = math.inf
    if max(m, n) <= FACTORIAL_TOP:
        value = math.sqrt(math.pi * math.factorial(m) * math.factorial(n))
    if value < math.inf:
        return value
    try:
        return math.exp(0.5 * (math.log(math.pi) + math.lgamma(m + 1) + math.lgamma(n + 1)))
    except OverflowError:
        return math.inf


def sqrt_norms(index: np.ndarray) -> np.ndarray:
    """:func:`sqrt_norm` at each row (m, n) of an (entries × 2) index array, bit for bit.

    √((π·m!)·n!) from the float factorial table is the scalar's own sequence
    of IEEE operations; where an index passes :data:`FACTORIAL_TOP` or the
    product overflows, the scalar's log-space path fills in.
    """
    m, n = index[:, 0], index[:, 1]
    factorials = _FACTORIALS[np.minimum(index, FACTORIAL_TOP)]
    with np.errstate(over="ignore"):
        norms = np.sqrt((math.pi * factorials[:, 0]) * factorials[:, 1])
    for i in np.flatnonzero((np.maximum(m, n) > FACTORIAL_TOP) | (norms == math.inf)).tolist():
        norms[i] = sqrt_norm(int(m[i]), int(n[i]))
    return norms


def _finite(value) -> bool:
    """|value| is a finite float: no NaN, ±inf or magnitude past float range, as in ``_store``."""
    value = complex(value)
    return math.isfinite(math.hypot(value.real, value.imag))


def index_array(keys) -> np.ndarray:
    """The (m, n) keys as one (entries × 2) int64 array; a key past int64 raises ``ValueError``."""
    try:
        return np.fromiter(chain.from_iterable(keys), np.int64, 2 * len(keys)).reshape(-1, 2)
    except OverflowError:
        past = next(key for key in keys if not -(2**63) <= min(key) <= max(key) < 2**63)
        raise ValueError(f"basis index {past} is past the int64 range") from None


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """complex(re, im) elementwise, every part kept bit for bit (signed zeros too)."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _quotient(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """values / norms by the formula of Python's ``complex / float``, bit for bit.

    That is ((re + im·0.0)/s, (im − re·0.0)/s), signed zeros included.
    """
    re, im = values.real, values.imag
    return _complex_array((re + im * 0.0) / norms, (im - re * 0.0) / norms)


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


class HermiteCoeffs:
    """Finitely supported coefficient vector over the complex Hermite basis.

    ``entries`` maps (m, n) to an amplitude.  Exact amplitudes
    (:class:`ExactScalar`) require the raw normalization, since the
    orthonormal rescaling by √(π·m!·n!) is irrational.  Every vector holds
    two read-only arrays in entry order, ``index`` (entries × 2, int64) and
    its values, complex or ``object`` holding the exact amplitudes; its
    ``entries`` is a read-only view built from them on first access.
    Zero entries are pruned on construction, exact or numeric; subnormal
    magnitudes are kept: no rule depends on the amplitudes' scale.  A float
    amplitude that is NaN, ±inf or of a magnitude past float range, and an
    index that is not integral or is past int64, raise ``ValueError``.
    :meth:`_store` prunes and refuses numeric amplitudes for both constructors.
    """

    __slots__ = ("_entries", "index", "_values", "normalization", "exact")

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
                saw_float = True
            else:
                amp = ExactScalar.coerce(amp)
                if amp.is_zero():
                    continue
                saw_exact = True
            # int-tuple keys are kept as given: rebuilding each costs a third of the loop
            if type(key) is not tuple or type(m) is not int or type(n) is not int:
                try:
                    key = (int(m), int(n))
                except (OverflowError, ValueError):  # an infinite or NaN float
                    key = None
                if key != (m, n):
                    raise ValueError(f"non-integral basis index ({m}, {n})")
            clean[key] = amp
        if saw_exact and saw_float:
            raise TypeError("cannot mix exact and floating amplitudes")
        if saw_exact and normalization != RAW:
            raise TypeError("exact amplitudes are stored in raw normalization only")
        self.normalization = normalization
        self.exact = saw_exact
        values = np.fromiter(clean.values(), object if saw_exact else complex, len(clean))
        self._store(index_array(clean), values)

    def _store(self, index: np.ndarray, values: np.ndarray) -> None:
        """Hold ``index`` and ``values`` read-only, and no dict until ``entries`` is read.

        The one numeric rule: prune zero magnitudes, refuse NaN and infinite ones.
        """
        if not self.exact:
            # with every part below max/2, no part is NaN or infinite and no
            # magnitude overflows: the magnitudes need not be formed
            if not np.abs(values.view(float)).max(initial=0.0) < sys.float_info.max / 2:
                with np.errstate(over="ignore", invalid="ignore"):
                    sizes = np.hypot(values.real, values.imag)
                bad = ~(sizes < math.inf)  # NaN or infinite
                if bad.any():
                    i = int(bad.argmax())
                    key = tuple(index[i].tolist())
                    raise ValueError(f"non-finite amplitude {values[i].item()} at index {key}")
            # a finite value has zero magnitude where it is zero
            if np.count_nonzero(values) < len(values):
                kept = values != 0
                index, values = index[kept], values[kept]
        self.index, self._values = _read_only(index, values)
        self._entries = None

    # ---- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, normalization: str = RAW) -> "HermiteCoeffs":
        return cls({}, normalization)

    @classmethod
    def basis_vector(cls, m: int, n: int, amplitude=1, normalization: str = RAW) -> "HermiteCoeffs":
        return cls({(m, n): amplitude}, normalization)

    @classmethod
    def _from_array(cls, index: np.ndarray, values: np.ndarray, normalization: str) -> "HermiteCoeffs":
        """The numeric vector of ``values`` at the rows of ``index``, pruned and checked.

        ``index`` is an (entries × 2) int64 array of distinct nonnegative
        pairs.  Pruning and the refusal of a non-finite amplitude are
        :meth:`_store`'s, as for the per-entry constructor.  The writer of
        every numeric vector the library builds from arrays.
        """
        self = cls.__new__(cls)
        self.normalization, self.exact = normalization, False
        self._store(index, values)
        return self

    # ---- structure ----------------------------------------------------------

    @property
    def entries(self) -> Mapping[BasisIndex, object]:
        """(m, n) → amplitude in entry order, a read-only view."""
        if self._entries is None:
            keys = zip(self.index[:, 0].tolist(), self.index[:, 1].tolist())
            self._entries = MappingProxyType(dict(zip(keys, self._values.tolist())))
        return self._entries

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(index, values): the vector's own read-only ``index`` and its amplitudes.

        Both are in entry order.  The amplitudes are one complex array in
        the vector's own normalization; exact ones are converted to floats.
        A numeric vector returns its own read-only values.
        """
        if self.exact:
            values = (amp.to_complex() for amp in self._values)
            return self.index, np.fromiter(values, complex, len(self))
        return self.index, self._values

    def __len__(self) -> int:
        return len(self._values)

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
        """Rescale to orthonormal amplitudes (floating point).

        Each amplitude is multiplied by √(π·m!·n!) by the formula of Python's
        ``complex * float``, (re·s − im·0.0, re·0.0 + im·s): the per-entry
        product bit for bit, signed zeros included.
        """
        if self.normalization == ORTHONORMAL:
            return self
        index, values = self.arrays()
        norms = sqrt_norms(index)
        re, im = values.real, values.imag
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = _complex_array(re * norms - im * 0.0, re * 0.0 + im * norms)
        return HermiteCoeffs._from_array(index, scaled, ORTHONORMAL)

    def to_raw(self) -> "HermiteCoeffs":
        """Rescale to raw amplitudes (floating point when starting orthonormal).

        A raw amplitude must be a normal float.  One whose quotient is below
        ``sys.float_info.min`` raises ``ValueError`` naming its index and value
        where √(π·m!·n!) is past float range or the amplitude is at least 2⁻⁵²
        of the largest; smaller ones are below the vector's rounding and pruned.
        """
        if self.normalization == RAW:
            return self
        index, amps = self.arrays()
        norms = sqrt_norms(index)
        values = _quotient(amps, norms)
        sizes = np.hypot(amps.real, amps.imag)
        quotients = np.hypot(values.real, values.imag)
        unheld = quotients < sys.float_info.min
        refused = unheld & ((norms == math.inf) | (sizes >= sizes.max(initial=0.0) * 2.0**-52))
        if refused.any():
            i = int(refused.argmax())
            m, n = index[i].tolist()
            raise ValueError(
                f"the raw amplitude at index ({m}, {n}) is below the normal float range: "
                f"|b|/√(π·m!·n!) = {sizes[i]:.3e}/{norms[i]:.3e} = {quotients[i]:.3e}"
            )
        values[unheld] = 0.0
        return HermiteCoeffs._from_array(index, values, RAW)


def to_hermite(p: PolyZZbar) -> HermiteCoeffs:
    """Exact change of basis from monomials to Hermite coefficients.

    Closed form z^a z̄^b = Σ_{r=0}^{min(a,b)} r!·C(a,r)·C(b,r)·H_{a−r,b−r},
    summed over the terms of p.  Keys come out by descending total degree,
    then descending (a, b).  Inverse of :func:`to_monomial`.
    """
    out: dict = {}
    for (a, b), coeff in p.terms.items():
        for r in range(min(a, b) + 1):
            key = (a - r, b - r)
            value = coeff * (math.factorial(r) * math.comb(a, r) * math.comb(b, r))
            out[key] = out[key] + value if key in out else value
    order = sorted(out, key=lambda ab: (ab[0] + ab[1], ab), reverse=True)
    return HermiteCoeffs([(key, out[key]) for key in order], RAW)


def to_monomial(u: HermiteCoeffs) -> PolyZZbar:
    """Exact evaluation of Σ a_{m,n} H_{m,n} as a polynomial in (z, z̄)."""
    if not u.exact and len(u):
        raise TypeError("to_monomial requires exact amplitudes")
    if u.normalization != RAW:
        raise TypeError("to_monomial requires raw normalization")
    total = PolyZZbar.zero()
    for (m, n), amp in u.entries.items():
        total = total + amp * hermite_polynomial((m, n))
    return total
