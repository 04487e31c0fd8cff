"""Pointwise evaluation, quadrature projection, and finite-difference checks.

Evaluation walks the orthonormal ψ_{m,n} = H_{m,n}/√(π·m!·n!), without the
Gaussian factor, so that every caller keeps its own weights.  Along each
offset α = m − n the diagonal three-term recurrence of H_{m,n}, scaled by
the norms, reads

    √((n+1)(n+1+α))·ψ_{n+1+α,n+1} = (|z|² − (2n+α+1))·ψ_{n+α,n} − √(n(n+α))·ψ_{n+α−1,n−1}

from ψ_{α,0} = ψ_{α−1,0}·z/√α, ψ_{0,0} = 1/√π, and mirrors by conjugation,
ψ_{n,m} = conj(ψ_{m,n}) (Gil, Segura & Temme, *Numerical Methods for
Special Functions*, ch. 4).  In the oscillatory region a row-by-row walk
cancels catastrophically (eight lost digits near |z|² ≈ 20 at index 20);
the diagonal walk is stable, and its values stay in float range at indices
where H_{m,n} and π·m!·n! do not.

Full-plane integrals against e^{−|z|²} are done in polar form with t = r²
(dσ = ½ dt dθ): Gauss-Laguerre in t absorbs the
Gaussian, and a uniform trapezoid rule in θ is exact for trigonometric
polynomials, so polynomial-times-Gaussian integrals are exact at finite node
counts.  Disk integrals keep the plain area measure: Gauss-Legendre in r with
the explicit r dr factor, uniform nodes in θ, and any Gaussian factor carried
by the integrand.  Both rules are polar products whose weights depend on the
radius alone, and ψ_{n+α,n}(r·e^{iθ}) = e^{iαθ}·ψ_{n+α,n}(r), so projection
and quadrature norms on a rule take an FFT in θ and walk the radii only.

:func:`synthesize`, :func:`project` and :func:`scaled_quadrature_norm_sq`
share the one walk.  Synthesis and the quadrature norm read u's orthonormal
amplitudes from one flat offset-major array (:func:`_offset_major`), whose
size follows u's support, and :func:`project` returns orthonormal
coefficients, so no raw amplitude is formed.  The quadrature norm comes as a
scaled sum and its power of two; :func:`unscale` gives the float.

The finite-difference residual uses 4·∂∂̄ = Δ: the five-point discrete
Laplacian over four, plus c, applied to a synthesized solution, is an
independent order-h² check of the spectral solve at k = 1.
:func:`fd_residual_rows` returns its samples on a grid's interior.  A
residual that leaves the float range raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Tuple

import numpy as np

from .basis import ORTHONORMAL, HermiteCoeffs, _finite

FULL_PLANE = "full_plane"
DISK = "disk"

PARSEVAL_TOL = 1e-6


class QuadratureResolutionError(ValueError):
    """Raised when a quadrature rule is too coarse for the requested data."""


@lru_cache(maxsize=8)
def _legendre(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss–Legendre nodes and weights on [−1, 1], computed once per node count."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    wx.setflags(write=False)
    return x, wx


@dataclass(frozen=True)
class QuadratureRule:
    """Polar product rule with R radial and A angular nodes.

    The full-plane rule integrates z^a z̄^b e^{−|z|²} exactly (to rounding)
    whenever a + b ≤ 2R − 1 and |a − b| < A.
    """

    radial_nodes: int
    angular_nodes: int
    domain: str = FULL_PLANE
    center: complex = 0j
    radius: float = 0.0

    def __post_init__(self):
        if self.radial_nodes < 1 or self.angular_nodes < 1:
            raise ValueError("node counts must be positive")
        if self.domain not in (FULL_PLANE, DISK):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == DISK and not 0 < self.radius < math.inf:
            raise ValueError(f"disk radius {self.radius} must be positive and finite")
        if not _finite(self.center):
            raise ValueError(f"center {self.center} is not finite")

    @classmethod
    def full_plane(cls, radial_nodes: int, angular_nodes: int) -> "QuadratureRule":
        return cls(radial_nodes, angular_nodes, FULL_PLANE)

    @classmethod
    def disk(
        cls, center: complex, radius: float, radial_nodes: int, angular_nodes: int
    ) -> "QuadratureRule":
        return cls(radial_nodes, angular_nodes, DISK, complex(center), float(radius))

    def refined(self) -> "QuadratureRule":
        """The same rule with twice the radial and angular nodes."""
        return QuadratureRule(
            2 * self.radial_nodes, 2 * self.angular_nodes, self.domain, self.center, self.radius
        )

    @cached_property
    def polar(self):
        """Read-only arrays (r, w): the R radii about the centre and one weight per radius.

        The rule's node at (i, j) is centre + r_i·e^{2πij/A} with weight w_i.
        Full plane: Gauss-Laguerre in t = r², the Gaussian absorbed.
        Disk:       Gauss-Legendre in r with the r dr factor (plain area measure).
        """
        if self.domain == FULL_PLANE:
            t, wt = np.polynomial.laguerre.laggauss(self.radial_nodes)
            r, w = np.sqrt(t), wt * (math.pi / self.angular_nodes)
        else:
            x, wx = _legendre(self.radial_nodes)
            r = 0.5 * self.radius * (x + 1.0)
            w = 0.5 * self.radius * wx * r * (2.0 * math.pi / self.angular_nodes)
        r.setflags(write=False)
        w.setflags(write=False)
        return r, w

    @cached_property
    def points_and_weights(self):
        """Flat read-only arrays (z, w) of the R·A nodes, radius-major, generated once per rule.

        Full plane: Σ w·g(z) ≈ ∫ g(z) e^{−|z|²} dσ (Gaussian absorbed).
        Disk:       Σ w·g(z) ≈ ∫_U g(z) dσ (plain area measure).
        """
        r, wr = self.polar
        theta = 2.0 * math.pi * np.arange(self.angular_nodes) / self.angular_nodes
        z = np.outer(r, np.exp(1j * theta)).ravel()
        if self.domain == DISK:
            z = self.center + z
        w = np.repeat(wr, self.angular_nodes)
        # the arrays are shared by every caller of this rule
        z.setflags(write=False)
        w.setflags(write=False)
        return z, w


#: The most float cells one input may size, applied by three checks to their own
#: counts: a certification, probe or disk truncation M's box, (M + 1)² (so
#: M ≤ 1447); a disk solve's doubled rule, 4·R·A nodes plus leggauss's 4·R²
#: companion matrix (R = A = 512, or R up to 723 with few angles); and a
#: finite-difference grid's nx·ny nodes.
CELL_BUDGET = 2**21


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid for finite-difference checks, at most :data:`CELL_BUDGET` nodes."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max, self.h))):
            raise ValueError("grid bounds and step must be finite")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid bounds must be increasing")
        if self.h <= 0:
            raise ValueError("grid step must be positive")
        # steps per side as floats first: they may be inf, or too many to round to an int
        steps = ((self.x_max - self.x_min) / self.h, (self.y_max - self.y_min) / self.h)
        if not max(steps) <= CELL_BUDGET or math.prod(self.shape) > CELL_BUDGET:
            raise ValueError(f"the grid has more than {CELL_BUDGET:,} nodes")

    @property
    def shape(self) -> Tuple[int, int]:
        """(nx, ny): the node counts along x and y."""
        nx = int(round((self.x_max - self.x_min) / self.h)) + 1
        ny = int(round((self.y_max - self.y_min) / self.h)) + 1
        return nx, ny

    def mesh(self):
        nx, ny = self.shape
        xs = self.x_min + self.h * np.arange(nx)
        ys = self.y_min + self.h * np.arange(ny)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        return xx + 1j * yy


def _orthonormal_walk(z, lengths):
    """Yield ((m, n), ψ_{m,n}(z)) for m = n + α, α = 0, 1, … and n < lengths[α].

    ψ_{m,n} = H_{m,n}/√(π·m!·n!), without the Gaussian factor.  Each offset
    starts from ψ_{α,0} = ψ_{α−1,0}·z/√α, ψ_{0,0} = 1/√π, and steps the
    three-term recurrence with its coefficients computed once per offset.
    Works for scalar z or numpy arrays, with O(1) live values per offset.
    """
    t = np.real(z * np.conjugate(z))
    start = np.full(np.shape(z), 1.0 / math.sqrt(math.pi))
    for alpha, length in enumerate(lengths):
        if alpha:
            start = start * z / math.sqrt(alpha)
        if not length:
            continue
        yield (alpha, 0), start
        n = np.arange(length - 1)
        steps = zip(
            (2 * n + alpha + 1).tolist(),
            np.sqrt(n * (n + alpha)).tolist(),
            np.sqrt((n + 1) * (n + 1 + alpha)).tolist(),
        )
        x_prev, x = 0.0, start
        for m, (shift, down, up) in enumerate(steps, alpha + 1):
            x_prev, x = x, ((t - shift) * x - down * x_prev) / up
            yield (m, m - alpha), x


def _radial_blocks(r: np.ndarray, lengths):
    """Yield (α, rows) for each offset α, with rows[n] = ψ_{n+α,n}(r) for n < lengths[α].

    In polar form ψ_{n+α,n}(r·e^{iθ}) = e^{iαθ}·ψ_{n+α,n}(r), and the walk keeps
    real points real, so each offset's rows carry its angular dependence in
    e^{iαθ}.  One offset is held at a time: O(M·R) memory.
    """
    walk = _orthonormal_walk(r, lengths)
    for alpha, length in enumerate(lengths):
        yield alpha, np.array([next(walk)[1] for _ in range(length)]).reshape(length, len(r))


def _offset_major(u: HermiteCoeffs):
    """(coef, lengths, start): u's orthonormal amplitudes by offset, and each offset's reach and place.

    lengths[α] is one past the largest n of u's support on offset α, for α up
    to the largest offset.  Offset α takes lengths[α] consecutive entries
    from start[α] = Σ_{β<α} lengths[β] of one (2, Σ lengths) array:
    ψ_{n+α,n} sits at coef[0, start[α] + n] and its mirror ψ_{n,n+α} at
    coef[1, start[α] + n], zero off u's support: Σ lengths entries, not
    (M + 1)² for M the largest index.
    """
    index, values = u.to_orthonormal().arrays()
    m, n = index[:, 0], index[:, 1]
    alpha, low = np.abs(m - n), np.minimum(m, n)
    lengths = np.zeros(int(alpha.max(initial=-1)) + 1, dtype=np.intp)
    np.maximum.at(lengths, alpha, low + 1)
    start = np.concatenate(([0], np.cumsum(lengths)))
    coef = np.zeros((2, int(start[-1])), dtype=complex)
    coef[(m < n).astype(np.intp), start[alpha] + low] = values
    return coef, lengths.tolist(), start.tolist()


def synthesize(u: HermiteCoeffs, z) -> complex:
    """Pointwise value Σ a_{m,n} H_{m,n}(z); linear in u, works on arrays."""
    total = np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
    coef, lengths, start = _offset_major(u)
    lower, upper = coef.tolist()
    for (m, n), value in _orthonormal_walk(z, lengths):
        i = start[m - n] + n
        total = total + lower[i] * value + upper[i] * np.conjugate(value)
    return total


def project(
    f: Callable,
    M: int,
    rule: QuadratureRule,
    check_parseval: bool = True,
) -> Tuple[HermiteCoeffs, float]:
    """Quadrature projection onto the orthonormal ψ_{m,n} = H_{m,n}/√(π·m!·n!), indices ≤ M.

    Returns orthonormal coefficients b_{m,n} = ⟨ψ_{m,n}, f⟩ for any M ≥ 0.  A
    full-plane rule projects f in the weight e^{−|z|²}.  A disk rule
    projects the zero extension of f off the disk in the weight centered on
    the disk, e^{−|z−z₀|²}, onto ψ_{m,n}(z − z₀).  For polynomial f of degree
    ≤ d, a full-plane rule with R ≥ d + M + 1 and A ≥ 2(d + M) + 1 reproduces
    the exact basis change to rounding.

    f is evaluated once on the rule's nodes.  On each radius the angular sum
    Σ_j f·e^{∓iαθ_j} of the pairing with ψ_{n+α,n} (or its mirror ψ_{n,n+α})
    is bin ±α mod A of the FFT of f along θ, exactly, so the walk runs over
    the R radii only: O(RA log A + M²R) work, aliasing as in the node sum.

    Also returns the signed Parseval defect (‖f‖² − Σ|b|²)/‖f‖², ‖f‖ in the
    projection's weight, taken on f's power-of-two scale (:func:`scale_down`)
    and 0 for zero data.  With ``check_parseval`` a defect above 1e−6 in
    magnitude raises :class:`QuadratureResolutionError`.  Values of f whose
    weighted sum of |f|² leaves the float range raise ``ValueError`` before the FFT.
    """
    if M < 0:
        raise ValueError(f"projection index bound M = {M} must be nonnegative")
    z, _ = rule.points_and_weights
    r, wr = rule.polar
    A = rule.angular_nodes
    with np.errstate(over="ignore", invalid="ignore"):
        # f may return a scalar: the zero polynomial evaluates to 0j
        fv = np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape).reshape(len(r), A)
        if rule.domain == DISK:
            # the centered Gaussian depends on the radius alone
            wr = wr * np.exp(-r * r)
        fs, e = scale_down(fv)
        norm_sq = float(np.dot(wr, np.sum(fs.real**2 + fs.imag**2, axis=1)))
    weighted = unscale(norm_sq, 2 * e)
    if not weighted < math.inf:
        raise ValueError(f"f leaves the float range on the quadrature nodes: sum w·|f|² = {weighted}")
    spectrum = np.fft.fft(fv, axis=1) * wr[:, None]

    index, values = [], []
    for alpha, rows in _radial_blocks(r, range(M + 1, 0, -1)):
        n = np.arange(M + 1 - alpha)
        index.append(np.stack((n + alpha, n), axis=1))
        values.append(rows @ spectrum[:, alpha % A])
        if alpha:
            # conj(ψ_{n,m}) = ψ_{m,n}: the mirror coefficients from bin −α
            index.append(np.stack((n, n + alpha), axis=1))
            values.append(rows @ spectrum[:, -alpha % A])
    values = np.concatenate(values)
    scaled = np.ldexp(values.view(float), -e).view(complex)
    mass = float(np.sum(scaled.real**2 + scaled.imag**2))
    defect = (norm_sq - mass) / norm_sq if norm_sq > 0 else 0.0
    if check_parseval and abs(defect) > PARSEVAL_TOL:
        raise QuadratureResolutionError(
            f"Parseval defect {abs(defect):.3e} exceeds {PARSEVAL_TOL:.0e}; "
            f"rule R={rule.radial_nodes}, A={rule.angular_nodes} under-resolves"
        )
    return HermiteCoeffs._from_array(np.concatenate(index), values, ORTHONORMAL), defect


def scale_down(values) -> Tuple[np.ndarray, int]:
    """(values·2^−e, e) for complex ``values``, with 2^e just above the largest part.

    A power-of-two scale is exact, so the squares of the scaled values are
    those of ``values`` times 2^−2e, and none is subnormal where the largest
    is not.  e is 0 where the largest part is 0, infinite or NaN.
    """
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    peak = float(np.max(np.abs(parts), initial=0.0))
    e = math.frexp(peak)[1] if math.isfinite(peak) else 0
    return np.ldexp(parts, -e).view(complex), e


def unscale(value: float, exponent: int) -> float:
    """value·2^exponent; ±inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent))


def scaled_quadrature_norm_sq(u: HermiteCoeffs, rule: QuadratureRule) -> Tuple[float, int]:
    """(q, x) with q·2^x the quadrature of |u|², q computed without subnormal squares.

    No node values are formed.  On a radius u(r·e^{iθ}) = Σ_α G_α(r)·e^{iαθ},
    where G_α(r) sums b_{m,n}·ψ_{m,n}(r) over m − n = α, and on A uniform
    angles Parseval gives Σ_j |u|² = A·Σ_b |Σ_{α ≡ b mod A} G_α(r)|², summed
    from the spectrum scaled by :func:`scale_down`.
    """
    r, wr = rule.polar
    A = rule.angular_nodes
    coef, lengths, start = _offset_major(u)
    spectrum = np.zeros((A, len(r)), dtype=complex)
    for alpha, rows in _radial_blocks(r, lengths):
        block = coef[:, start[alpha] : start[alpha + 1]]
        spectrum[alpha % A] += block[0] @ rows
        spectrum[-alpha % A] += block[1] @ rows
    spectrum, e = scale_down(spectrum)
    return float(A * np.dot(wr, np.sum(spectrum.real**2 + spectrum.imag**2, axis=0))), 2 * e


def _laplacian_residual(
    u: HermiteCoeffs, f: HermiteCoeffs, c: complex, grid: GridSpec
):
    """The interior nodes and the residual (Δ/4 + c)u − f there.

    Values of u or f near the float limit overflow the stencil: a residual
    that is not finite raises ``ValueError``.
    """
    zz = grid.mesh()
    with np.errstate(over="ignore", invalid="ignore"):
        uv = synthesize(u, zz)
        fv = synthesize(f, zz)
        h2 = grid.h * grid.h
        lap = (
            uv[2:, 1:-1] + uv[:-2, 1:-1] + uv[1:-1, 2:] + uv[1:-1, :-2] - 4.0 * uv[1:-1, 1:-1]
        ) / h2
        res = lap / 4.0 + c * uv[1:-1, 1:-1] - fv[1:-1, 1:-1]
    if not np.isfinite(res).all():
        raise ValueError("the finite-difference residual leaves the float range on this grid")
    return zz[1:-1, 1:-1], res


def fd_residual_rows(
    u: HermiteCoeffs, f: HermiteCoeffs, c: complex, grid: GridSpec
):
    """Interior residual samples as (x, y, re, im) rows for CSV export."""
    zz, res = _laplacian_residual(u, f, complex(c), grid)
    return np.stack([zz.real, zz.imag, res.real, res.imag], axis=-1).reshape(-1, 4).tolist()
