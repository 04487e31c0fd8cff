"""Pointwise evaluation, quadrature projection, and finite-difference checks.

Evaluation of the complex Hermite basis rests on the two coupled recurrences

    H_{m+1,n} = z·H_{m,n} − n·H_{m,n−1}
    H_{m,n+1} = z̄·H_{m,n} − m·H_{m−1,n}

starting from H_{0,0} = 1.  Composing one step of each gives the diagonal
three-term form

    H_{m+1,n+1} = (|z|² − (m+n+1))·H_{m,n} − m·n·H_{m−1,n−1},

which walks the index lattice along (1, 1) from the pure powers H_{α,0} = z^α
(and mirrors by conjugation, H_{n,m} = conj(H_{m,n})).  The diagonal form is
used for floating evaluation: in the oscillatory region the row-by-row walk
cancels catastrophically (eight lost digits near |z|² ≈ 20 at index 20),
while the diagonal walk is the classical stable three-term recurrence and
stays within a few ulp of the exact value.

Full-plane integrals against e^{−|z|²} are done in polar form with t = r²
(dσ = ½ dt dθ): Gauss-Laguerre in t absorbs the
Gaussian, and a uniform trapezoid rule in θ is exact for trigonometric
polynomials, so polynomial-times-Gaussian integrals are exact at finite node
counts.  Disk integrals keep the plain area measure: Gauss-Legendre in r with
the explicit r dr factor, uniform nodes in θ, and any Gaussian factor carried
by the integrand.

The finite-difference residual uses 4·∂∂̄ = Δ: the five-point discrete
Laplacian over four, plus c, applied to a synthesized solution, is an
independent order-h² check of the spectral solve at k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .basis import RAW, HermiteCoeffs, sqrt_norm

FULL_PLANE = "full_plane"
DISK = "disk"

PARSEVAL_TOL = 1e-6


class QuadratureResolutionError(ValueError):
    """Raised when a quadrature rule is too coarse for the requested data."""


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
        if self.domain == DISK and self.radius <= 0:
            raise ValueError("disk radius must be positive")

    @classmethod
    def full_plane(cls, radial_nodes: int, angular_nodes: int) -> "QuadratureRule":
        return cls(radial_nodes, angular_nodes, FULL_PLANE)

    @classmethod
    def disk(
        cls, center: complex, radius: float, radial_nodes: int, angular_nodes: int
    ) -> "QuadratureRule":
        return cls(radial_nodes, angular_nodes, DISK, complex(center), float(radius))

    def refined(self, factor: int = 2) -> "QuadratureRule":
        return QuadratureRule(
            self.radial_nodes * factor,
            self.angular_nodes * factor,
            self.domain,
            self.center,
            self.radius,
        )

    def points_and_weights(self):
        """Flat read-only arrays (z, w), generated once per rule.

        Full plane: Σ w·g(z) ≈ ∫ g(z) e^{−|z|²} dσ (Gaussian absorbed).
        Disk:       Σ w·g(z) ≈ ∫_U g(z) dσ (plain area measure).
        """
        return self._nodes

    @cached_property
    def _nodes(self):
        theta = 2.0 * math.pi * np.arange(self.angular_nodes) / self.angular_nodes
        phase = np.exp(1j * theta)
        if self.domain == FULL_PLANE:
            t, wt = np.polynomial.laguerre.laggauss(self.radial_nodes)
            r = np.sqrt(t)
            z = np.outer(r, phase).ravel()
            w = np.outer(wt * (math.pi / self.angular_nodes), np.ones_like(theta)).ravel()
        else:
            x, wx = np.polynomial.legendre.leggauss(self.radial_nodes)
            r = 0.5 * self.radius * (x + 1.0)
            wr = 0.5 * self.radius * wx * r * (2.0 * math.pi / self.angular_nodes)
            z = self.center + np.outer(r, phase).ravel()
            w = np.outer(wr, np.ones_like(theta)).ravel()
        # the arrays are shared by every caller of this rule
        z.setflags(write=False)
        w.setflags(write=False)
        return z, w


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid for finite-difference checks."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h: float

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid bounds must be increasing")
        if self.h <= 0:
            raise ValueError("grid step must be positive")

    def axes(self):
        nx = int(round((self.x_max - self.x_min) / self.h)) + 1
        ny = int(round((self.y_max - self.y_min) / self.h)) + 1
        xs = self.x_min + self.h * np.arange(nx)
        ys = self.y_min + self.h * np.arange(ny)
        return xs, ys

    def mesh(self):
        xs, ys = self.axes()
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        return xx + 1j * yy


def hermite_lower_walk(M: int, z):
    """Yield ((m, n), H_{m,n}(z)) over the triangle 0 ≤ n ≤ m ≤ M.

    Walks each diagonal offset α = m − n with the stable three-term
    recurrence; the upper triangle follows by conjugation since the
    coefficients of H_{m,n} are real and symmetric under index swap.
    Works for scalar z or numpy arrays, with O(1) live values per offset.
    """
    t = np.real(z * np.conjugate(z))
    for alpha in range(M + 1):
        x = z**alpha
        yield (alpha, 0), x
        x_prev = 0.0 * x
        for n in range(M - alpha):
            x_prev, x = x, (t - (2 * n + alpha + 1)) * x - (n * (n + alpha)) * x_prev
            yield (n + 1 + alpha, n + 1), x


def synthesize(u: HermiteCoeffs, z) -> complex:
    """Pointwise value Σ a_{m,n} H_{m,n}(z); linear in u, works on arrays."""
    if not u.entries:
        return np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
    mmax, nmax = u.max_index()

    def coeff_at(m, n):
        amp = u.entries.get((m, n))
        if amp is None:
            return None
        if u.normalization == RAW:
            return amp.to_complex() if u.exact else amp
        coeff = amp / sqrt_norm(m, n)
        # a raw amplitude that underflows cannot contribute; skipping it also
        # avoids 0·inf once H values leave the f64 range at extreme indices
        return coeff if coeff != 0 else None

    total = np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
    for (m, n), value in hermite_lower_walk(max(mmax, nmax), z):
        coeff = coeff_at(m, n)
        if coeff is not None:
            total = total + coeff * value
        if m != n:
            mirror = coeff_at(n, m)
            if mirror is not None:
                total = total + mirror * np.conjugate(value)
    return total


def project(
    f: Callable,
    M: int,
    rule: QuadratureRule,
    check_parseval: bool = True,
) -> Tuple[HermiteCoeffs, float]:
    """Quadrature projection a_{m,n} = ⟨H_{m,n}, f⟩ / (π·m!·n!) onto indices ≤ M.

    A full-plane rule projects f in the weight e^{−|z|²}.  A disk rule
    projects the zero extension of f off the disk in the weight centered on
    the disk, e^{−|z−z₀|²}, onto H_{m,n}(z − z₀).  For polynomial f of degree
    ≤ d, a full-plane rule with R ≥ d + M + 1 and A ≥ 2(d + M) + 1 reproduces
    the exact basis change to rounding.

    Returns the raw coefficients and the signed Parseval defect
    (‖f‖² − coefficient mass)/‖f‖², both norms in the projection's weight.
    With ``check_parseval`` a defect above 1e−6 in magnitude raises
    :class:`QuadratureResolutionError`.
    """
    z, w = rule.points_and_weights()
    fv = np.asarray(f(z), dtype=complex)
    if rule.domain == DISK:
        z = z - rule.center
        w = w * np.exp(-np.real(z * np.conjugate(z)))
    wf = w * fv
    norm_sq = float(np.real(np.sum(w * fv * np.conjugate(fv))))

    coeffs = {}
    mass = 0.0
    for (m, n), h in hermite_lower_walk(M, z):
        weight = math.pi * math.factorial(m) * math.factorial(n)
        a = complex(np.sum(np.conjugate(h) * wf)) / weight
        coeffs[(m, n)] = a
        mass += weight * abs(a) ** 2
        if m != n:
            # conj(H_{n,m}) = H_{m,n}: the mirror coefficient from the same walk
            b = complex(np.sum(h * wf)) / weight
            coeffs[(n, m)] = b
            mass += weight * abs(b) ** 2
    defect = (norm_sq - mass) / max(norm_sq, 1e-300)
    if check_parseval and abs(defect) > PARSEVAL_TOL:
        raise QuadratureResolutionError(
            f"Parseval defect {abs(defect):.3e} exceeds {PARSEVAL_TOL:.0e}; "
            f"rule R={rule.radial_nodes}, A={rule.angular_nodes} under-resolves"
        )
    return HermiteCoeffs(coeffs, RAW), defect


def quadrature_norm_sq(u: HermiteCoeffs, rule: QuadratureRule) -> float:
    """Full-plane quadrature of |synthesize(u, ·)|² e^{−|z|²}."""
    z, w = rule.points_and_weights()
    values = synthesize(u, z)
    return float(np.real(np.sum(w * values * np.conjugate(values))))


def _laplacian_residual(
    u: HermiteCoeffs, f: HermiteCoeffs, c: complex, grid: GridSpec
):
    zz = grid.mesh()
    uv = synthesize(u, zz)
    fv = synthesize(f, zz)
    h2 = grid.h * grid.h
    lap = (
        uv[2:, 1:-1] + uv[:-2, 1:-1] + uv[1:-1, 2:] + uv[1:-1, :-2] - 4.0 * uv[1:-1, 1:-1]
    ) / h2
    return zz[1:-1, 1:-1], lap / 4.0 + c * uv[1:-1, 1:-1] - fv[1:-1, 1:-1]


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


def fd_residual_rows(
    u: HermiteCoeffs, f: HermiteCoeffs, c: complex, grid: GridSpec
):
    """Interior residual samples as (x, y, re, im) rows for CSV export."""
    zz, res = _laplacian_residual(u, f, complex(c), grid)
    rows = []
    for i in range(zz.shape[0]):
        for j in range(zz.shape[1]):
            point = zz[i, j]
            value = res[i, j]
            rows.append((float(point.real), float(point.imag), float(value.real), float(value.imag)))
    return rows
