"""Minimum-norm spectral solver for (∂^k∂̄^k + c) u = f in the Hermite basis.

Because ∂^k∂̄^k shifts both basis indices down by k (with falling-factorial
scaling) and multiplication by c leaves them fixed, the coefficient equations
decouple into one-dimensional chains along the direction (k, k): starting
from an origin (m₀, n₀) with m₀ < k or n₀ < k, the unknowns u_j at indices
(m₀ + jk, n₀ + jk) satisfy the bidiagonal system

    c·u_j + A_j·u_{j+1} = f_j,      A_j = ((m₀+(j+1)k)! / (m₀+jk)!) · (n analog).

Each chain is solved for its minimum weighted-norm solution: in exact
arithmetic by projecting the forward particular solution against the
one-dimensional homogeneous family, in floating point by an orthogonal
(Givens) factorization in orthonormal coordinates, where the couplings
become √A_j and every stored quantity stays O(1).  Past the box the data
vanish, so each chain's infinite tail is fixed by its edge entry and the
infinite minimum-norm problem closes exactly into a finite one.

The certified solve reports the residual, the norms, and the bound ratio
u_norm·k!/f_norm, which the construction keeps ≤ 1 (squared norms contract
by 1/(k!)², with equality at f = H_{0,0} for c = 0).  Scaled-weight and
bounded-domain variants reduce to the same solve by change of variables and
by zero-extension plus disk-quadrature projection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from .basis import ORTHONORMAL, BasisIndex, HermiteCoeffs
from .numerics import (
    QuadratureResolutionError,
    QuadratureRule,
    project,
    synthesize,
)
from .ring import ExactScalar, PolyZZbar

BOUND_TOL = 1e-10
RESIDUAL_TOL = 1e-10

#: Shift values used by the certification sweep: zero, units, a mixed value,
#: and well-separated magnitudes up to 1e6.
CERTIFICATION_C_GRID = (
    0j,
    1 + 0j,
    -1 + 0j,
    1j,
    -1j,
    1 + 1j,
    10 + 0j,
    -10j,
    1e6 + 0j,
)

ExactLike = Union[int, Fraction, ExactScalar]


def _finite(value) -> bool:
    """|value| is a finite float: rejects NaN, ±inf and magnitudes that overflow."""
    value = complex(value)
    return math.isfinite(math.hypot(value.real, value.imag))


@dataclass
class ProblemSpec:
    """One certified solve: operator order k, shift c, truncation box, data f.

    The certified-solve precondition requires every index of f to satisfy
    m ≤ M − k and n ≤ M − k, so that the first out-of-box coupling only sees
    homogeneous tail, never data.
    """

    k: int
    c: complex
    truncation: int
    f: HermiteCoeffs

    def validate(self) -> HermiteCoeffs:
        """Check the problem; return f in orthonormal amplitudes, each one finite."""
        if not _finite(self.c):
            raise ValueError(f"shift c = {self.c} is not finite")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.truncation < self.k:
            raise ValueError("truncation must be at least k")
        margin = self.truncation - self.k
        for m, n in self.f.entries:
            if m > margin or n > margin:
                raise ValueError(
                    f"f has support at index ({m},{n}) outside the certified box "
                    f"[0,{margin}]² for truncation {self.truncation} and k {self.k}"
                )
        # finiteness is checked on the amplitudes the solve uses: a finite raw
        # amplitude can still overflow once scaled by √(π·m!·n!)
        try:
            f = self.f.to_orthonormal()
        except OverflowError as exc:
            raise ValueError(f"f has an amplitude that overflows a float: {exc}") from None
        for key, amp in f.entries.items():
            if not _finite(amp):
                raise ValueError(f"f has a non-finite orthonormal amplitude {amp} at index {key}")
        return f


@dataclass
class SolveReport:
    """Certification artifact for one solve.

    ``bound_ratio`` is u_norm·k!/f_norm; ``bound_holds`` iff it is at most
    1 + 1e−10.  ``residual_norm`` is the weighted norm, over the retained
    index box, of (∂^k∂̄^k + c)u − f.  ``u_norm`` is the weighted norm of the
    whole infinite-chain solution: the stored box and edge entries plus the
    tail past them.  ``tail_estimate`` is the exact weighted norm of that
    tail, which the coefficients do not store.
    """

    residual_norm: float
    f_norm: float
    u_norm: float
    bound_ratio: float
    bound_holds: bool
    truncation: int
    chain_count: int
    tail_estimate: float


def chain_origins(k: int, M: int):
    """Lexicographic origins (m₀ < k or n₀ < k) covering the box [0, M]²."""
    origins = []
    for m in range(M + 1):
        for n in range(M + 1):
            if m < k or n < k:
                origins.append((m, n))
    return origins


def _chain_length(origin: BasisIndex, k: int, M: int) -> int:
    return min((M - origin[0]) // k, (M - origin[1]) // k) + 1


# ---------------------------------------------------------------------------
# Chain solves


def _solve_chain_exact(
    couplings: Sequence[int], weights: Sequence[int], rhs: Sequence[ExactLike], c: ExactLike
) -> List[ExactScalar]:
    """Exact minimum-weighted-norm solution of one truncated chain: the rational oracle.

    ``couplings[j]`` is A_j, ``weights[j]`` the factorial product
    (m₀+jk)!·(n₀+jk)! carrying the squared-norm weight of position j, and
    ``rhs`` the raw data amplitudes at the chain positions.  Forward
    substitution from u₀ = 0 gives a particular solution p of the equations
    c·u_j + A_j·u_{j+1} = f_j (j = 0..L−2); the homogeneous family is spanned
    by h with h₀ = 1, h_{j+1} = −c·h_j/A_j.  The minimum-norm solution is
    p − (⟨h, p⟩_w / ⟨h, h⟩_w)·h, exactly.
    """
    c = ExactScalar.coerce(c)
    L = len(rhs)
    if L == 1:
        # No equations inside the chain; the minimum-norm choice is zero.
        return [ExactScalar(0)]
    p = [ExactScalar(0)]
    h = [ExactScalar(1)]
    for j in range(L - 1):
        a = couplings[j]
        p.append((rhs[j] - c * p[j]) / a)
        h.append(-(c * h[j]) / a)
    hp = ExactScalar(0)
    hh = Fraction(0)
    for j in range(L):
        w = weights[j]
        hp = hp + h[j].conjugate() * p[j] * w
        hh += h[j].abs2() * w
    t = -(hp / hh)
    return [p[j] + t * h[j] for j in range(L)]


def _min_norm_bidiagonal(
    c: complex, sa: Sequence[float], rhs: Sequence[complex]
) -> List[complex]:
    """Minimum-2-norm solution of c·u_j + sa_j·u_{j+1} = rhs_j, j = 0..L−2.

    Orthogonal factorization of the bidiagonal constraint matrix with Givens
    rotations; O(L) and backward stable, no normal equations formed.
    """
    L = len(rhs)
    if L == 1:
        return [0j]
    n_eq = L - 1
    cbar = complex(c).conjugate()
    # QR of the (L × n_eq) lower-bidiagonal adjoint matrix.
    r_diag = [0.0] * n_eq
    r_super = [0j] * max(n_eq - 1, 0)
    gamma = [0j] * n_eq
    sigma = [0.0] * n_eq
    alpha = cbar
    for j in range(n_eq):
        beta = sa[j]
        r = math.hypot(abs(alpha), beta)
        g = alpha / r
        s = beta / r
        r_diag[j] = r
        gamma[j] = g
        sigma[j] = s
        if j + 1 < n_eq:
            r_super[j] = s * cbar
            alpha = g * cbar
    # Forward substitution R^H y = rhs (R^H is lower bidiagonal).
    y = [0j] * n_eq
    for j in range(n_eq):
        acc = rhs[j]
        if j > 0:
            acc = acc - r_super[j - 1].conjugate() * y[j - 1]
        y[j] = acc / r_diag[j]
    # u = Q [y; 0]: apply the conjugated rotations in reverse order.
    u = list(y) + [0j]
    for j in range(n_eq - 1, -1, -1):
        vj = u[j]
        vj1 = u[j + 1]
        u[j] = gamma[j] * vj - sigma[j] * vj1
        u[j + 1] = sigma[j] * vj + gamma[j].conjugate() * vj1
    return u


# ---------------------------------------------------------------------------
# Certified solve


def _tail_weight(origin: BasisIndex, k: int, L: int, c: complex) -> float:
    """τ = Σ_{i≥1} Π_{l<i} |c|²/A_{L+l}: the chain's mass past u_L over |u_L|².

    Past the box the right-hand side is zero, so the infinite chain continues
    from u_L by u_{j+1} = −c·u_j/√A_j.  The series depends only on the chain
    and |c|² and converges super-factorially; inf once τ passes 1e300.
    """
    m0, n0 = origin
    c2 = abs(c) * abs(c)  # not abs(c) ** 2, which raises on overflow
    tau = 0.0
    term = 1.0
    j = L
    while True:
        a = math.perm(m0 + (j + 1) * k, k) * math.perm(n0 + (j + 1) * k, k)
        term *= c2 / a
        tau += term
        if tau > 1e300:
            return math.inf
        if a > c2 and term <= 1e-17 * tau:
            return tau
        j += 1


def _solve_chain_closed(
    origin: BasisIndex, k: int, sa: List[float], rhs: List[complex], c: complex
) -> Tuple[List[complex], complex, float]:
    """Minimum-norm solution of one infinite chain, closed exactly at the box edge.

    ``sa`` holds the L box couplings, the last one reaching the edge entry
    u_L.  The tail past u_L has mass |u_L|²·τ, so the infinite problem is the
    finite one in u_0..u_{L−1} and v = √(1+τ)·u_L, with the edge coupling
    divided by √(1+τ).  Returns u_0..u_L, v (whose square is the mass of u_L
    and its tail) and the norm of the tail past u_L.
    """
    tau = _tail_weight(origin, k, len(rhs), c)
    damp = math.sqrt(1.0 + tau)
    sol = _min_norm_bidiagonal(c, sa[:-1] + [sa[-1] / damp], rhs + [0j])
    v = sol[-1]
    sol[-1] = v / damp
    share = 1.0 if tau == math.inf else tau / (1.0 + tau)
    return sol, v, abs(v) * math.sqrt(share)


def _norm(values) -> float:
    """Euclidean norm of complex values, free of intermediate over- and underflow."""
    return math.hypot(*map(abs, values))


def solve(spec: ProblemSpec) -> Tuple[HermiteCoeffs, SolveReport]:
    """Minimum-norm solution of (∂^k∂̄^k + c) u = f on the truncation box.

    Returns orthonormal-normalized float coefficients together with the
    certification report.  Each chain is the minimum-norm solution of its
    infinite system, whose tail past the box is closed exactly (see
    :func:`_solve_chain_closed`); the coefficients hold the box plus the one
    edge entry per chain that the box equations see.  The residual is
    reported over the box equations, ``u_norm`` is the norm of the whole
    infinite-chain solution and ``tail_estimate`` the norm of its part past
    the stored entries.  The construction solves each chain independently and
    assembles deterministically, so chain processing order cannot affect any
    output bit.
    """
    f = spec.validate()
    k, M = spec.k, spec.truncation
    c = complex(spec.c)

    # Data in orthonormal coordinates with the common √π factor removed.
    sqrt_pi = math.sqrt(math.pi)
    data = {key: amp / sqrt_pi for key, amp in f.entries.items()}

    entries = {}
    u_values = []
    residuals = []
    tails = []
    origins = chain_origins(k, M)
    for origin in origins:
        L = _chain_length(origin, k, M)
        m0, n0 = origin
        rhs = []
        sa = []
        for j in range(L):
            m = m0 + j * k
            n = n0 + j * k
            rhs.append(data.get((m, n), 0j))
            sa.append(math.sqrt(math.perm(m + k, k) * math.perm(n + k, k)))
        sol, v, tail = _solve_chain_closed(origin, k, sa, rhs, c)
        u_values += sol[:L]
        u_values.append(v)
        tails.append(tail)
        for j, value in enumerate(sol):
            if abs(value) >= 1e-300:
                entries[(m0 + j * k, n0 + j * k)] = value * sqrt_pi
        # Box equations; the edge entry u_L enters through the last coupling.
        for j in range(L):
            residuals.append(c * sol[j] - rhs[j] + sa[j] * sol[j + 1])

    f_norm = _norm(data.values()) * sqrt_pi
    u_norm = _norm(u_values) * sqrt_pi
    ratio = 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm
    report = SolveReport(
        residual_norm=_norm(residuals) * sqrt_pi,
        f_norm=f_norm,
        u_norm=u_norm,
        bound_ratio=ratio,
        bound_holds=ratio <= 1.0 + BOUND_TOL,
        truncation=M,
        chain_count=len(origins),
        tail_estimate=_norm(tails) * sqrt_pi,
    )
    return HermiteCoeffs(entries, ORTHONORMAL), report


def dense_data(rng: random.Random, margin: int) -> HermiteCoeffs:
    """Dense complex Gaussian orthonormal data on the certified box [0, margin]²."""
    entries = {
        (m, n): complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        for m in range(margin + 1)
        for n in range(margin + 1)
    }
    return HermiteCoeffs(entries, ORTHONORMAL)


def operator_norm_probe(
    k: int, c, trials: int, M: int = 32, seed: int = 42
) -> float:
    """Empirical sup of u_norm/f_norm over data in the certified box.

    The first trial is the lowest basis direction H₀₀, which attains the
    supremum 1/k! at c = 0; the remaining trials draw dense complex Gaussian
    coefficients.  The returned value never exceeds 1/k! beyond rounding.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    best = 0.0
    for trial in range(trials):
        if trial == 0:
            f = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j, ORTHONORMAL)
        else:
            f = dense_data(rng, M - k)
        _, report = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
        if report.f_norm > 0:
            best = max(best, report.u_norm / report.f_norm)
    return best


def certify_sweep(k_min: int, k_max: int, trials: int, M: int, seed: int) -> List[dict]:
    """Worst bound ratio and relative residual per (k, c) over dense random data.

    Sweeps k = k_min..k_max and every shift of :data:`CERTIFICATION_C_GRID`,
    drawing ``trials`` data sets per cell from one stream seeded by ``seed``.
    Each row holds the cell, its worst ratio and residual, and whether every
    trial kept the bound and a relative residual ≤ 1e−10.
    """
    rng = random.Random(f"certify:{seed}")
    rows = []
    for k in range(k_min, k_max + 1):
        for c in CERTIFICATION_C_GRID:
            worst_ratio = 0.0
            worst_resid = 0.0
            holds = True
            for _ in range(trials):
                _, report = solve(ProblemSpec(k=k, c=c, truncation=M, f=dense_data(rng, M - k)))
                worst_ratio = max(worst_ratio, report.bound_ratio)
                rel = 0.0 if report.f_norm == 0 else report.residual_norm / report.f_norm
                worst_resid = max(worst_resid, rel)
                holds &= report.bound_holds and rel <= RESIDUAL_TOL
            rows.append(
                {
                    "k": k,
                    "c": {"re": c.real, "im": c.imag},
                    "max_bound_ratio": worst_ratio,
                    "max_relative_residual": worst_resid,
                    "all_hold": holds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Scaled weight e^{−λ²|z−z₀|²}


@dataclass
class ScaledProblem:
    """Solve posed in the variable w = λ(z − z₀); ``base`` holds the w-space data."""

    lam: float
    z0: complex
    base: ProblemSpec

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")


@dataclass
class ScaledSolution:
    """w-space coefficients plus the substitution metadata u(z) = λ^{−k}·v(λ(z−z₀))."""

    lam: float
    z0: complex
    prefactor: float
    v: HermiteCoeffs


@dataclass
class ScaledReport:
    """z-variable norm bookkeeping for the scaled solve.

    Squared norms transport from w-space by the exact Jacobian factor λ^{−2};
    the solution representative carries the extra λ^{−2k} from its prefactor.
    The certified inequality is sq_norm_ratio ≤ 1/(λ^k·k!)².
    """

    lam: float
    z0: complex
    base_report: SolveReport
    u_sq_norm_z: float
    f_sq_norm_z: float
    sq_norm_ratio: float
    bound_constant_sq: float
    bound_holds: bool


def solve_scaled(p: ScaledProblem) -> Tuple[ScaledSolution, ScaledReport]:
    """Solve against the weight e^{−λ²|z−z₀|²} by change of variables.

    The w-space problem keeps the data g(w) = f(z) and divides the shift by
    λ^{2k} (two derivatives of order k each pick up a factor λ^k); with
    λ = 1 and z₀ = 0 this is bit-identical to :func:`solve`.  The returned
    representative u(z) = λ^{−k} v(λ(z−z₀)) satisfies the certified squared-
    norm inequality with constant 1/(λ^k·k!)².
    """
    lam = float(p.lam)
    k = p.base.k
    scaled_c = complex(p.base.c) / lam ** (2 * k)
    v, base_report = solve(
        ProblemSpec(k=k, c=scaled_c, truncation=p.base.truncation, f=p.base.f)
    )
    jac = lam**-2
    u_sq = lam ** (-2 * k) * base_report.u_norm**2 * jac
    f_sq = base_report.f_norm**2 * jac
    ratio = 0.0 if f_sq == 0 else u_sq / f_sq
    constant = 1.0 / (lam**k * math.factorial(k)) ** 2
    report = ScaledReport(
        lam=lam,
        z0=complex(p.z0),
        base_report=base_report,
        u_sq_norm_z=u_sq,
        f_sq_norm_z=f_sq,
        sq_norm_ratio=ratio,
        bound_constant_sq=constant,
        bound_holds=ratio <= constant * (1.0 + BOUND_TOL),
    )
    solution = ScaledSolution(lam=lam, z0=complex(p.z0), prefactor=lam**-k, v=v)
    return solution, report


# ---------------------------------------------------------------------------
# Bounded open set U (disk) via zero-extension


@dataclass
class DiskProblem:
    """Data f on a disk U, solved through the centered weight e^{−|z−z₀|²}.

    ``f_poly`` is exact polynomial data in the global variable z.  The
    diameter |U| = 2·radius enters the certified constant e^{|U|²}/(k!)².
    The disk quadrature rule on U has the given radial and angular node counts.
    """

    center: complex
    radius: float
    f_poly: PolyZZbar
    k: int
    c: complex
    truncation: int = 32
    radial_nodes: int = 64
    angular_nodes: int = 64

    def __post_init__(self):
        # past radius ≈ 13.32 the certified constant e^{(2·radius)²} overflows a float
        if not 0 < self.radius <= 13:
            raise ValueError(f"radius {self.radius} must be positive and at most 13")
        if not _finite(self.center):
            raise ValueError(f"center {self.center} is not finite")


@dataclass
class DiskReport:
    """L²(U) certification of the zero-extension solve.

    ``resolution_shift`` is the largest relative change of the two disk
    integrals under doubling of the quadrature rule; ``truncation_defect``
    is the share of the extended data's weighted mass that the finite basis
    box does not capture (an expansion-tail property of the zero extension,
    not a quadrature artifact).
    """

    u_sq_on_disk: float
    f_sq_on_disk: float
    diameter: float
    bound_constant: float
    ratio: float
    bound_holds: bool
    resolution_shift: float
    truncation_defect: float
    base_report: SolveReport


def _disk_pass(p: DiskProblem, rule: QuadratureRule):
    """Project the zero-extended data, solve, and integrate over the disk."""
    z, w = rule.points_and_weights
    # Hermite projection of the zero-extended data in the centered weight,
    # restricted to the certified support box [0, M−k]²; the Parseval defect
    # is the weighted mass the box misses.
    f_hat, defect = project(p.f_poly.evaluate, p.truncation - p.k, rule, check_parseval=False)
    u, base_report = solve(ProblemSpec(k=p.k, c=p.c, truncation=p.truncation, f=f_hat))
    uv = synthesize(u, z - rule.center)
    fv = p.f_poly.evaluate(z)
    u_sq = float(np.real(np.sum(w * uv * np.conjugate(uv))))
    f_sq = float(np.real(np.sum(w * fv * np.conjugate(fv))))
    return u, base_report, u_sq, f_sq, max(0.0, defect)


def solve_disk(p: DiskProblem) -> Tuple[HermiteCoeffs, DiskReport]:
    """Zero-extend f off U, solve in the centered Gaussian weight, restrict to U.

    Certifies the inequality ∫_U|u|² ≤ (e^{|U|²}/(k!)²)·∫_U|f|².  Both disk
    integrals are recomputed at doubled quadrature resolution; a relative
    shift above 1e−6 raises :class:`QuadratureResolutionError`, since the
    certified integrals would then be quadrature-limited.
    """
    rule = QuadratureRule.disk(p.center, p.radius, p.radial_nodes, p.angular_nodes)
    u, base_report, u_sq, f_sq, defect = _disk_pass(p, rule)
    _, _, u_sq2, f_sq2, _ = _disk_pass(p, rule.refined())
    shift = 0.0
    if f_sq2 > 0:
        shift = abs(f_sq - f_sq2) / f_sq2
    if u_sq2 > 0:
        shift = max(shift, abs(u_sq - u_sq2) / u_sq2)
    if shift > 1e-6:
        raise QuadratureResolutionError(
            f"disk integrals move by {shift:.3e} under quadrature doubling; "
            f"increase radial/angular nodes"
        )
    diameter = 2.0 * p.radius
    constant = math.exp(diameter**2) / math.factorial(p.k) ** 2
    ratio = 0.0 if f_sq == 0 else u_sq / f_sq
    report = DiskReport(
        u_sq_on_disk=u_sq,
        f_sq_on_disk=f_sq,
        diameter=diameter,
        bound_constant=constant,
        ratio=ratio,
        bound_holds=ratio <= constant * (1.0 + BOUND_TOL),
        resolution_shift=shift,
        truncation_defect=defect,
        base_report=base_report,
    )
    return u, report
