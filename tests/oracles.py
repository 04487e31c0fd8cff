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
* the max-norm five-point residual at k = 1 (:func:`fd_residual_k1`);
* the certification sweep and the operator-norm probe as two loops of their
  own (:func:`reference_certify_sweep`, :func:`reference_operator_norm_probe`);
* the chain factor over every column, with its tail weights summed one step
  at a time (:func:`reference_factor`, :func:`reference_tail_weights`);
* the lockstep kernel with its reverse sweep as four ufuncs a step
  (:func:`reference_lockstep_apply`), and the certified solve with its
  post-pass on the padded step-major arrays (:func:`padded_solve`).
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from typing import List

import numpy as np

from focksolve.basis import ORTHONORMAL, RAW, HermiteCoeffs
from focksolve.numerics import GridSpec, _laplacian_residual
from focksolve.ring import ExactScalar, PolyZZbar, weighted_deriv
from focksolve.basis import _complex_array
from focksolve.solver import (
    BOUND_TOL,
    CERTIFICATION_C_GRID,
    RESIDUAL_TOL,
    ProblemSpec,
    SolveReport,
    _check_sweep_box,
    _factor,
    _layout,
    _norm,
    _turns,
    dense_data,
    solve,
)

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


# ---------------------------------------------------------------------------
# Sweeps: the certification sweep and the probe, each its own trial loop


def reference_operator_norm_probe(
    k: int, c, trials: int, M: int = 32, seed: int = 42
) -> float:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_sweep_box(M)
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


def reference_certify_sweep(k_min: int, k_max: int, trials: int, M: int, seed: int) -> List[dict]:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} is above k_max {k_max}: no k to certify")
    _check_sweep_box(M)
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
# The chain factor: every column, and τ one step at a time


def _perm_floats(k: int, start: int, stop: int) -> np.ndarray:
    """(x)_k as floats for start ≤ x < stop; inf past float range."""
    perms = (math.perm(x, k) for x in range(start, stop))
    return np.array([float(p) if p <= sys.float_info.max else math.inf for p in perms])


def reference_tail_weights(
    m_edge: np.ndarray, n_edge: np.ndarray, k: int, c2: float, perms: np.ndarray
) -> np.ndarray:
    """τ = Σ_{i≥1} Π_{l<i} |c|²/A_{L+l} per chain, one step of every chain at a time.

    All chains add one term per step, each until its terms pass |c|² and
    fall below 1e−17·τ; τ is inf once it passes 1e300, and an A_j past float
    range adds nothing.  ``perms`` is a table of (x)_k from x = 0, extended
    here as the steps need.
    """
    term, acc = np.ones(len(m_edge)), np.zeros(len(m_edge))
    top = max(m_edge.max(), n_edge.max())
    with np.errstate(over="ignore", invalid="ignore"):
        while term.any():
            m_edge, n_edge, top = m_edge + k, n_edge + k, top + k
            if top >= perms.size:
                perms = np.concatenate([perms, _perm_floats(k, perms.size, 2 * top + 1)])
            a = perms[m_edge] * perms[n_edge]
            term *= np.where(a < math.inf, c2 / a, 0.0)
            acc += term
            # a finished chain adds zero terms from here on
            term[(acc > 1e300) | ((a > c2) & (term <= 1e-17 * acc))] = 0.0
    return np.where(acc > 1e300, math.inf, acc)


def reference_factor(k: int, rho: float, M: int) -> tuple:
    """The factor of (k, |c| = rho, M) with the Givens loop over every column of the layout.

    Returns (√(1 + τ), √(τ/(1 + τ)), the smallest pivot, (r, R's
    super-diagonal, (g, −s))) as ``solver._factor`` does, τ from
    :func:`reference_tail_weights` on every chain's edge.
    """
    chains = _layout(k, M)
    perms = _perm_floats(k, 0, M + k + 1)
    tau = reference_tail_weights(chains.m_edge, chains.n_edge, k, rho * rho, perms)
    damp = np.sqrt(1.0 + tau)
    share = np.divide(tau, 1.0 + tau, out=np.ones_like(tau), where=tau < math.inf)
    sa = chains.couplings.copy()
    # a chain's last equation is one step before its edge entry
    sa.reshape(-1)[chains.tail - len(chains.tail)] /= damp
    r, g = np.ones((2, *sa.shape))
    alpha, min_pivot = np.full(sa.shape[1], rho), math.inf
    for n, r_j, g_j, sa_j in zip(chains.counts.tolist(), r, g, sa):
        pivots = list(map(math.hypot, alpha[:n].tolist(), sa_j[:n].tolist()))
        r_j[:n], min_pivot = pivots, min(min_pivot, *pivots)
        alpha = np.divide(alpha[:n], r_j[:n], out=g_j[:n]) * rho
    s = sa / r
    sup = s[:-1] * rho  # R's super-diagonal, zero after a chain's last equation
    for sup_j, n in zip(sup, chains.counts[1:].tolist()):
        sup_j[n:] = 0.0
    return damp, np.sqrt(share), min_pivot, (r, sup, np.stack([g, -s], axis=1))


# ---------------------------------------------------------------------------
# The certified solve: the kernel step by step, the post-pass on padded arrays


def reference_lockstep_apply(kernel, rhs, turn):
    """solver._lockstep_apply with a stacked copy of the turned data and four ufuncs a reverse step.

    Forward substitution reads the stacked data and forms each step in new
    arrays.  The reverse sweep reads the factor's (g, −s) and takes s back
    by an exact negation, then sets v_{j+1} = s·y_j + g·p and
    p = g·y_j − s·p, as the kernel did before its two-ufunc step.
    """
    r, sup, rot = kernel
    g, s = rot[:, 0], -rot[:, 1]
    f, tr, ti = rhs, turn.real[:, None], turn.imag[:, None]
    rhs = np.stack([f.real * tr[1:] + f.imag * ti[1:], f.imag * tr[1:] - f.real * ti[1:]], 1)
    width, rows = r.shape
    y = np.empty((width, 2, rows))
    prev = np.divide(rhs[0], r[0], out=y[0])
    for y_j, rhs_j, sup_j, r_j in zip(y[1:], rhs[1:], sup, r[1:]):
        prev = np.divide(rhs_j - sup_j * prev, r_j, out=y_j)
    sy, gy = s[:, None] * y, g[:, None] * y
    v = np.empty((width + 1, 2, rows))
    p = np.zeros((2, rows))
    for v_next, sy_j, g_j, gy_j, s_j in zip(v[:0:-1], sy[::-1], g[::-1], gy[::-1], s[::-1]):
        np.add(sy_j, g_j * p, out=v_next)
        p = gy_j - s_j * p
    v[0] = p
    return v[:, 0] * tr - v[:, 1] * ti, v[:, 0] * ti + v[:, 1] * tr


def padded_solve(spec: ProblemSpec):
    """solve with its post-pass on every cell of the padded step-major arrays.

    The chains are solved by :func:`reference_lockstep_apply`.  The
    magnitudes, the edge damping and the residual are then formed on the
    whole (W + 1, P) solution and (W, P) equations, and the stored entries
    and box equations are selected from them by flat position afterwards.
    Returns the solution and the report, as ``solve`` does.
    """
    index, amps = spec.validate().arrays()
    k, M = spec.k, spec.truncation
    c = complex(spec.c)
    chains, damp, tail_share, min_pivot, kernel = _factor(k, abs(c), M)
    sqrt_pi = math.sqrt(math.pi)
    data = (amps.view(float) / sqrt_pi).view(complex)
    dense = np.zeros((M + 2) * (M + 2), dtype=complex)
    dense[index[:, 0] * (M + 2) + index[:, 1]] = data
    rhs = dense[chains.gather]
    u_re, u_im = reference_lockstep_apply(kernel, rhs, _turns(c, len(chains.counts) + 1))
    sizes = np.hypot(u_re, u_im).reshape(-1)
    tails = sizes[chains.tail] * tail_share
    u_norm = _norm(sizes[chains.stored]) * sqrt_pi
    flat_re, flat_im = u_re.reshape(-1), u_im.reshape(-1)
    flat_re[chains.tail] /= damp
    flat_im[chains.tail] /= damp
    # the box equations; the edge entry u_L enters through the last coupling
    u_re0, u_im0, a = u_re[:-1], u_im[:-1], chains.couplings
    res_re = (c.real * u_re0 - c.imag * u_im0) - rhs.real + a * u_re[1:]
    res_im = (c.real * u_im0 + c.imag * u_re0) - rhs.imag + a * u_im[1:]
    values = _complex_array(flat_re[chains.stored] * sqrt_pi, flat_im[chains.stored] * sqrt_pi)
    f_norm = _norm(np.hypot(data.real, data.imag)) * sqrt_pi
    ratio = 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm
    report = SolveReport(
        residual_norm=_norm(np.hypot(res_re, res_im).reshape(-1)[chains.box]) * sqrt_pi,
        f_norm=f_norm,
        u_norm=u_norm,
        bound_ratio=ratio,
        bound_holds=ratio <= 1.0 + BOUND_TOL,
        truncation=M,
        chain_count=len(chains.tail),
        tail_estimate=_norm(tails) * sqrt_pi,
        min_pivot=min_pivot,
    )
    return HermiteCoeffs._from_array(chains.index, values, ORTHONORMAL), report
