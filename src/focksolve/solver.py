"""Minimum-norm spectral solver for (∂^k∂̄^k + c) u = f in the Hermite basis.

Because ∂^k∂̄^k shifts both basis indices down by k (with falling-factorial
scaling) and multiplication by c leaves them fixed, the coefficient equations
decouple into one-dimensional chains along the direction (k, k): starting
from an origin (m₀, n₀) with m₀ < k or n₀ < k, the unknowns u_j at indices
(m₀ + jk, n₀ + jk) satisfy the bidiagonal system

    c·u_j + A_j·u_{j+1} = f_j,      A_j = ((m₀+(j+1)k)! / (m₀+jk)!) · (n analog).

Each chain is solved for its minimum weighted-norm solution by an orthogonal
(Givens) factorization in orthonormal coordinates, where the couplings
become √A_j and every stored quantity stays O(1).  With c = |c|·e^{iθ} and
u_j = e^{ijθ}·v_j a chain becomes the real chain |c|·v_j + √A_j·v_{j+1} =
e^{−i(j+1)θ}·f_j of the same norm, so the factor depends on |c| alone.  Past
the box the data vanish, so each chain's infinite tail is fixed by its edge
entry and the infinite minimum-norm problem closes exactly into a finite one.

All chains are solved at once, as the columns of one step-major array,
longest chain first.  What depends on (k, M) alone is built once
(:func:`_layout`): the gather of the data in that order, the flat positions
of the output entries and the box equations' couplings in output order,
each chain's mirror and the couplings past the edges, formed as the tail
weights need them.  What depends on |c| is built once per (k, |c|, M)
(:func:`_factor`).  A solve gathers f into the layout for the kernel, then
reads the stored entries out by position once, and forms the norms, the
edge damping and the residual on them alone.  A_j is symmetric in m and n
(the z ↔ z̄ symmetry), so the chains from (m₀, n₀) and (n₀, m₀) share their
factor bit for bit; it is computed for one of each pair and copied to the
other.

The certified solve reports the residual, the norms, and the bound ratio
u_norm·k!/f_norm, which the construction keeps ≤ 1 (squared norms contract
by 1/(k!)², with equality at f = H_{0,0} for c = 0).  Scaled-weight and
bounded-domain variants reduce to the same solve by change of variables and
by zero-extension plus disk-quadrature projection.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Tuple

import numpy as np

from .basis import FACTORIAL_TOP, ORTHONORMAL, HermiteCoeffs, _complex_array, _finite, _read_only
from .numerics import (
    CELL_BUDGET,
    QuadratureResolutionError,
    QuadratureRule,
    project,
    scale_down,
    scaled_quadrature_norm_sq,
    unscale,
)
from .ring import PolyZZbar

BOUND_TOL = 1e-10
RESIDUAL_TOL = 1e-10
DEFAULT_TRUNCATION = 32
DEFAULT_SEED = 42

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


def _check_problem(k: int, c, M: int) -> None:
    """Reject a non-finite c, k < 1, M < k, or a largest box coupling (M+k)!/M! past float range."""
    if not _finite(c):
        raise ValueError(f"shift c = {c} is not finite")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if M < k:
        raise ValueError("truncation must be at least k")
    # (M+k)!/M! ≥ k!, past float range for k > FACTORIAL_TOP: no big-integer product needed
    if k > FACTORIAL_TOP or math.perm(M + k, k) > sys.float_info.max:
        raise ValueError(f"k = {k} with truncation {M}: the box couplings exceed the float range")


@dataclass
class ProblemSpec:
    """One certified solve: operator order k, shift c, truncation box, data f.

    The certified-solve precondition requires every index of f to satisfy
    m ≤ M − k and n ≤ M − k, so that the first out-of-box coupling only sees
    homogeneous tail, never data.  The box couplings must fit in a float:
    the largest, (M+k)!/M!, rules out k = M from 135 on and every k > 170.
    """

    k: int
    c: complex
    truncation: int
    f: HermiteCoeffs

    def validate(self) -> HermiteCoeffs:
        """Check the problem; return f in orthonormal amplitudes, each one finite."""
        _check_problem(self.k, self.c, self.truncation)
        margin = self.truncation - self.k
        # an exact f converts its amplitudes only once its support is checked
        index = self.f.index
        if index.max(initial=0) > margin:
            m, n = index[int(np.argmax((index > margin).any(axis=1)))].tolist()
            raise ValueError(
                f"f has support at index ({m},{n}) outside the certified box "
                f"[0,{margin}]² for truncation {self.truncation} and k {self.k}"
            )
        # HermiteCoeffs rejects non-finite amplitudes; an exact amplitude can
        # still overflow on its way to a float
        try:
            return self.f.to_orthonormal()
        except OverflowError as exc:
            raise ValueError(f"f has an amplitude that overflows a float: {exc}") from None


@dataclass
class SolveReport:
    """Certification artifact for one solve.

    ``bound_ratio`` is u_norm·k!/f_norm; ``bound_holds`` iff it is at most
    1 + 1e−10.  ``residual_norm`` is the weighted norm, over the retained
    index box, of (∂^k∂̄^k + c)u − f.  ``u_norm`` is the weighted norm of the
    whole infinite-chain solution: the stored box and edge entries plus the
    tail past them.  ``tail_estimate`` is the exact weighted norm of that
    tail, which the coefficients do not store.  ``min_pivot`` is the smallest
    Givens pivot of the chain factorizations; at c = 0 it is k!, the
    reciprocal of the bound constant.
    """

    residual_norm: float
    f_norm: float
    u_norm: float
    bound_ratio: float
    bound_holds: bool
    truncation: int
    chain_count: int
    tail_estimate: float
    min_pivot: float


# ---------------------------------------------------------------------------
# Certified solve: every chain of the box as one column of an array


class _Chains(NamedTuple):
    """The (k, k) chains of the box [0, M]², one per column, stored step-major and longest first.

    The chain from an origin (m₀, n₀) with m₀ < k or n₀ < k has L box
    positions j = 0..L−1 at (m₀ + jk, n₀ + jk), each one equation
    c·u_j + √A_j·u_{j+1} = f_j, plus the edge entry u_L past the box.  Row j
    of a (W, P) array is step j of every chain, W = M//k + 1 equation steps;
    the columns hold the chains longest first, stably in lexicographic origin
    order, so that the ``counts[j]`` chains with an equation at step j are
    the first ``counts[j]`` columns.  A flat position is j·P + q, in the
    (W + 1, P) solution and in every (W, P) array.

    The output order runs chain by chain in lexicographic origin order and
    each by j, its edge entry last: ``stored`` and ``index`` hold its S
    entries, ``box`` and ``box_couplings`` its box equations, each of which
    pairs the entry at ``box_at[b]`` (u_j) with the next one (u_{j+1}).
    ``tail``, ``tail_at``, ``m_edge`` and ``n_edge`` run in origin order.

    A chain and its mirror (n₀, m₀) have the same length and couplings, since
    A_j is symmetric in m and n.  The representative of a pair is the chain
    with m₀ ≤ n₀ (a diagonal chain is its own); ``reps`` are their columns,
    longest first as every column is, and ``mirror`` gives each column the
    place of its representative in ``reps``.
    """

    counts: np.ndarray  # (W,) chains with an equation at step j
    gather: np.ndarray  # (W, P) m·(M+2) + n on the equations, (M+2)² − 1 past them
    tail: np.ndarray  # (P,) flat position of each chain's edge entry
    m_edge: np.ndarray  # (P,) first index of each chain's edge entry
    n_edge: np.ndarray  # (P,)
    stored: np.ndarray  # (S,) flat positions of the box and edge entries
    box: np.ndarray  # (B,) flat positions of the box equations
    box_at: np.ndarray  # (B,) place in ``stored`` of each box equation's u_j
    tail_at: np.ndarray  # (P,) place in ``stored`` of each chain's edge entry
    box_couplings: np.ndarray  # (B,) √A_j of each box equation
    index: np.ndarray  # (S, 2) (m, n) of the stored entries: the solution's index
    reps: np.ndarray  # (R,) columns of the representatives
    rep_counts: np.ndarray  # (W,) representatives with an equation at step j, the first of ``reps``
    mirror: np.ndarray  # (P,) place in ``reps`` of each column's representative
    past: _Past  # the couplings past the representatives' edges, grown on demand

    @property
    def couplings(self) -> np.ndarray:
        """A new (W, P) array of √A_j on the equations, 0 past them."""
        couplings = np.zeros(self.gather.shape)
        couplings.reshape(-1)[self.box] = self.box_couplings
        return couplings

    @property
    def perms(self) -> np.ndarray:
        """(x)_k from x = 0, as far as the couplings built so far needed it."""
        return self.past.perms


def _perm_table(k: int, start: int, stop: int) -> np.ndarray:
    """(x)_k = x!/(x−k)! as floats for start ≤ x < stop; inf past float range."""
    perms = (math.perm(x, k) for x in range(start, stop))
    return np.array([float(p) if p <= sys.float_info.max else math.inf for p in perms])


class _Past:
    """A_i = (m_L + ik)_k·(n_L + ik)_k for i ≥ 1, past the edges (m_L, n_L) of some chains.

    Row i − 1 holds A_i of every chain.  The rows are formed as a sum asks
    for them, in read-only blocks of 8, 16, 32, … rows, from a table of (x)_k
    that grows with them, and both are kept: they depend on k and the edges
    alone, so a layout forms each block once, whatever |c|.
    """

    def __init__(self, k: int, m_edge: np.ndarray, n_edge: np.ndarray, perms: np.ndarray):
        self.k, self.m_edge, self.n_edge, self.perms = k, m_edge, n_edge, perms
        self.blocks: dict = {}

    @property
    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.m_edge, self.n_edge, self.perms, *self.blocks.values())

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)

    def rows(self):
        """Every block in order, each formed the first time it is asked for."""
        for b in itertools.count():
            if b not in self.blocks:
                # where two threads form a block at once, both get the first one kept
                self.blocks.setdefault(b, self._block(b))
            yield self.blocks[b]

    def _block(self, b: int) -> np.ndarray:
        """Rows i = 8·(2^b − 1) + 1 to 8·(2^(b+1) − 1)."""
        first = 8 * (2**b - 1) + 1
        i = self.k * np.arange(first, 2 * first + 7)[:, None]
        m, n = self.m_edge + i, self.n_edge + i
        perms, top = self.perms, max(m[-1].max(), n[-1].max())
        if top >= perms.size:
            extra = _perm_table(self.k, perms.size, top + 1)
            perms = self.perms = _read_only(np.concatenate([perms, extra]))[0]
        with np.errstate(over="ignore"):  # inf past float range
            return _read_only(perms[m] * perms[n])[0]


@lru_cache(maxsize=4)
def _layout(k: int, M: int) -> _Chains:
    """The chains of (k, M) and everything a solve needs of them but |c| and f, read-only.

    Kept for the last few (k, M), with the couplings past the edges that
    the factors of these (k, M) have formed so far.
    """
    # the origins in lexicographic order: the rows m₀ < k whole, then n₀ < k on the rows past them
    rows = np.divmod(np.arange(min(k, M + 1) * (M + 1)), M + 1)
    rest = np.divmod(np.arange(max(M + 1 - k, 0) * k), k)
    m0, n0 = np.concatenate([rows[0], rest[0] + k]), np.concatenate([rows[1], rest[1]])
    lengths = np.minimum(M - m0, M - n0) // k + 1
    P = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(M // k + 1)[:, None]
    m, n = m0[order] + k * steps, n0[order] + k * steps
    eqs = steps < lengths[order]
    # flat positions in the (M + 2)² data grid, whose last cell stays zero
    gather = np.where(eqs, m * (M + 2) + n, (M + 2) ** 2 - 1)
    # the output order: chain by chain in origin order, each by j up to its edge entry
    tail_at = np.cumsum(lengths + 1) - 1
    chain = np.repeat(np.arange(P), lengths + 1)
    j = np.arange(tail_at[-1] + 1) - np.repeat(tail_at - lengths, lengths + 1)
    stored = j * P + np.argsort(order)[chain]
    index = np.stack((m0[chain] + k * j, n0[chain] + k * j), axis=1)
    # the box entries are all but the edges: the b-th is preceded by one edge per chain before it
    box_at = np.arange(len(j) - P) + np.repeat(np.arange(P), lengths)
    # √A_j = √((m+k)_k·(n+k)_k) on the box equations
    perms = _perm_table(k, 0, M + k + 1)
    pm, pn = perms[index[box_at] + k].T
    with np.errstate(over="ignore"):
        couplings = np.sqrt(pm * pn)
    # past float range the product overflows before its root
    wide = couplings == math.inf
    couplings[wide] = np.sqrt(pm[wide]) * np.sqrt(pn[wide])
    m_edge, n_edge = m0 + k * lengths, n0 + k * lengths
    # the column of each chain's mirror (n₀, m₀).  The two chains of a pair have one
    # length, so the representative, m₀ ≤ n₀ and first in origin order, has the lower column
    columns = np.empty((M + 1, M + 1), dtype=int)
    columns[m[0], n[0]] = np.arange(P)
    is_rep = m[0] <= n[0]
    reps = np.flatnonzero(is_rep)
    mirror = (np.cumsum(is_rep) - 1)[np.minimum(np.arange(P), columns[n[0], m[0]])]
    past = _Past(k, *_read_only(m_edge[order[reps]], n_edge[order[reps]], perms))
    counts = eqs.sum(axis=1)
    arrays = (counts, gather, stored[tail_at], m_edge, n_edge, stored, stored[box_at], box_at, tail_at)
    # the columns with an equation at step j are the first counts[j]
    rep_arrays = (reps, np.searchsorted(reps, counts), mirror)
    return _Chains(*_read_only(*arrays, couplings, index, *rep_arrays), past)


def _tail_weights(
    m_edge: np.ndarray, n_edge: np.ndarray, k: int, c2: float, perms: np.ndarray, past=None
) -> np.ndarray:
    """τ = Σ_{i≥1} Π_{l<i} |c|²/A_{L+l} per chain: its mass past u_L over |u_L|².

    Past the box the right-hand side is zero, so the infinite chain continues
    from u_L by u_{j+1} = −c·u_j/√A_j.  The series depends only on the chain
    and |c|² and converges super-factorially.  Each chain adds terms until
    they pass |c|² and fall below 1e−17·τ; τ is inf once it passes 1e300,
    and an A_j past float range adds nothing.

    The couplings past the edges come a block of rows at a time from
    ``past``, a :class:`_Past` of these edges that keeps the blocks it forms
    (each layout keeps one for its representatives); without one they are
    formed from ``perms``, a table of (x)_k from x = 0, for this call alone.
    Per block: one quotient |c|²/A, then ``np.multiply.accumulate`` and
    ``np.add.accumulate`` down the rows, which run in order and so round
    every product and sum as adding one step at a time would, and a search
    for the first row where a chain stops.
    """
    if past is None:
        past = _Past(k, m_edge, n_edge, perms)
    tau, todo = np.zeros(len(m_edge)), np.ones(len(m_edge), dtype=bool)
    term, acc = np.ones(len(tau)), np.zeros(len(tau))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in past.rows():
            # each block carries on from the last row's term and sum
            terms = np.where(a < math.inf, c2 / a, 0.0)
            terms[0] *= term
            np.multiply.accumulate(terms, axis=0, out=terms)
            sums = terms.copy()
            sums[0] += acc
            np.add.accumulate(sums, axis=0, out=sums)
            # a zero term ends a chain too: past it every term is zero
            stop = (sums > 1e300) | ((a > c2) & (terms <= 1e-17 * sums)) | (terms == 0.0)
            ends = todo & stop.any(axis=0)
            tau[ends] = sums[stop.argmax(axis=0)[ends], ends]
            todo &= ~ends
            if not todo.any():
                return np.where(tau > 1e300, math.inf, tau)
            term, acc = terms[-1], sums[-1]


@lru_cache(maxsize=1)
def _factor(k: int, rho: float, M: int) -> tuple:
    """What a solve of (k, c, M) with |c| = rho needs before it sees data, every array read-only.

    Returns the chains, √(1 + τ) (each edge coupling's divisor) and
    √(τ/(1 + τ)) (the tail's part of the edge size), both per chain in
    origin order, the smallest pivot and the Givens factor that
    :func:`_lockstep_apply` reads: the QR factor of each real chain's
    bidiagonal transpose by Givens rotations, for every column at once, one
    row per step, with identity rotations (g = 1, s = 0, r = 1) past a
    chain's last equation.  The kernel is (r, R's super-diagonal, the
    (W, 2, P) rotations (g, −s)).  The pivots come from math.hypot, so every
    chain rounds as the scalar per-chain Givens solve kept in the tests does.
    A chain and its mirror have the same τ and the same rotations, bit for
    bit, since IEEE products commute: τ and the pivot loop run on the
    representatives alone (τ from the layout's table of the couplings past
    their edges) and one gather each copies τ, r and g to every column.
    Only the last (k, |c|, M) is kept; shifts of one modulus share it.
    """
    chains = _layout(k, M)
    P = len(chains.tail)
    past = chains.past
    rep_tau = _tail_weights(past.m_edge, past.n_edge, k, rho * rho, past.perms, past)
    tau = rep_tau[chains.mirror[chains.tail % P]]
    damp = np.sqrt(1.0 + tau)
    share = np.divide(tau, 1.0 + tau, out=np.ones_like(tau), where=tau < math.inf)
    sa = chains.couplings
    # a chain's last equation is one step before its edge entry
    last = chains.tail - P
    sa.reshape(-1)[last] /= damp
    rep_sa = np.take(sa, chains.reps, axis=1)
    r, g = np.ones((2, *rep_sa.shape))
    alpha, min_pivot = np.full(rep_sa.shape[1], rho), math.inf
    for n, r_j, g_j, sa_j in zip(chains.rep_counts.tolist(), r, g, rep_sa):
        pivots = list(map(math.hypot, alpha[:n].tolist(), sa_j[:n].tolist()))
        r_j[:n], min_pivot = pivots, min(min_pivot, *pivots)
        alpha = np.divide(alpha[:n], r_j[:n], out=g_j[:n]) * rho
    r, g = np.take(r, chains.mirror, axis=1), np.take(g, chains.mirror, axis=1)
    s = sa / r
    # R's super-diagonal, zero from a chain's last equation on: past it sa = 0
    # and r = 1 already give s = 0, so only the last equations are set
    sup = s[:-1] * rho
    sup.reshape(-1)[last[last < sup.size]] = 0.0
    kernel = _read_only(r, sup, np.stack([g, -s], axis=1))
    return chains, *_read_only(damp, np.sqrt(share)), min_pivot, kernel


def _turns(c: complex, count: int) -> np.ndarray:
    """turn[j] = (c/|c|)^j for j < count, each divided by its own modulus; all ones at c = 0.

    Read-only, and kept for the last c, which the trials of a sweep cell share.
    """
    # == does not tell ±0.0 apart, and c/|c| keeps the sign of a zero part
    return _turn_table(c, count, math.copysign(1.0, c.real), math.copysign(1.0, c.imag))


@lru_cache(maxsize=1)
def _turn_table(c: complex, count: int, *signs: float) -> np.ndarray:
    turns, unit = [1 + 0j], c / abs(c) if c else 1 + 0j
    for _ in range(count - 1):
        turn = turns[-1] * unit
        turns.append(turn / abs(turn))
    return _read_only(np.array(turns))[0]


def _lockstep_apply(kernel: tuple, rhs: np.ndarray, turn: np.ndarray):
    """Solve every column for the (W, P) right-hand sides: the real and imaginary (W + 1, P) u.

    Both are in the layout's own order, step-major and longest chain first.
    Step j's data are turned by conj(turn[j+1]) and v_j back by turn[j], as
    Python's complex multiply rounds; the real and imaginary parts of v are
    two right-hand sides of the one real factor.  The turned data are
    written straight into y, and forward substitution solves R^T y = rhs in
    place, one (2, P) scratch row for the products with the step before.
    The rotations are applied in reverse with p = v_{j+1} carried down:
    step j takes (v_{j+1}, p) = (s·y_j, g·y_j) + (g, −s)·p, one multiply and
    one add over both outputs, from the factor's stored (g, −s).  Negation
    is exact and IEEE defines x − y as x + (−y), so g·y_j + (−s)·p rounds as
    g·y_j − s·p does, signed zeros included.
    """
    r, sup, rot = kernel
    tr, ti = turn.real[:, None], turn.imag[:, None]
    width, rows = r.shape
    # the turned data, written straight into y
    y = np.empty((width, 2, rows))
    np.add(rhs.real * tr[1:], rhs.imag * ti[1:], y[:, 0])
    np.subtract(rhs.imag * tr[1:], rhs.real * ti[1:], y[:, 1])
    # forward substitution R^T y = rhs
    np.divide(y[0], r[0], y[0])
    scratch = np.empty((2, rows))
    for prev, y_j, sup_j, r_j in zip(y, y[1:], sup, r[1:]):
        np.subtract(y_j, np.multiply(sup_j, prev, scratch), y_j)
        np.divide(y_j, r_j, y_j)
    # v = Q [y; 0].  The products with y need no earlier step and are taken
    # all at once: (−s·y, g·y), then the first negated to s·y.  Step j
    # overwrites them with (v_{j+1}, p).
    sgy = rot[:, ::-1, None] * y[:, None]
    np.negative(sgy[:, 0], sgy[:, 0])
    p, turned = np.zeros((2, rows)), np.empty((2, 2, rows))
    for sgy_j, rot_j in zip(sgy[::-1], rot[::-1, :, None]):
        p = np.add(sgy_j, np.multiply(rot_j, p, turned), sgy_j)[1]
    v = np.concatenate([sgy[:1, 1], sgy[:, 0]])
    return v[:, 0] * tr - v[:, 1] * ti, v[:, 0] * ti + v[:, 1] * tr


def _norm(values: np.ndarray) -> float:
    """Euclidean norm of a float64 array of magnitudes, free of intermediate over- and underflow.

    math.hypot takes each |x| itself, so the report's magnitude arrays go in
    as they are.
    """
    return math.hypot(*values.tolist())


def solve(spec: ProblemSpec) -> Tuple[HermiteCoeffs, SolveReport]:
    """Minimum-norm solution of (∂^k∂̄^k + c) u = f on the truncation box.

    Returns orthonormal-normalized float coefficients together with the
    certification report.  Each chain is the minimum-norm solution of its
    infinite system.  Its tail past the box has mass |u_L|²·τ, so the
    infinite problem is the finite one in u_0..u_{L−1} and v = √(1+τ)·u_L,
    with the edge coupling divided by √(1+τ).  All chains are solved
    together as the columns of one array, factored once per (k, |c|, M)
    (:func:`_factor`) and applied to each data set turned by the phase of c.
    The data are gathered straight into the layout's step-major order for
    the kernel.  Its solution's stored entries are then read out once by
    their flat positions, in output order, and the magnitudes, the edge
    damping, the residual and the written values are formed on those
    entries alone: box equation b pairs entry ``box_at[b]`` with the next.
    The coefficients hold the box plus the one edge entry per chain that the
    box equations see, chain by chain in lexicographic origin order.  The
    residual is reported over the box equations, ``u_norm`` is the norm of
    the whole infinite-chain solution and ``tail_estimate`` the norm of its
    part past the stored entries.  Chains share no arithmetic, so no output
    bit depends on the layout.
    """
    index, amps = spec.validate().arrays()
    k, M = spec.k, spec.truncation
    c = complex(spec.c)
    chains, damp, tail_share, min_pivot, kernel = _factor(k, abs(c), M)

    # Data in orthonormal coordinates with the common √π factor removed.
    sqrt_pi = math.sqrt(math.pi)
    data = (amps.view(float) / sqrt_pi).view(complex)
    dense = np.zeros((M + 2) * (M + 2), dtype=complex)
    dense[index[:, 0] * (M + 2) + index[:, 1]] = data
    rhs = dense[chains.gather]

    u_re, u_im = _lockstep_apply(kernel, rhs, _turns(c, len(chains.counts) + 1))
    # the stored entries in output order: all that follows works on them alone
    re, im = u_re.reshape(-1)[chains.stored], u_im.reshape(-1)[chains.stored]
    sizes = np.hypot(re, im)
    tails = sizes[chains.tail_at] * tail_share
    u_norm = _norm(sizes) * sqrt_pi
    re[chains.tail_at] /= damp
    im[chains.tail_at] /= damp

    # Box equation b: u_j is stored entry box_at[b] and u_{j+1} the next, so
    # the edge entry u_L enters through the last coupling.
    at, a, f_box = chains.box_at, chains.box_couplings, rhs.reshape(-1)[chains.box]
    re0, im0, re1, im1 = re[at], im[at], re[1:][at], im[1:][at]
    res_re = (c.real * re0 - c.imag * im0) - f_box.real + a * re1
    res_im = (c.real * im0 + c.imag * re0) - f_box.imag + a * im1
    values = _complex_array(re * sqrt_pi, im * sqrt_pi)

    f_norm = _norm(np.hypot(data.real, data.imag)) * sqrt_pi
    ratio = 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm
    report = SolveReport(
        residual_norm=_norm(np.hypot(res_re, res_im)) * sqrt_pi,
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


def dense_data(rng: random.Random, margin: int) -> HermiteCoeffs:
    """Dense complex Gaussian orthonormal data on the certified box [0, margin]².

    Entries run by m, then n, each drawing its real part before its imaginary part.
    """
    side = margin + 1
    index = np.stack(np.divmod(np.arange(side * side), side), axis=1)
    parts = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * side * side)])
    return HermiteCoeffs._from_array(index, parts.view(complex), ORTHONORMAL)


def _check_sweep_box(M: int) -> None:
    """Reject a truncation past :data:`CELL_BUDGET` before any trial or disk pass allocates."""
    if (M + 1) ** 2 > CELL_BUDGET:
        raise ValueError(
            f"truncation {M} gives (M + 1)² = {(M + 1) ** 2} box cells, "
            f"more than {CELL_BUDGET}"
        )


def _sweep(cells, trials: int, M: int, rng: random.Random, first=None) -> List[tuple]:
    """Each (k, c) cell with the reports of its ``trials`` solves, every cell checked before any.

    A cell's trials are ``first``, where given, then dense data on its box
    [0, M − k]², drawn from one stream.  ``cells`` may be lazy: the check
    stops at the first unsolvable cell, and solvable cells have k ≤ min(M, 170).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_sweep_box(M)
    checked = []
    for k, c in cells:
        _check_problem(k, c, M)
        checked.append((k, c))
    sweep = []
    for k, c in checked:
        data = (
            first if t == 0 and first is not None else dense_data(rng, M - k) for t in range(trials)
        )
        sweep.append(((k, c), [solve(ProblemSpec(k=k, c=c, truncation=M, f=f))[1] for f in data]))
    return sweep


def operator_norm_probe(
    k: int, c, trials: int, M: int = DEFAULT_TRUNCATION, seed: int = DEFAULT_SEED
) -> float:
    """Empirical sup of u_norm/f_norm over data in the certified box.

    The first trial is the lowest basis direction H₀₀, which attains the
    supremum 1/k! at c = 0; the remaining trials draw dense complex Gaussian
    coefficients.  The returned value never exceeds 1/k! beyond rounding.
    """
    h00 = HermiteCoeffs.basis_vector(0, 0, 1.0 + 0j, ORTHONORMAL)
    [(_, reports)] = _sweep([(k, c)], trials, M, random.Random(seed), first=h00)
    return max([0.0, *(r.u_norm / r.f_norm for r in reports if r.f_norm > 0)])


def certify_sweep(k_min: int, k_max: int, trials: int, M: int, seed: int) -> List[dict]:
    """Worst bound ratio and relative residual per (k, c) over dense random data.

    Sweeps k = k_min..k_max and every shift of :data:`CERTIFICATION_C_GRID`,
    drawing ``trials`` data sets per cell from one stream seeded by ``seed``.
    Each row holds the cell, its worst ratio and residual, and whether every
    trial kept the bound and a relative residual ≤ 1e−10.
    """
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} is above k_max {k_max}: no k to certify")
    cells = ((k, c) for k in range(k_min, k_max + 1) for c in CERTIFICATION_C_GRID)
    rows = []
    for (k, c), reports in _sweep(cells, trials, M, random.Random(f"certify:{seed}")):
        rel = [0.0 if r.f_norm == 0 else r.residual_norm / r.f_norm for r in reports]
        rows.append(
            {
                "k": k,
                "c": {"re": c.real, "im": c.imag},
                "max_bound_ratio": max([0.0, *(r.bound_ratio for r in reports)]),
                "max_relative_residual": max([0.0, *rel]),
                "all_hold": all(r.bound_holds and x <= RESIDUAL_TOL for r, x in zip(reports, rel)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Scaled weight e^{−λ²|z−z₀|²}


@dataclass
class ScaledProblem:
    """Solve posed in the variable w = λ(z − z₀); ``base`` holds the w-space data.

    λ and z₀ must be finite, λ positive, and λ^{2k} and λ^{−2k} normal
    floats: they scale the shift, the norms and the bound constant.
    """

    lam: float
    z0: complex
    base: ProblemSpec

    def __post_init__(self):
        lam, k = float(self.lam), self.base.k
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"lambda = {lam} must be positive and finite")
        if not _finite(self.z0):
            raise ValueError(f"z0 = {self.z0} is not finite")
        try:
            normal = min(lam ** (2 * k), lam ** (-2 * k)) >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise ValueError(
                f"lambda = {lam} with k = {k}: lambda^(±2k) leaves the normal float range"
            )


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
    The certified inequality is sq_norm_ratio ≤ 1/(λ^k·k!)².  Both sides are
    subnormal from k ≈ 99, so ``bound_holds`` tests the same inequality in
    its scale-free form, (base bound_ratio)² ≤ 1 + 1e−10.
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
    # (k!)² leaves the float range from k = 99: divide by k! twice
    constant = 1.0 / lam ** (2 * k) / math.factorial(k) / math.factorial(k)
    report = ScaledReport(
        lam=lam,
        z0=complex(p.z0),
        base_report=base_report,
        u_sq_norm_z=u_sq,
        f_sq_norm_z=f_sq,
        sq_norm_ratio=ratio,
        bound_constant_sq=constant,
        # ratio / constant = (u_norm·k!/f_norm)², the λ and Jacobian factors cancel
        bound_holds=base_report.bound_ratio**2 <= 1.0 + BOUND_TOL,
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
    The disk quadrature rule on U has the given radial and angular node counts;
    its doubled form and the truncation box are each bounded by :data:`CELL_BUDGET`,
    and (k, c, truncation) is checked as in :class:`ProblemSpec`.
    """

    center: complex
    radius: float
    f_poly: PolyZZbar
    k: int
    c: complex
    truncation: int = DEFAULT_TRUNCATION
    radial_nodes: int = 64
    angular_nodes: int = 64

    def __post_init__(self):
        R, A = self.radial_nodes, self.angular_nodes
        # the doubled rule's 2R·2A nodes plus leggauss's (2R)² companion matrix
        cells = 4 * R * A + 4 * R * R
        if not (R >= 1 and A >= 1 and cells <= CELL_BUDGET):
            raise ValueError(
                f"radial_nodes {R} and angular_nodes {A} must be positive with "
                f"4·R·A + 4·R² = {cells} at most {CELL_BUDGET}"
            )
        _check_sweep_box(self.truncation)
        _check_problem(self.k, self.c, self.truncation)
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
    # evaluated once for the projection (which refuses values past float range) and ∫_U|f|²
    with np.errstate(over="ignore", invalid="ignore"):
        fv = p.f_poly.evaluate(z)
    # Hermite projection of the zero-extended data in the centered weight,
    # restricted to the certified support box [0, M−k]²; the Parseval defect
    # is the weighted mass the box misses.
    f_hat, defect = project(lambda _: fv, p.truncation - p.k, rule, check_parseval=False)
    # with no coefficient of normal size the bound would hold for rounding
    # residue (u = 0 where f̂ is empty), whatever f is
    largest = float(np.abs(f_hat.arrays()[1]).max(initial=0.0))
    if largest < sys.float_info.min and np.any(fv != 0):
        raise ValueError(
            "f is nonzero on the disk, but its projection onto the truncation box keeps "
            f"no coefficient of normal float size (the largest |b| is {largest!r}): "
            "the data are below the projection's resolution"
        )
    u, base_report = solve(ProblemSpec(k=p.k, c=p.c, truncation=p.truncation, f=f_hat))
    # both integrals as (value, exponent) pairs: see _relative_change
    u_sq = scaled_quadrature_norm_sq(u, rule)
    fs, e = scale_down(np.broadcast_to(fv, z.shape))
    f_sq = (float(np.real(np.sum(w * fs * np.conjugate(fs)))), 2 * e)
    return u, base_report, u_sq, f_sq, max(0.0, defect)


def _relative_change(a: Tuple[float, int], b: Tuple[float, int]) -> float:
    """|a − b|/b for integrals given as (value, exponent) pairs; 0 where b is not positive.

    Computed on b's power-of-two scale, which is exact: an integral whose
    unscaled value is subnormal still compares at full precision, and normal
    ones give the bits of the unscaled quotient.
    """
    (va, xa), (vb, xb) = a, b
    if not vb > 0:
        return 0.0
    return abs(unscale(va, xa - xb) - vb) / vb


def solve_disk(p: DiskProblem) -> Tuple[HermiteCoeffs, DiskReport]:
    """Zero-extend f off U, solve in the centered Gaussian weight, restrict to U.

    Certifies the inequality ∫_U|u|² ≤ (e^{|U|²}/(k!)²)·∫_U|f|², and raises
    ``ValueError`` naming an integral past the float range.  Both disk
    integrals are recomputed at doubled quadrature resolution; a relative
    shift above 1e−6 raises :class:`QuadratureResolutionError`, since the
    certified integrals would then be quadrature-limited.  The shift is
    taken on a power-of-two scale (:func:`_relative_change`), so it measures
    the quadrature, not the rounding of a subnormal integral.  Data that are
    nonzero on the nodes but project to no coefficient of normal float size
    (|b| < ``sys.float_info.min``) raise ``ValueError`` naming the largest
    |b|: the certificate of rounding residue, or of u = 0, would hold for
    any f.
    """
    rule = QuadratureRule.disk(p.center, p.radius, p.radial_nodes, p.angular_nodes)
    u, base_report, u_scaled, f_scaled, defect = _disk_pass(p, rule)
    _, _, u_scaled2, f_scaled2, _ = _disk_pass(p, rule.refined())
    shift = max(_relative_change(f_scaled, f_scaled2), _relative_change(u_scaled, u_scaled2))
    if shift > 1e-6:
        raise QuadratureResolutionError(
            f"disk integrals move by {shift:.3e} under quadrature doubling; "
            f"increase radial/angular nodes"
        )
    u_sq, f_sq = unscale(*u_scaled), unscale(*f_scaled)
    for name, value in (("f", f_sq), ("u", u_sq)):
        if value == math.inf:
            raise ValueError(f"the disk integral ∫_U|{name}|² leaves the float range")
    diameter = 2.0 * p.radius
    constant = math.exp(diameter**2) / math.factorial(p.k) / math.factorial(p.k)
    # on f's power-of-two scale, as in _relative_change, so a subnormal ∫_U|f|² keeps its bits
    (u_val, u_exp), (f_val, f_exp) = u_scaled, f_scaled
    ratio = unscale(u_val, u_exp - f_exp) / f_val if f_val > 0 else 0.0
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
