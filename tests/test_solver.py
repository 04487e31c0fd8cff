"""Chain layout, minimum-norm chain solves, and the certified solve."""

import itertools
import math
import random
import sys
import threading
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from focksolve import (
    ExactScalar,
    HermiteCoeffs,
    ProblemSpec,
    certify_sweep,
    cli,
    operator_norm_probe,
    solve,
    solver,
)
from focksolve.basis import index_array
from focksolve.numerics import CELL_BUDGET
from focksolve.solver import (
    CERTIFICATION_C_GRID,
    _factor,
    _layout,
    _norm,
    _tail_weights,
    dense_data,
)
from oracles import (
    apply_operator,
    padded_solve,
    plus,
    reference_certify_sweep,
    reference_factor,
    reference_lockstep_apply,
    reference_operator_norm_probe,
    reference_tail_weights,
    scaled,
)


def unit_f(value=1.0 + 0j):
    return HermiteCoeffs.basis_vector(0, 0, value, "raw")


def chain_origins(k, M):
    """Lexicographic origins (m₀ < k or n₀ < k) covering the box [0, M]²."""
    return [(m, n) for m in range(M + 1) for n in range(M + 1) if m < k or n < k]


def chain_length(origin, k, M):
    """Box positions of the chain from ``origin``."""
    return min((M - origin[0]) // k, (M - origin[1]) // k) + 1


def chain(origin, k, M, f):
    """Indices, couplings A_j, weights (m₀+jk)!·(n₀+jk)! and raw data of one truncated chain."""
    m0, n0 = origin
    idx = [(m0 + j * k, n0 + j * k) for j in range(chain_length(origin, k, M))]
    couplings = [math.perm(m + k, k) * math.perm(n + k, k) for m, n in idx[:-1]]
    weights = [math.factorial(m) * math.factorial(n) for m, n in idx]
    zero = ExactScalar(0) if f.exact or not f.entries else 0j
    return idx, couplings, weights, [f.entries.get(key, zero) for key in idx]


def float_chain_solve(couplings, weights, rhs, c):
    """Raw amplitudes of the Givens solve in orthonormal coordinates."""
    sqw = [math.sqrt(w) for w in weights]
    sa = [math.sqrt(a) for a in couplings]
    sol = min_norm_bidiagonal(complex(c), sa, [complex(v) * s for v, s in zip(rhs, sqw)])
    return [x / s for x, s in zip(sol, sqw)]


def chain_couplings(origin, k, length):
    """√A_j for j < length along the chain from ``origin``, past the box too."""
    m0, n0 = origin
    return [
        math.sqrt(math.perm(m0 + (j + 1) * k, k) * math.perm(n0 + (j + 1) * k, k))
        for j in range(length)
    ]


def scalar_tail_weight(origin, k, L, c):
    """τ = Σ_{i≥1} Π_{l<i} |c|²/A_{L+l} for one chain, on exact integer couplings."""
    m0, n0 = origin
    c2 = abs(c) * abs(c)
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


def solve_chain_exact(couplings, weights, rhs, c):
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


def real_min_norm_bidiagonal(rho, sa, rhs):
    """Minimum-2-norm solution of rho·v_j + sa_j·v_{j+1} = rhs_j, j = 0..L−2, all real, rho ≥ 0.

    Orthogonal factorization of the bidiagonal constraint matrix with Givens
    rotations; O(L) and backward stable, no normal equations formed.
    """
    L = len(rhs)
    if L == 1:
        return [0.0]
    n_eq = L - 1
    # QR of the (L × n_eq) lower-bidiagonal transpose.
    r_diag, gamma, sigma = [0.0] * n_eq, [0.0] * n_eq, [0.0] * n_eq
    alpha = rho
    for j in range(n_eq):
        r = math.hypot(alpha, sa[j])
        r_diag[j], gamma[j], sigma[j] = r, alpha / r, sa[j] / r
        alpha = gamma[j] * rho
    # Forward substitution R^T y = rhs, R's super-diagonal sigma·rho.
    y = [0.0] * n_eq
    for j in range(n_eq):
        acc = rhs[j] - sigma[j - 1] * rho * y[j - 1] if j > 0 else rhs[j]
        y[j] = acc / r_diag[j]
    # v = Q [y; 0]: the rotations in reverse order.
    v = y + [0.0]
    for j in range(n_eq - 1, -1, -1):
        vj, vj1 = v[j], v[j + 1]
        v[j] = gamma[j] * vj - sigma[j] * vj1
        v[j + 1] = sigma[j] * vj + gamma[j] * vj1
    return v


def min_norm_bidiagonal(c, sa, rhs):
    """Minimum-2-norm solution of c·u_j + sa_j·u_{j+1} = rhs_j, j = 0..L−2: the scalar Givens oracle.

    With u_j = turn[j]·v_j, turn = ``solver._turns(c, L)``, the chain is the
    real chain of |c| with data conj(turn[j+1])·rhs_j, solved for its real
    and imaginary parts.  The scalar oracle of ``solver._factor`` and
    ``solver._lockstep_apply``, which run it for every chain at once.
    """
    turns = [complex(t) for t in solver._turns(complex(c), len(rhs))]
    data = [f * t.conjugate() for f, t in zip(rhs, turns[1:])] + [0j]
    re = real_min_norm_bidiagonal(abs(c), sa, [x.real for x in data])
    im = real_min_norm_bidiagonal(abs(c), sa, [x.imag for x in data])
    return [complex(a, b) * t for a, b, t in zip(re, im, turns)]


def complex_min_norm_bidiagonal(c, sa, rhs):
    """Minimum-2-norm solution of c·u_j + sa_j·u_{j+1} = rhs_j by complex Givens rotations.

    Orthogonal factorization of the bidiagonal constraint matrix; O(L) and
    backward stable, no normal equations formed.  Kept as a reference for
    the phase turn of :func:`min_norm_bidiagonal`, which it solves without.
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


def reference_solve(spec):
    """The scalar per-chain pipeline that solve replaces: the reference of the lockstep kernel.

    One chain at a time: scalar τ, the edge coupling divided by √(1+τ) and
    :func:`min_norm_bidiagonal`.  Returns the orthonormal entries and the
    report fields as a dict.
    """
    f = spec.validate()
    k, M, c = spec.k, spec.truncation, complex(spec.c)
    sqrt_pi = math.sqrt(math.pi)
    data = {key: amp / sqrt_pi for key, amp in f.entries.items()}
    entries, u_values, residuals, tails = {}, [], [], []
    origins = chain_origins(k, M)
    for m0, n0 in origins:
        L = chain_length((m0, n0), k, M)
        rhs = [data.get((m0 + j * k, n0 + j * k), 0j) for j in range(L)]
        sa = chain_couplings((m0, n0), k, L)
        tau = scalar_tail_weight((m0, n0), k, L, c)
        damp = math.sqrt(1.0 + tau)
        sol = min_norm_bidiagonal(c, sa[:-1] + [sa[-1] / damp], rhs + [0j])
        v = sol[-1]
        sol[-1] = v / damp
        share = 1.0 if tau == math.inf else tau / (1.0 + tau)
        u_values += sol[:L] + [v]
        tails.append(abs(v) * math.sqrt(share))
        for j, value in enumerate(sol):
            if abs(value) > 0:
                entries[(m0 + j * k, n0 + j * k)] = value * sqrt_pi
        residuals += [c * sol[j] - rhs[j] + sa[j] * sol[j + 1] for j in range(L)]
    f_norm = reference_norm(data.values()) * sqrt_pi
    u_norm = reference_norm(u_values) * sqrt_pi
    report = {
        "residual_norm": reference_norm(residuals) * sqrt_pi,
        "f_norm": f_norm,
        "u_norm": u_norm,
        "bound_ratio": 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm,
        "chain_count": len(origins),
        "tail_estimate": reference_norm(tails) * sqrt_pi,
    }
    return entries, report


def assert_matches_reference(spec):
    """solve against :func:`reference_solve`, within the equivalence gate's bounds."""
    u, rep = solve(spec)
    entries, want = reference_solve(spec)
    assert rep.chain_count == want["chain_count"]
    assert list(u.entries) == list(entries)
    scale = max((abs(v) for v in entries.values()), default=0.0)
    for key, amp in entries.items():
        assert abs(u.entries[key] - amp) <= 1e-14 * scale
    for name in ("u_norm", "f_norm", "bound_ratio", "tail_estimate"):
        assert abs(getattr(rep, name) - want[name]) <= 1e-14 * want[name], name
    assert abs(rep.residual_norm - want["residual_norm"]) <= 1e-14 * want["f_norm"]


# ---------------------------------------------------------------------------
# chain layout: _layout


def layout_grid(chains, M):
    """(m, n) of every (W, P) position of a layout, (M + 1, M + 1) past the equations, and its mask."""
    m, n = np.divmod(chains.gather, M + 2)
    return m, n, np.arange(m.shape[1]) < chains.counts[:, None]


def test_decompose_partitions_box():
    for k, M in [(1, 6), (2, 5), (3, 7), (4, 4), (5, 13)]:
        chains = _layout(k, M)
        m, n, eqs = layout_grid(chains, M)
        origins = list(zip(m[0].tolist(), n[0].tolist()))
        # longest first, ties in origin order
        assert origins == sorted(chain_origins(k, M), key=lambda o: -chain_length(o, k, M))
        lengths = eqs.sum(axis=0).tolist()
        assert lengths == [chain_length(o, k, M) for o in origins]
        assert (m[~eqs] == M + 1).all() and (n[~eqs] == M + 1).all()
        box = list(zip(m[eqs].tolist(), n[eqs].tolist()))
        assert sorted(box) == [(m, n) for m in range(M + 1) for n in range(M + 1)]
        # the stored positions add one edge entry per chain, past the box
        edges = set(map(tuple, chains.index.tolist())) - set(box)
        assert len(edges) == len(origins)
        assert all(m > M or n > M for m, n in edges)
        assert chains.couplings[eqs].tolist() == [
            math.sqrt(math.perm(m + k, k) * math.perm(n + k, k)) for m, n in box
        ]


def test_each_column_reads_the_representative_of_its_mirror_pair():
    for k, M in [(1, 6), (2, 5), (3, 7), (4, 4), (5, 13), (2, 1)]:
        chains = _layout(k, M)
        m, n, eqs = layout_grid(chains, M)
        m0, n0 = m[0].tolist(), n[0].tolist()
        # the representatives are the columns with m₀ ≤ n₀, in column order
        assert chains.reps.tolist() == [q for q in range(len(m0)) if m0[q] <= n0[q]]
        assert chains.rep_counts.tolist() == eqs[:, chains.reps].sum(axis=1).tolist()
        rep = chains.reps[chains.mirror].tolist()
        assert [(m0[q], n0[q]) for q in rep] == [(min(a, b), max(a, b)) for a, b in zip(m0, n0)]


def test_decompose_examples():
    idx, *_ = chain((0, 0), 2, 5, HermiteCoeffs.zero())
    assert idx == [(0, 0), (2, 2), (4, 4)]

    chains = _layout(3, 2)
    assert chains.counts.tolist() == [9]
    assert chains.couplings.shape == (1, 9) and chains.index.shape == (18, 2)


def test_decompose_couplings_and_weights():
    _, couplings, weights, _ = chain((0, 0), 1, 4, HermiteCoeffs.zero())
    assert couplings == [1, 4, 9, 16]
    assert weights == [1, 1, 4, 36, 576]
    assert all(b > a for a, b in zip(couplings, couplings[1:]))
    assert _layout(1, 4).couplings[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("M", [5, 13, 32])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_solution_index_runs_by_origin_then_j(k, M):
    # every chain's box positions and then its edge entry, origins in lexicographic order
    chains = [
        [(m0 + j * k, n0 + j * k) for j in range(chain_length((m0, n0), k, M) + 1)]
        for m0, n0 in chain_origins(k, M)
    ]
    assert list(map(tuple, _layout(k, M).index.tolist())) == [key for keys in chains for key in keys]
    # dense data reach every chain whose origin lies in the data box; the others solve to zero
    f = dense_data(random.Random(f"order:{k}:{M}"), M - k)
    u, _ = solve(ProblemSpec(k=k, c=1 + 1j, truncation=M, f=f))
    reached = [key for keys in chains if max(keys[0]) <= M - k for key in keys]
    assert list(map(tuple, u.index.tolist())) == reached


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_each_box_equation_pairs_a_stored_entry_with_the_next(k):
    # the output order holds each chain's entries by j, its edge entry last:
    # u_{j+1} of a box equation is the next stored entry, one step (P flat
    # positions) on, and the edges are the entries that no equation starts at
    for M in (1, 2, 5, 16, 32, 48):
        chains = _layout(k, M)
        stored, at, P = chains.stored, chains.box_at, len(chains.tail)
        assert (stored[at + 1] - stored[at] == P).all()
        assert stored[at].tolist() == chains.box.tolist()
        assert stored[chains.tail_at].tolist() == chains.tail.tolist()
        assert sorted([*at.tolist(), *chains.tail_at.tolist()]) == list(range(len(stored)))
        assert chains.box_couplings.tobytes() == chains.couplings.reshape(-1)[chains.box].tobytes()
        m, n = chains.index[at].T.tolist()
        assert chains.box_couplings.tolist() == [
            math.sqrt(math.perm(a + k, k) * math.perm(b + k, k)) for a, b in zip(m, n)
        ]


def test_cached_arrays_fit_in_the_bytes_of_the_row_major_layout():
    # the cached layout and factor hold at most the bytes that the row-major
    # layout, with its kernel-order factor beside it, held at M = 256
    for k, limit in ((1, 8_726_643), (4, 8_851_560)):
        _factor.cache_clear()
        _layout.cache_clear()
        chains, damp, tail_share, _, kernel = _factor(k, math.sqrt(2), 256)
        assert sum(a.nbytes for a in (*chains, damp, tail_share, *kernel)) <= limit


# ---------------------------------------------------------------------------
# chain solves: solve_chain_exact and min_norm_bidiagonal


def test_solve_chain_exact_reference_case():
    _, couplings, weights, rhs = chain((0, 0), 1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    sol = solve_chain_exact(couplings, weights, rhs, 1)
    assert sol == [
        ExactScalar(Fraction(5, 9)),
        ExactScalar(Fraction(4, 9)),
        ExactScalar(Fraction(-1, 9)),
    ]
    # equations hold exactly and the solution is w-orthogonal to the
    # homogeneous family h = [1, −1, 1/4]
    assert sol[0] + 1 * sol[1] == ExactScalar(1)
    assert sol[1] + 4 * sol[2] == ExactScalar(0)
    h = [ExactScalar(1), ExactScalar(-1), ExactScalar(Fraction(1, 4))]
    pairing = sum((h[j].conjugate() * sol[j] * weights[j] for j in range(3)), ExactScalar(0))
    assert pairing == ExactScalar(0)


def test_solve_chain_zero_rhs():
    _, couplings, weights, rhs = chain((0, 0), 1, 3, HermiteCoeffs.zero())
    assert solve_chain_exact(couplings, weights, rhs, 0) == [ExactScalar(0)] * 4


def test_solve_chain_c0_forward_substitution():
    _, couplings, weights, rhs = chain((0, 0), 1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    sol = solve_chain_exact(couplings, weights, rhs, 0)
    assert sol == [ExactScalar(0), ExactScalar(1), ExactScalar(0)]


def dense_min_norm_oracle(c, couplings, weights, rhs):
    """Dense weighted least-norm solve of the truncated chain system."""
    L = len(weights)
    B = np.zeros((L - 1, L), dtype=complex)
    for j in range(L - 1):
        B[j, j] = c
        B[j, j + 1] = couplings[j]
    w_isqrt = np.diag([1.0 / math.sqrt(w) for w in weights])
    x, *_ = np.linalg.lstsq(B @ w_isqrt, np.asarray(rhs[: L - 1], dtype=complex), rcond=None)
    return w_isqrt @ x


@pytest.mark.parametrize("c", [0j, 1 + 0j, 2 - 1j, 0.01 + 0j, 50 + 25j])
def test_solve_chain_float_matches_dense_oracle(c):
    rng = random.Random(f"chain:{c}")
    f = HermiteCoeffs(
        {
            (m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for m in range(5)
            for n in range(5)
        },
        "raw",
    )
    for origin in chain_origins(1, 6):
        _, couplings, weights, rhs = chain(origin, 1, 6, f)
        if len(rhs) < 2:
            continue
        got = float_chain_solve(couplings, weights, rhs, c)
        expect = dense_min_norm_oracle(c, couplings, weights, rhs)
        scale = max(np.max(np.abs(expect)), 1e-12)
        assert np.max(np.abs(np.asarray(got) - expect)) <= 1e-11 * scale


def test_solve_chain_float_residual_and_minimality():
    rng = random.Random(4)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(6) for n in range(6)},
        "raw",
    )
    for c in (0j, 1 + 1j, 10 + 0j, 1e6 + 0j):
        for origin in chain_origins(2, 7):
            _, couplings, weights, rhs = chain(origin, 2, 7, f)
            L = len(rhs)
            sol = float_chain_solve(couplings, weights, rhs, c)
            rhs_w = math.sqrt(sum(weights[j] * abs(complex(v)) ** 2 for j, v in enumerate(rhs)))
            if rhs_w == 0:
                assert all(v == 0 for v in sol)
                continue
            res_w_sq = 0.0
            for j in range(L - 1):
                r = c * sol[j] + couplings[j] * sol[j + 1] - complex(rhs[j])
                res_w_sq += weights[j] * abs(r) ** 2
            assert math.sqrt(res_w_sq) <= 1e-12 * (1.0 + abs(c)) * rhs_w
            if c == 0:
                assert sol[0] == 0
            else:
                # w-orthogonality to the homogeneous family (KKT minimality),
                # in orthonormal coordinates: h̃₀ = 1, h̃_{j+1} = −c·h̃_j/√A_j
                ho = [1.0 + 0j]
                for j in range(L - 1):
                    ho.append(-c * ho[j] / math.sqrt(couplings[j]))
                uo = [sol[j] * math.sqrt(weights[j]) for j in range(L)]
                dot = sum(x.conjugate() * y for x, y in zip(ho, uo))
                nu = math.sqrt(sum(abs(x) ** 2 for x in uo))
                nh = math.sqrt(sum(abs(x) ** 2 for x in ho))
                if nu > 0:
                    assert abs(dot) <= 1e-12 * nu * nh


def test_solve_chain_exact_random_chains():
    # Exact mode: equations and minimality hold with zero tolerance.
    rng = random.Random(55)
    entries = {
        (rng.randrange(6), rng.randrange(6)): ExactScalar(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
        )
        for _ in range(10)
    }
    f = HermiteCoeffs(entries)
    for c in (0, 2, ExactScalar(1, 1), ExactScalar(Fraction(-3, 2), Fraction(1, 3))):
        for origin in chain_origins(1, 6):
            _, couplings, weights, rhs = chain(origin, 1, 6, f)
            L = len(rhs)
            sol = solve_chain_exact(couplings, weights, rhs, c)
            cc = ExactScalar.coerce(c)
            for j in range(L - 1):
                lhs = cc * sol[j] + couplings[j] * sol[j + 1]
                assert lhs == rhs[j]
            # exact KKT: w-orthogonal to the homogeneous family
            h = [ExactScalar(1)]
            for j in range(L - 1):
                h.append(-(cc * h[j]) / couplings[j])
            pairing = ExactScalar(0)
            for j in range(L):
                pairing = pairing + h[j].conjugate() * sol[j] * weights[j]
            assert pairing == ExactScalar(0)


def test_solve_chain_exact_rhs_float_shift_uses_float_path():
    # the exact reference case, solved in floating point
    _, couplings, weights, rhs = chain((0, 0), 1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    sol = float_chain_solve(couplings, weights, rhs, 1.0)
    expect = [5 / 9, 4 / 9, -1 / 9]
    assert all(abs(got - want) <= 1e-14 for got, want in zip(sol, expect))


def test_min_norm_bidiagonal_single_equation():
    c = 2 - 1j
    sol = min_norm_bidiagonal(c, [3.0], [5 + 0j, 0j])
    # u = conj(row)·f/‖row‖²
    denom = abs(c) ** 2 + 9.0
    assert sol[0] == pytest.approx(c.conjugate() * 5 / denom)
    assert sol[1] == pytest.approx(3.0 * 5 / denom)


@pytest.mark.parametrize(
    "c",
    [1 + 1j, 24 + 1j, 0.3 - 2.9j, 1 + 0j, -1 + 0j, 1j, -1j, 0j]
    + [1e-3 + 0j, -1e-3j, 6e-4 - 8e-4j, 1e6 + 0j, -1e6j, -6e5 + 8e5j],
)
def test_phase_turn_matches_complex_givens(c):
    # the real chain of |c| on turned data against complex Givens rotations
    # on the chain itself, with the edge coupling as given or, for c ≠ 0,
    # 0 (τ = ∞; at c = 0 the last pivot would vanish)
    rng = random.Random(f"turn:{c}")
    edges = (1.0, 0.0) if c else (1.0,)
    for k in (1, 2, 3):
        for origin in ((0, 0), (0, 5), (2, 0)):
            for L in (1, 2, 8, 30):
                sa = chain_couplings(origin, k, L)
                spike = [0j] * L
                spike[rng.randrange(L)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                dense = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(L)]
                for edge, rhs in itertools.product(edges, (dense, spike)):
                    couplings = sa[:-1] + [sa[-1] * edge]
                    want = complex_min_norm_bidiagonal(c, couplings, rhs + [0j])
                    got = min_norm_bidiagonal(c, couplings, rhs + [0j])
                    scale = max(map(abs, want))
                    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * scale
                    # the entries a solve keeps (|u| > 0) differ only below the bound
                    kept = ({j for j, x in enumerate(sol) if abs(x) > 0} for sol in (got, want))
                    assert all(abs(want[j]) <= 1e-14 * scale for j in set.symmetric_difference(*kept))


# ---------------------------------------------------------------------------
# solve


def test_solve_sharpness_k1():
    u, rep = solve(ProblemSpec(k=1, c=0j, truncation=8, f=unit_f()))
    raw = u.to_raw()
    assert set(raw.entries) == {(1, 1)}
    assert raw.entries[(1, 1)] == pytest.approx(1.0 + 0j, rel=1e-14)
    assert rep.bound_ratio == pytest.approx(1.0, abs=1e-14)
    assert rep.residual_norm == 0.0


def test_solve_sharpness_k2():
    u, rep = solve(ProblemSpec(k=2, c=0j, truncation=8, f=unit_f()))
    raw = u.to_raw()
    assert set(raw.entries) == {(2, 2)}
    assert raw.entries[(2, 2)] == pytest.approx(0.25 + 0j, rel=1e-14)
    assert rep.bound_ratio == pytest.approx(1.0, abs=1e-13)


def test_solve_zero_data():
    u, rep = solve(ProblemSpec(k=1, c=5 + 0j, truncation=8, f=HermiteCoeffs.zero("orthonormal")))
    assert not u.entries
    assert rep.residual_norm == 0.0 and rep.u_norm == 0.0 and rep.bound_ratio == 0.0
    assert rep.bound_holds


def test_solve_rejects_margin_violation():
    f = HermiteCoeffs.basis_vector(8, 8, 1.0 + 0j, "orthonormal")
    with pytest.raises(ValueError, match=r"\(8,8\)"):
        solve(ProblemSpec(k=1, c=0j, truncation=8, f=f))


def test_validate_checks_an_exact_f_support_before_its_amplitudes():
    # the box is checked on the stored index, before any amplitude is converted
    f = HermiteCoeffs({(0, 0): 1, (9, 0): 10**400})
    with pytest.raises(ValueError, match=r"index \(9,0\) outside the certified box"):
        ProblemSpec(k=1, c=0j, truncation=8, f=f).validate()
    # inside the box, an amplitude past float range is refused on conversion
    f = HermiteCoeffs({(0, 0): 10**400})
    with pytest.raises(ValueError, match="overflows a float"):
        ProblemSpec(k=1, c=0j, truncation=8, f=f).validate()


def test_solve_residual_is_true_operator_residual():
    # Cross-check the reported residual with apply_operator on the returned u.
    f = dense_data(random.Random(14), 6)
    spec = ProblemSpec(k=1, c=1 + 1j, truncation=8, f=f)
    u, rep = solve(spec)
    out = apply_operator(1, 1 + 1j, u)
    diff_sq = 0.0
    box = {(m, n) for m in range(9) for n in range(9)}
    for key in box:
        d = out.entries.get(key, 0j) - f.entries.get(key, 0j)
        diff_sq += abs(d) ** 2
    assert math.sqrt(diff_sq) == pytest.approx(rep.residual_norm, rel=1e-6, abs=1e-12)
    assert rep.residual_norm <= 1e-10 * rep.f_norm


def test_solve_bound_grid():
    rng = random.Random(8)
    for k in (1, 2, 3, 4):
        f = dense_data(rng, 12 - k)
        for c in CERTIFICATION_C_GRID:
            u, rep = solve(ProblemSpec(k=k, c=c, truncation=12, f=f))
            assert rep.bound_holds
            assert rep.residual_norm <= 1e-10 * rep.f_norm


def test_solve_linearity():
    rng = random.Random(21)
    make = lambda seed: HermiteCoeffs(
        {
            (m, n): complex(random.Random(seed + m * 31 + n).gauss(0, 1), 0.3)
            for m in range(5)
            for n in range(5)
        },
        "orthonormal",
    )
    f1, f2 = make(1), make(2)
    alpha, beta = 0.7 - 0.2j, -1.3 + 0.5j
    combo = plus(scaled(f1, alpha), scaled(f2, beta))
    spec = lambda f: ProblemSpec(k=2, c=1 + 1j, truncation=8, f=f)
    u1, _ = solve(spec(f1))
    u2, _ = solve(spec(f2))
    uc, _ = solve(spec(combo))
    expect = plus(scaled(u1, alpha), scaled(u2, beta))
    box = {(m, n) for m in range(9) for n in range(9)}
    err = max(abs(uc.entries.get(kk, 0j) - expect.entries.get(kk, 0j)) for kk in box)
    scale = max(abs(v) for v in expect.entries.values())
    assert err <= 1e-12 * scale


def test_solve_is_deterministic():
    rng = random.Random(33)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(6) for n in range(6)},
        "raw",
    )
    spec = ProblemSpec(k=2, c=3 + 0j, truncation=7, f=f)
    u1, rep1 = solve(spec)
    u2, rep2 = solve(spec)
    assert u1 == u2
    assert rep1 == rep2


def test_solve_chain_order_independence_c0():
    # With c = 0 no chain has mass past its edge entry, so solving the chains
    # one at a time, in any order, reproduces solve() to rounding.
    rng = random.Random(34)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(6) for n in range(6)},
        "raw",
    )
    spec = ProblemSpec(k=2, c=0j, truncation=7, f=f)
    u, _ = solve(spec)
    origins = chain_origins(2, 7)
    rng.shuffle(origins)
    assembled = {}
    for origin in origins:
        idx, couplings, weights, rhs = chain(origin, 2, 7, f)
        for (m, n), value in zip(idx, float_chain_solve(couplings, weights, rhs, 0j)):
            scale = math.sqrt(math.pi * math.factorial(m) * math.factorial(n))
            if abs(value * scale) > 0:
                assembled[(m, n)] = value * scale
    assert set(assembled) == set(u.entries)
    for key, amp in u.entries.items():
        # normalization conversions differ by at most a rounding step
        assert assembled[key] == pytest.approx(amp, rel=1e-14)


def test_operator_norm_probe():
    assert operator_norm_probe(1, 0j, trials=5, M=10, seed=1) == pytest.approx(1.0, abs=1e-10)
    assert operator_norm_probe(2, 0j, trials=5, M=10, seed=1) == pytest.approx(0.5, abs=1e-10)
    big = operator_norm_probe(1, 1e6 + 0j, trials=5, M=10, seed=1)
    assert big <= 2e-6


def test_probe_upper_bound_various_shifts():
    for k in (1, 2, 3):
        for c in (0j, 1j, 10 + 0j):
            value = operator_norm_probe(k, c, trials=8, M=10, seed=3)
            assert value <= 1.0 / math.factorial(k) + 1e-10


# ---------------------------------------------------------------------------
# exact tail closure


def dense_f(k, M, seed):
    return dense_data(random.Random(seed), M - k)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("c", [0.01 + 0j, 1 + 0j, 1j, 10 + 0j, 1e6 + 0j])
def test_tail_closure_matches_padded_chain(k, c):
    # Each stored chain is the infinite chain's minimum-norm solution; the
    # same chain zero-padded by 64 positions approximates it to rounding.
    # The edge entry v = √(1+τ)·u_L carries the mass from L on, and the tail
    # past it |v|·√(τ/(1+τ)).
    M, pad = 32, 64
    f = dense_f(k, M, 101 + k)
    u, rep = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
    sqrt_pi = math.sqrt(math.pi)
    scales, tails = [], []
    for m0, n0 in chain_origins(k, M):
        L = chain_length((m0, n0), k, M)
        idx = [(m0 + j * k, n0 + j * k) for j in range(L + 1)]
        rhs = [f.entries.get(key, 0j) / sqrt_pi for key in idx[:L]]
        sa = chain_couplings((m0, n0), k, L + pad)
        oracle = min_norm_bidiagonal(c, sa, rhs + [0j] * (pad + 1))
        scale = math.sqrt(sum(abs(x) ** 2 for x in oracle))
        sol = [u.entries.get(key, 0j) / sqrt_pi for key in idx]
        assert max(abs(a - b) for a, b in zip(sol, oracle)) <= 1e-14 * scale
        tau = scalar_tail_weight((m0, n0), k, L, c)
        v = abs(sol[L]) * math.sqrt(1.0 + tau) if sol[L] else 0.0
        tail = v * math.sqrt(1.0 if tau == math.inf else tau / (1.0 + tau))
        edge_mass = math.sqrt(sum(abs(x) ** 2 for x in oracle[L:]))
        assert abs(v - edge_mass) <= 1e-14 * scale
        past_edge = math.sqrt(sum(abs(x) ** 2 for x in oracle[L + 1 :]))
        assert abs(tail - past_edge) <= 1e-14 * scale
        scales.append(scale)
        tails.append(past_edge)
    # the same masses summed over the chains, as the report gives them
    bound = 1e-14 * reference_norm(scales)
    assert abs(rep.u_norm / sqrt_pi - reference_norm(scales)) <= bound
    assert abs(rep.tail_estimate / sqrt_pi - reference_norm(tails)) <= bound


@pytest.mark.parametrize("M", [32, 256])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tail_weights_match_scalar_series(k, M):
    # every chain's τ against the scalar series on exact integer couplings
    chains = _layout(k, M)
    origins = chain_origins(k, M)
    lengths = [chain_length(origin, k, M) for origin in origins]
    edges = [(m0 + k * L, n0 + k * L) for (m0, n0), L in zip(origins, lengths)]
    assert list(zip(chains.m_edge.tolist(), chains.n_edge.tolist())) == edges
    for c in CERTIFICATION_C_GRID + (0.01 + 0j, 1e200 + 0j):
        tau = _tail_weights(chains.m_edge, chains.n_edge, k, abs(c) * abs(c), chains.perms)
        for origin, got in zip(origins, tau.tolist()):
            want = scalar_tail_weight(origin, k, chain_length(origin, k, M), c)
            assert got == want or abs(got - want) <= 1e-14 * want, (origin, c)


@pytest.mark.parametrize("c", [1e150 + 0j, 1e200 + 0j])
def test_solve_huge_shifts(c):
    f = dense_f(1, 16, 5)
    u, rep = solve(ProblemSpec(k=1, c=c, truncation=16, f=f))
    assert rep.residual_norm <= 1e-10 * rep.f_norm
    # u ≈ f/c: its norm stays representable though its squares underflow
    assert rep.u_norm == pytest.approx(rep.f_norm / abs(c), rel=1e-10)
    assert rep.bound_holds and rep.tail_estimate == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, None], ids=["1e-200", "1", "1e200", "mixed"])
def test_norm_within_one_ulp_of_exact(scale):
    # the exact norm is √S with S the rational sum of squares; for r = _norm of
    # the magnitudes np.hypot(re, im), formed as solve forms them,
    # |r − √S|/√S = |d|/(√(1+d) + 1) with d = (r² − S)/S computed exactly
    rng = random.Random(f"norm:{scale}")
    for _ in range(100):
        size = rng.randint(1, 300)
        magnitudes = [scale or 10.0 ** rng.uniform(-300, 300) for _ in range(size)]
        values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * mag for mag in magnitudes]
        sq = sum(Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in values)
        a = np.array(values)
        d = float((Fraction(_norm(np.hypot(a.real, a.imag))) ** 2 - sq) / sq)
        assert abs(d) / (math.sqrt(1 + d) + 1) <= 2.3e-16


def test_solve_truncation_160():
    f = dense_f(1, 160, 6)
    _, rep = solve(ProblemSpec(k=1, c=10 + 0j, truncation=160, f=f))
    assert rep.residual_norm <= 1e-10 * rep.f_norm
    assert rep.bound_holds


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c", [0j, 1 + 1j, 10 + 0j, 1e6 + 0j])
def test_solve_stores_box_plus_edge(k, c):
    M = 12
    u, rep = solve(ProblemSpec(k=k, c=c, truncation=M, f=dense_f(k, M, 7)))
    for m, n in u.entries:
        j = min(m, n) // k
        origin = (m - j * k, n - j * k)
        assert j <= chain_length(origin, k, M)
    # u_norm is the stored part plus the tail past it
    stored_sq = sum(abs(v) ** 2 for v in u.entries.values())
    assert rep.u_norm**2 == pytest.approx(stored_sq + rep.tail_estimate**2, rel=1e-12)


@pytest.mark.parametrize("c", [complex("nan"), complex("inf"), complex(0, float("-inf")), 1.5e308 + 1.5e308j])
def test_solve_rejects_non_finite_shift(c):
    with pytest.raises(ValueError, match="not finite"):
        solve(ProblemSpec(k=1, c=c, truncation=8, f=unit_f()))


def test_solve_rejects_non_finite_data():
    # a NaN amplitude is rejected where the data enter, in the HermiteCoeffs
    # constructor, so it never reaches solve
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        HermiteCoeffs({(0, 0): 1.0 + 0j, (2, 1): complex(float("nan"), 0.0)}, "orthonormal")
    # finite raw data that overflow on the way to orthonormal amplitudes are
    # rejected by solve
    f = HermiteCoeffs({(0, 0): 1.0 + 0j, (50, 50): 1e300 + 0j})
    with pytest.raises(ValueError, match=r"\(50, 50\)"):
        solve(ProblemSpec(k=1, c=1 + 0j, truncation=60, f=f))


# ---------------------------------------------------------------------------
# the lockstep kernel against the scalar per-chain reference


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("c", CERTIFICATION_C_GRID + (0.01 + 0j,))
def test_solve_matches_scalar_reference(k, c):
    assert_matches_reference(ProblemSpec(k=k, c=c, truncation=32, f=dense_f(k, 32, 200 + k)))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("c", [0j, 1 + 1j, 1e6 + 0j])
def test_solve_matches_scalar_reference_at_256(k, c):
    assert_matches_reference(ProblemSpec(k=k, c=c, truncation=256, f=dense_f(k, 256, 300 + k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_pivot_is_k_factorial_at_c0(k):
    # at c = 0 every pivot is a coupling, the smallest √(k!·k!) at the origin
    _, rep = solve(ProblemSpec(k=k, c=0j, truncation=16, f=dense_f(k, 16, 9)))
    assert rep.min_pivot == math.factorial(k)


def box_residual(k, c, M, f, u):
    """Weighted residual of (∂^k∂̄^k + c)u − f over the box, through apply_operator."""
    lu = apply_operator(k, c, u)
    keys = {key for key in set(lu.entries) | set(f.entries) if max(key) <= M}
    return reference_norm(lu.entries.get(key, 0j) - f.entries.get(key, 0j) for key in keys)


@pytest.mark.parametrize("k, c", [(80, 1 + 0j), (120, 1j)])
def test_solve_large_k(k, c):
    # the box couplings reach (2k)!/k!, whose square overflows a float
    f = dense_f(k, k, 10)
    u, rep = solve(ProblemSpec(k=k, c=c, truncation=k, f=f))
    assert rep.bound_ratio <= 1 + 1e-10
    assert box_residual(k, c, k, f, u) <= 1e-10 * rep.f_norm
    assert rep.residual_norm <= 1e-10 * rep.f_norm


def test_to_raw_of_a_solution_past_index_170_raises():
    # library solves stay unbounded; only the raw rescaling has to refuse
    f = HermiteCoeffs.basis_vector(180, 180, 1.0 + 0j, "orthonormal")
    u, _ = solve(ProblemSpec(k=1, c=1 + 0j, truncation=200, f=f))
    assert len(u.entries) == 21
    with pytest.raises(ValueError, match=r"raw amplitude at index \(\d+, \d+\) is below the normal float range"):
        u.to_raw()


@pytest.mark.parametrize("k, M", [(170, 170), (171, 171), (200, 200), (30, 10**11)])
def test_solve_rejects_couplings_past_float_range(k, M):
    with pytest.raises(ValueError, match=f"k = {k} with truncation {M}"):
        solve(ProblemSpec(k=k, c=1 + 0j, truncation=M, f=unit_f()))


def test_cli_large_k_exits_2(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(
        '{"k": 200, "c": {"re": 1.0, "im": 0.0}, "truncation": 200,'
        ' "f": {"basis": "hermite", "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]}}'
    )
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 2
    assert "k = 200" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the factor of (k, c, M), shared by the solves that come after it


def bits(solution):
    """Every bit of a solve's output: the coefficients in order and the report fields."""
    u, rep = solution
    floats = [x.hex() if isinstance(x, float) else x for x in astuple(rep)]
    return [(key, v.real.hex(), v.imag.hex()) for key, v in u.entries.items()], floats


def cold_solve(spec):
    _factor.cache_clear()
    _layout.cache_clear()
    return solve(spec)


def test_solve_is_independent_of_the_solves_before_it():
    a = ProblemSpec(k=1, c=1 + 1j, truncation=16, f=dense_f(1, 16, 1))
    same_factor = ProblemSpec(k=1, c=1 + 1j, truncation=16, f=dense_f(1, 16, 2))
    other_c = ProblemSpec(k=1, c=-10j, truncation=16, f=dense_f(1, 16, 3))
    other_k_m = ProblemSpec(k=3, c=1e6 + 0j, truncation=24, f=dense_f(3, 24, 4))
    cold = {id(spec): bits(cold_solve(spec)) for spec in (a, same_factor, other_c, other_k_m)}
    for spec in (a, same_factor, a, other_c, a, other_k_m, same_factor, a, a):
        assert bits(solve(spec)) == cold[id(spec)]
        assert_matches_reference(spec)


def test_shifts_of_one_modulus_share_a_factor():
    # the factor is keyed by |c|: 0 and −0j share one, and so do ±1 and ±i
    f = dense_f(2, 12, 5)
    shifts = (0j, complex(0, -0.0), 1 + 0j, -1 + 0j, 1j, -1j)
    specs = [ProblemSpec(k=2, c=c, truncation=12, f=f) for c in shifts]
    cold = [bits(cold_solve(spec)) for spec in specs]
    _factor.cache_clear()
    assert [bits(solve(spec)) for spec in specs] == cold
    assert _factor.cache_info().misses == 2


def test_certify_sweep_factors_once_per_run_of_one_modulus():
    # per k, the grid's runs of equal |c|: 0; 1, −1, i, −i; 1+i; 10, −10i; 1e6
    _factor.cache_clear()
    certify_sweep(1, 2, 2, 12, 0)
    assert _factor.cache_info().misses == 10


FACTOR_MODULI = (0.0, 5e-324, 1e-300, 0.3, 1.0, math.sqrt(2), 10.0, 1e3, 1e6, 1e150, 1e300, 1.7e308)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_factor_matches_the_full_width_reference_bit_for_bit(k):
    # the factor runs τ and the pivot loop on one chain of each mirror pair,
    # τ from the layout's table of the couplings past the edges, which grows
    # as the moduli do; the reference runs every column and sums τ step by
    # step.  Boxes below k have a layout and a factor, though no solve
    for M in (1, 2, 5, 16, 32, 48, 100):
        for rho in FACTOR_MODULI:
            _, *got, min_pivot, kernel = _factor(k, rho, M)
            *want, want_pivot, want_kernel = reference_factor(k, rho, M)
            for a, b in zip((*got, *kernel), (*want, *want_kernel)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (M, rho)
            assert min_pivot.hex() == want_pivot.hex(), (M, rho)


@pytest.mark.parametrize("k", [80, 120])
def test_factor_matches_the_reference_where_couplings_pass_float_range(k):
    # from k = 120 some A_1 past an edge is inf: at |c|² = inf those chains
    # add no term, while every other chain's first term is inf
    for rho in FACTOR_MODULI:
        _, *got, min_pivot, kernel = _factor(k, rho, k)
        *want, want_pivot, want_kernel = reference_factor(k, rho, k)
        for a, b in zip((*got, *kernel), (*want, *want_kernel)):
            assert a.tobytes() == b.tobytes(), rho
        assert min_pivot.hex() == want_pivot.hex(), rho


def test_threads_that_grow_one_table_at_once_read_every_row_in_its_place():
    # the layout's table of the couplings past the edges is shared, and two
    # threads may form one block of it at once; these moduli need 3 to 6 blocks
    moduli = [30.0, 100.0, 200.0, 345.0] * 2
    _layout.cache_clear()
    past = _layout(1, 64).past
    got, start = [None] * len(moduli), threading.Barrier(len(moduli))

    def run(i):
        start.wait(timeout=60)
        got[i] = _tail_weights(past.m_edge, past.n_edge, 1, moduli[i] ** 2, past.perms, past)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(moduli))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rho, tau in zip(moduli, got):
        want = reference_tail_weights(past.m_edge, past.n_edge, 1, rho**2, np.empty(0))
        assert tau.tobytes() == want.tobytes(), rho


def test_turns_are_kept_for_one_shift_with_the_sign_of_its_zeros():
    # the two shifts are ==, but c/|c| keeps the sign of the zero part, so
    # their turns differ in bits: the kept table of one is not the other's
    def parts(c):
        return [(t.real.hex(), t.imag.hex()) for t in solver._turns(c, 5).tolist()]

    c, twin = complex(0.0, -1.0), complex(-0.0, -1.0)
    want = parts(twin)
    assert parts(c) != want and parts(twin) == want
    with pytest.raises(ValueError, match="read-only"):
        solver._turns(c, 5)[0] = 0


def test_cached_arrays_are_read_only():
    solve(ProblemSpec(k=2, c=1 + 1j, truncation=10, f=dense_f(2, 10, 6)))
    chains, damp, tail_share, _, kernel = _factor(2, abs(1 + 1j), 10)
    # the couplings past the edges are the layout's one growing part, in read-only blocks
    *layout, past = chains
    arrays = [*layout, *past.arrays, damp, tail_share, *kernel]
    assert chains is _layout(2, 10) and len(layout) == 14 and past.blocks
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("part", [(math.inf, 0.0), (math.nan, 0.0), (1.5e308, 1.5e308)])
def test_a_non_finite_solution_amplitude_raises(monkeypatch, part):
    # as the HermiteCoeffs constructor raises on the same amplitude
    apply = solver._lockstep_apply

    def broken(*args):
        u_re, u_im = apply(*args)
        u_re[0, 0], u_im[0, 0] = (x / math.sqrt(math.pi) for x in part)
        return u_re, u_im

    monkeypatch.setattr(solver, "_lockstep_apply", broken)
    with pytest.raises(ValueError) as raised:
        solve(ProblemSpec(k=1, c=1 + 1j, truncation=8, f=unit_f()))
    value = complex(*(x / math.sqrt(math.pi) * math.sqrt(math.pi) for x in part))
    with pytest.raises(ValueError) as constructed:
        HermiteCoeffs({(0, 0): value}, "orthonormal")
    assert str(raised.value) == str(constructed.value)


def test_solve_rejects_an_index_past_int64():
    # no vector holds such an index: the refusal comes at construction
    with pytest.raises(ValueError, match=r"index \(10{30}, 0\) is past the int64 range"):
        HermiteCoeffs({(0, 0): 1.0 + 0j, (10**30, 0): 1.0 + 0j}, "orthonormal")


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: certify_sweep(1, 1, 1, 1448, 0),
        lambda: operator_norm_probe(1, 0j, 1, M=1448),
        lambda: certify_sweep(1, 1, 1, 10**9, 0),
    ],
)
def test_sweeps_reject_a_box_past_the_bound(sweep):
    # rejected before any data or layout exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="box cells"):
            sweep()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_sweep_box_bound_admits_its_edge():
    assert (1447 + 1) ** 2 <= CELL_BUDGET < (1448 + 1) ** 2
    solver._check_sweep_box(1447)


@pytest.mark.parametrize("trials, k_min, k_max", [(0, 1, 2), (-1, 1, 2), (1, 3, 1)])
def test_certify_sweep_rejects_an_empty_sweep(trials, k_min, k_max):
    with pytest.raises(ValueError):
        certify_sweep(k_min, k_max, trials, 8, 0)


def _no_work(*args, **kwargs):
    raise AssertionError("a sweep drew or solved before refusing a cell")


@pytest.mark.parametrize(
    "sweep, message",
    [
        (lambda: certify_sweep(1, 171, 1, 170, 0), "k = 131 with truncation 170"),
        (lambda: certify_sweep(1, 33, 1, 32, 0), "truncation must be at least k"),
        # the cells are checked lazily: the refusal at k = 33 never builds the rest
        (lambda: certify_sweep(1, 10**12, 1, 32, 0), "truncation must be at least k"),
        (lambda: certify_sweep(0, 2, 1, 32, 0), "k must be a positive integer"),
        (lambda: operator_norm_probe(1, complex(math.nan, 0), 3, M=8), "is not finite"),
        (lambda: operator_norm_probe(9, 0j, 3, M=8), "truncation must be at least k"),
    ],
    ids=["couplings", "k-past-M", "unbounded-k-range", "k-zero", "nan-shift", "probe-k-past-M"],
)
def test_sweeps_refuse_an_unsolvable_cell_before_any_draw_or_solve(monkeypatch, sweep, message):
    monkeypatch.setattr(solver, "solve", _no_work)
    monkeypatch.setattr(solver, "dense_data", _no_work)
    with pytest.raises(ValueError, match=message):
        sweep()


def _row_bits(row):
    """Every field of a certify row, in order, with floats by their hex form."""
    c = row["c"]
    floats = (c["re"], c["im"], row["max_bound_ratio"], row["max_relative_residual"])
    hold = row["all_hold"]
    return list(row), list(c), row["k"], [x.hex() for x in floats], type(hold), hold


@pytest.mark.parametrize("k_min, k_max, trials, M, seed", [(1, 4, 3, 12, 0), (1, 2, 2, 32, 7)])
def test_certify_sweep_matches_its_own_loop_bit_for_bit(k_min, k_max, trials, M, seed):
    rows = certify_sweep(k_min, k_max, trials, M, seed)
    reference = reference_certify_sweep(k_min, k_max, trials, M, seed)
    assert [_row_bits(row) for row in rows] == [_row_bits(row) for row in reference]


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_operator_norm_probe_matches_its_own_loop_bit_for_bit(k, trials):
    # H₀₀ takes no draw, and the dense trials after it number trials − 1
    for c in CERTIFICATION_C_GRID:
        value = operator_norm_probe(k, c, trials, seed=-5)
        assert value.hex() == reference_operator_norm_probe(k, c, trials, seed=-5).hex(), c


# ---------------------------------------------------------------------------
# array storage, kernel and norms against the dict-backed solve they replaced


def reference_norm(values):
    """math.hypot over ``abs`` of each value, complex or float: the reference of solver._norm."""
    return math.hypot(*map(abs, values))


def dict_backed_solve(spec):
    """solve with its data read through ``f.entries`` and its solution written as a dict.

    The right-hand side is gathered by (m, n) pairs from a dense grid, the
    chains are solved by :func:`reference_lockstep_apply`, the report norms
    are :func:`reference_norm` of Python float lists, and the solution is
    the dict of key tuples and Python complexes that the constructor's
    prune rule keeps.  The output order, chain by chain in origin order and
    each by j, is walked from the layout's (m, n) grid, not read from its
    stored positions.  Returns that dict and the report.
    """
    f = spec.validate()
    k, M, c = spec.k, spec.truncation, complex(spec.c)
    chains, damp, tail_share, min_pivot, kernel = _factor(k, abs(c), M)
    m, n, box = layout_grid(chains, M)
    width, rows = box.shape
    lengths = box.sum(axis=0)
    columns = np.lexsort((n[0], m[0])).tolist()  # the chains in origin order
    sqrt_pi = math.sqrt(math.pi)
    index = index_array(f.entries)
    amps = np.fromiter(f.entries.values(), complex, len(f.entries))
    data = np.empty_like(amps)
    data.real, data.imag = amps.real / sqrt_pi, amps.imag / sqrt_pi
    dense = np.zeros((M + 2) * (M + 2), dtype=complex)
    dense[index[:, 0] * (M + 2) + index[:, 1]] = data
    dense = dense.reshape(M + 2, M + 2)
    rhs = dense[m, n]
    u_re, u_im = reference_lockstep_apply(kernel, rhs, solver._turns(c, width + 1))
    sizes = np.hypot(u_re, u_im)
    stored = [(j, q) for q in columns for j in range(lengths[q] + 1)]
    edge = (lengths[columns], columns)
    tails = sizes[edge] * tail_share
    u_norm = reference_norm([sizes[j, q] for j, q in stored]) * sqrt_pi
    u_re[edge] /= damp
    u_im[edge] /= damp
    u_re0, u_im0, a = u_re[:-1], u_im[:-1], chains.couplings
    res_re = (c.real * u_re0 - c.imag * u_im0) - rhs.real + a * u_re[1:]
    res_im = (c.real * u_im0 + c.imag * u_re0) - rhs.imag + a * u_im[1:]
    residuals = np.hypot(res_re, res_im)
    values = np.empty(len(stored), dtype=complex)
    values.real = [u_re[j, q] * sqrt_pi for j, q in stored]
    values.imag = [u_im[j, q] * sqrt_pi for j, q in stored]
    keys = [(m[0, q] + j * k, n[0, q] + j * k) for j, q in stored]
    entries = {key: v for key, v in zip(keys, values.tolist()) if 0 < abs(v) < math.inf}
    f_norm = reference_norm(np.hypot(data.real, data.imag).tolist()) * sqrt_pi
    ratio = 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm
    report = solver.SolveReport(
        residual_norm=reference_norm([residuals[j, q] for j, q in stored if j < lengths[q]]) * sqrt_pi,
        f_norm=f_norm,
        u_norm=u_norm,
        bound_ratio=ratio,
        bound_holds=ratio <= 1.0 + solver.BOUND_TOL,
        truncation=M,
        chain_count=rows,
        tail_estimate=reference_norm(tails.tolist()) * sqrt_pi,
        min_pivot=min_pivot,
    )
    return entries, report


def edge_data(rng, margin):
    """Parts of ±0.0, the smallest subnormal and ±1e300 at distinct random box indices."""
    parts = [(1e300, -0.0), (-1e300, 0.0), (5e-324, -1.0), (-0.0, 2.5), (-1.0, -5e-324)]
    cells = rng.sample(range((margin + 1) ** 2), len(parts))
    keys = [divmod(cell, margin + 1) for cell in cells]
    return HermiteCoeffs({key: complex(*part) for key, part in zip(keys, parts)}, "orthonormal")


def assert_matches_the_dict_backed_solve(spec):
    u, report = solve(spec)
    assert u._entries is None
    entries, want = dict_backed_solve(spec)
    assert bits((u, report)) == bits((SimpleNamespace(entries=entries), want))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("c", CERTIFICATION_C_GRID + (0.01 + 0j,))
def test_array_solve_matches_the_dict_backed_solve_bit_for_bit(k, c):
    rng = random.Random(f"{k}:{c}")
    for M in (32, 48):
        m, n = rng.randrange(M - k + 1), rng.randrange(M - k + 1)
        # a real amplitude: at the axis shifts the solution has parts of ±0.0
        single = HermiteCoeffs({(m, n): complex(rng.gauss(0, 1), 0.0)}, "raw")
        for f in (dense_data(rng, M - k), single, edge_data(rng, M - k)):
            assert_matches_the_dict_backed_solve(ProblemSpec(k=k, c=c, truncation=M, f=f))


def test_array_solve_matches_the_dict_backed_solve_at_256():
    f = dense_f(1, 256, 400)
    assert_matches_the_dict_backed_solve(ProblemSpec(k=1, c=1 + 1j, truncation=256, f=f))


@pytest.mark.parametrize("values", [[3.0, -4.0, -0.0, 5e-324], [1e300, -1e300, 1.0], []])
def test_norm_of_a_float_array_matches_the_abs_path(values):
    # math.hypot takes |x| of each float itself, so the array path drops the abs map
    assert _norm(np.array(values)).hex() == reference_norm(values).hex()


def spread_data(rng, margin):
    """dense_data with each part scaled by 2^j, j drawn from [−1070, 1000]: subnormal to near overflow."""
    index, values = dense_data(rng, margin).arrays()
    scales = [rng.randint(-1070, 1000) for _ in range(2 * len(values))]
    return HermiteCoeffs._from_array(index, np.ldexp(values.view(float), scales).view(complex), "orthonormal")


ASSEMBLY_SHIFTS = CERTIFICATION_C_GRID + (0.01 + 0j, 0.3 - 2j, 1e-300 + 0j, 5e-324j, 1e300 + 0j)


@pytest.mark.parametrize("M", [1, 2, 5, 16, 32, 48])
def test_solve_keeps_the_bits_of_the_padded_post_pass(M):
    # solve forms magnitudes, damping and residual on its stored entries
    # alone; the reference forms them on every padded cell and selects after
    for k in range(1, min(M, 6) + 1):
        rng = random.Random(f"assembly:{k}:{M}")
        for c in ASSEMBLY_SHIFTS:
            for f in (dense_data(rng, M - k), spread_data(rng, M - k)):
                spec = ProblemSpec(k=k, c=c, truncation=M, f=f)
                (u, report), (want, want_report) = solve(spec), padded_solve(spec)
                assert u.index.tobytes() == want.index.tobytes(), (k, c)
                assert u.arrays()[1].tobytes() == want.arrays()[1].tobytes(), (k, c)
                assert repr(report) == repr(want_report), (k, c)
