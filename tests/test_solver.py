"""Chain layout, minimum-norm chain solves, and the certified solve."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from focksolve import ExactScalar, HermiteCoeffs, ProblemSpec, cli, operator_norm_probe, solve
from focksolve.basis import apply_operator
from focksolve.solver import (
    CERTIFICATION_C_GRID,
    _layout,
    _min_norm_bidiagonal,
    _norm,
    _solve_chain_exact,
    _tail_weights,
    dense_data,
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
    sol = _min_norm_bidiagonal(complex(c), sa, [complex(v) * s for v, s in zip(rhs, sqw)])
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


def reference_solve(spec):
    """The scalar per-chain pipeline that solve replaces: the reference of the lockstep kernel.

    One chain at a time: scalar τ, the edge coupling divided by √(1+τ) and
    :func:`_min_norm_bidiagonal`.  Returns the orthonormal entries and the
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
        sol = _min_norm_bidiagonal(c, sa[:-1] + [sa[-1] / damp], rhs + [0j])
        v = sol[-1]
        sol[-1] = v / damp
        share = 1.0 if tau == math.inf else tau / (1.0 + tau)
        u_values += sol[:L] + [v]
        tails.append(abs(v) * math.sqrt(share))
        for j, value in enumerate(sol):
            if abs(value) >= 1e-300:
                entries[(m0 + j * k, n0 + j * k)] = value * sqrt_pi
        residuals += [c * sol[j] - rhs[j] + sa[j] * sol[j + 1] for j in range(L)]
    f_norm = _norm(data.values()) * sqrt_pi
    u_norm = _norm(u_values) * sqrt_pi
    report = {
        "residual_norm": _norm(residuals) * sqrt_pi,
        "f_norm": f_norm,
        "u_norm": u_norm,
        "bound_ratio": 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm,
        "chain_count": len(origins),
        "tail_estimate": _norm(tails) * sqrt_pi,
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


def test_decompose_partitions_box():
    for k, M in [(1, 6), (2, 5), (3, 7), (4, 4), (5, 13)]:
        chains = _layout(k, M)
        origins = list(zip(chains.m[:, 0].tolist(), chains.n[:, 0].tolist()))
        assert origins == chain_origins(k, M)
        assert chains.lengths.tolist() == [chain_length(o, k, M) for o in origins]
        eqs, stored = chains.eqs, chains.stored
        box = list(zip(chains.m[:, :-1][eqs].tolist(), chains.n[:, :-1][eqs].tolist()))
        assert sorted(box) == [(m, n) for m in range(M + 1) for n in range(M + 1)]
        # the stored positions add one edge entry per chain, past the box
        edges = set(zip(chains.m[stored].tolist(), chains.n[stored].tolist())) - set(box)
        assert len(edges) == len(origins)
        assert all(m > M or n > M for m, n in edges)
        assert chains.couplings[eqs].tolist() == [
            math.sqrt(math.perm(m + k, k) * math.perm(n + k, k)) for m, n in box
        ]


def test_decompose_examples():
    idx, *_ = chain((0, 0), 2, 5, HermiteCoeffs.zero())
    assert idx == [(0, 0), (2, 2), (4, 4)]

    chains = _layout(3, 2)
    assert chains.lengths.tolist() == [1] * 9
    assert chains.eqs.shape == (9, 1) and chains.stored.shape == (9, 2)


def test_decompose_couplings_and_weights():
    _, couplings, weights, _ = chain((0, 0), 1, 4, HermiteCoeffs.zero())
    assert couplings == [1, 4, 9, 16]
    assert weights == [1, 1, 4, 36, 576]
    assert all(b > a for a, b in zip(couplings, couplings[1:]))
    assert _layout(1, 4).couplings[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


# ---------------------------------------------------------------------------
# chain solves: _solve_chain_exact and _min_norm_bidiagonal


def test_solve_chain_exact_reference_case():
    _, couplings, weights, rhs = chain((0, 0), 1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    sol = _solve_chain_exact(couplings, weights, rhs, 1)
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
    assert _solve_chain_exact(couplings, weights, rhs, 0) == [ExactScalar(0)] * 4


def test_solve_chain_c0_forward_substitution():
    _, couplings, weights, rhs = chain((0, 0), 1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    sol = _solve_chain_exact(couplings, weights, rhs, 0)
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
            sol = _solve_chain_exact(couplings, weights, rhs, c)
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
    sol = _min_norm_bidiagonal(c, [3.0], [5 + 0j, 0j])
    # u = conj(row)·f/‖row‖²
    denom = abs(c) ** 2 + 9.0
    assert sol[0] == pytest.approx(c.conjugate() * 5 / denom)
    assert sol[1] == pytest.approx(3.0 * 5 / denom)


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
    combo = f1.scaled(alpha).plus(f2.scaled(beta))
    spec = lambda f: ProblemSpec(k=2, c=1 + 1j, truncation=8, f=f)
    u1, _ = solve(spec(f1))
    u2, _ = solve(spec(f2))
    uc, _ = solve(spec(combo))
    expect = u1.scaled(alpha).plus(u2.scaled(beta))
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
            if abs(value * scale) >= 1e-300:
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
        oracle = _min_norm_bidiagonal(c, sa, rhs + [0j] * (pad + 1))
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
    bound = 1e-14 * _norm(scales)
    assert abs(rep.u_norm / sqrt_pi - _norm(scales)) <= bound
    assert abs(rep.tail_estimate / sqrt_pi - _norm(tails)) <= bound


@pytest.mark.parametrize("M", [32, 256])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tail_weights_match_scalar_series(k, M):
    # every chain's τ against the scalar series on exact integer couplings
    chains = _layout(k, M)
    rows = np.arange(len(chains.lengths))
    m_edge, n_edge = chains.m[rows, chains.lengths], chains.n[rows, chains.lengths]
    origins = chain_origins(k, M)
    for c in CERTIFICATION_C_GRID + (0.01 + 0j, 1e200 + 0j):
        tau = _tail_weights(m_edge, n_edge, k, abs(c) * abs(c))
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
    # the exact norm is √S with S the rational sum of squares; for r = _norm(v),
    # |r − √S|/√S = |d|/(√(1+d) + 1) with d = (r² − S)/S computed exactly
    rng = random.Random(f"norm:{scale}")
    for _ in range(100):
        size = rng.randint(1, 300)
        magnitudes = [scale or 10.0 ** rng.uniform(-300, 300) for _ in range(size)]
        values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * mag for mag in magnitudes]
        sq = sum(Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in values)
        d = float((Fraction(_norm(values)) ** 2 - sq) / sq)
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


def independent_residual(k, c, M, f, u):
    """Weighted residual of (∂^k∂̄^k + c)u − f over the box, couplings as √(m+k)_k·√(n+k)_k."""
    values = []
    for m in range(M + 1):
        for n in range(M + 1):
            upper = u.entries.get((m + k, n + k), 0j)
            coupling = math.sqrt(math.perm(m + k, k)) * math.sqrt(math.perm(n + k, k))
            values.append(c * u.entries.get((m, n), 0j) - f.entries.get((m, n), 0j) + coupling * upper)
    return _norm(values)


@pytest.mark.parametrize("k, c", [(80, 1 + 0j), (120, 1j)])
def test_solve_large_k(k, c):
    # the box couplings reach (2k)!/k!, whose square overflows a float
    f = dense_f(k, k, 10)
    u, rep = solve(ProblemSpec(k=k, c=c, truncation=k, f=f))
    assert rep.bound_ratio <= 1 + 1e-10
    assert independent_residual(k, c, k, f, u) <= 1e-10 * rep.f_norm
    assert rep.residual_norm <= 1e-10 * rep.f_norm


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
