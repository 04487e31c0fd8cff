"""Chain decomposition, minimum-norm chain solves, and the certified solve."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from focksolve import (
    ExactScalar,
    HermiteCoeffs,
    ProblemSpec,
    apply_operator,
    decompose,
    homogeneous_direction,
    operator_norm_probe,
    solve,
    solve_chain,
)
from focksolve.basis import falling_factorial
from focksolve.solver import (
    CERTIFICATION_C_GRID,
    _chain_length,
    _min_norm_bidiagonal,
    _solve_chain_closed,
    chain_origins,
)


def unit_f(value=1.0 + 0j):
    return HermiteCoeffs.basis_vector(0, 0, value, "raw")


# ---------------------------------------------------------------------------
# decompose


def test_decompose_partitions_box():
    for k, M in [(1, 6), (2, 5), (3, 7), (4, 4)]:
        chains = decompose(k, M, HermiteCoeffs.zero())
        seen = set()
        for chain in chains:
            assert chain.origin[0] < k or chain.origin[1] < k
            for j in range(chain.length):
                idx = chain.index_at(j)
                assert idx not in seen
                assert idx[0] <= M and idx[1] <= M
                seen.add(idx)
        assert seen == {(m, n) for m in range(M + 1) for n in range(M + 1)}
        assert [c.origin for c in chains] == sorted(c.origin for c in chains)


def test_decompose_examples():
    chains = decompose(2, 5, HermiteCoeffs.zero())
    diag = [c for c in chains if c.origin == (0, 0)][0]
    assert [diag.index_at(j) for j in range(diag.length)] == [(0, 0), (2, 2), (4, 4)]

    chains = decompose(1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    diag = [c for c in chains if c.origin == (0, 0)][0]
    assert diag.rhs == [ExactScalar(1), ExactScalar(0), ExactScalar(0)]

    chains = decompose(3, 2, HermiteCoeffs.zero())
    assert all(c.length == 1 for c in chains)
    assert len(chains) == 9


def test_decompose_couplings_and_weights():
    chains = decompose(1, 4, HermiteCoeffs.zero())
    diag = [c for c in chains if c.origin == (0, 0)][0]
    assert diag.couplings == [1, 4, 9, 16]
    assert diag.weights == [1, 1, 4, 36, 576]
    assert all(b > a for a, b in zip(diag.couplings, diag.couplings[1:]))


def test_decompose_rejects_out_of_box_support():
    with pytest.raises(ValueError, match=r"\(5,5\)"):
        decompose(1, 4, HermiteCoeffs.basis_vector(5, 5, 1))


# ---------------------------------------------------------------------------
# solve_chain


def test_solve_chain_exact_reference_case():
    chains = decompose(1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    chain = [c for c in chains if c.origin == (0, 0)][0]
    sol = solve_chain(chain, 1)
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
    pairing = sum(
        (h[j].conjugate() * sol[j] * chain.weights[j] for j in range(3)), ExactScalar(0)
    )
    assert pairing == ExactScalar(0)


def test_solve_chain_zero_rhs():
    chains = decompose(1, 3, HermiteCoeffs.zero())
    chain = [c for c in chains if c.origin == (0, 0)][0]
    assert solve_chain(chain, 0) == [ExactScalar(0)] * 4


def test_solve_chain_c0_forward_substitution():
    chains = decompose(1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    chain = [c for c in chains if c.origin == (0, 0)][0]
    sol = solve_chain(chain, 0)
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
    for chain in decompose(1, 6, f):
        if chain.length < 2:
            continue
        got = solve_chain(chain, c)
        expect = dense_min_norm_oracle(c, chain.couplings, chain.weights, chain.rhs)
        scale = max(np.max(np.abs(expect)), 1e-12)
        assert np.max(np.abs(np.asarray(got) - expect)) <= 1e-11 * scale


def test_solve_chain_float_residual_and_minimality():
    rng = random.Random(4)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(6) for n in range(6)},
        "raw",
    )
    for c in (0j, 1 + 1j, 10 + 0j, 1e6 + 0j):
        for chain in decompose(2, 7, f):
            sol = solve_chain(chain, c)
            rhs_w = math.sqrt(
                sum(chain.weights[j] * abs(complex(v)) ** 2 for j, v in enumerate(chain.rhs))
            )
            if rhs_w == 0:
                assert all(v == 0 for v in sol)
                continue
            res_w_sq = 0.0
            for j in range(chain.length - 1):
                r = c * sol[j] + chain.couplings[j] * sol[j + 1] - complex(chain.rhs[j])
                res_w_sq += chain.weights[j] * abs(r) ** 2
            assert math.sqrt(res_w_sq) <= 1e-12 * (1.0 + abs(c)) * rhs_w
            if c == 0:
                assert sol[0] == 0
            else:
                # w-orthogonality to the homogeneous family (KKT minimality)
                h = homogeneous_direction(chain, c)
                sqw = [math.sqrt(w) for w in chain.weights]
                uo = [sol[j] * sqw[j] for j in range(chain.length)]
                ho = [h[j] for j in range(chain.length)]
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
        for chain in decompose(1, 6, f):
            sol = solve_chain(chain, c)
            cc = ExactScalar.coerce(c)
            for j in range(chain.length - 1):
                lhs = cc * sol[j] + chain.couplings[j] * sol[j + 1]
                assert lhs == chain.rhs[j]
            # exact KKT: w-orthogonal to the homogeneous family
            h = [ExactScalar(1)]
            for j in range(chain.length - 1):
                h.append(-(cc * h[j]) / chain.couplings[j])
            pairing = ExactScalar(0)
            for j in range(chain.length):
                pairing = pairing + h[j].conjugate() * sol[j] * chain.weights[j]
            assert pairing == ExactScalar(0)


def test_solve_chain_exact_rhs_float_shift_uses_float_path():
    chains = decompose(1, 2, HermiteCoeffs.basis_vector(0, 0, 1))
    chain = [c for c in chains if c.origin == (0, 0)][0]
    sol = solve_chain(chain, 1.0)
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
    rng = random.Random(14)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(7) for n in range(7)},
        "orthonormal",
    )
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
        margin = 12 - k
        entries = {
            (m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for m in range(margin + 1)
            for n in range(margin + 1)
        }
        f = HermiteCoeffs(entries, "orthonormal")
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
    # With c = 0 no chain has mass past its edge entry, so assembling per-chain
    # solutions in any order reproduces solve() bit for bit.
    rng = random.Random(34)
    f = HermiteCoeffs(
        {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(6) for n in range(6)},
        "raw",
    )
    spec = ProblemSpec(k=2, c=0j, truncation=7, f=f)
    u, _ = solve(spec)
    chains = decompose(2, 7, f)
    rng.shuffle(chains)
    assembled = {}
    for chain in chains:
        sol = solve_chain(chain, 0j)
        for j, value in enumerate(sol):
            m, n = chain.index_at(j)
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
    rng = random.Random(seed)
    return HermiteCoeffs(
        {
            (m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for m in range(M - k + 1)
            for n in range(M - k + 1)
        },
        "orthonormal",
    )


def chain_couplings(origin, k, length):
    m0, n0 = origin
    return [
        math.sqrt(falling_factorial(m0 + (j + 1) * k, k) * falling_factorial(n0 + (j + 1) * k, k))
        for j in range(length)
    ]


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("c", [0.01 + 0j, 1 + 0j, 1j, 10 + 0j, 1e6 + 0j])
def test_tail_closure_matches_padded_chain(k, c):
    # The closed chain is the infinite chain's minimum-norm solution; the same
    # chain zero-padded by 64 positions approximates it to rounding.
    M, pad = 32, 64
    rng = random.Random(101 + k)
    for origin in chain_origins(k, M):
        L = _chain_length(origin, k, M)
        rhs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(L)]
        sa = chain_couplings(origin, k, L + pad)
        sol, v, tail = _solve_chain_closed(origin, k, sa[:L], rhs, c)
        oracle = _min_norm_bidiagonal(c, sa, rhs + [0j] * (pad + 1))
        scale = math.sqrt(sum(abs(x) ** 2 for x in oracle))
        assert len(sol) == L + 1
        assert max(abs(a - b) for a, b in zip(sol, oracle)) <= 1e-14 * scale
        edge_mass = math.sqrt(sum(abs(x) ** 2 for x in oracle[L:]))
        assert abs(abs(v) - edge_mass) <= 1e-14 * scale
        past_edge = math.sqrt(sum(abs(x) ** 2 for x in oracle[L + 1 :]))
        assert abs(tail - past_edge) <= 1e-14 * scale


@pytest.mark.parametrize("c", [1e150 + 0j, 1e200 + 0j])
def test_solve_huge_shifts(c):
    f = dense_f(1, 16, 5)
    u, rep = solve(ProblemSpec(k=1, c=c, truncation=16, f=f))
    assert rep.residual_norm <= 1e-10 * rep.f_norm
    # u ≈ f/c: its norm stays representable though its squares underflow
    assert rep.u_norm == pytest.approx(rep.f_norm / abs(c), rel=1e-10)
    assert rep.bound_holds and rep.tail_estimate == 0.0


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
        assert j <= _chain_length(origin, k, M)
    # u_norm is the stored part plus the tail past it
    stored_sq = sum(abs(v) ** 2 for v in u.entries.values())
    assert rep.u_norm**2 == pytest.approx(stored_sq + rep.tail_estimate**2, rel=1e-12)


@pytest.mark.parametrize("c", [complex("nan"), complex("inf"), complex(0, float("-inf")), 1.5e308 + 1.5e308j])
def test_solve_rejects_non_finite_shift(c):
    with pytest.raises(ValueError, match="not finite"):
        solve(ProblemSpec(k=1, c=c, truncation=8, f=unit_f()))


def test_solve_rejects_non_finite_data():
    f = HermiteCoeffs({(0, 0): 1.0 + 0j, (2, 1): complex(float("nan"), 0.0)}, "orthonormal")
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        solve(ProblemSpec(k=1, c=1 + 0j, truncation=8, f=f))
