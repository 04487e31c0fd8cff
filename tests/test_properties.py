"""Property tests: the float chain kernel against the rational oracle, and the solve map."""

import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from focksolve import CERTIFICATION_C_GRID, ExactScalar, ProblemSpec, solve  # noqa: E402
from focksolve.basis import falling_factorial  # noqa: E402
from focksolve.solver import (  # noqa: E402
    _chain_length,
    _min_norm_bidiagonal,
    _solve_chain_exact,
    chain_origins,
    dense_data,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exact_scalars = st.builds(ExactScalar, rationals, rationals)


@st.composite
def rational_chains(draw):
    """A (k, k) chain of a box M ≤ 24, with rational data and a rational shift."""
    k = draw(st.integers(1, 4))
    M = draw(st.integers(k, 24))
    m0, n0 = draw(st.sampled_from(chain_origins(k, M)))
    L = _chain_length((m0, n0), k, M)
    idx = [(m0 + j * k, n0 + j * k) for j in range(L)]
    couplings = [falling_factorial(m + k, k) * falling_factorial(n + k, k) for m, n in idx[:-1]]
    weights = [math.factorial(m) * math.factorial(n) for m, n in idx]
    rhs = draw(st.lists(exact_scalars, min_size=L, max_size=L))
    return couplings, weights, rhs, draw(exact_scalars)


@PROPERTY
@given(rational_chains())
def test_float_chain_solve_matches_exact_oracle(case):
    couplings, weights, rhs, c = case
    exact = _solve_chain_exact(couplings, weights, rhs, c)
    # orthonormal coordinates: u_j·√w_j, couplings √A_j
    sqw = [math.sqrt(w) for w in weights]
    sol = _min_norm_bidiagonal(
        c.to_complex(), [math.sqrt(a) for a in couplings], [v.to_complex() * s for v, s in zip(rhs, sqw)]
    )
    want = [v.to_complex() * s for v, s in zip(exact, sqw)]
    err = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(sol, want)))
    assert err <= 1e-13 * math.sqrt(sum(abs(b) ** 2 for b in want))


shifts = st.one_of(
    st.sampled_from(CERTIFICATION_C_GRID),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)
scalars = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    k=st.integers(1, 4),
    M=st.integers(4, 16),
    c=shifts,
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    alpha=scalars,
    beta=scalars,
)
def test_solve_is_linear_and_bounded(k, M, c, seeds, alpha, beta):
    f1, f2 = (dense_data(random.Random(seed), M - k) for seed in seeds)
    spec = lambda f: ProblemSpec(k=k, c=c, truncation=M, f=f)  # noqa: E731
    u1, rep1 = solve(spec(f1))
    u2, rep2 = solve(spec(f2))
    uc, _ = solve(spec(f1.scaled(alpha).plus(f2.scaled(beta))))
    for rep in (rep1, rep2):
        assert rep.bound_ratio <= 1 + 1e-10
    expect = u1.scaled(alpha).plus(u2.scaled(beta))
    keys = set(uc.entries) | set(expect.entries)
    err = math.sqrt(sum(abs(uc.entries.get(key, 0j) - expect.entries.get(key, 0j)) ** 2 for key in keys))
    assert err <= 1e-12 * (abs(alpha) * rep1.u_norm + abs(beta) * rep2.u_norm)
