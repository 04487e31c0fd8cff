"""Property tests: the chain kernel against the rational oracle, the solve map, fuzzed files."""

import json
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from focksolve import CERTIFICATION_C_GRID, ExactScalar, ProblemSpec, cli, solve  # noqa: E402
from focksolve.solver import _min_norm_bidiagonal, _solve_chain_exact, dense_data  # noqa: E402
from test_solver import assert_matches_reference, chain_length, chain_origins  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exact_scalars = st.builds(ExactScalar, rationals, rationals)


@st.composite
def rational_chains(draw):
    """A (k, k) chain of a box M ≤ 24, with rational data and a rational shift."""
    k = draw(st.integers(1, 4))
    M = draw(st.integers(k, 24))
    m0, n0 = draw(st.sampled_from(chain_origins(k, M)))
    L = chain_length((m0, n0), k, M)
    idx = [(m0 + j * k, n0 + j * k) for j in range(L)]
    couplings = [math.perm(m + k, k) * math.perm(n + k, k) for m, n in idx[:-1]]
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


@st.composite
def solve_cases(draw):
    """k ≤ 4, a box M ≤ 24, a shift and dense data of random support size."""
    k = draw(st.integers(1, 4))
    M = draw(st.integers(k, 24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return k, M, draw(shifts), dense_data(rng, draw(st.integers(0, M - k)))


@PROPERTY
@given(solve_cases())
def test_solve_matches_scalar_reference(case):
    # the lockstep kernel against the scalar per-chain pipeline it replaced
    k, M, c, f = case
    assert_matches_reference(ProblemSpec(k=k, c=c, truncation=M, f=f))


# Fuzzed problem files: a valid solve or disk file with up to three fields or
# blocks replaced by a malformed value.  HUGE is written as the literal 1e999
# and MISSING drops its key; 24 is an out-of-box index.  Sizes stay small
# (truncation ≤ 24, node counts ≤ 32): nothing bounds them in the program.
HUGE, MISSING = "<1e999>", "<missing>"
malformed = st.sampled_from(
    [math.nan, math.inf, -math.inf, HUGE, 2.5, -1, 0, 24, "abc", "", None, [], MISSING]
)
small_floats = st.floats(-4, 4)


def _key_paths(value, path=()):
    """Key paths of every field and block, each one after the paths below it."""
    found = [path] if path else []
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found = _key_paths(item, path + (key,)) + found
    return found


@st.composite
def problem_files(draw):
    command = draw(st.sampled_from(["solve", "disk"]))
    k = draw(st.integers(1, 3))
    margin = draw(st.integers(0, 6))
    coeff = st.fixed_dictionaries(
        {"m": st.integers(0, margin), "n": st.integers(0, margin), "re": small_floats, "im": small_floats}
    )
    data = {
        "k": k,
        "c": {"re": draw(small_floats), "im": draw(small_floats)},
        "truncation": margin + k,
        "f": {"basis": "monomial", "coeffs": draw(st.lists(coeff, max_size=3))},
    }
    if command == "solve":
        data["f"]["basis"] = draw(st.sampled_from(["hermite", "monomial"]))
    else:
        data["center"] = {"re": draw(small_floats), "im": draw(small_floats)}
        data["radius"] = draw(st.floats(0.25, 1.5))
        data["radial_nodes"] = draw(st.integers(1, 32))
        data["angular_nodes"] = draw(st.integers(1, 32))
    paths = _key_paths(data)
    for i in sorted(draw(st.sets(st.integers(0, len(paths) - 1), max_size=3))):
        *parents, last = paths[i]
        block = data
        for key in parents:
            block = block[key]
        value = draw(malformed)
        if value == MISSING and isinstance(block, dict):
            del block[last]
        else:
            block[last] = value
    return command, json.dumps(data).replace(json.dumps(HUGE), "1e999")


# shrink only the first failure: shrinking several distinct ones can take minutes
@settings(derandomize=True, deadline=None, max_examples=200, report_multiple_bugs=False)
@given(problem_files())
def test_fuzzed_problem_files_exit_0_1_or_2(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(text)
    assert cli.run([command, "--input", str(path), "--output", str(path.with_suffix(".out"))]) in (0, 1, 2)
