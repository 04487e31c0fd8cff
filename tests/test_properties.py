"""Property tests: the chain kernel against the rational oracle, the solve map, fuzzed files, the column read."""

import dataclasses
import json
import math
import random
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from focksolve import CERTIFICATION_C_GRID, ExactScalar, ProblemSpec, cli, solve  # noqa: E402
from focksolve.basis import HermiteCoeffs, sqrt_norm  # noqa: E402
from focksolve.solver import dense_data  # noqa: E402
from oracles import plus, scaled  # noqa: E402
from test_basis import reference_to_orthonormal, reference_to_raw  # noqa: E402
from test_cli import assert_column_path_matches_reference  # noqa: E402
from test_solver import (  # noqa: E402
    assert_matches_reference,
    chain_length,
    chain_origins,
    min_norm_bidiagonal,
    solve_chain_exact,
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
    exact = solve_chain_exact(couplings, weights, rhs, c)
    # orthonormal coordinates: u_j·√w_j, couplings √A_j
    sqw = [math.sqrt(w) for w in weights]
    sol = min_norm_bidiagonal(
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
    uc, _ = solve(spec(plus(scaled(f1, alpha), scaled(f2, beta))))
    for rep in (rep1, rep2):
        assert rep.bound_ratio <= 1 + 1e-10
    expect = plus(scaled(u1, alpha), scaled(u2, beta))
    keys = set(uc.entries) | set(expect.entries)
    err = math.sqrt(sum(abs(uc.entries.get(key, 0j) - expect.entries.get(key, 0j)) ** 2 for key in keys))
    assert err <= 1e-12 * (abs(alpha) * rep1.u_norm + abs(beta) * rep2.u_norm)


def _times_power_of_two(u, j):
    """u·2^j, every part scaled by ``np.ldexp``: exact where the parts stay normal."""
    index, values = u.arrays()
    return HermiteCoeffs._from_array(index, np.ldexp(values.view(float), j).view(complex), u.normalization)


# ψ₀₀ + 0.5i·ψ₃₁: u's entries fall to about 2⁻¹⁰⁸ of the largest, so at j = −900
# the smallest are near 1e−303, far below f's scale
SPARSE = HermiteCoeffs({(0, 0): 1.0 + 0j, (3, 1): 0.5j}, "orthonormal")


@PROPERTY
@given(
    j=st.integers(-900, 1015),
    k=st.integers(1, 4),
    c=st.sampled_from(CERTIFICATION_C_GRID + (0.01 + 0j, 0.3 - 2j)),
    seed=st.one_of(st.none(), st.integers(0, 2**32)),
)
@example(j=-900, k=1, c=1 + 1j, seed=None)
def test_solve_commutes_with_dyadic_scaling(j, k, c, seed):
    # the operator is linear and the bound homogeneous: f → 2^j·f scales u and
    # every report norm by 2^j exactly, with the bound ratio's bits and u's
    # support kept, wherever 2^j·u stays in the normal range
    M = 32
    f = SPARSE if seed is None else dense_data(random.Random(seed), M - k)
    u, report = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
    parts = np.abs(u.arrays()[1].view(float))
    # |u| ≤ ‖f‖ < 2⁸ for this data, so 2^j·u cannot overflow at j ≤ 1015
    assume(math.ldexp(parts[parts > 0].min(), j) >= sys.float_info.min)
    got, got_report = solve(ProblemSpec(k=k, c=c, truncation=M, f=_times_power_of_two(f, j)))
    assert got_report.bound_ratio.hex() == report.bound_ratio.hex()
    for name in ("f_norm", "u_norm", "residual_norm", "tail_estimate"):
        assert getattr(got_report, name) == math.ldexp(getattr(report, name), j), name
    assert got.index.tolist() == u.index.tolist()
    assert np.array_equal(got.arrays()[1], _times_power_of_two(u, j).arrays()[1])


def _mirrored(u):
    """(n, m) → conj(amplitude) for every entry (m, n) of u."""
    index, values = u.arrays()
    return dict(zip(map(tuple, index[:, ::-1].tolist()), values.conj().tolist()))


@PROPERTY
@given(
    k=st.integers(1, 4),
    c=st.sampled_from(CERTIFICATION_C_GRID + (0.01 + 0j, 0.3 - 2j)),
    seed=st.integers(0, 2**32),
)
def test_solve_commutes_with_conjugation(k, c, seed):
    # z → z̄ swaps H_{m,n} and H_{n,m}: solving for conj(f) with (m, n) swapped
    # and the shift conj(c) gives u swapped and conjugated.  Every report field
    # keeps its bits; u's values are compared with ==, since at c = 1e6 some
    # parts come back with the other sign of zero
    M = 32
    f = dense_data(random.Random(seed), M - k)
    u, report = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
    mirror = HermiteCoeffs(_mirrored(f), f.normalization)
    got, got_report = solve(ProblemSpec(k=k, c=c.conjugate(), truncation=M, f=mirror))
    assert repr(dataclasses.asdict(got_report)) == repr(dataclasses.asdict(report))
    assert got.entries == _mirrored(u)


def _rotated(u, phi):
    """u(e^{iφ}z) in the Hermite basis: e^{i(m−n)φ}·amplitude at every entry (m, n) of u."""
    index, values = u.arrays()
    turn = np.exp(1j * phi * (index[:, 0] - index[:, 1]))
    return HermiteCoeffs._from_array(index, values * turn, u.normalization)


@PROPERTY
@given(
    k=st.integers(1, 4),
    c=st.sampled_from(CERTIFICATION_C_GRID + (0.01 + 0j, 0.3 - 2j)),
    seed=st.integers(0, 2**32),
    phi=st.floats(0, 2 * math.pi),
)
def test_solve_commutes_with_rotation(k, c, seed, phi):
    # z → e^{iφ}z multiplies H_{m,n} by e^{i(m−n)φ} and leaves ∂^k∂̄^k and the
    # weight as they are: rotating f rotates u the same way.  Only rounding
    # moves the two apart, 4.6e−16 of the largest coefficient where it was
    # measured (φ = 0.7, k = 1..4, the same shifts), so each coefficient is
    # held to 2e−15 of the largest and bound_ratio to 1e−15 relative
    M = 32
    f = dense_data(random.Random(seed), M - k)
    u, report = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
    got, got_report = solve(ProblemSpec(k=k, c=c, truncation=M, f=_rotated(f, phi)))
    # on a grid, since a subnormal entry may round to zero and drop on one side only
    grid = np.zeros((2, M + k + 1, M + k + 1), dtype=complex)
    for side, v in zip(grid, (got, _rotated(u, phi))):
        index, values = v.arrays()
        side[index[:, 0], index[:, 1]] = values
    assert np.abs(grid[0] - grid[1]).max() <= 2e-15 * np.abs(grid[1]).max()
    assert abs(got_report.bound_ratio - report.bound_ratio) <= 1e-15 * report.bound_ratio


def _on_box(u, M):
    """u's entries in [0, M]² on a dense grid, zero where u stores none."""
    grid = np.zeros((M + 1, M + 1), dtype=complex)
    index, values = u.arrays()
    inside = (index <= M).all(axis=1)
    grid[index[inside, 0], index[inside, 1]] = values[inside]
    return grid


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    k=st.integers(1, 4),
    c=st.sampled_from(CERTIFICATION_C_GRID + (0.01 + 0j, 0.3 - 2j)),
    seed=st.integers(0, 2**32),
)
def test_solve_keeps_its_box_entries_as_the_box_grows(k, c, seed):
    # each chain's tail closure is exact, so the box solve is the minimum-norm
    # solution of the infinite chains and its entries do not depend on M:
    # the same f at M and M + 16 agrees on [0, M]² up to rounding, at most
    # 1.3e−16 of the largest coefficient where it was measured (M = 32 and
    # 48, the same k and shifts), so each entry is held to 1e−15 of the largest
    M = 32
    f = dense_data(random.Random(seed), M - k)
    u, _ = solve(ProblemSpec(k=k, c=c, truncation=M, f=f))
    grown, _ = solve(ProblemSpec(k=k, c=c, truncation=M + 16, f=f))
    box, grown_box = _on_box(u, M), _on_box(grown, M)
    assert np.abs(grown_box - box).max() <= 1e-15 * np.abs(box).max()


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


@PROPERTY
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 300), st.integers(0, 300)),
        st.complex_numbers(min_magnitude=1e-20, max_magnitude=1e20),
        min_size=1,
        max_size=3,
    )
)
def test_raw_orthonormal_round_trip_or_raise(entries):
    # to_raw either round-trips every amplitude above 2⁻⁵² of the largest, or
    # raises naming an index whose raw amplitude a float cannot hold: its norm
    # √(π·m!·n!) is inf, or the quotient of a non-negligible amplitude underflows
    u = HermiteCoeffs(entries, "orthonormal")
    floor = max(map(abs, entries.values())) * 2.0**-52
    unheld = {
        key
        for key, amp in entries.items()
        if abs(amp) / sqrt_norm(*key) < sys.float_info.min
        and (sqrt_norm(*key) == math.inf or abs(amp) >= floor)
    }
    try:
        back = u.to_raw().to_orthonormal()
    except ValueError as exc:
        assert any(f"({m}, {n})" in str(exc) for m, n in unheld)
        return
    assert not unheld
    for key, amp in entries.items():
        if abs(amp) >= floor:
            assert back.entries[key] == pytest.approx(amp, rel=1e-13)


# float parts that reach the edges of the conversions: signed zeros, the
# smallest normal float and its neighbours, the smallest subnormal, the 2⁻⁵²
# raise rule, the float range
FLOAT_MIN = sys.float_info.min
EDGE_PARTS = [0.0, -0.0, 1.0, -1.0, FLOAT_MIN, -FLOAT_MIN, math.nextafter(FLOAT_MIN, 1.0)]
EDGE_PARTS += [math.nextafter(FLOAT_MIN, 0.0), 5e-324]
EDGE_PARTS += [2.0**-52, -(2.0**-52), 2.0**-53, 1.5 * 2.0**-53, 1e300, -1.7e308]
# at (0, 0) these rescale to the smallest normal float exactly: raw from
# orthonormal, orthonormal from raw
EDGE_PARTS += [3.943840729060284e-308, 1.2553634935941774e-308]
# inside the factorial table, where π·m!·n! overflows, where 1/√(π·m!·n!)
# nears the normal range and where it falls below it, past the table and past
# the float range of the norm
EDGE_INDICES = [(0, 0), (3, 1), (1, 3), (98, 98), (168, 168), (170, 170), (171, 170)]
EDGE_INDICES += [(171, 0), (180, 180), (300, 300)]
edge_parts = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-1e20, 1e20))
indices = st.one_of(st.integers(0, 300), st.integers(160, 175))


def _outcome(convert, u):
    """What a conversion gives: its error, or its normalization and entries with every bit and key order."""
    try:
        v = convert(u)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (v.normalization, [(key, amp.real.hex(), amp.imag.hex()) for key, amp in v.entries.items()])


@PROPERTY
@given(
    st.dictionaries(
        st.tuples(indices, indices), st.builds(complex, edge_parts, edge_parts), max_size=6
    ),
    st.sampled_from(["raw", "orthonormal"]),
)
def test_array_conversions_match_the_per_entry_loops(entries, normalization):
    try:
        u = HermiteCoeffs(entries, normalization)
    except ValueError:
        return  # a non-finite amplitude: the constructor's case, not the conversions'
    assert _outcome(HermiteCoeffs.to_raw, u) == _outcome(reference_to_raw, u)
    assert _outcome(HermiteCoeffs.to_orthonormal, u) == _outcome(reference_to_orthonormal, u)


@PROPERTY
@given(st.dictionaries(st.tuples(indices, indices), exact_scalars, max_size=6))
def test_array_rescaling_of_exact_amplitudes_matches_the_loop(entries):
    u = HermiteCoeffs(entries)
    assert _outcome(HermiteCoeffs.to_orthonormal, u) == _outcome(reference_to_orthonormal, u)


def test_array_conversions_match_the_loops_on_every_edge_pair():
    for re in EDGE_PARTS:
        for im in EDGE_PARTS:
            for key in EDGE_INDICES:
                # alone, and beside a unit amplitude that sets the 2⁻⁵² floor
                for entries in ({key: complex(re, im)}, {(2, 0): 1 + 0j, key: complex(re, im)}):
                    for normalization in ("raw", "orthonormal"):
                        try:
                            u = HermiteCoeffs(entries, normalization)
                        except ValueError:
                            continue
                        for convert, reference in (
                            (HermiteCoeffs.to_raw, reference_to_raw),
                            (HermiteCoeffs.to_orthonormal, reference_to_orthonormal),
                        ):
                            assert _outcome(convert, u) == _outcome(reference, u), (entries, normalization)


_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
    st.integers(-(2**70), 2**70),
)
# rare values, all but 2**1023 outside the column shape: NaN and infinite parts,
# ints past the float range, non-numbers, and non-integral, negative, past-top
# (top = 6) and past-int64 indices
_unusual = st.sampled_from(
    [math.nan, math.inf, -math.inf, 2**1023, 2**1024 - 2**970, -(10**400), True, False, None,
     "1", [1], {"re": 1.0}, 1.0, 2.5, -1, 7, 2**64]
)


def _rarely(draw, usual, odds=40):
    return draw(_unusual if draw(st.integers(0, odds)) == 0 else usual)


@st.composite
def _rows(draw):
    if draw(st.integers(0, 60)) == 0:
        return draw(st.sampled_from([[0, 0, 1.0, 0.0], "row", 3, None]))
    index = st.integers(0, 6)
    row = {
        "m": _rarely(draw, index),
        "n": _rarely(draw, index),
        "re": _rarely(draw, _parts),
        "im": _rarely(draw, _parts),
    }
    if draw(st.integers(0, 40)) == 0:
        del row[draw(st.sampled_from(["m", "n", "re", "im"]))]
    if draw(st.integers(0, 40)) == 0:
        row["extra"] = 1.0
    return row


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(["hermite", "monomial"]), st.lists(_rows(), max_size=12))
def test_column_path_matches_the_row_reference_on_random_blocks(basis, coeffs):
    assert_column_path_matches_reference({"basis": basis, "coeffs": coeffs}, 6)
