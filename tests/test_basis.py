"""Complex Hermite basis: closed forms, basis changes, ladder actions."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from focksolve import ExactScalar, HermiteCoeffs, PolyZZbar, to_hermite, to_monomial
from focksolve.basis import hermite_polynomial, index_array, sqrt_norm, sqrt_norms
from focksolve.identities import formal_adjoint_weighted
from focksolve.ring import gaussian_pairing, weighted_deriv, weighted_norm_sq
from oracles import apply_operator, lower, raise_


def oracle_hermite(m, n):
    """(−1)^{m+n} e^{|z|²} ∂^n ∂̄^m e^{−|z|²} by iterated weighted differentiation."""
    return (-1) ** (m + n) * weighted_deriv(PolyZZbar.constant(1), PolyZZbar.gaussian_exponent(), n, m)


def reference_to_hermite(p):
    """Reference change of basis by triangular back-substitution.

    Repeatedly peel the highest-total-degree monomial c·z^a z̄^b, emit
    c·H_{a,b}, and subtract c·H_{a,b} from the remainder.
    """
    remainder = PolyZZbar(p.terms)
    out = {}
    while not remainder.is_zero():
        (a, b), coeff = max(remainder.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))
        out[(a, b)] = coeff
        remainder = remainder - coeff * hermite_polynomial((a, b))
    return HermiteCoeffs(out)


def reference_to_orthonormal(u):
    """Reference rescaling to orthonormal amplitudes, one ``complex * float`` per entry."""
    if u.normalization == "orthonormal":
        return u
    out = {}
    for (m, n), amp in u.entries.items():
        value = amp.to_complex() if isinstance(amp, ExactScalar) else amp
        out[(m, n)] = value * sqrt_norm(m, n)
    return HermiteCoeffs(out, "orthonormal")


def reference_to_raw(u):
    """Reference rescaling to raw amplitudes, one ``complex / float`` per entry."""
    if u.normalization == "raw":
        return u
    floor = max(map(abs, u.entries.values()), default=0.0) * 2.0**-52
    out = {}
    for (m, n), amp in u.entries.items():
        norm = sqrt_norm(m, n)
        value = amp / norm
        if abs(value) < sys.float_info.min:
            if norm == math.inf or abs(amp) >= floor:
                raise ValueError(
                    f"the raw amplitude at index ({m}, {n}) is below the normal float range: "
                    f"|b|/√(π·m!·n!) = {abs(amp):.3e}/{norm:.3e} = {abs(value):.3e}"
                )
            value = 0j  # below the vector's rounding: pruned as a zero
        out[(m, n)] = value
    return HermiteCoeffs(out, "raw")


def test_hermite_polynomial_examples():
    assert hermite_polynomial((0, 0)) == PolyZZbar.constant(1)
    assert hermite_polynomial((1, 1)) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert hermite_polynomial((2, 2)) == PolyZZbar({(2, 2): 1, (1, 1): -4, (0, 0): 2})


def test_hermite_polynomial_against_derivative_oracle():
    for m in range(6):
        for n in range(6):
            poly = hermite_polynomial((m, n))
            assert poly == oracle_hermite(m, n)
            assert poly.terms[(m, n)] == ExactScalar(1)


def test_to_hermite_examples():
    zzb = PolyZZbar({(1, 1): 1})
    assert to_hermite(zzb).entries == {(1, 1): ExactScalar(1), (0, 0): ExactScalar(1)}
    z2zb = PolyZZbar({(2, 1): 1})
    assert to_hermite(z2zb).entries == {(2, 1): ExactScalar(1), (1, 0): ExactScalar(2)}
    assert to_hermite(PolyZZbar.constant(1)).entries == {(0, 0): ExactScalar(1)}


def test_to_hermite_closed_form_matches_reference_loop():
    for a in range(13):
        for b in range(13):
            mono = PolyZZbar.monomial(a, b, ExactScalar(Fraction(3, 2), -1))
            got, want = to_hermite(mono), reference_to_hermite(mono)
            assert got == want and list(got.entries) == list(want.entries)
            # every lower term of H_{a,b} cancels to an exact zero and is pruned
            assert to_hermite(hermite_polynomial((a, b))) == HermiteCoeffs.basis_vector(a, b)
    rng = random.Random(41)
    for _ in range(40):
        terms = {
            (rng.randrange(10), rng.randrange(10)): ExactScalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3)
            )
            for _ in range(rng.randint(1, 8))
        }
        poly = PolyZZbar(terms)
        got, want = to_hermite(poly), reference_to_hermite(poly)
        assert got == want and list(got.entries) == list(want.entries)


def test_to_monomial_examples():
    u = HermiteCoeffs({(1, 1): 1})
    assert to_monomial(u) == PolyZZbar({(1, 1): 1, (0, 0): -1})
    assert to_monomial(HermiteCoeffs.zero()).is_zero()
    mixed = HermiteCoeffs({(1, 0): 2, (2, 1): 1})
    assert to_monomial(mixed) == PolyZZbar({(2, 1): 1})


def test_basis_round_trip_random():
    rng = random.Random(23)
    for _ in range(8):
        entries = {}
        for _ in range(6):
            m, n = rng.randrange(11), rng.randrange(11)
            entries[(m, n)] = ExactScalar(
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
            )
        u = HermiteCoeffs(entries)
        assert to_hermite(to_monomial(u)) == u


def test_orthogonality_against_exact_gaussian_pairing():
    # ⟨H_{m,n}, H_{p,q}⟩ = π·m!·n!·δ, via the moment-based pairing.
    for m in range(9):
        for n in range(9):
            for p in range(9):
                for q in range(9):
                    value = gaussian_pairing(
                        hermite_polynomial((m, n)), hermite_polynomial((p, q))
                    )
                    expected = (
                        ExactScalar(math.factorial(m) * math.factorial(n))
                        if (m, n) == (p, q)
                        else ExactScalar(0)
                    )
                    assert value == expected


def test_lower_examples():
    assert lower(1, HermiteCoeffs({(2, 2): 1})).entries == {(1, 1): ExactScalar(4)}
    assert lower(2, HermiteCoeffs({(1, 1): 1})).entries == {}
    assert lower(1, HermiteCoeffs({(1, 0): 1})).entries == {}


def test_lower_matches_symbolic_differentiation():
    rng = random.Random(9)
    for _ in range(6):
        entries = {
            (rng.randrange(7), rng.randrange(7)): ExactScalar(rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(4)
        }
        u = HermiteCoeffs(entries)
        for k in (1, 2):
            direct = to_monomial(u).deriv(k, k)
            assert to_monomial(lower(k, u)) == direct


def test_raise_examples_via_weighted_adjoint():
    g = PolyZZbar.gaussian_exponent()
    assert raise_(1, HermiteCoeffs({(0, 0): 1})).entries == {(1, 1): ExactScalar(1)}
    assert raise_(1, HermiteCoeffs({(1, 0): 1})).entries == {(2, 1): ExactScalar(1)}
    assert raise_(3, HermiteCoeffs.zero()).entries == {}
    # e^{g} ∂^k ∂̄^k (H_{m,n} e^{−g}) = H_{m+k,n+k}
    for m, n, k in [(0, 0, 1), (1, 0, 1), (2, 1, 2), (1, 1, 3)]:
        adj = formal_adjoint_weighted(k, hermite_polynomial((m, n)), g)
        assert adj == hermite_polynomial((m + k, n + k))


def test_adjointness_of_raise_and_lower():
    rng = random.Random(31)
    for _ in range(6):
        u = HermiteCoeffs(
            {(rng.randrange(8), rng.randrange(8)): ExactScalar(rng.randint(-4, 4), 1)}
        )
        v = HermiteCoeffs(
            {(rng.randrange(8), rng.randrange(8)): ExactScalar(rng.randint(-4, 4), -2)}
        )
        for k in (1, 2, 3):
            lhs = gaussian_pairing(to_monomial(raise_(k, u)), to_monomial(v))
            rhs = gaussian_pairing(to_monomial(u), to_monomial(lower(k, v)))
            assert lhs == rhs


def test_shift_consistency():
    for m in range(5):
        for n in range(5):
            for k in (1, 2, 3):
                u = HermiteCoeffs.basis_vector(m, n)
                round_trip = lower(k, raise_(k, u))
                factor = math.perm(m + k, k) * math.perm(n + k, k)
                assert round_trip.entries == {(m, n): ExactScalar(factor)}


def test_derivation_rules():
    for m in range(1, 9):
        for n in range(9):
            poly = to_monomial(HermiteCoeffs.basis_vector(m, n))
            assert poly.dz() == m * to_monomial(HermiteCoeffs.basis_vector(m - 1, n))
    for m in range(9):
        for n in range(1, 9):
            poly = to_monomial(HermiteCoeffs.basis_vector(m, n))
            assert poly.dzbar() == n * to_monomial(HermiteCoeffs.basis_vector(m, n - 1))


def test_apply_operator_examples():
    assert apply_operator(1, 0, HermiteCoeffs({(2, 2): 1})).entries == {(1, 1): ExactScalar(4)}
    assert apply_operator(1, 1, HermiteCoeffs({(0, 0): 1})).entries == {(0, 0): ExactScalar(1)}
    got = apply_operator(2, ExactScalar(0, 1), HermiteCoeffs({(2, 2): 1}))
    assert got.entries == {(0, 0): ExactScalar(4), (2, 2): ExactScalar(0, 1)}


def test_weighted_norm_and_normalization_round_trip():
    u = HermiteCoeffs({(1, 1): 1, (3, 2): ExactScalar(0, 2)})
    nsq = weighted_norm_sq(to_monomial(u))
    assert nsq == Fraction(1) * 1 + 4 * math.factorial(3) * math.factorial(2)
    ortho = u.to_orthonormal()
    ortho_nsq = sum(abs(amp) ** 2 for amp in ortho.entries.values())
    assert ortho_nsq == pytest.approx(float(nsq) * math.pi, rel=1e-14)
    back = ortho.to_raw()
    for key, amp in u.entries.items():
        assert back.entries[key] == pytest.approx(amp.to_complex(), rel=1e-14)


def test_zero_pruning_and_context_rules():
    u = HermiteCoeffs({(0, 0): 0, (1, 1): Fraction(1, 2)})
    assert (0, 0) not in u.entries and u.exact
    # a numeric amplitude is pruned at zero magnitude alone: subnormal ones are kept
    v = HermiteCoeffs({(0, 0): -0.0j, (1, 1): 5e-324 + 0j, (2, 2): 1e-301 + 0j, (3, 3): 1.0 + 0j})
    assert list(v.entries) == [(1, 1), (2, 2), (3, 3)] and not v.exact
    with pytest.raises(TypeError):
        HermiteCoeffs({(0, 0): 1, (1, 1): 0.5 + 0j})
    with pytest.raises(TypeError):
        HermiteCoeffs({(0, 0): 1}, "orthonormal")


def test_a_pruned_float_amplitude_still_counts_for_the_mixing_rule():
    for amp in (0.0, 1e-301, -0.0j):
        with pytest.raises(TypeError, match="cannot mix"):
            HermiteCoeffs({(0, 0): Fraction(1), (1, 1): amp})


@pytest.mark.parametrize(
    "amp",
    [complex(math.nan, 0.0), math.inf, complex(0.0, -math.inf), 1.5e308 + 1.5e308j],
    ids=["nan", "inf", "-inf", "overflow"],
)
@pytest.mark.parametrize("normalization", ["raw", "orthonormal"])
def test_non_finite_float_amplitude_rejected(amp, normalization):
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        HermiteCoeffs({(0, 0): 1.0 + 0j, (3, 1): amp}, normalization)
    # a raw amplitude that overflows once rescaled is rejected the same way
    with pytest.raises(ValueError, match=r"\(50, 50\)"):
        HermiteCoeffs({(50, 50): 1e300 + 0j}).to_orthonormal()


def test_sqrt_norm_past_the_float_product():
    # π·m!·n! overflows to inf from (98, 98) on; the norm itself stays finite
    for m, n in ((98, 98), (120, 120), (170, 170), (200, 3)):
        want = math.exp(0.5 * (math.log(math.pi) + math.lgamma(m + 1) + math.lgamma(n + 1)))
        assert sqrt_norm(m, n) == pytest.approx(want, rel=1e-13)
    # inside the float range the direct product is kept bit for bit
    assert sqrt_norm(20, 30) == math.sqrt(math.pi * math.factorial(20) * math.factorial(30))
    assert sqrt_norm(400, 400) == math.inf


def test_sqrt_norms_match_the_scalar_bit_for_bit():
    # the factorial table inside the float product, the log-space path past it
    grid = [(m, n) for m in range(301) for n in range(301)] + [(2**62, 0), (2**63 - 1, 2**63 - 1)]
    norms = sqrt_norms(index_array(grid)).tolist()
    for (m, n), got in zip(grid, norms):
        assert got.hex() == sqrt_norm(m, n).hex(), (m, n)
    assert sqrt_norm(10**9, 10**9) == math.inf


def test_lower_and_raise_past_the_float_product():
    # (160)_80² ≈ 4e331 overflows a float; its root (160)_80 ≈ 6.6e165 does not
    want = float(math.perm(160, 80))
    down = lower(80, HermiteCoeffs.basis_vector(160, 160, 1.0 + 0j, "orthonormal"))
    assert down.entries[(80, 80)] == pytest.approx(want, rel=1e-14)
    up = raise_(80, HermiteCoeffs.basis_vector(80, 80, 1.0 + 0j, "orthonormal"))
    assert up.entries[(160, 160)] == pytest.approx(want, rel=1e-14)
    # inside the float range the root of the product is kept bit for bit
    small = lower(2, HermiteCoeffs.basis_vector(5, 7, 1.0 + 0j, "orthonormal"))
    assert small.entries[(3, 5)] == math.sqrt(20 * 42)


def test_to_raw_raises_where_a_raw_amplitude_leaves_float_range():
    # √(π·180!·180!) is past float range
    u = HermiteCoeffs({(0, 0): 1.0 + 0j, (180, 180): 0.5 + 0j}, "orthonormal")
    with pytest.raises(ValueError, match=r"\(180, 180\)"):
        u.to_raw()
    # 1/√(π·168!·168!) ≈ 2.2e−303 is a normal float and is written
    raw = HermiteCoeffs({(168, 168): 1.0 + 0j}, "orthonormal").to_raw()
    assert raw.entries[(168, 168)] == 1.0 / sqrt_norm(168, 168) > sys.float_info.min
    # a finite norm, but 1e−6/√(π·168!·168!) ≈ 2.2e−309 is subnormal: the error names it
    with pytest.raises(
        ValueError,
        match=r"^the raw amplitude at index \(168, 168\) is below the normal float range: "
        r"\|b\|/√\(π·m!·n!\) = 1\.000e-06/4\.477e\+302 = 2\.233e-309$",
    ):
        HermiteCoeffs({(168, 168): 1e-6 + 0j}, "orthonormal").to_raw()
    # an amplitude below 2⁻⁵² of the largest is rounding and is pruned
    raw = HermiteCoeffs({(0, 0): 1.0 + 0j, (168, 168): 1e-17 + 0j}, "orthonormal").to_raw()
    assert list(raw.entries) == [(0, 0)]


def entry_bits(u):
    """Keys in entry order with the bits of each amplitude, signed zeros included."""
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in u.entries.items()]


def test_array_rescaling_round_trips_match_the_per_entry_arithmetic():
    # zeros of both signs, subnormal, huge and tiny parts, in every position
    values = [0.0, -0.0, 5e-324, -1e300, 0.1, 1.0, -2.5e-308]
    entries = {(m, n): complex(values[m], values[n]) for m in range(7) for n in range(7)}
    raw = HermiteCoeffs(entries, "raw")
    ortho = raw.to_orthonormal()
    assert entry_bits(ortho) == entry_bits(reference_to_orthonormal(raw))
    back = ortho.to_raw()
    assert entry_bits(back) == entry_bits(reference_to_raw(ortho))
    assert entry_bits(back.to_orthonormal()) == entry_bits(reference_to_orthonormal(back))


def test_numeric_vectors_hold_arrays_and_a_read_only_view():
    u = HermiteCoeffs({(2, 1): -0.5j, (0, 0): 1.0, (1, 3): -0.0}, "orthonormal")
    # no dict until entries is read
    assert u._entries is None and len(u) == 2
    index, values = u.arrays()
    assert index.tolist() == [[2, 1], [0, 0]] and values.tolist() == [-0.5j, 1.0 + 0j]
    for array in (index, values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    view = u.entries
    assert dict(view) == {(2, 1): -0.5j, (0, 0): 1.0 + 0j} and u.entries is view
    with pytest.raises(TypeError):
        u.entries[(0, 0)] = 2.0
    # exact vectors hold the same arrays and view
    exact = HermiteCoeffs({(1, 1): Fraction(1, 2)})
    assert exact._entries is None and len(exact) == 1
    assert exact.index.tolist() == [[1, 1]] and exact.arrays()[1].tolist() == [0.5 + 0j]
    assert dict(exact.entries) == {(1, 1): Fraction(1, 2)}
    with pytest.raises(TypeError):
        exact.entries[(1, 1)] = 1


def test_an_index_past_int64_is_refused():
    for normalization, amp in (("orthonormal", 1.0), ("raw", 1.0), ("raw", 1)):
        with pytest.raises(ValueError, match=r"index \(10{30}, 0\) is past the int64 range"):
            HermiteCoeffs({(0, 0): amp, (10**30, 0): amp}, normalization)
    with pytest.raises(ValueError, match=r"index \(0, 9223372036854775808\)"):
        HermiteCoeffs({(0, 2**63): 1.0})
    assert HermiteCoeffs({(2**63 - 1, 0): 1.0}).index.tolist() == [[2**63 - 1, 0]]


def test_a_non_integral_index_is_refused():
    for key in ((2.5, 1), (1, Fraction(3, 2)), (np.float64(0.5), 0), (math.inf, 0), (0, math.nan)):
        with pytest.raises(ValueError, match=r"non-integral basis index"):
            HermiteCoeffs({key: 1.0}, "orthonormal")
    with pytest.raises(ValueError, match=r"\(2\.5, 1\)"):
        HermiteCoeffs({(2.5, 1): 1})
    # integral floats and numpy ints read as ints
    u = HermiteCoeffs({(2.0, np.int64(1)): 1.0, (np.float64(3.0), 0): 2.0}, "orthonormal")
    assert list(u.entries) == [(2, 1), (3, 0)]
    assert all(type(i) is int for key in u.entries for i in key)
