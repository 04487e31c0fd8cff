"""Output checks for the benchmark, computed apart from focksolve.

Nothing here imports focksolve.  Every check recomputes what it tests from
the inputs the benchmark generated and from the mathematics of the problem:

* the operator ∂ᵏ∂̄ᵏ + c is applied to a returned u with this module's own
  falling-factorial couplings;
* the bound ratio ‖u‖·k!/‖f‖ is recomputed from the coefficients;
* minimum norm is tested per chain against a homogeneous solution computed
  here;
* exact identity reports are re-derived from the Gaussian moment formula
  ∫ z^a z̄^b e^{−|z|²} dσ = π·a!·δ_ab in plain Fractions;
* monomial data is expanded by the closed form
  z^a z̄^b = Σ_j j!·C(a,j)·C(b,j)·H_{a−j,b−j}.

Coefficient dicts map (m, n) to a complex amplitude.  "Orthonormal"
amplitudes multiply H_{m,n}/‖H_{m,n}‖ with ‖H_{m,n}‖² = π·m!·n!; "raw"
amplitudes multiply H_{m,n}.  Each check raises :class:`CheckFailed` with a
message naming what failed, and returns nothing otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

RESIDUAL_TOL = 1e-10
BOUND_TOL = 1e-10
MIN_NORM_TOL = 1e-10
DISK_SHIFT_TOL = 1e-6
# Five-point Laplacian on a polynomial of degree ≤ 3 is exact; what is left
# is rounding, a few hundred ulps of the values divided by h².
EVAL_ROUNDING_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of focksolve failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Normalisation and couplings


def hermite_norm(m: int, n: int) -> float:
    """‖H_{m,n}‖ = √(π·m!·n!), in log space past the f64 factorial range."""
    if m <= 170 and n <= 170:
        return math.sqrt(math.pi) * math.sqrt(float(math.factorial(m))) * math.sqrt(
            float(math.factorial(n))
        )
    return math.exp(0.5 * (math.log(math.pi) + math.lgamma(m + 1) + math.lgamma(n + 1)))


def raw_to_orthonormal(coeffs: dict) -> dict:
    return {(m, n): a * hermite_norm(m, n) for (m, n), a in coeffs.items()}


def _falling(m: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= m - i
    return out


def coupling(m: int, n: int, k: int) -> float:
    """√((m+k)_k·(n+k)_k): ∂ᵏ∂̄ᵏ maps e_{m+k,n+k} to this times e_{m,n}."""
    return math.sqrt(_falling(m + k, k)) * math.sqrt(_falling(n + k, k))


def _norm(values) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in values))


# ---------------------------------------------------------------------------
# Solve outputs


def check_residual(k: int, c: complex, M: int, f: dict, u: dict) -> float:
    """(∂ᵏ∂̄ᵏ + c)u must equal f on the box [0, M]² to 1e-10 relative.

    f and u are orthonormal.  Entries of u past the box (its stored tail)
    enter through the coupling of the box equations at the edge.  Returns
    the relative residual.
    """
    res_sq = 0.0
    for m in range(M + 1):
        for n in range(M + 1):
            value = c * u.get((m, n), 0j) - f.get((m, n), 0j)
            upper = u.get((m + k, n + k))
            if upper is not None:
                value += coupling(m, n, k) * upper
            res_sq += abs(value) ** 2
    f_norm = _norm(f.values())
    if f_norm == 0:
        require(_norm(u.values()) == 0, "f = 0 but u ≠ 0")
        return 0.0
    rel = math.sqrt(res_sq) / f_norm
    require(rel <= RESIDUAL_TOL, f"relative residual {rel:.3e} > {RESIDUAL_TOL:.0e}")
    return rel


def check_bound(k: int, f: dict, u: dict) -> float:
    """‖u‖·k!/‖f‖ ≤ 1 + 1e-10, from orthonormal coefficients; returns the ratio."""
    f_norm = _norm(f.values())
    u_norm = _norm(u.values())
    ratio = 0.0 if f_norm == 0 else u_norm * math.factorial(k) / f_norm
    require(math.isfinite(ratio), f"bound ratio is {ratio}")
    require(ratio <= 1.0 + BOUND_TOL, f"bound ratio {ratio!r} > 1 + {BOUND_TOL:.0e}")
    return ratio


def _chains(k: int, u: dict) -> dict:
    """Group u by chain origin; each chain is {position j: amplitude}."""
    chains: dict = {}
    for (m, n), value in u.items():
        j = min(m, n) // k
        chains.setdefault((m - j * k, n - j * k), {})[j] = value
    return chains


def _tail_weight(origin, last: int, k: int, c: complex) -> float:
    """τ = Σ_{i≥1} |h_{last+i}|²/|h_last|², or inf once it passes 1e300.

    Past the box the right-hand side is zero, so the infinite chain's
    solution continues from u_last along h; τ is the squared-norm weight of
    that continuation relative to |u_last|².
    """
    c2 = abs(c) ** 2
    tau = 0.0
    term = 1.0
    j = last
    while True:
        a = coupling(origin[0] + j * k, origin[1] + j * k, k) ** 2
        term *= c2 / a
        tau += term
        if tau > 1e300:
            return math.inf
        if c2 < a and term <= 1e-20 * tau:
            return tau
        j += 1


def check_min_norm(k: int, c: complex, M: int, u: dict) -> float:
    """Each chain of u is the stored part of its minimum-norm solution.

    Two solutions of one chain's equations differ by a multiple t of its
    homogeneous solution h₀ = 1, h_{j+1} = −c·h_j/√A_j, and the infinite
    chain's minimum-norm solution is the one orthogonal to h.  Past the
    last stored position J the right-hand side is zero, so u continues as
    u_J·h_{J+i}/h_J with relative weight τ_J; that gives t in closed form
    from the stored entries.  The check is ‖t·h‖ over the stored positions
    ≤ 1e−10·‖u_chain‖: the distance from the stored u to the stored part of
    the minimum-norm solution.  At c = 0, h is the origin alone and t = u₀.
    Returns the worst relative distance.
    """
    worst = 0.0
    for origin, chain in _chains(k, u).items():
        scale = _norm(chain.values())
        if scale == 0:
            continue
        if c == 0:
            share = abs(chain.get(0, 0j)) / scale
        else:
            last = max(max(chain), min((M - origin[0]) // k, (M - origin[1]) // k))
            h = [1.0 + 0j]
            for j in range(last):
                h.append(-c * h[j] / coupling(origin[0] + j * k, origin[1] + j * k, k))
                if abs(h[-1]) > 1e150:
                    # only the direction matters: rescale to stay in range
                    h = [x * 1e-150 for x in h]
            h_last = h[last]
            dot = sum(h[j].conjugate() * chain.get(j, 0j) for j in range(last))
            hh = sum(abs(x) ** 2 for x in h[:last])
            # t = ⟨h, u⟩/‖h‖² over the infinite chain, both divided by 1 + τ
            damp = 1.0 / (1.0 + _tail_weight(origin, last, k, c))
            t = (dot * damp + h_last.conjugate() * chain.get(last, 0j)) / (
                hh * damp + abs(h_last) ** 2
            )
            share = abs(t) * math.sqrt(hh + abs(h_last) ** 2) / scale
        worst = max(worst, share)
        require(
            share <= MIN_NORM_TOL,
            f"chain {origin}: component {share:.3e} along the homogeneous direction",
        )
    return worst


def check_solution(k: int, c: complex, M: int, f: dict, u: dict) -> None:
    """Residual, bound and minimum norm of one orthonormal solve."""
    check_residual(k, c, M, f, u)
    check_bound(k, f, u)
    check_min_norm(k, c, M, u)


# ---------------------------------------------------------------------------
# Exact identity reports (plain Fractions, no focksolve types)


def norm_sq_over_pi(terms: dict) -> Fraction:
    """‖φ‖²/π for φ = Σ c_ab z^a z̄^b, with c_ab = (re, im) Fractions.

    ∫ conj(z^a z̄^b)·z^a' z̄^b' e^{−|z|²} = π·(b+a')! when b+a' = a+b'.
    """
    total_re = Fraction(0)
    total_im = Fraction(0)
    items = list(terms.items())
    for (a, b), (re1, im1) in items:
        for (a2, b2), (re2, im2) in items:
            if b + a2 != a + b2:
                continue
            weight = math.factorial(b + a2)
            # conj(c1)·c2
            total_re += (re1 * re2 + im1 * im2) * weight
            total_im += (re1 * im2 - im1 * re2) * weight
    require(total_im == 0, "self-pairing of φ is not real")
    return total_re


def check_identity_report(report: dict, k: int, phi_terms: dict) -> None:
    """Every case holds, and its ‖φ‖²/π entries match the moment formula.

    ``report`` is a VerificationReport's ``as_dict()``.  For the coercivity
    case the bound (k!)²·‖φ‖²/π is recomputed; for the quadratic form the
    (0, 0) term, ‖φ‖²/π itself, is.
    """
    name = report["identity"]
    require(report["holds"] is True, f"{name} does not hold: {report.get('parameters')}")
    details = report.get("details", {})
    if name in ("adjoint_norm_split", "commutator_quadratic_form"):
        require(
            Fraction(details["lhs_over_pi"]) == Fraction(details["rhs_over_pi"]),
            f"{name}: lhs ≠ rhs",
        )
    if name == "commutator_quadratic_form":
        term = details["terms"]["(0,0)"]
        require(
            Fraction(term["norm_sq_over_pi"]) == norm_sq_over_pi(phi_terms),
            "quadratic form: ‖φ‖²/π differs from the moment formula",
        )
    if name == "adjoint_coercivity":
        bound = Fraction(math.factorial(k)) ** 2 * norm_sq_over_pi(phi_terms)
        require(
            Fraction(details["bound_over_pi"]) == bound,
            "coercivity: bound_over_pi differs from (k!)²·‖φ‖²/π by the moment formula",
        )
        require(Fraction(details["lhs_over_pi"]) >= bound, "coercivity: lhs < bound")


# ---------------------------------------------------------------------------
# Monomial data


def monomials_to_hermite(terms: dict) -> dict:
    """Raw Hermite amplitudes of Σ c_ab z^a z̄^b by the closed form.

    z^a z̄^b = Σ_j j!·C(a,j)·C(b,j)·H_{a−j,b−j}.  Coefficients are
    (re, im) Fractions in and out.
    """
    out: dict = {}
    for (a, b), (re, im) in terms.items():
        for j in range(min(a, b) + 1):
            w = math.factorial(j) * math.comb(a, j) * math.comb(b, j)
            key = (a - j, b - j)
            old_re, old_im = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (old_re + re * w, old_im + im * w)
    return {key: v for key, v in out.items() if v != (0, 0)}


def exact_to_orthonormal(coeffs: dict) -> dict:
    """(re, im) Fraction raw amplitudes to complex orthonormal ones."""
    return {
        (m, n): complex(float(re), float(im)) * hermite_norm(m, n)
        for (m, n), (re, im) in coeffs.items()
    }


# ---------------------------------------------------------------------------
# Disk and eval outputs


def check_disk_report(report: dict, k: int, radius: float) -> None:
    """Ratio within e^{|U|²}/(k!)² for diameter |U| = 2·radius; quadrature resolved."""
    ratio = report["ratio"]
    shift = report["resolution_shift"]
    constant = math.exp((2.0 * radius) ** 2) / math.factorial(k) ** 2
    require(math.isfinite(ratio) and ratio >= 0, f"disk ratio is {ratio}")
    require(ratio <= constant * (1.0 + BOUND_TOL), f"disk ratio {ratio} > {constant}")
    require(
        math.isfinite(shift) and shift <= DISK_SHIFT_TOL,
        f"disk resolution shift {shift} > {DISK_SHIFT_TOL:.0e}",
    )


def check_eval_csv(text: str, expected_rows: int, u_raw: dict) -> float:
    """Every row finite; the five-point residual at rounding level.

    The rounding-level bound applies because u must be a polynomial of
    degree ≤ 3 (support m + n ≤ 3), on which the five-point Laplacian is
    exact.  Returns the largest |residual|.
    """
    require(
        all(m + n <= 3 for m, n in u_raw),
        "eval check needs u of degree ≤ 3; got support beyond it",
    )
    lines = text.strip().split("\n")
    require(lines[0] == "x,y,re_residual,im_residual", f"unexpected CSV header {lines[0]!r}")
    rows = lines[1:]
    require(len(rows) == expected_rows, f"{len(rows)} CSV rows, expected {expected_rows}")
    scale = 1.0 + sum(abs(a) for a in u_raw.values())
    worst = 0.0
    for line in rows:
        values = [float(x) for x in line.split(",")]
        require(len(values) == 4, f"CSV row {line!r} has {len(values)} fields")
        require(all(math.isfinite(v) for v in values), f"non-finite CSV row {line!r}")
        worst = max(worst, math.hypot(values[2], values[3]))
    require(
        worst <= EVAL_ROUNDING_TOL * scale,
        f"five-point residual {worst:.3e} above rounding level on a cubic u",
    )
    return worst
