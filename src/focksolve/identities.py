"""Exact operator identities under the Gaussian weight, machine-checked.

The central objects are the weighted formal adjoint

    adjoint_k(φ) = e^{g} ∂^k ∂̄^k (φ e^{−g})

and the commutator

    comm_k(φ) = ∂^k∂̄^k(adjoint_k φ) − adjoint_k(∂^k∂̄^k φ),

both computed by direct exact differentiation.  The verification routines
check, with zero numerical tolerance:

* the adjoint-norm split      ‖(∂^k∂̄^k + c)*φ‖² = ‖(∂^k∂̄^k + c)φ‖² + ⟨φ, comm_k φ⟩,
* the quadratic-form identity ⟨φ, comm_k φ⟩ = Σ coefficients · ‖∂^α∂̄^β φ‖²,
* coercivity                  ‖(∂^k∂̄^k + c)*φ‖² ≥ (k!)² ‖φ‖²,
* the complete first-order (k = 1) commutator expansion for an arbitrary
  real polynomial weight exponent.

Every check is an equality or inequality of rationals (all norms carry one
common factor of π, which cancels), so a passing report certifies the
identity exactly on the given input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .ring import (
    ExactScalar,
    PolyZZbar,
    ScalarLike,
    gaussian_pairing,
    weighted_deriv,
    weighted_norm_sq,
)


def formal_adjoint_weighted(k: int, phi: PolyZZbar, g: PolyZZbar) -> PolyZZbar:
    """e^{g} ∂^k ∂̄^k (φ e^{−g}), the weighted adjoint of ∂^k∂̄^k applied to φ."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return weighted_deriv(phi, g, k, k)


def commutator(k: int, phi: PolyZZbar, g: PolyZZbar) -> PolyZZbar:
    """∂^k∂̄^k(adjoint φ) − adjoint(∂^k∂̄^k φ), both sides by direct differentiation.

    Independent of any zeroth-order shift c: the c-terms cancel identically.
    """
    return _commutator(k, phi, formal_adjoint_weighted(k, phi, g), g)


def _commutator(k: int, phi: PolyZZbar, adj: PolyZZbar, g: PolyZZbar) -> PolyZZbar:
    # comm_k φ from adj = adjoint_k φ, for callers that need adj as well
    return adj.deriv(k, k) - formal_adjoint_weighted(k, phi.deriv(k, k), g)


def weight_identity_rhs_k1(phi: PolyZZbar, g: PolyZZbar) -> PolyZZbar:
    """Complete first-order commutator expansion for weight exponent g.

    With Q = e^{g}∂∂̄e^{−g} = ∂g·∂̄g − ∂∂̄g, the k = 1 commutator equals

        φ·∂∂̄Q + ∂φ·(∂̄Q − ∂∂̄²g) + ∂̄φ·(∂Q − ∂²∂̄g)
              − 2·∂∂̄φ·∂∂̄g − ∂²φ·∂̄²g − ∂̄²φ·∂²g.

    The leading term φ·∂∂̄(e^{g}∂∂̄e^{−g}) is the principal factor; the
    remaining five terms are the first-order cross terms of the double
    Leibniz expansion.  For g = |z|² the principal factor is the constant 1.
    """
    q = weighted_deriv(PolyZZbar.constant(1), g, 1, 1)
    return (
        phi * q.deriv(1, 1)
        + phi.deriv(1, 0) * (q.deriv(0, 1) - g.deriv(1, 2))
        + phi.deriv(0, 1) * (q.deriv(1, 0) - g.deriv(2, 1))
        - 2 * (phi.deriv(1, 1) * g.deriv(1, 1))
        - phi.deriv(2, 0) * g.deriv(0, 2)
        - phi.deriv(0, 2) * g.deriv(2, 0)
    )


def quadratic_form_coefficient(k: int, alpha: int, beta: int) -> Fraction:
    """Coefficient (k!)⁴ / ((α!)²(β!)²(k−α)!(k−β)!) of ‖∂^α∂̄^β φ‖²."""
    top = Fraction(math.factorial(k)) ** 4
    bottom = (
        Fraction(math.factorial(alpha)) ** 2
        * Fraction(math.factorial(beta)) ** 2
        * math.factorial(k - alpha)
        * math.factorial(k - beta)
    )
    return top / bottom


@dataclass
class VerificationReport:
    """Outcome of one exact identity check.

    ``holds`` is True exactly when the computed difference is identically
    zero (equalities) or the rational inequality is satisfied.  ``witness``
    carries the nonzero difference polynomial when an equality fails, which
    indicates an implementation bug rather than a counterexample.
    """

    identity_name: str
    parameters: str
    holds: bool
    witness: Optional[PolyZZbar] = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "identity": self.identity_name,
            "parameters": self.parameters,
            "holds": self.holds,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.details:
            out["details"] = self.details
        return out


def _adjoint_with_shift(c: ExactScalar, phi: PolyZZbar, adj: PolyZZbar) -> PolyZZbar:
    # Adjoint of (∂^k∂̄^k + c) is adjoint_k + c̄, from adj = adjoint_k φ; the
    # conjugate matters for complex c because the pairing is conjugate-linear
    # in its first slot.
    return adj + phi * c.conjugate()


def verify_adjoint_norm_split(k: int, c: ScalarLike, phi: PolyZZbar) -> VerificationReport:
    """Check ‖(∂^k∂̄^k + c)*φ‖² = ‖(∂^k∂̄^k + c)φ‖² + ⟨φ, comm_k φ⟩ exactly.

    Weight fixed to g = |z|²; all three quantities are rational multiples of
    π and the equality is tested on the rationals.
    """
    c = ExactScalar.coerce(c)
    g = PolyZZbar.gaussian_exponent()
    adj = formal_adjoint_weighted(k, phi, g)
    lhs = weighted_norm_sq(_adjoint_with_shift(c, phi, adj))
    op_phi = phi.deriv(k, k) + phi * c
    cross = gaussian_pairing(phi, _commutator(k, phi, adj, g))
    rhs = weighted_norm_sq(op_phi) + cross.re
    holds = cross.im == 0 and lhs == rhs
    witness = None if holds else PolyZZbar.constant(ExactScalar(lhs - rhs, cross.im))
    return VerificationReport(
        identity_name="adjoint_norm_split",
        parameters=f"k={k}, c={c!r}, phi={phi}",
        holds=holds,
        witness=witness,
        details={"lhs_over_pi": str(lhs), "rhs_over_pi": str(rhs)},
    )


def verify_quadratic_form(k: int, phi: PolyZZbar) -> VerificationReport:
    """Check ⟨φ, comm_k φ⟩ = Σ_{(α,β)} coeff(α,β)·‖∂^α∂̄^β φ‖² exactly.

    The sum runs over (α, β) ∈ [0,k]² with (α, β) ≠ (k, k); the excluded
    corner term is ‖∂^k∂̄^k φ‖² with coefficient 1, which is exactly the
    operator term split off in the adjoint-norm identity.
    """
    g = PolyZZbar.gaussian_exponent()
    cross = gaussian_pairing(phi, commutator(k, phi, g))
    terms = {}
    rhs = Fraction(0)
    for alpha in range(k + 1):
        for beta in range(k + 1):
            if alpha == k and beta == k:
                continue
            coeff = quadratic_form_coefficient(k, alpha, beta)
            value = weighted_norm_sq(phi.deriv(alpha, beta))
            terms[f"({alpha},{beta})"] = {"coefficient": str(coeff), "norm_sq_over_pi": str(value)}
            rhs += coeff * value
    holds = cross.im == 0 and cross.re == rhs
    witness = None if holds else PolyZZbar.constant(ExactScalar(cross.re - rhs, cross.im))
    return VerificationReport(
        identity_name="commutator_quadratic_form",
        parameters=f"k={k}, phi={phi}",
        holds=holds,
        witness=witness,
        details={"lhs_over_pi": str(cross.re), "rhs_over_pi": str(rhs), "terms": terms},
    )


def verify_coercivity(k: int, c: ScalarLike, phi: PolyZZbar) -> VerificationReport:
    """Check ‖(∂^k∂̄^k + c)*φ‖² ≥ (k!)²·‖φ‖² by exact rational comparison."""
    c = ExactScalar.coerce(c)
    g = PolyZZbar.gaussian_exponent()
    lhs = weighted_norm_sq(_adjoint_with_shift(c, phi, formal_adjoint_weighted(k, phi, g)))
    bound = Fraction(math.factorial(k)) ** 2 * weighted_norm_sq(phi)
    holds = lhs >= bound
    ratio = "inf" if bound == 0 else str(lhs / bound)
    return VerificationReport(
        identity_name="adjoint_coercivity",
        parameters=f"k={k}, c={c!r}, phi={phi}",
        holds=holds,
        details={
            "lhs_over_pi": str(lhs),
            "bound_over_pi": str(bound),
            "ratio": ratio,
            "equality": lhs == bound,
        },
    )


def verify_weight_identity_k1(g: PolyZZbar, phi: PolyZZbar) -> VerificationReport:
    """Check the complete k = 1 commutator expansion for weight exponent g.

    Compares the directly differentiated commutator against the closed-form
    expansion of :func:`weight_identity_rhs_k1`.  The report records the
    principal factor ∂∂̄(e^{g}∂∂̄e^{−g}) and whether the principal term alone
    (the uncrossed part φ·∂∂̄(e^{g}∂∂̄e^{−g})) already matches, which happens
    exactly when the cross-term contribution of φ vanishes.
    """
    lhs = commutator(1, phi, g)
    rhs = weight_identity_rhs_k1(phi, g)
    diff = lhs - rhs
    holds = diff.is_zero()
    q = weighted_deriv(PolyZZbar.constant(1), g, 1, 1)
    principal = q.deriv(1, 1)
    return VerificationReport(
        identity_name="weight_commutator_k1",
        parameters=f"g={g}, phi={phi}",
        holds=holds,
        witness=None if holds else diff,
        details={
            "principal_factor": str(principal),
            "principal_term_only": (lhs - phi * principal).is_zero(),
        },
    )


# ---------------------------------------------------------------------------
# Seeded random inputs for the verification suites.


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def random_polynomial(rng: random.Random, max_degree: int, real: bool = False) -> PolyZZbar:
    """Sparse random polynomial of total degree ≤ max_degree.

    Coefficients are rationals with numerator in [−9, 9] and denominator in
    {1, 2, 3}.  With ``real=True`` the result equals its own conjugate
    (coefficients paired across the diagonal), suitable as a weight exponent.
    Never returns the zero polynomial.
    """
    terms: dict = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            if real and b > a:
                continue
            if rng.random() >= 0.4:
                continue
            if real:
                if a == b:
                    terms[(a, b)] = ExactScalar(_random_rational(rng))
                else:
                    coeff = ExactScalar(_random_rational(rng), _random_rational(rng))
                    terms[(a, b)] = coeff
                    terms[(b, a)] = coeff.conjugate()
            else:
                terms[(a, b)] = ExactScalar(_random_rational(rng), _random_rational(rng))
    poly = PolyZZbar(terms)
    if poly.is_zero():
        poly = PolyZZbar.constant(1)
    return poly


def random_shift(rng: random.Random) -> ExactScalar:
    """Random exact complex shift c for the suite runs, zero included."""
    pool = (
        ExactScalar(0),
        ExactScalar(1),
        ExactScalar(-2),
        ExactScalar(0, 1),
        ExactScalar(1, 1),
        ExactScalar(Fraction(1, 2), Fraction(-1, 3)),
        ExactScalar(3, -2),
    )
    return rng.choice(pool)


def run_identity_suite(k: int, trials: int, seed: int) -> list[VerificationReport]:
    """Seeded batch of the three Gaussian-weight checks for one k, φ of degree ≤ 4."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(f"identity-suite:{seed}:{k}")
    reports = []
    for _ in range(trials):
        phi = random_polynomial(rng, 4)
        c = random_shift(rng)
        reports.append(verify_adjoint_norm_split(k, c, phi))
        reports.append(verify_quadratic_form(k, phi))
        reports.append(verify_coercivity(k, c, phi))
    return reports


def run_weight_identity_suite(trials: int, seed: int) -> list[VerificationReport]:
    """Seeded batch of k = 1 commutator expansions; weight g and φ of degree ≤ 3."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(f"weight-identity:{seed}")
    reports = []
    for _ in range(trials):
        g = random_polynomial(rng, 3, real=True)
        phi = random_polynomial(rng, 3)
        reports.append(verify_weight_identity_k1(g, phi))
    return reports
