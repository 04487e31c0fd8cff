"""Each output check accepts real focksolve output and rejects a corrupted copy.

Run with ``python3 -m pytest benchmark`` from the root of the repository;
the repository's own test run (``testpaths = ["tests"]``) does not collect
this file.
"""

import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from focksolve import cli, identities, solver  # noqa: E402
from focksolve.basis import HermiteCoeffs, to_hermite  # noqa: E402
from focksolve.ring import ExactScalar, PolyZZbar  # noqa: E402


def dense(k, M, seed=0):
    rng = random.Random(seed)
    side = M - k + 1
    return {(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for m in range(side) for n in range(side)}


def solved(k, c, M, f):
    u, _ = solver.solve(solver.ProblemSpec(k=k, c=c, truncation=M, f=HermiteCoeffs(f, "orthonormal")))
    return dict(u.entries)


def bump(u, key, rel=1e-6):
    out = dict(u)
    out[key] = out[key] * (1 + rel)
    return out


@pytest.mark.parametrize("k,c", [(1, 0j), (2, 1 + 1j), (3, 1e6 + 0j), (1, -10j)])
def test_solution_checks_accept_real_output(k, c):
    f = dense(k, 12)
    checks.check_solution(k, c, 12, f, solved(k, c, 12, f))


@pytest.mark.parametrize("k,c", [(1, 0j), (2, 1 + 1j), (3, 1e6 + 0j)])
def test_residual_rejects_one_coefficient_off_by_1e6(k, c):
    f = dense(k, 12)
    u = solved(k, c, 12, f)
    key = max(u, key=lambda kk: abs(u[kk]))
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_residual(k, c, 12, f, bump(u, key))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bound_rejects_sharp_case_pushed_past_one(k):
    # f = H00 at c = 0 attains ‖u‖·k!/‖f‖ = 1 exactly
    f = {(0, 0): 1 + 0j}
    u = solved(k, 0j, 10, f)
    assert checks.check_bound(k, f, u) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(checks.CheckFailed, match="bound ratio"):
        checks.check_bound(k, f, bump(u, (k, k)))


def test_min_norm_rejects_mass_on_the_chain_origin_at_c0():
    # at c = 0 the origin is free: moving it keeps every equation
    f = dense(1, 10)
    u = solved(1, 0j, 10, f)
    u[(0, 3)] = 1e-6 * abs(u[(1, 4)])
    checks.check_residual(1, 0j, 10, f, u)
    with pytest.raises(checks.CheckFailed, match="homogeneous"):
        checks.check_min_norm(1, 0j, 10, u)


@pytest.mark.parametrize("c", [1 + 0j, -10j, 1e6 + 0j])
def test_min_norm_rejects_a_homogeneous_component(c):
    k, M = 1, 10
    f = dense(k, M)
    u = solved(k, c, M, f)
    origin = (0, 2)
    chain = {j: u[(origin[0] + j, origin[1] + j)] for j in range(60) if (origin[0] + j, origin[1] + j) in u}
    last = max(chain)
    h = [1.0 + 0j]
    for j in range(last):
        h.append(-c * h[j] / math.sqrt((origin[0] + j + 1) * (origin[1] + j + 1)))
    size = math.sqrt(sum(abs(x) ** 2 for x in h))
    scale = math.sqrt(sum(abs(v) ** 2 for v in chain.values()))
    for j in range(last + 1):
        key = (origin[0] + j, origin[1] + j)
        u[key] = u.get(key, 0j) + 1e-6 * scale * h[j] / size
    with pytest.raises(checks.CheckFailed, match="homogeneous"):
        checks.check_min_norm(k, c, M, u)


def _terms(poly):
    return {key: (v.re, v.im) for key, v in poly.terms.items()}


def test_identity_checks_accept_and_reject():
    phi = PolyZZbar({(2, 1): ExactScalar(Fraction(1, 2), -1), (0, 1): 3, (1, 1): ExactScalar(0, Fraction(2, 3))})
    c = ExactScalar(Fraction(1, 2), Fraction(-1, 3))
    terms = _terms(phi)
    for k in (1, 2):
        reports = [
            identities.verify_adjoint_norm_split(k, c, phi).as_dict(),
            identities.verify_quadratic_form(k, phi).as_dict(),
            identities.verify_coercivity(k, c, phi).as_dict(),
        ]
        for report in reports:
            checks.check_identity_report(report, k, terms)
        coercivity = reports[2]
        wrong_bound = dict(coercivity, details=dict(coercivity["details"]))
        wrong_bound["details"]["bound_over_pi"] = str(Fraction(coercivity["details"]["bound_over_pi"]) + Fraction(1, 7))
        with pytest.raises(checks.CheckFailed, match="bound_over_pi"):
            checks.check_identity_report(wrong_bound, k, terms)
        quadratic = json.loads(json.dumps(reports[1]))
        quadratic["details"]["terms"]["(0,0)"]["norm_sq_over_pi"] = "1"
        with pytest.raises(checks.CheckFailed, match="moment formula"):
            checks.check_identity_report(quadratic, k, terms)
        with pytest.raises(checks.CheckFailed, match="does not hold"):
            checks.check_identity_report(dict(reports[0], holds=False), k, terms)


def test_moment_norm_matches_the_program_pairing():
    phi = PolyZZbar({(3, 0): 2, (1, 2): ExactScalar(-1, Fraction(1, 3)), (0, 0): ExactScalar(0, 5)})
    from focksolve.ring import weighted_norm_sq

    assert checks.norm_sq_over_pi(_terms(phi)) == weighted_norm_sq(phi)


def test_monomial_closed_form():
    # z² z̄ = H21 + 2·H10
    one = (Fraction(1), Fraction(0))
    assert checks.monomials_to_hermite({(2, 1): one}) == {(2, 1): one, (1, 0): (Fraction(2), Fraction(0))}
    poly = PolyZZbar({(3, 2): ExactScalar(1, 2), (1, 1): Fraction(-3, 4), (0, 4): 5})
    expected = {key: (v.re, v.im) for key, v in to_hermite(poly).entries.items()}
    assert checks.monomials_to_hermite(_terms(poly)) == expected


def test_residual_rejects_a_wrong_hermite_coefficient_of_monomial_data():
    poly = PolyZZbar({(2, 1): 1, (1, 1): ExactScalar(0, 1), (0, 2): Fraction(1, 2)})
    f = checks.exact_to_orthonormal(checks.monomials_to_hermite(_terms(poly)))
    u = solved(2, 1j, 12, f)
    checks.check_residual(2, 1j, 12, f, u)
    wrong = dict(f)
    wrong[(1, 0)] = wrong[(1, 0)] * (1 + 1e-6)  # as if the basis change erred in one coefficient
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_residual(2, 1j, 12, f, solved(2, 1j, 12, wrong))


def test_disk_check(tmp_path):
    problem = tmp_path / "disk.json"
    out = tmp_path / "out.json"
    payload = {
        "center": {"re": 0.25, "im": 0.0},
        "radius": 0.8,
        "k": 1,
        "c": {"re": 1.0, "im": 0.0},
        "truncation": 12,
        "f": {"basis": "monomial", "coeffs": [{"m": 1, "n": 0, "re": 1.0, "im": 0.5}, {"m": 0, "n": 0, "re": 2.0, "im": 0}]},
    }
    problem.write_text(json.dumps(payload))
    assert cli.run(["disk", "--input", str(problem), "--output", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    checks.check_disk_report(report, 1, 0.8)
    with pytest.raises(checks.CheckFailed, match="disk ratio"):
        checks.check_disk_report(dict(report, ratio=math.exp(1.6**2) * 1.001), 1, 0.8)
    with pytest.raises(checks.CheckFailed, match="resolution shift"):
        checks.check_disk_report(dict(report, resolution_shift=2e-6), 1, 0.8)


def test_eval_check(tmp_path):
    problem = tmp_path / "p.json"
    solution = tmp_path / "s.json"
    csv = tmp_path / "r.csv"
    coeffs = [{"m": 0, "n": 0, "re": 1.0, "im": 0.5}, {"m": 1, "n": 0, "re": -0.75, "im": 0.0}, {"m": 0, "n": 1, "re": 0.0, "im": 2.0}]
    problem.write_text(json.dumps({"k": 1, "c": {"re": 0.0, "im": 0.0}, "truncation": 16, "f": {"basis": "hermite", "coeffs": coeffs}}))
    assert cli.run(["solve", "--input", str(problem), "--output", str(solution)]) == 0
    assert cli.run(["eval", "--input", str(solution), "--output", str(csv)]) == 0
    u = {(e["m"], e["n"]): complex(e["re"], e["im"]) for e in json.loads(solution.read_text())["u"]["coeffs"]}
    text = csv.read_text()
    checks.check_eval_csv(text, 361, u)
    lines = text.splitlines()
    x, y, _, _ = lines[5].split(",")
    for bad in ("nan", "1e-06"):
        corrupted = "\n".join(lines[:5] + [f"{x},{y},{bad},0.0"] + lines[6:])
        with pytest.raises(checks.CheckFailed):
            checks.check_eval_csv(corrupted, 361, u)
    with pytest.raises(checks.CheckFailed, match="degree"):
        checks.check_eval_csv(text, 361, u | {(2, 2): 1e-3 + 0j})
