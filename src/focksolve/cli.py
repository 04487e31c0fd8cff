"""Batch front door: problem-file solving, verification, certification, export.

Subcommands
-----------
solve    read a problem JSON, write the solution JSON with its report
verify   run the exact identity suites, write a JSON report
certify  sweep the solve bound over a shift grid and k range
probe    empirical operator-norm probe of the solve map
eval     export the finite-difference residual grid of a solution as CSV
disk     bounded-domain (disk) solve with its certification report

Exit codes: 0 success (all checks passing where applicable), 1 a
verification or certification check failed (reports still written),
2 invalid input.  Output files are written atomically and reruns with the
same inputs and seed produce byte-identical reports.

Problem JSON schema::

    {"k": 1, "c": {"re": 0.0, "im": 0.0}, "truncation": 32,
     "f": {"basis": "hermite" | "monomial",
           "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}, ...]}}

Monomial data is converted exactly (floats are taken at their binary value)
through the Hermite change of basis before solving.  The solution JSON
mirrors the input schema, adds a ``u`` coefficient block (raw amplitudes),
and a ``report`` object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import identities
from .basis import HermiteCoeffs, to_hermite
from .numerics import GridSpec, fd_residual_rows
from .ring import ExactScalar, PolyZZbar
from .solver import (
    DiskProblem,
    ProblemSpec,
    certify_sweep,
    operator_norm_probe,
    solve,
    solve_disk,
)

DEFAULT_TRUNCATION = 32
DEFAULT_TRIALS = 100
DEFAULT_SEED = 42


# the process umask, read once: mkstemp creates files private to the owner
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: str, text: str) -> None:
    """Write through a unique, synced temp file beside ``path``, then rename it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _complex(block: dict) -> complex:
    """A {"re", "im"} block; a missing part is zero."""
    return complex(float(block.get("re", 0.0)), float(block.get("im", 0.0)))


def _parse_poly(coeffs: list) -> PolyZZbar:
    """Monomial coefficients, each float taken exactly at its binary value."""
    terms = {}
    for item in coeffs:
        value = _complex(item)
        terms[(int(item["m"]), int(item["n"]))] = ExactScalar(
            Fraction(value.real), Fraction(value.imag)
        )
    return PolyZZbar(terms)


def _parse_f(block: dict) -> HermiteCoeffs:
    basis = block.get("basis", "hermite")
    coeffs = block.get("coeffs", [])
    if basis == "hermite":
        entries = {(int(item["m"]), int(item["n"])): _complex(item) for item in coeffs}
        return HermiteCoeffs(entries, "raw")
    if basis == "monomial":
        return to_hermite(_parse_poly(coeffs))
    raise ValueError(f"unknown basis {basis!r} (expected 'hermite' or 'monomial')")


def _coeff_block(u: HermiteCoeffs) -> dict:
    raw = u.to_raw()
    coeffs = []
    for (m, n), amp in raw.items():
        value = amp.to_complex() if raw.exact else complex(amp)
        coeffs.append({"m": m, "n": n, "re": value.real, "im": value.imag})
    return {"basis": "hermite", "coeffs": coeffs}


def _problem_from_json(data: dict) -> ProblemSpec:
    return ProblemSpec(
        k=int(data["k"]),
        c=_complex(data.get("c", {})),
        truncation=int(data.get("truncation", DEFAULT_TRUNCATION)),
        f=_parse_f(data["f"]),
    )


def cmd_solve(args) -> int:
    data = _load_json(args.input)
    spec = _problem_from_json(data)
    u, report = solve(spec)
    payload = {
        "k": spec.k,
        "c": {"re": spec.c.real, "im": spec.c.imag},
        "truncation": spec.truncation,
        "f": data["f"],
        "u": _coeff_block(u),
        "report": report.as_dict(),
    }
    _emit(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    ks = [args.k] if args.k is not None else [1, 2, 3]
    suites = []
    all_hold = True
    for k in ks:
        reports = identities.run_identity_suite(k, args.trials, args.seed)
        hold = all(r.holds for r in reports)
        all_hold &= hold
        suites.append(
            {
                "suite": f"gaussian_weight_identities_k{k}",
                "k": k,
                "cases": [r.as_dict() for r in reports],
                "all_hold": hold,
            }
        )
    weight_reports = identities.run_weight_identity_suite(args.trials, args.seed)
    hold = all(r.holds for r in weight_reports)
    all_hold &= hold
    suites.append(
        {
            "suite": "weight_commutator_k1",
            "cases": [r.as_dict() for r in weight_reports],
            "all_hold": hold,
        }
    )
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "suites": suites,
        "all_hold": all_hold,
    }
    _emit(payload, args.output)
    return 0 if all_hold else 1


def cmd_certify(args) -> int:
    results = certify_sweep(args.k_min, args.k_max, args.trials, args.truncation, args.seed)
    all_hold = all(row["all_hold"] for row in results)
    payload = {
        "truncation": args.truncation,
        "trials": args.trials,
        "seed": args.seed,
        "results": results,
        "all_hold": all_hold,
    }
    _emit(payload, args.output)
    return 0 if all_hold else 1


def cmd_probe(args) -> int:
    c = complex(args.c_re, args.c_im)
    value = operator_norm_probe(
        args.k, c, trials=args.trials, M=args.truncation, seed=args.seed
    )
    upper = 1.0 / math.factorial(args.k)
    within = value <= upper + 1e-10
    payload = {
        "k": args.k,
        "c": {"re": c.real, "im": c.imag},
        "trials": args.trials,
        "truncation": args.truncation,
        "seed": args.seed,
        "probe": value,
        "upper_bound": upper,
        "within_bound": within,
    }
    _emit(payload, args.output)
    return 0 if within else 1


def cmd_eval(args) -> int:
    data = _load_json(args.input)
    c = _complex(data.get("c", {}))
    u = _parse_f(data["u"])
    f = _parse_f(data["f"])
    grid = GridSpec(args.x_min, args.x_max, args.y_min, args.y_max, args.step)
    rows = fd_residual_rows(u, f, c, grid)
    lines = ["x,y,re_residual,im_residual"]
    for x, y, re, im in rows:
        lines.append(f"{x!r},{y!r},{re!r},{im!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_disk(args) -> int:
    data = _load_json(args.input)
    f_block = data["f"]
    if f_block.get("basis", "monomial") != "monomial":
        raise ValueError("disk data must be polynomial ('monomial' basis)")
    center = _complex(data.get("center", {}))
    radius = float(data["radius"])
    problem = DiskProblem(
        center=center,
        radius=radius,
        f_poly=_parse_poly(f_block.get("coeffs", [])),
        k=int(data["k"]),
        c=_complex(data.get("c", {})),
        truncation=int(data.get("truncation", DEFAULT_TRUNCATION)),
        radial_nodes=int(data.get("radial_nodes", 64)),
        angular_nodes=int(data.get("angular_nodes", 64)),
    )
    u, report = solve_disk(problem)
    payload = {
        "center": {"re": center.real, "im": center.imag},
        "radius": radius,
        "k": problem.k,
        "c": {"re": problem.c.real, "im": problem.c.imag},
        "truncation": problem.truncation,
        "u": _coeff_block(u),
        "report": report.as_dict(),
    }
    _emit(payload, args.output)
    return 0 if report.bound_holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focksolve",
        description="Spectral solves and exact identity checks for d^k dbar^k + c "
        "on the Gaussian-weighted plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the exact identity suites")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_certify = sub.add_parser("certify", help="sweep the solve bound over a shift grid")
    p_certify.add_argument("--k-min", type=int, default=1)
    p_certify.add_argument("--k-max", type=int, default=4)
    p_certify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_certify.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p_certify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_certify.add_argument("--output", default=None)
    p_certify.set_defaults(func=cmd_certify)

    p_probe = sub.add_parser("probe", help="empirical operator-norm probe")
    p_probe.add_argument("--k", type=int, required=True)
    p_probe.add_argument("--c-re", type=float, default=0.0)
    p_probe.add_argument("--c-im", type=float, default=0.0)
    p_probe.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_probe.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p_probe.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_probe.add_argument("--output", default=None)
    p_probe.set_defaults(func=cmd_probe)

    p_eval = sub.add_parser("eval", help="export a residual grid as CSV")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--x-min", type=float, default=-1.0)
    p_eval.add_argument("--x-max", type=float, default=1.0)
    p_eval.add_argument("--y-min", type=float, default=-1.0)
    p_eval.add_argument("--y-max", type=float, default=1.0)
    p_eval.add_argument("--step", type=float, default=0.1)
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_disk = sub.add_parser("disk", help="bounded-domain solve on a disk")
    p_disk.add_argument("--input", required=True)
    p_disk.add_argument("--output", default=None)
    p_disk.set_defaults(func=cmd_disk)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
