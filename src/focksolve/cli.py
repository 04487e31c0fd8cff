"""Batch front door: problem-file solving, verification, certification, export.

Subcommands
-----------
solve    read a problem JSON, write the solution JSON with its report
verify   run the exact identity suites, write a JSON report
certify  sweep the solve bound over a shift grid and k range
probe    empirical operator-norm probe of the solve map
eval     export the finite-difference residual grid of a k = 1 solution as CSV
disk     bounded-domain (disk) solve with its certification report

Exit codes: 0 success (all checks passing where applicable), 1 a
verification or certification check failed (reports still written),
2 invalid input, including a ``solve`` or ``disk`` file whose solution would
reach past index 170, where raw amplitudes leave the float range.  Output
files are written atomically and reruns with the same inputs and seed
produce byte-identical reports.

Problem JSON schema::

    {"k": 1, "c": {"re": 0.0, "im": 0.0}, "truncation": 32,
     "f": {"basis": "hermite" | "monomial",
           "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}, ...]}}

Monomial data is converted exactly (floats are taken at their binary value)
through the Hermite change of basis before solving.  The solution JSON
mirrors the input schema, adds a ``u`` coefficient block (raw amplitudes),
and a ``report`` object.

A coefficient block whose rows all have exactly the keys m, n, re and im,
with int indices inside the box and int or float parts, is read by
column (:func:`_columns`); any other block is read row by row, which gives
an invalid one its error.  The ``u`` block and an echoed ``f`` block read
by column are written one ``%``-template per row (:class:`_Rows`); the rest
of a report is written as ``json.dumps(indent=2, sort_keys=True)`` writes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import os
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import identities
from .basis import FACTORIAL_TOP, RAW, HermiteCoeffs, _complex_array, _finite, index_array, to_hermite
from .numerics import GridSpec, fd_residual_rows
from .ring import ExactScalar, PolyZZbar
from .solver import (
    BOUND_TOL,
    DEFAULT_SEED,
    DEFAULT_TRUNCATION,
    DiskProblem,
    ProblemSpec,
    _check_problem,
    certify_sweep,
    operator_norm_probe,
    solve,
    solve_disk,
)

DEFAULT_TRIALS = 100


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


def _write(text: str, output: str | None) -> None:
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


_SCALAR = json.JSONEncoder(allow_nan=False)


class _Rows(list):
    """Coefficient rows as (im, m, n, re) tuples of exact ints and finite floats.

    The tuple order is the sorted key order, so :func:`_render` writes every
    row with one template.
    """


_ROW = operator.itemgetter("im", "m", "n", "re")


def _render(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` at indent ``pad``.

    A :class:`_Rows` list is written one ``%``-template per row: the ``repr``
    of an exact int or a finite float is its JSON text.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{_SCALAR.encode(key)}: {_render(item, inner)}"
            for key, item in sorted(value.items())
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value) is _Rows:
            keys = inner + "  "
            row = f'{inner}{{\n{keys}"im": %r,\n{keys}"m": %r,\n{keys}"n": %r,\n{keys}"re": %r\n{inner}}}'
            items = map(row.__mod__, value)
        else:
            items = (inner + _render(item, inner) for item in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _SCALAR.encode(value)


def _emit(payload: dict, output: str | None) -> None:
    _write(_render(payload, "") + "\n", output)


def _echo(args) -> dict:
    """The shared options ``--trials``, ``--seed`` and ``--truncation`` that a report repeats."""
    return {key: getattr(args, key) for key in ("trials", "seed", "truncation") if key in args}


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            return _object(json.load(handle))
        except RecursionError:
            raise ValueError(f"{path} nests its JSON values too deeply") from None


def _object(value) -> dict:
    """A JSON object; any other JSON value where an object belongs is invalid input."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _list(value) -> list:
    """A JSON list; any other JSON value where a list belongs is invalid input."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return value


def _int(block: dict, key: str, default: int | None = None) -> int:
    """Integer field ``key``, required without a default; only an integral JSON number is valid."""
    value = block[key] if default is None else block.get(key, default)
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{key} = {value!r} is not an integer")


def _real(value, key: str) -> float:
    """A JSON number as a float; a string, a boolean or an integer past float range is invalid."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise ValueError(f"{key} = {value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is an integer past float range") from None


def _complex(block: dict) -> complex:
    """A {"re", "im"} block; a missing part is zero."""
    block = _object(block)
    return complex(_real(block.get("re", 0.0), "re"), _real(block.get("im", 0.0), "im"))


def _keyed_rows(coeffs: list):
    """Yield ((m, n), row) per coefficient row; a second row at one (m, n) is invalid input."""
    seen = set()
    for item in coeffs:
        key = (_int(item, "m"), _int(item, "n"))
        if key in seen:
            raise ValueError(f"two coefficient rows at (m, n) = {key}")
        seen.add(key)
        yield key, item


def _parse_poly(coeffs: list) -> PolyZZbar:
    """Monomial coefficients, each float taken exactly at its binary value."""
    terms = {}
    for key, item in _keyed_rows(coeffs):
        value = _complex(item)
        if not _finite(value):
            raise ValueError(f"monomial coefficient {value} at (m, n) = {key} is not finite")
        terms[key] = ExactScalar(Fraction(value.real), Fraction(value.imag))
    return PolyZZbar(terms)


def _columns(coeffs, top: int):
    """(rows, index, values) of a coefficient block in the column shape, else None.

    The shape: a non-empty list of objects with exactly the keys m, n, re
    and im; m and n exact ints in [0, ``top``], no two rows at one (m, n); re
    and im exact ints or floats, each within float range.  ``rows`` is the
    block as :class:`_Rows`, ``index`` the (m, n) pairs in row order as one
    (rows × 2) int64 array and ``values`` complex(re, im) as one array,
    every part as :func:`_real` reads it.  Every check runs on a whole
    column, and the indices are checked before any part is converted.  A
    block outside the shape is read row by row, which raises the errors of
    an invalid one; ``HermiteCoeffs._store`` refuses NaN and ±inf on both.
    """
    if type(coeffs) is not list or set(map(type, coeffs)) != {dict} or set(map(len, coeffs)) != {4}:
        return None
    try:
        rows = _Rows(map(_ROW, coeffs))
    except KeyError:
        return None
    im, m, n, re = zip(*rows)
    indices, parts = {*map(type, m), *map(type, n)}, {*map(type, re), *map(type, im)}
    if indices != {int} or not parts <= {int, float}:
        return None
    if min(m) < 0 or min(n) < 0 or max(m) > top or max(n) > top:
        return None
    try:
        values = _complex_array(np.array(re, float), np.array(im, float))
    except OverflowError:
        return None
    if len(set(zip(m, n))) < len(rows):
        return None
    return rows, np.array([m, n], np.int64).T, values


def _parse_f(block: dict, top: int, name: str = "f") -> tuple[HermiteCoeffs, dict]:
    """A coefficient block whose every index is at most ``top``, and the block to echo.

    Indices are checked before any conversion.  The Hermite image of a
    monomial block has the same largest m and n as its support, so the check
    is exact for both bases.  A Hermite block in the shape of
    :func:`_columns` is read by column, and a block of either basis in that
    shape is echoed as its :class:`_Rows`; any other block is read row by row
    and echoed as it is.
    """
    basis = _object(block).get("basis", "hermite")
    coeffs = _list(block.get("coeffs", []))
    if basis not in ("hermite", "monomial"):
        raise ValueError(f"unknown basis {basis!r} (expected 'hermite' or 'monomial')")
    columns = _columns(coeffs, top)
    if basis == "hermite" and columns is not None:
        _, index, values = columns
        f = HermiteCoeffs._from_array(index, values, RAW)
    else:
        if basis == "hermite":
            terms = {key: _complex(item) for key, item in _keyed_rows(coeffs)}
        else:
            poly = _parse_poly(coeffs)
            terms = poly.terms
        outside = (index_array(terms) > top).any(axis=1)
        if outside.any():
            past = list(terms)[int(outside.argmax())]
            raise ValueError(f"{name} has support at index {past}, outside the box [0,{top}]²")
        f = HermiteCoeffs(terms, RAW) if basis == "hermite" else to_hermite(poly)
    return f, block if columns is None else {**block, "coeffs": columns[0]}


def _check_writable(k: int, truncation: int) -> None:
    """Reject, before solving, a (k, M) whose ``u`` block reaches past :data:`FACTORIAL_TOP`."""
    if truncation + k > FACTORIAL_TOP:
        raise ValueError(
            f"k = {k} with truncation {truncation}: the solution reaches index "
            f"{truncation + k} > {FACTORIAL_TOP}, where raw amplitudes leave the float range"
        )


def _coeff_block(u: HermiteCoeffs) -> dict:
    """The raw amplitudes of a numeric ``u`` as rows sorted by (m, n)."""
    index, values = u.to_raw().arrays()
    order = np.lexsort((index[:, 1], index[:, 0]))
    m, n, values = index[order, 0], index[order, 1], values[order]
    columns = (values.imag.tolist(), m.tolist(), n.tolist(), values.real.tolist())
    return {"basis": "hermite", "coeffs": _Rows(zip(*columns))}


def cmd_solve(args) -> int:
    data = _load_json(args.input)
    k = _int(data, "k")
    truncation = _int(data, "truncation", DEFAULT_TRUNCATION)
    c = _complex(data.get("c", {}))
    # before f is read: a monomial f's change of basis can take seconds
    _check_problem(k, c, truncation)
    _check_writable(k, truncation)
    f, echo = _parse_f(data["f"], truncation - k)
    spec = ProblemSpec(k=k, c=c, truncation=truncation, f=f)
    u, report = solve(spec)
    payload = {
        "k": spec.k,
        "c": {"re": spec.c.real, "im": spec.c.imag},
        "truncation": spec.truncation,
        "f": echo,
        "u": _coeff_block(u),
        "report": dataclasses.asdict(report),
    }
    _emit(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    ks = [args.k] if args.k is not None else [1, 2, 3]
    trials, seed = args.trials, args.seed
    # (name, extra keys, reports): the k suites, then the weight suite
    runs = [
        (f"gaussian_weight_identities_k{k}", {"k": k}, identities.run_identity_suite(k, trials, seed))
        for k in ks
    ]
    runs.append(("weight_commutator_k1", {}, identities.run_weight_identity_suite(trials, seed)))
    suites = [
        {
            "suite": name,
            **extra,
            "cases": [r.as_dict() for r in reports],
            "all_hold": all(r.holds for r in reports),
        }
        for name, extra, reports in runs
    ]
    all_hold = all(suite["all_hold"] for suite in suites)
    payload = {**_echo(args), "suites": suites, "all_hold": all_hold}
    _emit(payload, args.output)
    return 0 if all_hold else 1


def cmd_certify(args) -> int:
    results = certify_sweep(args.k_min, args.k_max, args.trials, args.truncation, args.seed)
    all_hold = all(row["all_hold"] for row in results)
    payload = {**_echo(args), "results": results, "all_hold": all_hold}
    _emit(payload, args.output)
    return 0 if all_hold else 1


def cmd_probe(args) -> int:
    c = complex(args.c_re, args.c_im)
    value = operator_norm_probe(args.k, c, trials=args.trials, M=args.truncation, seed=args.seed)
    # relative, as SolveReport.bound_holds: past k = 14 the bound is below any absolute slack
    within = value * math.factorial(args.k) <= 1.0 + BOUND_TOL
    payload = {
        "k": args.k,
        "c": {"re": c.real, "im": c.imag},
        **_echo(args),
        "probe": value,
        "upper_bound": 1.0 / math.factorial(args.k),
        "within_bound": within,
    }
    _emit(payload, args.output)
    return 0 if within else 1


def cmd_eval(args) -> int:
    data = _load_json(args.input)
    k = _int(data, "k", 1)
    if k != 1:
        raise ValueError(f"eval applies the k = 1 operator Δ/4 + c; the file has k = {k}")
    c = _complex(data.get("c", {}))
    if not _finite(c):
        raise ValueError(f"shift c = {c} is not finite")
    u, _ = _parse_f(data["u"], FACTORIAL_TOP, "u")
    f, _ = _parse_f(data["f"], FACTORIAL_TOP)
    grid = GridSpec(args.x_min, args.x_max, args.y_min, args.y_max, args.step)
    rows = fd_residual_rows(u, f, c, grid)
    lines = [f"{x!r},{y!r},{re!r},{im!r}" for x, y, re, im in rows]
    _write("\n".join(["x,y,re_residual,im_residual", *lines]) + "\n", args.output)
    return 0


def cmd_disk(args) -> int:
    data = _load_json(args.input)
    f_block = _object(data["f"])
    if f_block.get("basis", "monomial") != "monomial":
        raise ValueError("disk data must be polynomial ('monomial' basis)")
    center = _complex(data.get("center", {}))
    radius = _real(data["radius"], "radius")
    problem = DiskProblem(
        center=center,
        radius=radius,
        f_poly=_parse_poly(_list(f_block.get("coeffs", []))),
        k=_int(data, "k"),
        c=_complex(data.get("c", {})),
        # a size the file leaves out takes DiskProblem's default
        **{key: _int(data, key) for key in ("truncation", "radial_nodes", "angular_nodes") if key in data},
    )
    _check_writable(problem.k, problem.truncation)
    u, report = solve_disk(problem)
    payload = {
        "center": {"re": center.real, "im": center.imag},
        "radius": radius,
        "k": problem.k,
        "c": {"re": problem.c.real, "im": problem.c.imag},
        "truncation": problem.truncation,
        "u": _coeff_block(u),
        "report": dataclasses.asdict(report),
    }
    _emit(payload, args.output)
    return 0 if report.bound_holds else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="focksolve",
        description="Spectral solves and exact identity checks for d^k dbar^k + c "
        "on the Gaussian-weighted plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", default=None)
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("--input", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED)
    box = argparse.ArgumentParser(add_help=False)
    box.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)

    sub.add_parser("solve", parents=[file, out], help="solve a problem file")

    verify = sub.add_parser("verify", parents=[seeded, out], help="run the exact identity suites")
    verify.add_argument("--k", type=int, default=None)

    certify = sub.add_parser(
        "certify", parents=[seeded, box, out], help="sweep the solve bound over a shift grid"
    )
    certify.add_argument("--k-min", type=int, default=1)
    certify.add_argument("--k-max", type=int, default=4)

    probe = sub.add_parser("probe", parents=[seeded, box, out], help="empirical operator-norm probe")
    probe.add_argument("--k", type=int, required=True)
    probe.add_argument("--c-re", type=float, default=0.0)
    probe.add_argument("--c-im", type=float, default=0.0)

    grid = sub.add_parser("eval", parents=[file, out], help="export a residual grid as CSV")
    grid.add_argument("--x-min", type=float, default=-1.0)
    grid.add_argument("--x-max", type=float, default=1.0)
    grid.add_argument("--y-min", type=float, default=-1.0)
    grid.add_argument("--y-max", type=float, default=1.0)
    grid.add_argument("--step", type=float, default=0.1)

    sub.add_parser("disk", parents=[file, out], help="bounded-domain solve on a disk")
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up per call, so that a replaced cmd_* function takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
