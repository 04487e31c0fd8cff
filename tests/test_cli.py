"""Command-line front door: schemas, exit codes, determinism."""

import dataclasses
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cli_cases import CASE, CASES, EXAMPLES, GOLDEN, RERUN, check, in_process
from focksolve import cli
from focksolve.basis import HermiteCoeffs, index_array, to_hermite


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(tmp_path, case):
    # every row of the table, in process; the message names the output comparison
    print(check(case, in_process, tmp_path))


def test_rows_have_one_name_each_and_every_golden_file_its_row():
    assert len(CASE) == len(CASES)
    goldens = {case.out for case in CASES} - {None, RERUN}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(goldens)


def write_problem(path, k=1, c=(0.0, 0.0), truncation=32, coeffs=None, basis="hermite"):
    if coeffs is None:
        coeffs = [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]
    payload = {
        "k": k,
        "c": {"re": c[0], "im": c[1]},
        "truncation": truncation,
        "f": {"basis": basis, "coeffs": coeffs},
    }
    path.write_text(json.dumps(payload))
    return path


def test_solve_sharpness_roundtrip(tmp_path):
    problem = write_problem(tmp_path / "problem.json")
    out = tmp_path / "out.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["u"]["coeffs"] == [{"im": 0.0, "m": 1, "n": 1, "re": 1.0}]
    assert data["report"]["bound_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert data["report"]["bound_holds"] is True


def test_solve_monomial_input(tmp_path):
    # |z|² = H00 + H11, so u = H11 + H22/4 at k = 1, c = 0
    problem = write_problem(
        tmp_path / "p.json",
        basis="monomial",
        coeffs=[{"m": 1, "n": 1, "re": 1.0, "im": 0.0}],
    )
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    got = {(c["m"], c["n"]): c["re"] for c in json.loads(out.read_text())["u"]["coeffs"]}
    assert got[(1, 1)] == pytest.approx(1.0, rel=1e-12)
    assert got[(2, 2)] == pytest.approx(0.25, rel=1e-12)


def test_verify_reports_all_suites(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.run(["verify", "--k", "2", "--trials", "2", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_hold"] is True
    names = {s["suite"] for s in data["suites"]}
    assert names == {"gaussian_weight_identities_k2", "weight_commutator_k1"}
    assert all(case["holds"] for suite in data["suites"] for case in suite["cases"])


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    from focksolve import identities

    def broken_suite(k, trials, seed):
        report = identities.VerificationReport("stub", "k", holds=False)
        return [report]

    monkeypatch.setattr(cli.identities, "run_identity_suite", broken_suite)
    out = tmp_path / "verify.json"
    assert cli.run(["verify", "--k", "1", "--trials", "1", "--output", str(out)]) == 1
    assert json.loads(out.read_text())["all_hold"] is False


def test_probe_command(tmp_path):
    out = tmp_path / "probe.json"
    code = cli.run(
        ["probe", "--k", "2", "--trials", "4", "--truncation", "10", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["probe"] == pytest.approx(0.5, abs=1e-10)
    assert data["within_bound"] is True


@pytest.mark.parametrize("value, code", [(100, 1), (1, 0)])
def test_probe_bound_is_relative_past_k_14(tmp_path, monkeypatch, value, code):
    # 1/15! ≈ 7.6e−13 is below an absolute slack of 1e−10
    monkeypatch.setattr(cli, "operator_norm_probe", lambda *a, **kw: value / math.factorial(15))
    out = tmp_path / "probe.json"
    args = ["probe", "--k", "15", "--trials", "1", "--truncation", "17", "--output", str(out)]
    assert cli.run(args) == code
    assert json.loads(out.read_text())["within_bound"] is (code == 0)


def test_certify_command_small(tmp_path):
    out = tmp_path / "certify.json"
    code = cli.run(
        [
            "certify",
            "--k-min", "1", "--k-max", "2",
            "--trials", "2",
            "--truncation", "10",
            "--output", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_hold"] is True
    assert len(data["results"]) == 2 * 9
    for row in data["results"]:
        assert row["max_bound_ratio"] <= 1 + 1e-10
        assert row["max_relative_residual"] <= 1e-10


def test_eval_csv_export(tmp_path):
    problem = write_problem(tmp_path / "p.json", truncation=8)
    solution = tmp_path / "s.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(solution)]) == 0
    csv_path = tmp_path / "grid.csv"
    code = cli.run(
        ["eval", "--input", str(solution), "--step", "0.5", "--output", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,re_residual,im_residual"
    assert len(lines) == 1 + 9  # 5x5 grid, interior 3x3
    for line in lines[1:]:
        x, y, re, im = map(float, line.split(","))
        assert abs(complex(re, im)) <= 1e-10


def test_eval_of_an_overflowing_solution_exits_2(tmp_path, capsys):
    # f = 2¹⁰²³ solves at exit 0; its solution overflows the five-point stencil
    f = [{"m": 0, "n": 0, "re": 8.98846567431158e307, "im": 0.0}]
    problem = write_problem(tmp_path / "p.json", c=(0.5, -1.0), truncation=12, coeffs=f)
    solution = tmp_path / "s.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(solution)]) == 0
    csv_path = tmp_path / "grid.csv"
    assert cli.run(["eval", "--input", str(solution), "--output", str(csv_path)]) == 2
    assert "residual leaves the float range" in json.loads(capsys.readouterr().err)["error"]
    assert not csv_path.exists()


def test_eval_of_a_solution_at_k_above_1_exits_2(tmp_path, capsys):
    # eval applies Δ/4 + c, the k = 1 operator; a k = 2 solution has another residual
    f = [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}, {"m": 1, "n": 1, "re": 0.5, "im": 0.0}]
    problem = write_problem(tmp_path / "p.json", k=2, c=(1.0, 0.0), truncation=8, coeffs=f)
    solution = tmp_path / "s.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(solution)]) == 0
    csv_path = tmp_path / "grid.csv"
    assert cli.run(["eval", "--input", str(solution), "--output", str(csv_path)]) == 2
    assert "the file has k = 2" in json.loads(capsys.readouterr().err)["error"]
    assert not csv_path.exists()


def test_disk_command(tmp_path):
    payload = {
        "center": {"re": 0.0, "im": 0.0},
        "radius": 1.0,
        "k": 1,
        "c": {"re": 0.0, "im": 0.0},
        "truncation": 16,
        "radial_nodes": 48,
        "angular_nodes": 48,
        "f": {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
    }
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "disk_report.json"
    assert cli.run(["disk", "--input", str(path), "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["report"]["bound_holds"] is True
    assert data["report"]["bound_constant"] == pytest.approx(math.exp(4.0))
    assert data["report"]["ratio"] <= data["report"]["bound_constant"]


def test_solve_raw_data_at_high_index(tmp_path):
    # √(m!·n!) at (120, 120) is far past the float product of the factorials
    problem = write_problem(
        tmp_path / "p.json", truncation=130, coeffs=[{"m": 120, "n": 120, "re": 1.0, "im": 0.0}]
    )
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    report = data["report"]
    assert all(math.isfinite(report[key]) for key in ("residual_norm", "f_norm", "u_norm"))
    assert report["bound_holds"] is True
    # at c = 0, u = H_{121,121}/121² exactly, stored at a finite raw amplitude
    got = {(c["m"], c["n"]): c["re"] for c in data["u"]["coeffs"]}
    assert list(got) == [(121, 121)]
    assert got[(121, 121)] == pytest.approx(1 / 121**2, rel=1e-12)


def test_atomic_write_concurrent_writers(tmp_path):
    target = str(tmp_path / "out.json")
    payloads = ["a" * 4096 + "\n", "b" * 8192 + "\n"]
    errors = []

    def writer(text):
        try:
            for _ in range(200):
                cli._atomic_write(target, text)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(text,)) for text in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    with open(target) as handle:
        assert handle.read() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_emit_rejects_non_finite_values(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(ValueError):
        cli._emit({"report": {"u_norm": float("nan")}}, str(out))
    assert list(tmp_path.iterdir()) == []


EMIT_PAYLOADS = [
    {},
    {"empty_list": [], "empty_object": {}, "nested": {"deeper": {}}},
    {
        "rows": [
            {"m": 0, "n": 1, "re": 0.5, "im": -0.0},
            {"m": 2, "n": 0, "re": 1e300, "im": 5e-324},
        ]
    },
    {"outer": {"rows": [{"b": 1, "a": 2}]}, "lists": [[{"x": 1}], [], [[{"y": 2.5}]]]},
    {"s": "},\n  {", "rows": [{"}, {": 1, 'a"b': 2.5, "é": 3}, {"z{": -4}]},
    {"t": True, "f": False, "none": None, "rows": [{"flag": True, "v": 1}]},
    {"mixed": [{"a": 1}, {}], "scalars": [1, 2.5, "x", None], "strings": [{"a": "b"}]},
]


@pytest.mark.parametrize("payload", EMIT_PAYLOADS)
def test_emit_matches_json_dumps(tmp_path, payload):
    out = tmp_path / "out.json"
    cli._emit(payload, str(out))
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emit_matches_json_dumps_on_a_solution(tmp_path):
    problem = write_problem(tmp_path / "p.json", k=2, c=(1.0, -1.0), truncation=12)
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_solution_at_the_writable_index_is_written(tmp_path):
    problem = write_problem(tmp_path / "p.json", c=(1.0, 0.0), truncation=169)
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    keys = {(c["m"], c["n"]) for c in json.loads(out.read_text())["u"]["coeffs"]}
    assert (0, 0) in keys


def _not_called(*args, **kwargs):
    raise AssertionError("reached past the index check")


@pytest.mark.parametrize("index", [5000, 10**9])
def test_monomial_support_past_the_box_exits_2_before_conversion(tmp_path, capsys, monkeypatch, index):
    # the Hermite image's largest (m, n) is the support's, so the box check needs no conversion
    monkeypatch.setattr(cli, "to_hermite", _not_called)
    coeffs = [{"m": 0, "n": 0, "re": 1.0}, {"m": index, "n": index, "re": 1.0}]
    problem = write_problem(tmp_path / "p.json", truncation=32, coeffs=coeffs, basis="monomial")
    assert cli.run(["solve", "--input", str(problem)]) == 2
    assert f"({index}, {index})" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "name",
    ["solve past the writable index", "solve with a NaN shift and truncation 100000", "solve with truncation below k"],
    ids=["past the writable index", "non-finite shift", "truncation below k"],
)
def test_solve_checks_k_c_and_truncation_before_reading_f(tmp_path, monkeypatch, name):
    # these rows, with f never read: a monomial f at (3000, 3000) would spend
    # seconds in the change of basis
    monkeypatch.setattr(cli, "to_hermite", _not_called)
    monkeypatch.setattr(cli, "_parse_f", _not_called)
    check(CASE[name], in_process, tmp_path)


@pytest.mark.parametrize(
    "shown", ["(nan+0j)", "(inf-infj)", "(1.5e+308+1.5e+308j)"], ids=["nan", "inf", "overflowing magnitude"]
)
def test_eval_checks_its_shift_before_reading_u_and_f(tmp_path, monkeypatch, shown):
    # these rows, with u and f never read; in solve's words: NaN used to be
    # blamed on the residual, and the magnitude passed
    monkeypatch.setattr(cli, "_parse_f", _not_called)
    check(CASE[f"eval with a shift {shown}"], in_process, tmp_path)


@pytest.mark.parametrize(
    "block, basis",
    [("u", "hermite"), ("f", "hermite"), ("f", "monomial")],
)
def test_eval_indices_past_170_exit_2_before_synthesis(tmp_path, capsys, monkeypatch, block, basis):
    monkeypatch.setattr(cli, "to_hermite", _not_called)
    monkeypatch.setattr(cli, "fd_residual_rows", _not_called)
    small = {"basis": "hermite", "coeffs": [{"m": 0, "n": 0, "re": 1.0}]}
    payload = {"c": {"re": 0.0}, "u": small, "f": small}
    payload[block] = {"basis": basis, "coeffs": [{"m": 3000, "n": 3000, "re": 1.0}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["eval", "--input", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"{block} has support at index (3000, 3000)" in error and "170" in error


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--x-max", "inf"], "finite"),
        (["--y-min", "nan"], "finite"),
        (["--step", "1e-9"], "more than 2,097,152 nodes"),
        (["--x-min=-1e308", "--x-max=1e308", "--step", "1"], "more than 2,097,152 nodes"),
        # 2049 × 1025 nodes: just past the bound
        (["--x-min", "0", "--x-max", "2048", "--y-min", "0", "--y-max", "1024", "--step", "1"], "nodes"),
    ],
)
def test_eval_grid_past_the_bound_exits_2(tmp_path, capsys, monkeypatch, grid, message):
    problem = write_problem(tmp_path / "p.json", truncation=8)
    solution = tmp_path / "s.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(solution)]) == 0
    monkeypatch.setattr(cli, "fd_residual_rows", _not_called)
    assert cli.run(["eval", "--input", str(solution), *grid]) == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_run_builds_its_parser_once_and_looks_commands_up_per_call(tmp_path, monkeypatch):
    problem = write_problem(tmp_path / "p.json", truncation=8)
    assert cli.run(["solve", "--input", str(problem), "--output", str(tmp_path / "o.json")]) == 0
    parser = cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.input) or 7)
    assert cli.run(["solve", "--input", str(problem)]) == 7
    assert seen == [str(problem)]
    assert cli.build_parser() is parser


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["solve", "--input", "p.json"], {"command": "solve", "input": "p.json", "output": None}),
        (["verify"], {"command": "verify", "k": None, "trials": 100, "seed": 42, "output": None}),
        (
            ["certify"],
            {"command": "certify", "k_min": 1, "k_max": 4, "trials": 100, "truncation": 32,
             "seed": 42, "output": None},
        ),
        (
            ["probe", "--k", "2"],
            {"command": "probe", "k": 2, "c_re": 0.0, "c_im": 0.0, "trials": 100,
             "truncation": 32, "seed": 42, "output": None},
        ),
        (
            ["eval", "--input", "s.json"],
            {"command": "eval", "input": "s.json", "x_min": -1.0, "x_max": 1.0, "y_min": -1.0,
             "y_max": 1.0, "step": 0.1, "output": None},
        ),
        (["disk", "--input", "d.json"], {"command": "disk", "input": "d.json", "output": None}),
        (
            ["solve", "--input", "p.json", "--output", "o.json"],
            {"command": "solve", "input": "p.json", "output": "o.json"},
        ),
        (
            ["verify", "--k", "3", "--trials", "5", "--seed", "7", "--output", "v.json"],
            {"command": "verify", "k": 3, "trials": 5, "seed": 7, "output": "v.json"},
        ),
        (
            ["certify", "--k-min", "2", "--k-max", "3", "--trials", "4", "--truncation", "16",
             "--seed", "9", "--output", "c.json"],
            {"command": "certify", "k_min": 2, "k_max": 3, "trials": 4, "truncation": 16,
             "seed": 9, "output": "c.json"},
        ),
        (
            ["probe", "--k", "2", "--c-re", "1.5", "--c-im", "-2", "--trials", "6",
             "--truncation", "24", "--seed", "11", "--output", "q.json"],
            {"command": "probe", "k": 2, "c_re": 1.5, "c_im": -2.0, "trials": 6,
             "truncation": 24, "seed": 11, "output": "q.json"},
        ),
        (
            ["eval", "--input", "s.json", "--x-min", "-2", "--x-max", "2", "--y-min", "-0.5",
             "--y-max", "0.5", "--step", "0.25", "--output", "r.csv"],
            {"command": "eval", "input": "s.json", "x_min": -2.0, "x_max": 2.0, "y_min": -0.5,
             "y_max": 0.5, "step": 0.25, "output": "r.csv"},
        ),
        (
            ["disk", "--input", "d.json", "--output", "o.json"],
            {"command": "disk", "input": "d.json", "output": "o.json"},
        ),
    ],
)
def test_each_subcommand_parses_its_options_and_defaults(argv, parsed):
    args = vars(cli.build_parser().parse_args(argv))
    assert args == parsed
    assert [type(value) for value in args.values()] == [type(parsed[key]) for key in args]


DISK_SIZES = ("truncation", "radial_nodes", "angular_nodes")


@pytest.mark.parametrize(
    "sizes",
    [{}, {"truncation": 12}, {"radial_nodes": 40.0}, {"truncation": 12, "radial_nodes": 40, "angular_nodes": 48}],
    ids=["none", "truncation", "radial_nodes", "all"],
)
def test_disk_sizes_the_file_leaves_out_take_the_disk_problem_defaults(tmp_path, monkeypatch, sizes):
    defaults = {field.name: field.default for field in dataclasses.fields(cli.DiskProblem)}
    seen = []
    real = cli.solve_disk
    monkeypatch.setattr(cli, "solve_disk", lambda problem: seen.append(problem) or real(problem))
    example = json.loads((EXAMPLES / "disk.json").read_text())
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**{k: v for k, v in example.items() if k not in DISK_SIZES}, **sizes}))
    assert cli.run(["disk", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0
    [problem] = seen
    for key in DISK_SIZES:
        assert getattr(problem, key) == sizes.get(key, defaults[key])
        assert type(getattr(problem, key)) is int


def test_readme_examples_solve_eval_and_disk(tmp_path):
    # the values of the README rows' outputs: solve, eval of the solution, the disk file
    out = {}
    for name in ("README solve", "README eval", "README disk"):
        (tmp_path / name).mkdir()
        check(CASE[name], in_process, tmp_path / name)
        out[name] = (tmp_path / name / "out").read_text()
    assert json.loads(out["README solve"])["report"]["bound_holds"] is True
    rows = out["README eval"].splitlines()
    assert len(rows) == 1 + 19 * 19
    assert max(abs(complex(*map(float, row.split(",")[2:]))) for row in rows[1:]) <= 1e-10
    assert json.loads(out["README disk"])["report"]["bound_holds"] is True


# ---------------------------------------------------------------------------
# The column read and the row template against the row-by-row path they replace


def _is_row(item) -> bool:
    return (
        isinstance(item, dict)
        and bool(item)
        and all(type(value) is int or type(value) is float for value in item.values())
    )


def reference_render(value, pad=""):
    """The row-scanning writer: lists of rows through the C encoder, split at row boundaries."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{cli._SCALAR.encode(key)}: {reference_render(item, inner)}"
            for key, item in sorted(value.items())
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(map(_is_row, value)):
            keys = inner + "  "
            encoder = json.JSONEncoder(
                separators=(",\n" + keys, ": "), sort_keys=True, allow_nan=False
            )
            rows = encoder.encode(value)[2:-2].split("},\n" + keys + "{")
            between = "\n" + inner + "},\n" + inner + "{\n" + keys
            return f"[\n{inner}{{\n{keys}{between.join(rows)}\n{inner}}}\n{pad}]"
        items = (inner + reference_render(item, inner) for item in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return cli._SCALAR.encode(value)


def reference_parse_f(block, top, name="f"):
    """The row-by-row parse: every row through _int and _complex, then the constructor.

    A second row at one (m, n) is refused where it is read.
    """
    basis = cli._object(block).get("basis", "hermite")
    coeffs = cli._list(block.get("coeffs", []))
    if basis == "hermite":
        terms = {}
        for item in coeffs:
            key = (cli._int(item, "m"), cli._int(item, "n"))
            if key in terms:
                raise ValueError(f"two coefficient rows at (m, n) = {key}")
            terms[key] = cli._complex(item)
    elif basis == "monomial":
        poly = cli._parse_poly(coeffs)
        terms = poly.terms
    else:
        raise ValueError(f"unknown basis {basis!r} (expected 'hermite' or 'monomial')")
    outside = (index_array(terms) > top).any(axis=1)
    if outside.any():
        past = list(terms)[int(outside.argmax())]
        raise ValueError(f"{name} has support at index {past}, outside the box [0,{top}]²")
    return HermiteCoeffs(terms, "raw") if basis == "hermite" else to_hermite(poly)


def reference_coeff_block(u):
    """The rows of u as objects, one dict per row."""
    coeffs = [{"m": m, "n": n, "re": amp.real, "im": amp.imag} for (m, n), amp in u.to_raw().items()]
    return {"basis": "hermite", "coeffs": coeffs}


def _bits(amp):
    if isinstance(amp, complex):
        return amp.real.hex(), amp.imag.hex()
    return amp


def _outcome(parse, block, top):
    """("ok", keys in order, amplitude bits) or ("error", exception type, text)."""
    try:
        f = parse(block, top)
    except (KeyError, ValueError, TypeError) as exc:
        return "error", type(exc).__name__, str(exc)
    f = f[0] if isinstance(f, tuple) else f
    return "ok", f.normalization, f.exact, [(repr(key), _bits(amp)) for key, amp in f.entries.items()]


def assert_column_path_matches_reference(block, top):
    got, want = _outcome(cli._parse_f, block, top), _outcome(reference_parse_f, block, top)
    assert got == want
    if got[0] == "ok":
        # the echoed block writes the text of the block read in
        _, echo = cli._parse_f(block, top)
        assert cli._render({"f": echo}, "") == reference_render({"f": block})
    return got


def R(m, n, re, im=None, **extra):
    row = {"m": m, "n": n, "re": re}
    if im is not None:
        row["im"] = im
    return {**row, **extra}


EDGE_BLOCKS = {
    "plain": [R(0, 0, 1.0, 0.0), R(1, 2, -0.5, 2.5), R(3, 1, 0.0, -0.0)],
    "signed zeros": [R(0, 0, 0.0, -0.0), R(1, 1, -0.0, 0.0), R(2, 0, 1.0, -0.0)],
    "subnormal and huge": [R(0, 0, 5e-324, 1e300), R(1, 1, 1e-300, 0.0), R(2, 2, 1e-301, 0.0)],
    "magnitude past float range": [R(0, 0, 1.0, 0.0), R(1, 0, 1.5e308, -1.5e308)],
    "int parts": [R(0, 0, 1, 0), R(1, 1, 2, -3), R(2, 1, 2**60 + 1, 0.5), R(0, 2, 2**1023, 0)],
    "int past float range": [R(0, 0, 1.0, 0.0), R(1, 0, 10**400, 0.0)],
    "int just past float range": [R(0, 0, 2**1024 - 2**970, 0.0)],
    "integral float m": [R(0, 0, 1.0, 0.0), R(2.0, 1, 1.0, 0.0)],
    "bool re": [R(0, 0, True, 0.0)],
    "bool m": [R(True, 0, 1.0, 0.0)],
    "string re": [R(0, 0, "1", 0.0)],
    "string m": [R("0", 0, 1.0, 0.0)],
    "null im": [R(1, 0, 1.0, 0.0), {"m": 0, "n": 0, "re": 1.0, "im": None}],
    "missing im": [R(0, 0, 1.0), R(1, 1, 2.0, 0.5)],
    "extra key": [R(0, 0, 1.0, 0.0, note="x"), R(1, 1, 1.0, 0.0)],
    "duplicate (m, n)": [R(0, 0, 1.0, 0.0), R(1, 1, 2.0, 0.0), R(0, 0, 3.0, 1.0)],
    "non-dict row": [R(0, 0, 1.0, 0.0), [0, 0, 1.0, 0.0]],
    "past top": [R(0, 0, 1.0, 0.0), R(40, 0, 1.0, 0.0), R(0, 50, 1.0, 0.0)],
    "zero past top": [R(0, 0, 1.0, 0.0), R(40, 0, 0.0, 0.0)],
    "index past int64": [R(0, 0, 1.0, 0.0), R(10**30, 0, 1.0, 0.0)],
    "negative index": [R(0, 0, 1.0, 0.0), R(-1, 0, 1.0, 0.0)],
    "negative and past top": [R(-1, 0, 1.0, 0.0), R(40, 0, 1.0, 0.0)],
    "invalid after valid": [R(0, 0, 1.0, 0.0), R(1, 1, 1.0, 0.0), R(2, 2, "x", 0.0), R(3, 3, True, 0.0)],
    "empty": [],
    "not a list": {"m": 0, "n": 0, "re": 1.0, "im": 0.0},
}
# JSON texts: NaN and Infinity literals
EDGE_TEXTS = {
    "NaN": '[{"m": 0, "n": 0, "re": NaN, "im": 0.0}]',
    "Infinity": '[{"m": 0, "n": 0, "re": 1.0, "im": -Infinity}, {"m": 1, "n": 0, "re": 1.0, "im": 0.0}]',
    "NaN past top": '[{"m": 0, "n": 0, "re": NaN, "im": 0.0}, {"m": 40, "n": 0, "re": 1.0, "im": 0.0}]',
}
EDGE_CASES = {**EDGE_BLOCKS, **{name: json.loads(text) for name, text in EDGE_TEXTS.items()}}


def _solve_file(tmp_path, capsys, tag):
    out = tmp_path / f"{tag}.json"
    code = cli.run(["solve", "--input", str(tmp_path / "p.json"), "--output", str(out)])
    return code, capsys.readouterr().err, out.read_text() if out.exists() else None


@pytest.mark.parametrize("basis", ["hermite", "monomial"])
@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_column_path_matches_the_row_reference_on_edge_rows(tmp_path, capsys, monkeypatch, basis, name):
    block = {"basis": basis, "note": [1, {"a": 2.5}], "coeffs": EDGE_CASES[name]}
    assert_column_path_matches_reference(block, 11)
    # through the command: the same output text, exit code and error text
    (tmp_path / "p.json").write_text(
        json.dumps({"k": 1, "c": {"re": 0.5, "im": -1.0}, "truncation": 12, "f": block})
    )
    got = _solve_file(tmp_path, capsys, "new")
    monkeypatch.setattr(cli, "_parse_f", lambda block, top: (reference_parse_f(block, top), block))
    monkeypatch.setattr(cli, "_render", reference_render)
    monkeypatch.setattr(cli, "_coeff_block", reference_coeff_block)
    assert got == _solve_file(tmp_path, capsys, "reference")


def test_edge_rows_take_the_column_path_only_in_its_shape():
    # the blocks above reach both paths: the column read accepts exactly these
    accepted = {name for name, coeffs in EDGE_CASES.items() if cli._columns(coeffs, 11) is not None}
    assert accepted == {
        "plain", "signed zeros", "subnormal and huge", "magnitude past float range", "int parts", "NaN", "Infinity"
    }


def _vector_or_error(build):
    """(index rows, amplitude bits) of the vector ``build`` returns, or its ValueError text."""
    try:
        u = build()
    except ValueError as exc:
        return str(exc)
    index, values = u.arrays()
    return index.tolist(), [(amp.real.hex(), amp.imag.hex()) for amp in values.tolist()]


@pytest.mark.parametrize(
    "amp, want",
    [
        # every nonzero magnitude is kept, subnormal ones too
        (1e-300, "kept"),
        (9.9e-301, "kept"),
        (-0.0j, "pruned"),
        (5e-324, "kept"),
        (complex(math.nan, 0.0), "non-finite amplitude (nan+0j) at index (1, 2)"),
        (complex(math.inf, 0.0), "non-finite amplitude (inf+0j) at index (1, 2)"),
        (complex(1.5e308, 1.5e308), "non-finite amplitude (1.5e+308+1.5e+308j) at index (1, 2)"),
    ],
    ids=["floor", "below floor", "negative zero", "subnormal", "nan", "inf", "overflow"],
)
def test_one_rule_prunes_and_refuses_numeric_amplitudes_on_every_path(amp, want):
    amp = complex(amp)
    column = [R(0, 0, 1.0, 0.0), R(1, 2, amp.real, amp.imag)]
    row = [R(0, 0, 1.0), R(1, 2, amp.real, amp.imag)]  # no "im" key: read row by row
    assert cli._columns(row, 11) is None
    assert cli._columns(column, 11) is not None
    paths = {
        "constructor": lambda: HermiteCoeffs({(0, 0): 1.0, (1, 2): amp}),
        "arrays": lambda: HermiteCoeffs._from_array(
            index_array([(0, 0), (1, 2)]), np.array([1.0, amp]), "raw"
        ),
        "column block": lambda: cli._parse_f({"coeffs": column}, 11)[0],
        "row block": lambda: cli._parse_f({"coeffs": row}, 11)[0],
    }
    outcomes = {name: _vector_or_error(build) for name, build in paths.items()}
    one = (1.0).hex(), (0.0).hex()
    if want == "kept":
        want = [[0, 0], [1, 2]], [one, (amp.real.hex(), amp.imag.hex())]
    elif want == "pruned":
        want = [[0, 0]], [one]
    assert outcomes == dict.fromkeys(paths, want)


def test_coefficient_rows_write_the_text_of_row_objects():
    values = [0.0, -0.0, 5e-324, -1e300, 0.1, 1.0, -2.5e-308]
    entries = {(m, n): complex(values[m], values[n]) for m in range(7) for n in range(7)}
    u = HermiteCoeffs(entries, "raw").to_orthonormal()
    block = cli._coeff_block(u)
    assert type(block["coeffs"]) is cli._Rows
    want = reference_render({"u": reference_coeff_block(u), "k": 1})
    assert cli._render({"u": block, "k": 1}, "") == want
