"""Command-line front door: schemas, exit codes, determinism."""

import dataclasses
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from focksolve import cli
from focksolve.basis import HermiteCoeffs, index_array, to_hermite


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


def test_solve_missing_and_malformed_inputs(tmp_path, capsys):
    assert cli.run(["solve", "--input", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 1')
    assert cli.run(["solve", "--input", str(bad)]) == 2
    # margin violation is an input error
    problem = write_problem(
        tmp_path / "margin.json", truncation=4, coeffs=[{"m": 4, "n": 4, "re": 1.0, "im": 0.0}]
    )
    assert cli.run(["solve", "--input", str(problem)]) == 2
    # numbers are checked where they are parsed: an infinite or non-integral
    # integer field, an infinite monomial coefficient, a string or boolean
    # where a number belongs and an integer past float range are input errors
    for i, text in enumerate(
        [
            '{"k": 1e999, "f": {"coeffs": []}}',
            '{"k": 2.5, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}',
            '{"k": 1, "f": {"coeffs": [{"m": Infinity, "n": 0, "re": 1.0}]}}',
            '{"k": 1, "f": {"basis": "monomial", "coeffs": [{"m": 1, "n": 0, "re": Infinity}]}}',
            '{"k": true, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}',
            '{"k": "1", "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}',
            '{"k": 1, "truncation": true, "f": {"coeffs": []}}',
            '{"k": 1, "c": {"re": "1e1"}, "f": {"coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}',
            '{"k": 1, "f": {"coeffs": [{"m": 0, "n": 0, "re": "1", "im": "0"}]}}',
            '{"k": 1, "c": {"im": 1' + "0" * 400 + '}, "f": {"coeffs": []}}',
            '{"k": 1, "f": {"coeffs": {}}}',
            '{"k": 1, "f": {"basis": "monomial", "coeffs": {"m": 1}}}',
        ]
    ):
        (tmp_path / f"number{i}.json").write_text(text)
        assert cli.run(["solve", "--input", str(tmp_path / f"number{i}.json")]) == 2, text
    # every failure path emits a machine-readable reason
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.strip().splitlines()]
    assert len(errors) == 15
    assert "k = 2.5 is not an integer" in errors[4]
    assert "(m, n) = (1, 0)" in errors[6]
    assert "k = True is not an integer" in errors[7]
    assert "re = '1e1' is not a JSON number" in errors[10]
    assert "im is an integer past float range" in errors[12]
    assert errors[13] == "TypeError: expected a JSON list, got {}"
    assert errors[14] == "TypeError: expected a JSON list, got {'m': 1}"


def test_unknown_flags_exit_2(tmp_path):
    assert cli.run(["solve", "--nope"]) == 2
    assert cli.run([]) == 2


def test_reports_byte_identical(tmp_path):
    problem = write_problem(tmp_path / "p.json", c=(1.0, 1.0), truncation=12)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out1)]) == 0
    assert cli.run(["solve", "--input", str(problem), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    args = ["verify", "--k", "1", "--trials", "3", "--seed", "42"]
    assert cli.run(args + ["--output", str(v1)]) == 0
    assert cli.run(args + ["--output", str(v2)]) == 0
    assert v1.read_bytes() == v2.read_bytes()


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


@pytest.mark.parametrize("command", ["eval", "disk"])
def test_coefficient_blocks_that_are_not_lists_exit_2(tmp_path, capsys, command):
    block = {"basis": "monomial", "coeffs": {"m": 1}}
    payload = {"k": 1, "radius": 1.0, "u": block, "f": block}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.run([command, "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TypeError: expected a JSON list, got {'m': 1}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, basis, key",
    [("solve", "hermite", (0, 0)), ("solve", "monomial", (1, 0)), ("disk", "monomial", (1, 0))],
)
def test_two_rows_at_one_index_exit_2(tmp_path, capsys, command, basis, key):
    # the later row used to replace the earlier: f_norm read 5·√π, exit 0
    rows = [{"m": key[0], "n": key[1], "re": re, "im": 0.0} for re in (1.0, 5.0)]
    payload = {"k": 1, "c": {"re": 1.0, "im": 0.0}, "truncation": 4, "radius": 0.5}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**payload, "f": {"basis": basis, "coeffs": rows}}))
    out = tmp_path / "out"
    assert cli.run([command, "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"ValueError: two coefficient rows at (m, n) = {key}"
    )
    assert not out.exists()


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
    # a radius given as a string is an input error, not a number
    path.write_text(json.dumps({**payload, "radius": "1.0"}))
    assert cli.run(["disk", "--input", str(path)]) == 2


def test_solve_non_finite_shift_exits_2(tmp_path, capsys):
    problem = tmp_path / "nan.json"
    problem.write_text(
        '{"k": 1, "c": {"re": NaN}, "truncation": 16,'
        ' "f": {"basis": "hermite", "coeffs": [{"m": 0, "n": 0, "re": 1.0}]}}'
    )
    assert cli.run(["solve", "--input", str(problem)]) == 2
    assert "not finite" in json.loads(capsys.readouterr().err)["error"]


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


@pytest.mark.parametrize(
    "basis, coeffs",
    [
        # √(π·50!·50!) ≈ 5e64: the orthonormal amplitude overflows to inf
        ("hermite", [{"m": 50, "n": 50, "re": 1e300, "im": 0.0}]),
        # the Hermite expansion of 1e300·z²⁰z̄²⁰ has raw amplitudes past the f64 range
        ("monomial", [{"m": 20, "n": 20, "re": 1e300, "im": 0.0}]),
    ],
    ids=["raw", "monomial"],
)
def test_solve_overflowing_data_exits_2(tmp_path, capsys, basis, coeffs):
    problem = write_problem(tmp_path / "p.json", c=(1.0, 0.0), truncation=60, coeffs=coeffs, basis=basis)
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["solve", "disk"])
def test_solution_past_the_writable_index_exits_2(tmp_path, capsys, command):
    # M + k = 171: √(π·171!·171!) is past float range, so u's raw block cannot be written
    payload = {
        "k": 1,
        "c": {"re": 1.0, "im": 0.0},
        "truncation": 170,
        "f": {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
        "radius": 1.0,
    }
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    assert cli.run([command, "--input", str(problem), "--output", str(out)]) == 2
    assert "index 171 > 170" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_disk_solution_whose_raw_amplitude_underflows_exits_2(tmp_path, capsys):
    # the data keeps its coefficients from (98, 98) on, so u reaches (165, 165),
    # whose raw amplitude u/√(π·165!·165!) is below the normal float range
    payload = {
        "radius": 0.3,
        "k": 3,
        "c": {"re": 10.0, "im": 0.0},
        "truncation": 164,
        "f": {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
    }
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    assert cli.run(["disk", "--input", str(problem), "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "raw amplitude at index (165, 165) is below the normal float range" in error
    assert not out.exists()


def test_solution_at_the_writable_index_is_written(tmp_path):
    problem = write_problem(tmp_path / "p.json", c=(1.0, 0.0), truncation=169)
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(problem), "--output", str(out)]) == 0
    keys = {(c["m"], c["n"]) for c in json.loads(out.read_text())["u"]["coeffs"]}
    assert (0, 0) in keys


def test_disk_node_counts_past_the_grid_bound_exit_2(tmp_path, capsys):
    payload = {
        "k": 1,
        "radius": 1.0,
        "radial_nodes": 100000,
        "f": {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
    }
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload))
    assert cli.run(["disk", "--input", str(problem)]) == 2
    assert "radial_nodes 100000" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--trials", "0"], "trials must be at least 1"),
        (["certify", "--k-min", "3", "--k-max", "1"], "k_min 3 is above k_max 1"),
        (["certify", "--truncation", "1448"], "truncation 1448"),
        (["probe", "--k", "1", "--truncation", "1448"], "truncation 1448"),
        (["verify", "--trials", "0"], "trials must be at least 1"),
        (["verify", "--trials", "-3"], "trials must be at least 1"),
        (["verify", "--k", "0", "--trials", "0"], "k must be a positive integer"),
        # every cell is checked before the first solve, not when its own turn comes
        (["certify", "--k-max", "171", "--truncation", "170", "--trials", "1"], "k = 131 with"),
        (["certify", "--k-max", "33", "--truncation", "32", "--trials", "1"], "at least k"),
    ],
)
def test_sweeps_without_work_or_past_the_box_bound_exit_2(tmp_path, capsys, argv, message):
    # no trial, no k, or a box past the cell budget: an error, never an empty pass
    out = tmp_path / "o.json"
    assert cli.run(argv + ["--output", str(out)]) == 2
    assert message in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


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
    "k, c, truncation, message",
    [
        (1, {"re": 0.0}, 100000, "reaches index 100001 > 170"),
        (1, {"re": math.nan}, 100000, "shift c = (nan+0j) is not finite"),
        (3, {"re": 0.0}, 2, "truncation must be at least k"),
    ],
    ids=["past the writable index", "non-finite shift", "truncation below k"],
)
def test_solve_checks_k_c_and_truncation_before_reading_f(tmp_path, capsys, monkeypatch, k, c, truncation, message):
    # a monomial f at (3000, 3000) would spend seconds in the change of basis
    monkeypatch.setattr(cli, "to_hermite", _not_called)
    monkeypatch.setattr(cli, "_parse_f", _not_called)
    f = {"basis": "monomial", "coeffs": [{"m": 3000, "n": 3000, "re": 1.0, "im": 0.0}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"k": k, "c": c, "truncation": truncation, "f": f}))
    out = tmp_path / "o.json"
    assert cli.run(["solve", "--input", str(path), "--output", str(out)]) == 2
    assert message in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "c, shown",
    [
        ('{"re": NaN}', "(nan+0j)"),
        ('{"re": Infinity, "im": -Infinity}', "(inf-infj)"),
        ('{"re": 1.5e308, "im": 1.5e308}', "(1.5e+308+1.5e+308j)"),
    ],
    ids=["nan", "inf", "overflowing magnitude"],
)
def test_eval_checks_its_shift_before_reading_u_and_f(tmp_path, capsys, monkeypatch, c, shown):
    # in solve's words; NaN used to be blamed on the residual, and the magnitude passed
    monkeypatch.setattr(cli, "_parse_f", _not_called)
    block = '{"coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]}'
    path = tmp_path / "s.json"
    path.write_text(f'{{"k": 1, "c": {c}, "u": {block}, "f": {block}}}')
    out = tmp_path / "r.csv"
    assert cli.run(["eval", "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == f"ValueError: shift c = {shown} is not finite"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "disk"])
def test_monomial_coefficient_of_overflowing_magnitude_is_refused_by_name(tmp_path, capsys, command):
    # both parts are finite, the magnitude is not: refused where the file is read
    f = {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1.5e308, "im": 1.5e308}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"k": 1, "c": {"re": 1.0}, "truncation": 8, "radius": 0.5, "f": f}))
    out = tmp_path / "o.json"
    assert cli.run([command, "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "ValueError: monomial coefficient (1.5e+308+1.5e+308j) at (m, n) = (0, 0) is not finite"
    )
    assert not out.exists()


def test_disk_data_past_float_range_on_the_nodes_exits_2_with_one_error_line(tmp_path, capsys):
    # |f| is finite on the nodes, |f|² and the FFT's sums are not: no numpy warning, one error
    f = {"basis": "monomial", "coeffs": [{"m": 1, "n": 0, "re": 1e308, "im": 1e308}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"radius": 0.5, "k": 1, "c": {"re": 1.0}, "truncation": 8, "f": f}))
    out = tmp_path / "o.json"
    assert cli.run(["disk", "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("ValueError: f leaves the float range on the quadrature nodes")
    assert not out.exists()


def test_disk_data_that_project_to_nothing_exit_2_with_one_error_line(tmp_path, capsys):
    # f = 5e−324 is nonzero on the nodes, but its projection keeps no coefficient
    f = {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 5e-324, "im": 0.0}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"radius": 1.0, "k": 1, "c": {"re": 1.0}, "truncation": 8, "f": f}))
    out = tmp_path / "o.json"
    assert cli.run(["disk", "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "keeps no coefficient" in json.loads(err)["error"]
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["solve", "eval", "disk"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert cli.run([command, "--input", str(path)]) == 2
    assert "too deeply" in json.loads(capsys.readouterr().err)["error"]


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


@pytest.mark.parametrize("argv", [["solve"], ["eval"], ["disk"], ["probe"]])
def test_required_options_stay_required(argv, capsys):
    assert cli.run(argv) == 2
    assert "the following arguments are required" in capsys.readouterr().err


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


def test_disk_integral_past_float_range_exits_2_with_one_error_line(tmp_path, capsys):
    # the weighted sum that the projection checks is finite; ∫_U|f|² on radius 13 is not
    f = {"basis": "monomial", "coeffs": [{"m": 0, "n": 0, "re": 1e153, "im": 0.0}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"radius": 13, "k": 1, "c": {"re": 1.0}, "truncation": 8, "f": f}))
    out = tmp_path / "o.json"
    assert cli.run(["disk", "--input", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValueError: the disk integral ∫_U|f|² leaves the float range"
    assert not out.exists()


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_readme_examples_solve_eval_and_disk(tmp_path):
    # the README's command block: solve, eval the solution, then the disk file
    solution, residual, report = tmp_path / "solution.json", tmp_path / "residual.csv", tmp_path / "report.json"
    assert cli.run(["solve", "--input", str(EXAMPLES / "problem.json"), "--output", str(solution)]) == 0
    assert json.loads(solution.read_text())["report"]["bound_holds"] is True
    assert cli.run(["eval", "--input", str(solution), "--step", "0.1", "--output", str(residual)]) == 0
    rows = residual.read_text().splitlines()
    assert len(rows) == 1 + 19 * 19
    assert max(abs(complex(*map(float, row.split(",")[2:]))) for row in rows[1:]) <= 1e-10
    assert cli.run(["disk", "--input", str(EXAMPLES / "disk.json"), "--output", str(report)]) == 0
    assert json.loads(report.read_text())["report"]["bound_holds"] is True


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
