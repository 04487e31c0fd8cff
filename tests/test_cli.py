"""Command-line front door: schemas, exit codes, determinism."""

import json
import math
import sys
import threading

import pytest

from focksolve import cli


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
    # every failure path emits a machine-readable reason
    for line in capsys.readouterr().err.strip().splitlines():
        assert "error" in json.loads(line)


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

    def broken_suite(k, trials, seed, max_degree=4):
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
