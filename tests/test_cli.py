import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import poisson_kam
from poisson_kam import (
    ChiRecord,
    ExtendedPoint,
    FourierTaylorSeries,
    Problem,
    StructureMatrix,
    Truncation,
    WeightedNormParams,
    benchmark_problem,
    diophantine_profile,
    integrate,
    lie_vs_flow_check,
    rescaled_benchmark_problem,
    run,
    torus_persistence_report,
    two_dof_problem,
)
from poisson_kam.cli import main
from poisson_kam.errors import ParameterError, ProblemFormatError, StructureMismatchError

from conftest import non_poisson_b12


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "bench.json"
    benchmark_problem(epsilon=1e-3).save(path)
    return path


def test_normalize_converges(bench_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    assert code == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "normal_form.json").exists()
    assert (out / "generators.json").exists()
    header = json.loads((out / "trace.jsonl").read_text().splitlines()[0])["header"]
    assert header["status"] == "converged"
    assert header["empirical_mode"] is True


def test_normalize_zero_perturbation(tmp_path):
    prob = tmp_path / "p.json"
    benchmark_problem(epsilon=0.0).save(prob)
    out = tmp_path / "run"
    assert main(["normalize", "--problem", str(prob), "--out", str(out)]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 1  # header only: zero effective steps


def test_normalize_resonant_exit_1(tmp_path, capsys):
    prob = tmp_path / "res.json"
    two_dof_problem(omega=(1.0, 2.0)).save(prob)
    code = main(["normalize", "--problem", str(prob), "--out", str(tmp_path / "o")])
    assert code == 1
    # the lowest-order resonance, |k|_1 = 3, not a multiple of it
    assert capsys.readouterr().err.startswith("error: resonance k=[-2, 1]:")


def test_normalize_refused_exit_2(tmp_path):
    prob = tmp_path / "big.json"
    benchmark_problem(epsilon=8e-3).save(prob)
    code = main(["normalize", "--problem", str(prob), "--out", str(tmp_path / "o")])
    assert code == 2


def test_normalize_malformed_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,')
    code = main(["normalize", "--problem", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_verify_after_normalize(bench_file, tmp_path):
    out = tmp_path / "run"
    assert main(["normalize", "--problem", str(bench_file), "--out", str(out)]) == 0
    code = main(
        [
            "verify",
            "--problem",
            str(bench_file),
            "--out",
            str(out),
            "--angles",
            "2",
            "--t-end",
            "40",
        ]
    )
    assert code == 0
    report = json.loads((out / "persistence_report.json").read_text())
    assert report["passed"] is True
    assert report["min_improvement"] >= 10


def test_verify_threshold_inf_fails(bench_file, tmp_path):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    code = main(
        [
            "verify", "--problem", str(bench_file), "--out", str(out),
            "--angles", "2", "--t-end", "20", "--threshold", "inf",
        ]
    )
    assert code == 2


def test_verify_missing_artifacts(bench_file, tmp_path):
    code = main(
        ["verify", "--problem", str(bench_file), "--out", str(tmp_path / "void")]
    )
    assert code == 1


def test_check_diophantine_golden(tmp_path, capsys):
    prob = tmp_path / "g.json"
    two_dof_problem().save(prob)
    code = main(["check-diophantine", "--problem", str(prob), "--k-max", "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma_K"] > 0
    assert len(out["shells"]) == 6


def test_check_diophantine_resonant_exit_2(tmp_path, capsys):
    # the ring's K_max = 10 and --k-max 6 both name the lowest-order
    # resonance, not a multiple of it
    prob = tmp_path / "r.json"
    two_dof_problem(omega=(1.0, 2.0)).save(prob)
    for args in ([], ["--k-max", "6"]):
        assert main(["check-diophantine", "--problem", str(prob), *args]) == 2
        assert capsys.readouterr().err.startswith("resonance: resonance k=[-2, 1]:")


def test_check_diophantine_scans_only_to_k_max(tmp_path, capsys):
    # omega = (1, 2) resonates first at k = (-2, 1), |k|_1 = 3; the ring's
    # K_max = 10 does not enter a scan to --k-max
    prob = tmp_path / "r.json"
    two_dof_problem(omega=(1.0, 2.0)).save(prob)
    assert main(["check-diophantine", "--problem", str(prob), "--k-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma_K"] == 1.0
    assert main(["check-diophantine", "--problem", str(prob), "--k-max", "3"]) == 2
    assert capsys.readouterr().err.startswith("resonance: resonance k=[-2, 1]")


def test_check_diophantine_unit(tmp_path, capsys):
    prob = tmp_path / "u.json"
    benchmark_problem().save(prob)
    assert main(["check-diophantine", "--problem", str(prob), "--k-max", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma_K"] == 1.0


def test_constants_command(bench_file, tmp_path, capsys):
    code = main(
        ["constants", "--problem", str(bench_file), "--out", str(tmp_path / "c")]
    )
    assert code == 0
    payload = json.loads((tmp_path / "c" / "constants.json").read_text())
    c = payload["constants"]
    assert c["M5"] == pytest.approx(c["M0"] + c["M3"])
    assert c["M6"] == pytest.approx(c["M1"] + c["M4"])


def test_lie_check_command(bench_file, tmp_path):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    assert main(["lie-check", "--problem", str(bench_file), "--out", str(out)]) == 0


def test_determinism_byte_identical(bench_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["normalize", "--problem", str(bench_file), "--out", str(out1)]) == 0
    assert main(["normalize", "--problem", str(bench_file), "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
    assert (out1 / "normal_form.json").read_bytes() == (
        out2 / "normal_form.json"
    ).read_bytes()
    assert (out1 / "generators.json").read_bytes() == (
        out2 / "generators.json"
    ).read_bytes()


def test_verify_writes_trajectories(bench_file, tmp_path):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    code = main(
        [
            "verify", "--problem", str(bench_file), "--out", str(out),
            "--angles", "2", "--t-end", "10", "--write-trajectories",
        ]
    )
    assert code == 0
    assert (out / "trajectory_naive_00.csv").exists()
    assert (out / "trajectory_mapped_01.csv").exists()


def test_verify_trajectories_match_report(bench_file, tmp_path):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    code = main(
        [
            "verify", "--problem", str(bench_file), "--out", str(out),
            "--angles", "2", "--t-end", "10", "--write-trajectories",
        ]
    )
    assert code == 0
    report = json.loads((out / "persistence_report.json").read_text())
    # columns: t, y (m = 1), x (n = 1), eta, xi, torus_error, drift
    col = 5
    for i, angle in enumerate(report["angles"]):
        for tag in ("naive", "mapped"):
            rows = (out / ("trajectory_%s_%02d.csv" % (tag, i))).read_text().split()
            errors = [float(row.split(",")[col]) for row in rows]
            assert max(errors) == angle[tag + "_sup"]
    digests = {
        "trajectory_naive_00.csv": "508a21350cc6da5f9d9a41d4bf44f74a05c88b726503c2119aeede4ff50af888",
        "trajectory_mapped_01.csv": "20d7670df0489e6ff90eb1a263efc470ad0b1c197dce9ff0cbdda392d9ff224b",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("angles", ["0", "-1"])
def test_verify_rejects_angles_below_one(bench_file, tmp_path, capsys, angles):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    capsys.readouterr()
    code = main(
        ["verify", "--problem", str(bench_file), "--out", str(out), "--angles", angles]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--angles" in err
    assert not (out / "persistence_report.json").exists()


@pytest.mark.parametrize("command", ["verify", "lie-check"])
@pytest.mark.parametrize("text", ['{"chi": [', '{"steps": []}', None])
def test_malformed_generators_exit_1(bench_file, tmp_path, capsys, command, text):
    """text None makes generators.json a directory."""
    out = tmp_path / "run"
    out.mkdir()
    if text is None:
        (out / "generators.json").mkdir()
    else:
        (out / "generators.json").write_text(text)
    code = main([command, "--problem", str(bench_file), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "lie-check"])
@pytest.mark.parametrize("case, position, step", [("reversed", 0, 1), ("step_0_twice", 1, 0)])
def test_generators_out_of_step_order_exit_1(bench_run, tmp_path, capsys, command, case,
                                             position, step):
    """A generators.json whose steps are not 0, 1, ..., N-1 in file order is
    not a run's: refused at load, naming the first record out of place."""
    problem, run_dir = bench_run
    records = json.loads((run_dir / "generators.json").read_text())["chi"]
    assert [rec["step"] for rec in records] == [0, 1]
    records = records[::-1] if case == "reversed" else [records[0], records[0]]
    out = tmp_path / "out"
    out.mkdir()
    (out / "generators.json").write_text(json.dumps({"chi": records}))
    code = main([command, "--problem", str(problem), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: bad generators file %s: record %d has step %d, not %d\n" % (
        out / "generators.json", position, step, position
    )


def _oversize_first_generator(out):
    gen = json.loads((out / "generators.json").read_text())
    for term in gen["chi"][0]["chi"]["terms"]:
        term["re"] *= 1e4
        term["im"] *= 1e4
    (out / "generators.json").write_text(json.dumps(gen))


@pytest.mark.parametrize("command", ["verify", "lie-check"])
def test_oversized_stored_generator_refused_exit_2(bench_file, tmp_path, capsys, command):
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    _oversize_first_generator(out)
    capsys.readouterr()
    code = main([command, "--problem", str(bench_file), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("refused:")


def test_lie_check_and_verify_guard_at_the_record_params(bench_file, tmp_path, capsys):
    # both commands measure a stored generator's contraction at its own (rho, sigma)
    out = tmp_path / "run"
    main(["normalize", "--problem", str(bench_file), "--out", str(out)])
    _oversize_first_generator(out)
    errors = []
    for command in ("verify", "lie-check"):
        capsys.readouterr()
        assert main([command, "--problem", str(bench_file), "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("refused: Lie contraction")
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "make",
    [lambda: benchmark_problem(epsilon=1e-3), rescaled_benchmark_problem, two_dof_problem],
    ids=["benchmark", "rescaled", "two_dof"],
)
def test_lie_check_matches_library(tmp_path, capsys, make):
    # the command's distances are the library's, at the same point and tol
    problem = make()
    path = tmp_path / "p.json"
    problem.save(path)
    out = tmp_path / "run"
    assert main(["normalize", "--problem", str(path), "--out", str(out)]) == 0
    assert main(["lie-check", "--problem", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "lie_check.json").read_text())["rows"]
    setup = problem.initialize()
    point = ExtendedPoint(np.zeros(problem.m), np.full(problem.n, 0.3), 0.0, 0.0)
    expected = [
        lie_vs_flow_check(rec, setup.structure, point, tol=1e-12)
        for rec in run(setup).chi_records
    ]
    assert [row["distance"] for row in rows] == expected


def _python_with_timeout(*args, timeout=60):
    """A fresh interpreter that imports this poisson_kam, with a timeout: an
    unchecked NaN tol or t_end makes the integrator spin instead of failing."""
    src = str(Path(poisson_kam.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def _cli_with_timeout(*args, timeout=60):
    """The CLI in a child process."""
    return _python_with_timeout("-m", "poisson_kam.cli", *args, timeout=timeout)


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """The benchmark problem file and the directory of its normalize outputs."""
    root = tmp_path_factory.mktemp("bench_run")
    problem = root / "bench.json"
    benchmark_problem(epsilon=1e-3).save(problem)
    assert main(["normalize", "--problem", str(problem), "--out", str(root / "out")]) == 0
    return problem, root / "out"


def _verify_with_option(bench_run, tmp_path, key, value):
    """verify on the benchmark problem file with options[key] = value."""
    problem, out = bench_run
    payload = json.loads(problem.read_text())
    payload["options"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return _cli_with_timeout("verify", "--angles", "1", "--problem", str(bad), "--out", str(out))


@pytest.mark.parametrize(
    "key, value",
    [
        ("d_total", 2.0),
        ("max_step", 3),
        ("max_steps", "abc"),
        ("max_steps", True),
        ("seed", 1.7),
        ("max_steps", float("inf")),
        ("tol", float("nan")),
        ("tol", -1),
        ("t_end", float("nan")),
        ("t_end", 0.0),
        ("target_eps", float("nan")),
        ("max_steps", -3),
        ("threshold", float("nan")),
    ],
)
def test_bad_problem_option_exit_1(bench_run, tmp_path, key, value):
    proc = _verify_with_option(bench_run, tmp_path, key, value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and repr(key) in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("lie_cap", False),
        ("lie_tol", 0.0),
        ("prune_rel", float("nan")),
        ("lie_cap", -1),
        ("enforce_theoretical", "false"),
        ("d_floor", -1e-3),
        ("theta1", -1.5),
        ("theta2", 0.0),
        ("theta1", 1e300),
        ("enforce_theoretical", True),
        ("d_floor", 2e-3),
    ],
)
def test_removed_option_exit_1(bench_run, tmp_path, key, value):
    # the Lie-series stopping rule, the truncation, the step schedule's
    # floor and the measured Theta are fixed, and no smallness verdict
    # refuses a step: none of them is an option
    proc = _verify_with_option(bench_run, tmp_path, key, value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: unknown option %r" % key)


@pytest.mark.parametrize(
    "key, args",
    [
        ("tol", ["verify", "--angles", "1", "--tol", "nan"]),
        ("t_end", ["verify", "--angles", "1", "--t-end", "-1"]),
        ("max_steps", ["normalize", "--max-steps", "-3"]),
        ("K_max", ["check-diophantine", "--k-max", "-1"]),
        ("K_max", ["check-diophantine", "--k-max", "0"]),
        ("tol", ["lie-check", "--tol", "-1"]),
        ("tol", ["lie-check", "--tol", "nan"]),
        ("tol", ["lie-check", "--tol", "0"]),
        ("threshold", ["verify", "--angles", "1", "--threshold", "nan"]),
    ],
)
def test_bad_option_flag_exit_1(bench_run, tmp_path, key, args):
    problem, out = bench_run
    if args[0] == "normalize":
        out = tmp_path / "o"
    proc = _cli_with_timeout(*args, "--problem", str(problem), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and repr(key) in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", -1e-3),
        ("a", 0.0),
        ("a", 1.0),
        ("a", float("nan")),
        ("trunc.K_max", -3),
        ("trunc.L_max", 0),
        ("trunc.P_max", 0),
        ("tau", float("nan")),
        ("tau", -1),
        ("y_star", [1, 2]),
        ("y_star", [float("inf")]),
        ("options.rho", -0.5),
        ("options.sigma", float("nan")),
        ("n", 2),
        ("trunc.K_max", 4),
        ("B12", []),
        ("n", 1.5),
        ("n", True),
        ("trunc.P_max", 16.7),
        ("trunc.K_max", float("inf")),
        ("options.rho", 1e300),
        ("options.sigma", 1e3),
    ],
)
def test_bad_problem_scalar_exit_1(bench_file, tmp_path, capsys, key, value):
    payload = json.loads(bench_file.read_text())
    *parents, name = key.split(".")
    target = payload
    for parent in parents:
        target = target[parent]
    target[name] = value
    bench_file.write_text(json.dumps(payload))
    code = main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not (tmp_path / "o").exists()


def test_non_poisson_structure_exit_1(tmp_path, capsys):
    problem = rescaled_benchmark_problem()
    payload = problem.to_payload()
    payload["B12"] = [[e.to_payload() for e in row] for row in non_poisson_b12(problem.trunc)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["normalize", "--problem", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Jacobi" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau", 400),
        ("rho", 1e-300),
        ("sigma", 1e-300),
        ("epsilon", 1e300),
        ("y_star", 1e-310),
        ("a", 1e-300),
    ],
)
def test_extreme_finite_scalar_exit_1(tmp_path, capsys, key, value):
    # finite values that overflow or underflow inside the run end in error:
    prob = tmp_path / "p.json"
    benchmark_problem(**{"epsilon": 1e-3, key: value}).save(prob)
    code = main(["normalize", "--problem", str(prob), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_overflowing_y_star_exit_1_naming_it(tmp_path):
    """normalize with a y_star whose shift overflows: one error line that
    names y_star, and no numpy warning on stderr."""
    prob = tmp_path / "p.json"
    benchmark_problem(epsilon=1e-3, y_star=1e200).save(prob)
    proc = _cli_with_timeout("normalize", "--problem", str(prob), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "y_star" in proc.stderr
    assert "Warning" not in proc.stderr and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("part, value", [("re", float("nan")), ("im", float("inf"))])
def test_nonfinite_coefficient_exit_1(bench_file, tmp_path, capsys, part, value):
    payload = json.loads(bench_file.read_text())
    payload["f"]["terms"][0][part] = value
    bench_file.write_text(json.dumps(payload))
    code = main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite coefficient" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field, value, every_term",
    [("p", 1.5, True), ("k", [0.5], False), ("alpha", [True], False), ("e", False, False)],
)
def test_non_integer_term_index_exit_1(bench_file, tmp_path, capsys, field, value, every_term):
    payload = json.loads(bench_file.read_text())
    terms = payload["f"]["terms"]
    for term in terms if every_term else terms[:1]:
        term[field] = value
    bench_file.write_text(json.dumps(payload))
    code = main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: term index must be an integer")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["problem_is_directory", "problem_not_utf8", "out_is_file"])
def test_unreadable_path_exit_1(bench_file, tmp_path, capsys, case):
    problem, out = bench_file, tmp_path / "o"
    if case == "problem_is_directory":
        problem = bad = tmp_path / "dir"
        problem.mkdir()
    elif case == "problem_not_utf8":
        bad = problem
        problem.write_bytes(b"\xff\xfe" + bench_file.read_bytes())
    else:
        bad = out
        out.write_text("not a directory\n")
    code = main(["normalize", "--problem", str(problem), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and str(bad) in err
    assert not (out / "trace.jsonl").exists()


@pytest.mark.parametrize(
    "command, artifact",
    [
        (["normalize"], "trace.jsonl"),
        (["verify", "--angles", "1", "--t-end", "5"], "persistence_report.json"),
        (["verify", "--angles", "1", "--t-end", "5", "--write-trajectories"],
         "trajectory_mapped_00.csv"),
        (["lie-check"], "lie_check.json"),
    ],
)
def test_unwritable_artifact_exit_1(bench_run, tmp_path, capsys, command, artifact):
    # a directory where an artifact goes: one error line, no traceback
    problem, run_dir = bench_run
    out = tmp_path / "out"
    out.mkdir()
    (out / "generators.json").write_bytes((run_dir / "generators.json").read_bytes())
    (out / artifact).mkdir()
    code = main([command[0], "--problem", str(problem), "--out", str(out), *command[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: cannot write %s: Is a directory\n" % (out / artifact)


_BASE_PAYLOAD = benchmark_problem(epsilon=1e-3).to_payload()
_DELETE = "<delete>"
# written as 100000 nested lists, deeper than the JSON parser recurses
_DEEP = "<deeply nested>"


def _fuzz_paths():
    """Every field the fuzz mutates: the top-level keys, the trunc and
    options entries, the header of each series and its first term."""
    paths = [(k,) for k in _BASE_PAYLOAD]
    paths += [(k, e) for k in ("trunc", "options") for e in _BASE_PAYLOAD[k]]
    for series in [("h",), ("f",), ("B12", 0, 0), ("B22", 0, 0)]:
        paths += [series + (k,) for k in ("n", "m", "a", "K_max", "L_max", "P_max")]
        node = _BASE_PAYLOAD
        for key in series:
            node = node[key]
        if node["terms"]:
            paths += [series + ("terms", 0)]
            paths += [series + ("terms", 0, k) for k in node["terms"][0]]
    return paths


# each command with the exit codes its docstring documents
_FUZZ_COMMANDS = [
    (("normalize", "--max-steps", "1"), {0, 1, 2, 3, 4}),
    (("constants",), {0, 1, 2}),
    (("check-diophantine", "--k-max", "4"), {0, 1, 2}),
]
_FUZZ_VALUES = [
    _DELETE, None, True, False, 0, -1, 1.5, -0.0, 1e308, -1e308, 1e-320,
    float("nan"), float("inf"), float("-inf"), "x", [], {}, 10 ** 30, _DEEP,
]


def _json_text(payload):
    """payload as JSON text, with each _DEEP value written as _DEEP says."""
    return json.dumps(payload).replace(json.dumps(_DEEP), "[" * 100000 + "]" * 100000)


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.example(path=("f", "K_max"), value=float("inf"), command=_FUZZ_COMMANDS[0])
@hypothesis.example(path=("f", "K_max"), value=1e308, command=_FUZZ_COMMANDS[0])
@hypothesis.example(
    path=("B12", 0, 0, "terms", 0, "re"), value=-1e308, command=_FUZZ_COMMANDS[1]
)
@hypothesis.example(path=("f",), value=_DEEP, command=_FUZZ_COMMANDS[0])
@hypothesis.example(path=("n",), value=1e308, command=_FUZZ_COMMANDS[0])
@hypothesis.example(path=("trunc", "K_max"), value=-1e308, command=_FUZZ_COMMANDS[0])
@hypothesis.given(
    path=st.sampled_from(_fuzz_paths()),
    value=st.sampled_from(_FUZZ_VALUES),
    command=st.sampled_from(_FUZZ_COMMANDS),
)
def test_mutated_problem_file_ends_in_a_documented_exit(path, value, command):
    """One field of a valid problem file deleted or set to an odd value: the
    run ends in a documented exit code and at most one short diagnostic
    line, never a traceback or a warning."""
    _assert_documented_exit(command, _mutated(_BASE_PAYLOAD, path, value), None)


def _mutated(payload, path, value):
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value == _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


def _assert_documented_exit(command, problem_payload, generators_payload):
    """command run on a problem file and, unless None, a generators.json in
    its output directory: a documented exit code and at most one short
    diagnostic line, with warnings raised as errors."""
    argv, codes = command
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        problem, out = Path(tmp) / "p.json", Path(tmp) / "o"
        problem.write_text(_json_text(problem_payload))
        if generators_payload is not None:
            out.mkdir()
            (out / "generators.json").write_text(_json_text(generators_payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--problem", str(problem), "--out", str(out)])
    assert code in codes
    lines = err.getvalue().splitlines()
    assert not lines or (
        len(lines) == 1 and lines[0].startswith(("error:", "refused:", "resonance:"))
    )
    assert len(err.getvalue()) <= 200


_BASE_GENERATORS = {
    "chi": [
        rec.to_payload()
        for rec in run(benchmark_problem(epsilon=1e-3).initialize()).chi_records
    ]
}


def _generator_fuzz_paths():
    """Every field the generator fuzz mutates: the record list, the first
    record and each of its keys, its chi's header and its chi's first term."""
    record = _BASE_GENERATORS["chi"][0]
    paths = [("chi",), ("chi", 0)]
    paths += [("chi", 0, k) for k in record]
    paths += [("chi", 0, "chi", k) for k in record["chi"]]
    paths += [("chi", 0, "chi", "terms", 0)]
    paths += [("chi", 0, "chi", "terms", 0, k) for k in record["chi"]["terms"][0]]
    return paths


# the commands that read generators.json, with the exit codes they document
_GENERATOR_FUZZ_COMMANDS = [
    (("verify", "--angles", "1"), {0, 1, 2}),
    (("lie-check",), {0, 1, 2}),
]


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.example(path=("chi", 0, "rho"), value=0, command=_GENERATOR_FUZZ_COMMANDS[0])
@hypothesis.example(path=("chi", 0, "rho"), value=0, command=_GENERATOR_FUZZ_COMMANDS[1])
@hypothesis.example(
    path=("chi", 0, "step"), value=float("inf"), command=_GENERATOR_FUZZ_COMMANDS[0]
)
@hypothesis.example(
    path=("chi", 0, "step"), value=float("inf"), command=_GENERATOR_FUZZ_COMMANDS[1]
)
@hypothesis.example(path=("chi", 0, "sigma"), value=1e308, command=_GENERATOR_FUZZ_COMMANDS[0])
@hypothesis.example(path=("chi", 0, "sigma"), value=1e308, command=_GENERATOR_FUZZ_COMMANDS[1])
@hypothesis.example(path=("chi",), value=_DEEP, command=_GENERATOR_FUZZ_COMMANDS[0])
@hypothesis.example(path=("chi",), value=_DEEP, command=_GENERATOR_FUZZ_COMMANDS[1])
@hypothesis.given(
    path=st.sampled_from(_generator_fuzz_paths()),
    value=st.sampled_from(_FUZZ_VALUES),
    command=st.sampled_from(_GENERATOR_FUZZ_COMMANDS),
)
def test_mutated_generators_file_ends_in_a_documented_exit(path, value, command):
    """One field of a normalize run's generators.json deleted or set to an
    odd value: verify and lie-check end as for a mutated problem file."""
    _assert_documented_exit(command, _BASE_PAYLOAD, _mutated(_BASE_GENERATORS, path, value))


@pytest.mark.parametrize(
    "path, value",
    [(("f", "K_max"), 1e308), (("trunc", "L_max"), 10**400), (("B12", 0, 0, "P_max"), 2**31)],
)
def test_huge_series_order_exit_1_with_a_short_message(bench_file, tmp_path, capsys, path, value):
    payload = json.loads(bench_file.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bench_file.write_text(json.dumps(payload))
    code = main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: series order %s must be at most 1073741823\n" % path[-1]


_TOO_WIDE = "(K_max, L_max, P_max) = (8192, 3, 8) needs 64 bits per key, over the 62"


def _three_dof_problem():
    """At (8, 3, 8): h = |y|^2/2 around y* = (1, 1.618, 2.414) and
    f = exp(-a xi) cos x1."""
    z, trunc = (0, 0, 0), (8, 3, 8)
    ring = (3, 3, 0.5, trunc)
    h = [(z, tuple(2 * (j == i) for j in range(3)), 0, 0, 0.5) for i in range(3)]
    f = [((1, 0, 0), z, 0, 1, 0.5), ((-1, 0, 0), z, 0, 1, 0.5)]
    return Problem(
        n=3, m=3, a=0.5, epsilon=1e-3, tau=1.2, y_star=[1.0, 1.618, 2.414],
        trunc=Truncation(*trunc), h=FourierTaylorSeries.from_terms(*ring, h),
        f=FourierTaylorSeries.from_terms(*ring, f),
        structure=StructureMatrix.canonical(3, 0.5, trunc),
    )


def _set_every(node, key, value):
    """Set key to value in every dict nested in node."""
    if isinstance(node, dict):
        if key in node:
            node[key] = value
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            _set_every(child, key, value)


def test_ring_too_wide_to_pack_exit_1(tmp_path):
    """A 3-DOF problem file at (8192, 3, 8) needs 64 bits per key: normalize
    refuses it at load with one error line, before any lattice scan.  Its
    sigma keeps exp(sigma K_max) finite, so only the packing refuses it."""
    payload = _three_dof_problem().to_payload()
    _set_every(payload, "K_max", 8192)
    payload["options"] = {"sigma": 0.05}
    problem = tmp_path / "wide.json"
    problem.write_text(json.dumps(payload))
    proc = _cli_with_timeout("normalize", "--problem", str(problem), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and _TOO_WIDE in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "o" / "trace.jsonl").exists()


def test_generator_ring_too_wide_to_pack_exit_1(tmp_path, capsys):
    problem, out = tmp_path / "p.json", tmp_path / "o"
    _three_dof_problem().save(problem)
    chi = FourierTaylorSeries.from_terms(3, 3, 0.5, (8, 3, 8), [((1, 0, 0), (0, 0, 0), 0, 1, 1e-4)])
    generators = {"chi": [ChiRecord(0, chi, 0.5, 1.0, 0.1).to_payload()]}
    _set_every(generators, "K_max", 8192)
    out.mkdir()
    (out / "generators.json").write_text(json.dumps(generators))
    code = main(["verify", "--problem", str(problem), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad generators file") and _TOO_WIDE in err


def test_commands_never_load_scipy(bench_file, tmp_path):
    """The package runs on numpy alone: a fresh process that normalizes,
    verifies, checks the Lie series, writes the constants and scans the
    divisors must not import scipy."""
    script = (
        "import json, sys\n"
        "from poisson_kam.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    out = str(tmp_path / "run")
    runs = [
        [command, "--problem", str(bench_file), "--out", out, *extra]
        for command, extra in (
            ("normalize", []),
            ("verify", ["--angles", "2", "--t-end", "20"]),
            ("lie-check", []),
            ("constants", []),
            ("check-diophantine", []),
        )
    ]
    proc = _python_with_timeout("-c", script, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    for name in ("normal_form.json", "persistence_report.json", "lie_check.json"):
        assert (tmp_path / "run" / name).exists()


def test_verify_integrator_failure_exit_1(bench_file, tmp_path, capsys, monkeypatch):
    """A field that blows up in finite time ends verify in StiffnessError:
    exit 1 with one error line and no report."""
    from poisson_kam import dynamics

    out = tmp_path / "run"
    out.mkdir()
    (out / "generators.json").write_text('{"chi": []}')
    monkeypatch.setattr(dynamics._GradientCache, "field", lambda self, V: V * V + 1.0)
    code = main(["verify", "--problem", str(bench_file), "--out", str(out), "--angles", "2"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: integrator failed")
    assert not (out / "persistence_report.json").exists()



# ---- integers read from outside --------------------------------------------

_HUGE = 2**70
_BENCH = benchmark_problem(epsilon=1e-3)


def _series_with(key, value):
    payload = _BENCH.f.to_payload()
    payload[key] = value
    return FourierTaylorSeries.from_payload(payload)


def _report_with_angles(value):
    setup = _BENCH.initialize()
    return torus_persistence_report(setup.decomp.full, setup.structure, [], n_angles=value)


def _file(*path):
    """A CLI site: normalize on the benchmark problem with path set to the value."""
    def argv(value, problem, out, tmp):
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(_mutated(_BASE_PAYLOAD, path, value)))
        return ["normalize", "--problem", str(bad), "--out", str(tmp / "o")]
    return argv


def _flag(command, flag):
    """A CLI site: command on the benchmark run with the flag set to the value."""
    def argv(value, problem, out, tmp):
        return [command, "--problem", str(problem), "--out", str(out), flag, str(value)]
    return argv


def _generator(*path):
    """A CLI site: verify on a copy of the benchmark run whose generators.json
    has path set to the value."""
    def argv(value, problem, out, tmp):
        generators = json.loads((out / "generators.json").read_text())
        (tmp / "run").mkdir()
        (tmp / "run" / "generators.json").write_text(json.dumps(_mutated(generators, path, value)))
        return ["verify", "--problem", str(problem), "--out", str(tmp / "run")]
    return argv


# each site: a library call on the value, its error class, the name the
# library's and the CLI's messages give, whether a lower bound exists, and
# a CLI run on the value
_INTEGER_SITES = {
    "term index": (
        lambda v: FourierTaylorSeries.from_terms(1, 1, 0.5, (4, 4, 4), [((0,), (0,), 0, v, 1.0)]),
        StructureMismatchError, ("term index",) * 2, True, _file("f", "terms", 0, "p"),
    ),
    "series order": (
        lambda v: _series_with("K_max", v),
        StructureMismatchError, ("series order K_max",) * 2, True, _file("f", "K_max"),
    ),
    "n": (lambda v: _series_with("n", v), StructureMismatchError, ("n", "n"), True, _file("n")),
    "m": (
        lambda v: Problem.from_payload(_mutated(_BASE_PAYLOAD, ("m",), v)),
        ProblemFormatError, ("m", "m"), True, _file("B12", 0, 0, "m"),
    ),
    "trunc": (
        lambda v: Problem.from_payload(_mutated(_BASE_PAYLOAD, ("trunc", "P_max"), v)),
        ProblemFormatError, ("series order P_max",) * 2, True, _file("trunc", "P_max"),
    ),
    "generator step": (
        lambda v: ChiRecord(v, _BENCH.f, 0.5, 1.0, 0.1),
        ProblemFormatError, ("generator step",) * 2, True, _generator("chi", 0, "step"),
    ),
    "--max-steps": (
        lambda v: _BENCH.option("max_steps", v),
        ProblemFormatError, ("option 'max_steps'",) * 2, True, _flag("normalize", "--max-steps"),
    ),
    "option in a file": (
        lambda v: _BENCH.option("seed", v),
        ProblemFormatError, ("option 'seed'",) * 2, False, _file("options", "seed"),
    ),
    "--seed": (
        lambda v: _BENCH.option("seed", v),
        ProblemFormatError, ("option 'seed'",) * 2, False, _flag("verify", "--seed"),
    ),
    "--angles": (
        _report_with_angles,
        ParameterError, ("n_angles", "--angles"), True, _flag("verify", "--angles"),
    ),
    "--k-max": (
        lambda v: diophantine_profile([1.0], 1.0, v),
        ParameterError, ("'K_max'",) * 2, True, _flag("check-diophantine", "--k-max"),
    ),
}


@pytest.mark.parametrize(
    "value, refusal",
    [(True, "integer"), (2.5, "integer"), ("x", "integer"), (_HUGE, "bound"), (-1, "bound")],
    ids=["True", "2.5", "x", "2**70", "-1"],
)
@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_outside_integer_refused_by_one_rule(bench_run, tmp_path, capsys, site, value, refusal):
    """A boolean, a fractional number, a string that is no integer, 2^70 and
    (where a lower bound exists) -1, at each integer read from a file, an
    option or a flag: the library raises the site's error class, and the CLI
    exits 1 with one error: line; neither echoes the digits of 2^70."""
    call, error, whats, bounded_below, cli = _INTEGER_SITES[site]
    if value == -1 and not bounded_below:
        call(value)  # no lower bound: -1 is an integer like any other
        return
    with pytest.raises(error) as info:
        call(value)
    capsys.readouterr()
    assert main(cli(value, *bench_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    for message, what in zip((str(info.value), err), whats):
        assert str(_HUGE) not in message
        if refusal == "integer":
            assert "%s must be an integer" % what in message
        elif value == -1:
            assert "%s must be" % what in message


def test_oversize_lattice_scans_exit_1_within_seconds(bench_run, tmp_path):
    """A scan of more than SCAN_LIMIT wavevectors is refused before it
    starts: --k-max just above the limit on the 1-DOF benchmark, and
    normalize on a 3-DOF ring at (8000, 3, 8), which packs but would scan
    about 4.1e12 wavevectors."""
    problem, _ = bench_run
    payload = _three_dof_problem().to_payload()
    _set_every(payload, "K_max", 8000)
    payload["options"] = {"sigma": 0.05}
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(payload))
    for argv, k_max, points in (
        (["check-diophantine", "--problem", str(problem), "--k-max", "500001"], 500001, 1000003),
        (["normalize", "--problem", str(ring), "--out", str(tmp_path / "o")], 8000, 16001**3),
    ):
        proc = _cli_with_timeout(*argv, timeout=20)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: 'K_max' = %d scans (2 K_max + 1)^%d = %d wavevectors, over the limit of "
            "1000000\n" % (k_max, 1 if k_max == 500001 else 3, points)
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--tol", "1e-300"),
        ("lie-check", "--tol", "1e-300"),
        ("verify", "--t-end", "1e300"),
    ],
    ids=["verify-tol", "lie-check-tol", "verify-t-end"],
)
def test_extreme_stepper_settings_exit_1_without_warnings(bench_run, argv):
    """Tolerances and horizons that overflow the step-size control end in one
    error: line naming t as a plain float, with warnings raised as errors."""
    problem, out = bench_run
    command, *flags = argv
    proc = _python_with_timeout(
        "-W", "error", "-m", "poisson_kam.cli", command, "--problem", str(problem),
        "--out", str(out), *flags,
    )
    assert proc.returncode == 1
    assert re.fullmatch(r"error: integrator failed: .* at t = [0-9.e+]+\n", proc.stderr)
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_overflowing_float_field_exit_1(bench_file, tmp_path, capsys):
    """A float field written as an integer too large for a float (10^400):
    one error line, no OverflowError traceback."""
    for path in [("a",), ("epsilon",), ("y_star", 0), ("f", "terms", 0, "re"), ("options", "rho")]:
        bench_file.write_text(json.dumps(_mutated(_BASE_PAYLOAD, path, 10**400)))
        assert main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too large to convert to float" in err


# ---- real numbers read from outside ----------------------------------------


def _problem_with(*path):
    return lambda v: Problem.from_payload(_mutated(_BASE_PAYLOAD, path, v))


def _report_with(name):
    def call(value):
        setup = _BENCH.initialize()
        return torus_persistence_report(
            setup.decomp.full, setup.structure, [], n_angles=1, **{name: value}
        )
    return call


def _lie_check_with_tol(value):
    record = ChiRecord.from_payload(_BASE_GENERATORS["chi"][0])
    point = ExtendedPoint(np.zeros(1), np.full(1, 0.3))
    return lie_vs_flow_check(record, _BENCH.initialize().structure, point, tol=value)


# each site: a library call on the value, its error class, the name the
# library's and the CLI's messages give, a value out of the site's range
# (None where any number is taken) and a CLI run on the value
_REAL_SITES = {
    "a": (_problem_with("a"), ProblemFormatError, ("decay rate a",) * 2, 1.5, _file("a")),
    "epsilon": (
        _problem_with("epsilon"), ProblemFormatError, ("epsilon",) * 2, -1e-3, _file("epsilon"),
    ),
    "tau": (_problem_with("tau"), ProblemFormatError, ("tau",) * 2, -1.0, _file("tau")),
    "y_star": (
        _problem_with("y_star", 0), ProblemFormatError, ("y_star",) * 2, float("inf"),
        _file("y_star", 0),
    ),
    "option in a file": (
        lambda v: _BENCH.option("tol", v),
        ProblemFormatError, ("option 'tol'",) * 2, 0.0, _file("options", "tol"),
    ),
    "series a": (
        lambda v: _series_with("a", v), ParameterError, ("decay rate a",) * 2, 0.0, _file("f", "a"),
    ),
    "coefficient im": (
        lambda v: _series_with("terms", [dict(_BENCH.f.to_payload()["terms"][0], im=v)]),
        ParameterError, ("coefficient im",) * 2, None, _file("f", "terms", 0, "im"),
    ),
    "coefficient re in generators.json": (
        lambda v: _series_with("terms", [dict(_BENCH.f.to_payload()["terms"][0], re=v)]),
        ParameterError, ("coefficient re",) * 2, None,
        _generator("chi", 0, "chi", "terms", 0, "re"),
    ),
    "generator rho": (
        lambda v: ChiRecord(0, _BENCH.f, v, 1.0, 0.1),
        ProblemFormatError, ("generator 0: rho",) * 2, 0.0, _generator("chi", 0, "rho"),
    ),
    "generator sigma": (
        lambda v: ChiRecord(0, _BENCH.f, 0.5, v, 0.1),
        ProblemFormatError, ("generator 0: sigma",) * 2, float("inf"),
        _generator("chi", 0, "sigma"),
    ),
    "generator d": (
        lambda v: ChiRecord(0, _BENCH.f, 0.5, 1.0, v),
        ProblemFormatError, ("generator 0: d",) * 2, 0.5, _generator("chi", 0, "d"),
    ),
    "--target-eps": (
        lambda v: _BENCH.initialize(target_eps=v),
        ProblemFormatError, ("option 'target_eps'",) * 2, -1.0, _flag("normalize", "--target-eps"),
    ),
    "--t-end": (
        _report_with("t_end"),
        ParameterError, ("'t_end'", "option 't_end'"), 0.0, _flag("verify", "--t-end"),
    ),
    "--tol": (
        _report_with("tol"),
        ParameterError, ("'tol'", "option 'tol'"), -1.0, _flag("verify", "--tol"),
    ),
    "--threshold": (
        _report_with("threshold"),
        ParameterError, ("'threshold'", "option 'threshold'"), float("nan"),
        _flag("verify", "--threshold"),
    ),
    "lie-check --tol": (
        _lie_check_with_tol,
        ParameterError, ("'tol'",) * 2, float("inf"), _flag("lie-check", "--tol"),
    ),
}


_OUT_OF_RANGE = object()


@pytest.mark.parametrize(
    "value", [True, np.bool_(False), "x", _OUT_OF_RANGE], ids=["True", "np.False_", "x", "range"]
)
@pytest.mark.parametrize("site", list(_REAL_SITES))
def test_outside_real_refused_by_one_rule(bench_run, tmp_path, capsys, site, value):
    """A boolean (Python's or numpy's), a string that is no number and a
    number out of the site's range, at each real number read from a file, an
    option or a flag: the library raises the site's error class, and the CLI
    exits 1 with one error: line naming the site, not a usage text, and not
    exit 2 as a refusal."""
    call, error, whats, out_of_range, cli = _REAL_SITES[site]
    if value is _OUT_OF_RANGE:
        if out_of_range is None:
            return
        value = out_of_range
    with pytest.raises(error) as info:
        call(value)
    capsys.readouterr()
    # a JSON file holds no numpy boolean: the CLI is given its Python value
    value = value.item() if isinstance(value, np.generic) else value
    assert main(cli(value, *bench_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "usage:" not in err
    for message, what in zip((str(info.value), err), whats):
        assert "%s must be " % what in message


def _integrate_with_tol(value):
    setup = _BENCH.initialize()
    start = ExtendedPoint(np.zeros(1), np.full(1, 0.3))
    return integrate(setup.decomp.full, setup.structure, [start], 0.1, value)


# each library entry point that reads a ring, a radius, a coefficient or a
# tolerance, on a value it must refuse, with the error class and the message
# that names the value
_LIBRARY_REFUSALS = {
    "from_terms a": (
        lambda: FourierTaylorSeries.from_terms(1, 1, True, (4, 4, 4), []),
        ParameterError, "decay rate a must be in (0, 1), got True",
    ),
    "from_terms K_max": (
        lambda: FourierTaylorSeries.from_terms(1, 1, 0.5, (4.5, 4, 4), []),
        StructureMismatchError, "series order K_max must be an integer, got 4.5",
    ),
    "from_terms n": (
        lambda: FourierTaylorSeries.from_terms(True, 1, 0.5, (4, 4, 4), []),
        StructureMismatchError, "n must be an integer, got True",
    ),
    "from_terms coefficient": (
        lambda: FourierTaylorSeries.from_terms(1, 1, 0.5, (4, 4, 4), [((0,), (0,), 0, 0, True)]),
        ParameterError, "coefficient must be a number, got True",
    ),
    **{
        "from_terms coefficient " + name: (
            lambda c=c: FourierTaylorSeries.from_terms(1, 1, 0.5, (4, 4, 4), [((0,), (0,), 0, 0, c)]),
            ParameterError, "coefficient must be a number, got " + got,
        )
        for name, c, got in [
            ("text", "x", "'x'"),
            ("None", None, "None"),
            ("list", [1], "[1]"),
            ("10**400", 10**400, "100000000000000000...0000000000000000000 "
                                 "(int too large to convert to float)"),
        ]
    },
    "constructor m": (
        lambda: FourierTaylorSeries(1, 1.5, 0.5, (4, 4, 4)),
        StructureMismatchError, "m must be an integer, got 1.5",
    ),
    "zeros a": (
        lambda: FourierTaylorSeries.zeros(1, 1, 1.0, (4, 4, 4)),
        ParameterError, "decay rate a must be in (0, 1), got 1.0",
    ),
    "cut P_max": (
        lambda: FourierTaylorSeries.zeros(1, 1, 0.5, (4, 4, 4)).cut((4, 4, True)),
        StructureMismatchError, "series order P_max must be an integer, got True",
    ),
    "WeightedNormParams rho": (
        lambda: WeightedNormParams(float("inf"), 1.0),
        ParameterError, "rho must be finite and > 0, got inf",
    ),
    "WeightedNormParams sigma": (
        lambda: WeightedNormParams(1.0, True),
        ParameterError, "sigma must be finite and > 0, got True",
    ),
    "integrate tol": (
        lambda: _integrate_with_tol(None),
        ParameterError, "'tol' must be finite and > 0, got None",
    ),
}


@pytest.mark.parametrize("site", list(_LIBRARY_REFUSALS))
def test_library_reads_what_it_is_given(site):
    """The library entry points read their rings, radii, coefficients and
    tolerances by the rules a file's fields follow, so a boolean, a
    fractional order or a rate of 1 is refused, naming the value, and not
    built or left to a bare TypeError."""
    call, error, message = _LIBRARY_REFUSALS[site]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_library_reads_a_number_in_text_as_a_file_field():
    """A radius or tolerance given as text that float() takes is that number."""
    assert WeightedNormParams("0.5", "1") == WeightedNormParams(0.5, 1.0)
    (by_text,), (by_float,) = _integrate_with_tol("1e-8"), _integrate_with_tol(1e-8)
    assert np.array_equal(by_text.states, by_float.states)


def _traced_peak(call):
    """The peak memory call() traces, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_ring_refused_by_zeros_before_anything_is_allocated():
    """zeros in a ring of 10^6 angles is refused by counting its key bits,
    with no list or array per column built first (that traces over 20 MB)."""

    def zeros():
        with pytest.raises(StructureMismatchError, match=r"^the ring n=1000000, .* 3000006 bits"):
            FourierTaylorSeries.zeros(10**6, 1, 0.5, (1, 1, 1))

    assert _traced_peak(zeros) < 1e6


def test_wide_ring_refused_in_a_file_before_anything_is_allocated(tmp_path, capsys):
    """normalize on a problem file whose h has 10^6 angles and no terms
    exits 1 with one error naming the ring, under a traced peak of 2 MB."""
    problem = tmp_path / "wide.json"
    h = dict(_BASE_PAYLOAD["h"], n=10**6, terms=[])
    problem.write_text(json.dumps(dict(_BASE_PAYLOAD, h=h)))
    argv = ["normalize", "--problem", str(problem), "--out", str(tmp_path / "o")]
    codes = []
    assert _traced_peak(lambda: codes.append(main(argv))) < 2e6
    assert codes == [1]
    err = capsys.readouterr().err
    assert err.startswith("error: the ring n=1000000, m=1, ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("options", [[["rho", 0.5]], "ab", None])
def test_options_that_are_not_an_object_exit_1(bench_file, tmp_path, capsys, options):
    """A problem file's options must be a JSON object: a list of pairs or a
    string is refused with one error naming options."""
    bench_file.write_text(json.dumps(_mutated(_BASE_PAYLOAD, ("options",), options)))
    with pytest.raises(ProblemFormatError, match="^options must be an object"):
        Problem.load(bench_file)
    assert main(["normalize", "--problem", str(bench_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: options must be an object, got ")


@pytest.mark.parametrize(
    "setting", [{"t_end": float("nan")}, {"threshold": float("nan")}, {"tol": True, "t_end": True}]
)
def test_report_reads_its_settings_before_any_work(monkeypatch, setting):
    """torus_persistence_report refuses a NaN t_end or threshold and boolean
    settings before it builds the composed map."""
    from poisson_kam import dynamics

    def unreachable(*args):
        raise AssertionError("the map was built")

    monkeypatch.setattr(dynamics, "composed_displacements", unreachable)
    setup = rescaled_benchmark_problem().initialize()
    with pytest.raises(ParameterError, match="must be"):
        torus_persistence_report(setup.decomp.full, setup.structure, [], **setting)
