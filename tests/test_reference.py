"""The numbers of the benchmark's problems, pinned to its recorded reference
(perfbench/reference.json and the stress problem of perfbench/workloads.py,
read only): the eps sequence and the sha256 of the serialized normal form of
every workload, and for the two that verify the sha256 of the persistence
report at seed 0 with 8 angles."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from poisson_kam import (
    benchmark_problem,
    jsonio,
    rescaled_benchmark_problem,
    run,
    torus_persistence_report,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _stress_problem(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.stress_problem(seed)


def _sha256(payload):
    return hashlib.sha256(jsonio.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize(
    "workload, make",
    [
        ("cli_benchmark", lambda: benchmark_problem(epsilon=1e-3)),
        ("verify_rescaled", rescaled_benchmark_problem),
        ("normalize_3dof", lambda: _stress_problem(0)),
    ],
)
def test_normalize_matches_reference(workload, make):
    ref = REFERENCE[workload]
    problem = make()
    setup = problem.initialize()
    result = run(setup)
    assert result.status == ref["normalize"]["status"]
    assert result.trace.eps_sequence() == ref["normalize"]["eps_sequence"]
    assert _sha256(result.normal_form.to_payload()) == ref["normalize"]["normal_form_sha256"]
    if ref["verify"] is None:
        return
    assert ref["seed"] == 0
    report = torus_persistence_report(
        setup.decomp.full,
        setup.structure,
        result.chi_records,
        t_end=problem.option("t_end"),
        tol=problem.option("tol"),
        n_angles=8,
        threshold=problem.option("threshold"),
        omega=setup.freq.omega,
    )
    assert _sha256(report.as_dict()) == ref["verify"]["report_sha256"]
