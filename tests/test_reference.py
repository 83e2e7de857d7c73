"""The numbers of the benchmark's problems, pinned to its recorded reference
(perfbench/reference.json and the stress problem of perfbench/workloads.py,
read only): the eps sequence and the sha256 of the serialized normal form of
every workload, and for the two that verify the sha256 of the persistence
report at seed 0 with 8 angles.  The exact text of trace.jsonl and
generators.json is pinned here as well."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from poisson_kam import (
    benchmark_problem,
    cli,
    jsonio,
    rescaled_benchmark_problem,
    run,
    torus_persistence_report,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

# sha256 of the trace.jsonl and generators.json text a normalize run writes
TRACE_SHA256 = {
    "cli_benchmark": "ebaafa1a2a3cf9f29d4fb5318f96d322021185a2a508da189ecdf14ac8c46dea",
    "verify_rescaled": "d9e10c6f32f73dfb4dd4e0b98756f3b482af88aad7dbbe0dcb212fedec08c544",
    "normalize_3dof": "0d7a32e1784bc81c5e3f542343fa67c91f8c4eed5f59100af50e7a5d151d02ef",
}
GENERATORS_SHA256 = {
    "cli_benchmark": "e3ec94f4d974f46cc6e24631df2f52ebda751738c88768eda146accf990bd945",
    "verify_rescaled": "4d836c6506e614582a923fd98dd6087e523c27e1d153a2ad636af0be294ce949",
    "normalize_3dof": "7aa48499c2cc05982e019b916e3b0b4b151025faba866c9f2eb0b8145c76a75a",
}


def _stress_problem(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.stress_problem(seed)


def _sha256(payload):
    return _text_sha256(jsonio.dumps(payload))


def _text_sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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
    assert _text_sha256(cli._trace_lines(result.trace)) == TRACE_SHA256[workload]
    generators = jsonio.dumps({"chi": [rec.to_payload() for rec in result.chi_records]}) + "\n"
    assert _text_sha256(generators) == GENERATORS_SHA256[workload]
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
