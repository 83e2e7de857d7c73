"""The numbers of the built-in problems, pinned to the benchmark's recorded
reference (perfbench/reference.json, read only): the eps sequence and the
sha256 of the serialized normal form, and for the benchmark problem the
sha256 of its persistence report at seed 0 with 8 angles."""

import hashlib
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

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


def _sha256(payload):
    return hashlib.sha256(jsonio.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize(
    "workload, make",
    [
        ("cli_benchmark", lambda: benchmark_problem(epsilon=1e-3)),
        ("verify_rescaled", rescaled_benchmark_problem),
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
    if workload != "cli_benchmark":
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
