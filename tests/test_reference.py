"""The numbers of the benchmark's problems, pinned to its recorded reference
(perfbench/reference.json and the stress problem of perfbench/workloads.py,
read only): the eps sequence and the sha256 of the serialized normal form of
every workload, and for the two that verify the sha256 of the persistence
report at seed 0 with 8 angles.  The exact text of trace.jsonl and
generators.json is pinned here as well, and so are the saved file of every
built-in problem, the files lie-check, constants and check-diophantine
write for it, and the series of its composed change of coordinates with
the discards that building them records.  The names the benchmark's tracer
rebinds are checked to exist."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import poisson_kam
from poisson_kam import (
    FourierTaylorSeries,
    benchmark_problem,
    cli,
    discards,
    jsonio,
    rescaled_benchmark_problem,
    run,
    torus_persistence_report,
    two_dof_problem,
)
from poisson_kam.kolmogorov import composed_displacements

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

# sha256 of the problem file each built-in problem saves
PROBLEM_FILE_SHA256 = {
    "benchmark": "45fe475fed1564f9b6a8325e3cd90b1d7cd8bd6b5e2460dfe1534a1d168998f5",
    "rescaled": "57ac07e529dad527908fadc8ee4d637d9e944fc0b035aa2e34fee5b6d2a1ebef",
    "two_dof": "939fb112f473d7d690f018522b03dce84d02c9655c78f8b94fe70d53d1b04af6",
}

# sha256 of the files lie-check, constants and check-diophantine --k-max 6
# write for each built-in problem after a normalize run
CLI_FILE_SHA256 = {
    "benchmark": {
        "lie_check.json": "c1b0648ec7650e900b022fa0b10a4c04f79367aa7ff14c22e7028174dd46b476",
        "constants.json": "bae599d22e3ff35abbb1a6f0257cf80a51bc2e5648734a213c4a7385519b28e7",
        "diophantine.json": "0781ecf153e71bf9307b7606a08dd8a3171d57cd435fd22c6d2a927ed6f4b573",
    },
    "rescaled": {
        "lie_check.json": "e3aa92761312f1851516363999caee6c8cc7c9e1b931a1f43304babc8f69cb89",
        "constants.json": "39ff4cb1b0f75b5ed20dcc8e19b10861c83d0649540169ae43459c413a3d9bc0",
        "diophantine.json": "5faf3d940584064e86348ba59910b4b18b6937c1b67904b88cbf99cd5b7051f0",
    },
    "two_dof": {
        "lie_check.json": "e23f8431fc057a3bd97d6fba24f8ce82ab07f68625ebd5d44ad01fb1b39e51ac",
        "constants.json": "c667edb6e653681d981be0722c5c952f7b20ce538f11dc6da31a950d2dd7f160",
        "diophantine.json": "4ed9a1033230e3b67544893f9205d4b9488e485679996d22ad197d942c8c260a",
    },
}
# sha256 of the jsonio text of each displacement series composed_displacements
# returns for each built-in problem after a normalize run, in coordinate
# order (the y, the x, then eta)
COMPOSED_MAP_SHA256 = {
    "benchmark": [
        "692a30757a7b18bc42982543f648be7b3706abcb96abc3b7689d2c63b0ac67da",
        "3fb46314315e0ff7218b262464c69f668b443f35ccba454e5892847e1c288534",
        "0c317816e37c2f85c1b4b196e557ece51684680bd11c97fc967e47b9042c0b1a",
    ],
    "rescaled": [
        "411a99bf82bea2084f41535aec2bbb402891b7f6e866675be32fbe0c1831e3a8",
        "a246508fa5c771cc55b6e0edb2243a4c8c5dac827437b714a3b7895b7c06cca3",
        "e7a89759178b29bca7e769764b9c24b05627ebbea849113826b48e329f3ef301",
        "1a505c9b2ab753ddee3aac57e12682e15f1a899bf7729e8e8844e68c99bac5f9",
    ],
    "two_dof": [
        "b5c45f05e75c7d25ea15270fa35dcd3d4336656093ad5c43b85ee8d20e338701",
        "51fdf8164261e3f4339e80b40a998408327d6fddb18afa5f1fe66f100a2d1770",
        "1a569046e2d46c99f193701c76d9a371d9dbad81db2b7256919ae544dece67a2",
        "8432f61349b2c464aa5e57762691eaf6d267fcffe44c3ef458ef33e612373738",
        "becf4886e7dcb662e7a717b73d0eec91e9518747ad9e22b5b9f336adad80450e",
    ],
}
# (total mass, event count) of the truncation discards composed_displacements
# records while it builds those series
COMPOSED_MAP_DISCARDS = {
    "benchmark": (2.475189629174466e-52, 24),
    "rescaled": (1.3010273730837817e-11, 174),
    "two_dof": (9.344579845192849e-29, 64),
}
BUILT_IN = [
    ("benchmark", lambda: benchmark_problem(epsilon=1e-3)),
    ("rescaled", rescaled_benchmark_problem),
    ("two_dof", two_dof_problem),
]


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stress_problem(seed):
    return _perfbench_module("workloads").stress_problem(seed)


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


@pytest.mark.parametrize("name, make", BUILT_IN)
def test_built_in_problem_file_pinned(name, make):
    text = jsonio.dumps(make().to_payload()) + "\n"
    assert _text_sha256(text) == PROBLEM_FILE_SHA256[name]


@pytest.mark.parametrize("name, make", BUILT_IN)
def test_cli_files_pinned(name, make, tmp_path, capsys):
    problem, out = tmp_path / "p.json", tmp_path / "run"
    make().save(problem)
    args = ["--problem", str(problem), "--out", str(out)]
    assert cli.main(["normalize", *args]) == 0
    assert cli.main(["lie-check", *args]) == 0
    assert cli.main(["constants", *args]) == 0
    assert cli.main(["check-diophantine", *args, "--k-max", "6"]) == 0
    for file, sha in CLI_FILE_SHA256[name].items():
        assert _text_sha256((out / file).read_text()) == sha


@pytest.mark.parametrize("name, make", BUILT_IN)
def test_composed_map_pinned(name, make):
    setup = make().initialize()
    chi_records = run(setup).chi_records
    with discards() as lost:
        disp = composed_displacements(chi_records, setup.structure)
    assert [_sha256(d.to_payload()) for d in disp.values()] == COMPOSED_MAP_SHA256[name]
    assert (lost.total_mass, lost.events) == COMPOSED_MAP_DISCARDS[name]


def test_names_the_tracer_rebinds_exist():
    """The traced benchmark rebinds these names and fails when one is gone."""
    tracing = _perfbench_module("tracing")
    for modname, attr in tracing.SPAN_FUNCTIONS:
        module = importlib.import_module("poisson_kam." + modname)
        assert callable(getattr(module, attr, None)), "%s.%s" % (modname, attr)
    for attr, _ in tracing.SERIES_METHODS:
        assert callable(FourierTaylorSeries.__dict__.get(attr)), attr
    assert isinstance(poisson_kam.problems.Problem.__dict__["load"], classmethod)
    assert isinstance(poisson_kam.series.discard_tracker, poisson_kam.series.TruncationTracker)
    assert callable(poisson_kam.dynamics.solve_ivp)
