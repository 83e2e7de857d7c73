"""Tests of the benchmark's own code (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
import threading

import numpy as np
import pytest

import checks
import tracing
import workloads

from poisson_kam import cli, dynamics, jsonio, kolmogorov, series
from poisson_kam.problems import Problem, benchmark_problem


def _bindings():
    """Every attribute of every poisson_kam module and of the wrapped
    classes, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "poisson_kam" or name.startswith("poisson_kam.")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (series.FourierTaylorSeries, Problem):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def _normalize_and_verify():
    setup = benchmark_problem(epsilon=1e-3).initialize()
    result = kolmogorov.run(setup)
    report = dynamics.torus_persistence_report(
        setup.decomp.full, setup.structure, result.chi_records,
        t_end=5.0, tol=1e-8, n_angles=4, omega=setup.freq.omega,
    )
    return checks.normalize_block(result), checks.verify_block(report)


def test_wrapped_calls_match_and_originals_come_back(monkeypatch):
    monkeypatch.setenv("POISSON_KAM_THREADS", "2")
    plain = _normalize_and_verify()
    before = _bindings()
    originals = {
        (mod, attr): getattr(sys.modules["poisson_kam." + mod], attr)
        for mod, attr in tracing.SPAN_FUNCTIONS
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # no namespace still binds an original function
        leftover = [key for key, value in _bindings().items() if any(value is o for o in originals.values())]
        assert leftover == []
        assert kolmogorov.poisson_bracket is not originals[("bracket", "poisson_bracket")]
        assert cli.run is kolmogorov.run
        traced = _normalize_and_verify()
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names, spans, _ = tracer.arrays()
    report = spans["name"] == names.index("dynamics.torus_persistence_report")
    report_id = spans["id"][report][0]
    composed = spans["name"] == names.index("kolmogorov.compose_map")
    # pool workers run on behalf of the report: their top spans hang from it
    assert composed.sum() == 4
    assert (spans["parent"][composed] == report_id).all()
    assert len(set(spans["thread"][composed].tolist())) == 2


def test_traced_cli_writes_the_same_files(tmp_path):
    import traced_cli

    problem = tmp_path / "p.json"
    benchmark_problem(epsilon=1e-3).save(problem)
    assert cli.main(["normalize", "--problem", str(problem), "--out", str(tmp_path / "a")]) == 0
    before = _bindings()
    code = traced_cli.main(
        ["--spans", str(tmp_path / "s.npz"), "--", "normalize", "--problem", str(problem),
         "--out", str(tmp_path / "b")]
    )
    assert code == 0
    for name in ("normal_form.json", "generators.json", "trace.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    metrics = tracing.layer_metrics(*tracing.load(tmp_path / "s.npz"))
    assert metrics["jsonio.dumps.calls"] >= 3
    assert metrics["problems.Problem.load.self_s"] > 0
    assert metrics["cli.import_s"] > 0
    assert metrics["kolmogorov.normalization_step.calls"] == 2


def _spans(rows):
    """rows: (id, parent, name index, start, end, thread)."""
    cols = list(zip(*rows))
    return {
        "id": np.array(cols[0], dtype=np.int64),
        "parent": np.array(cols[1], dtype=np.int64),
        "name": np.array(cols[2], dtype=np.int32),
        "start": np.array(cols[3], dtype=float),
        "end": np.array(cols[4], dtype=float),
        "thread": np.array(cols[5], dtype=np.int32),
    }


# report [0, 10] on the main thread calls compose_map [1, 3] itself; two pool
# threads run integrate [2, 6] (with an evaluate child [3, 4]) and
# integrate [4, 8] for it; an unrelated span on a third thread overlaps
TREE = _spans([
    (0, -1, 0, 0.0, 10.0, 0),
    (1, 0, 1, 1.0, 3.0, 0),
    (2, 0, 2, 2.0, 6.0, 1),
    (3, 2, 3, 3.0, 4.0, 1),
    (4, 0, 2, 4.0, 8.0, 2),
    (5, -1, 3, 0.0, 10.0, 3),
])
TREE_NAMES = [
    "dynamics.torus_persistence_report",
    "kolmogorov.compose_map",
    "dynamics.integrate",
    "series.evaluate",
]


def test_self_time_on_two_thread_tree():
    got = tracing.self_times(TREE)
    # the report's children cover [1, 8] together, though they overlap
    assert got.tolist() == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 10.0])


def test_layer_metrics_on_hand_built_tree():
    meta = {"names": TREE_NAMES, "counters": {"dynamics.integrate.rhs_evals": 7}}
    m = tracing.layer_metrics(meta, TREE)
    assert m["dynamics.torus_persistence_report.self_s"] == pytest.approx(3.0)
    assert m["dynamics.integrate.calls"] == 2
    assert m["dynamics.integrate.self_s"] == pytest.approx(7.0)
    assert m["dynamics.integrate.total_s"] == pytest.approx(8.0)
    assert m["series.evaluate.calls"] == 2
    assert m["dynamics.integrate.rhs_evals"] == 7
    assert m["series.mul.calls"] == 0 and m["series.mul.keep_ratio"] == 0.0
    # compose_map 2 s + integrate 4 s + 4 s over a 10 s report
    assert m["dynamics.torus_persistence_report.pool_overlap"] == pytest.approx(1.0)


def test_combine_keeps_processes_apart():
    meta = {"names": TREE_NAMES, "counters": {"jsonio.dumps.bytes": 5,
                                              "homological.solve_scalar.min_divisor": 2.0}}
    other = {"names": TREE_NAMES[::-1], "counters": {"jsonio.dumps.bytes": 1,
                                                     "homological.solve_scalar.min_divisor": 0.5}}
    flipped = dict(TREE, name=(3 - TREE["name"]).astype(np.int32))
    merged_meta, merged = tracing.combine([(meta, TREE), (other, flipped)])
    assert merged_meta["counters"] == {"jsonio.dumps.bytes": 6,
                                       "homological.solve_scalar.min_divisor": 0.5}
    assert tracing.self_times(merged).tolist() == pytest.approx(
        [3.0, 2.0, 3.0, 1.0, 4.0, 10.0] * 2)
    single = tracing.layer_metrics(meta, TREE)
    double = tracing.layer_metrics(merged_meta, merged)
    assert double["dynamics.integrate.self_s"] == pytest.approx(2 * single["dynamics.integrate.self_s"])


def test_spans_from_threads_nest_per_thread():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda f: f())
    inner = tracer.wrap("inner", lambda: threading.get_ident())

    def in_thread():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        return inner()

    outer(in_thread)
    names, spans, _ = tracer.arrays()
    outer_id = spans["id"][spans["name"] == names.index("outer")][0]
    inners = spans["name"] == names.index("inner")
    # both inner calls, on two threads, have the outer call as parent
    assert (spans["parent"][inners] == outer_id).all()
    assert len(set(spans["thread"][inners].tolist())) == 2


def test_stress_problem_is_deterministic_per_seed():
    a = jsonio.dumps(workloads.stress_problem(3).to_payload())
    b = jsonio.dumps(workloads.stress_problem(3).to_payload())
    c = jsonio.dumps(workloads.stress_problem(4).to_payload())
    assert a == b
    assert a != c
    # the seed only moves phases, never magnitudes
    mags = lambda p: sorted(np.abs(p.f.coeffs).tolist())  # noqa: E731
    assert mags(workloads.stress_problem(3)) == pytest.approx(mags(workloads.stress_problem(4)))


def test_checks_flag_changed_numbers():
    ref = {"status": "converged", "steps": 2, "eps_sequence": [1e-3, 1e-7, 1e-14],
           "normal_form_sha256": "x"}
    assert checks.check_normalize(dict(ref), ref, 0, False) == []
    assert checks.check_normalize(dict(ref, normal_form_sha256="y"), ref, 0, False)
    assert checks.check_normalize(dict(ref, normal_form_sha256="y"), ref, 5, False) == []
    assert checks.check_normalize(dict(ref, normal_form_sha256="y"), ref, 5, True)
    assert checks.check_normalize(dict(ref, eps_sequence=[1e-3, 2e-7, 1e-14]), ref, 5, False)
    assert checks.check_normalize(dict(ref, status="refused"), ref, 5, False)
    vref = {"passed": True, "min_improvement": 50.0, "threshold": 10.0, "report_sha256": "r"}
    assert checks.check_verify(dict(vref), vref, 0) == []
    assert checks.check_verify(dict(vref, report_sha256="s"), vref, 0)
    assert checks.check_verify(dict(vref, report_sha256="s"), vref, 1) == []
    assert checks.check_verify(dict(vref, passed=False, min_improvement=3.0), vref, 1)
    assert checks.check_normalize(None, ref, 0, False) == ["no result"]
