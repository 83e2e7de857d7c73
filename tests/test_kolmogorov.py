import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from poisson_kam import (
    ExtendedPoint,
    FourierTaylorSeries,
    Problem,
    StructureMatrix,
    Truncation,
    benchmark_problem,
    bracket,
    compose_map,
    constants_ledger,
    diophantine_profile,
    discards,
    divisor_shells,
    homological,
    kolmogorov,
    normalization_step,
    poisson_bracket,
    rescaled_benchmark_problem,
    run,
    schedule_audit,
    two_dof_problem,
)
from poisson_kam import cli, problems
from poisson_kam.bracket import LieOperator, low_degree_bracket
from poisson_kam.errors import (
    ParameterError,
    ProblemFormatError,
    ResonanceError,
    StepRefusedError,
)
from poisson_kam.problems import GOLDEN

from conftest import A_DEFAULT, cosx, eta, mk, with_budget, yi


def canonical_setup(epsilon=1e-3, **kw):
    return benchmark_problem(epsilon=epsilon, **kw).initialize()


# ---- initialization ----------------------------------------------------------


def test_init_unperturbed_quadratic():
    prob = benchmark_problem(epsilon=0.0)
    setup = prob.initialize()
    d = setup.decomp
    assert d.A.is_zero()
    assert all(b.is_zero() for b in d.B)
    assert d.C[0][0].coefficient((0,), (0,), 0, 0) == 1.0
    assert d.R.is_zero()
    assert setup.freq.omega_tilde[0] == pytest.approx(1.0)
    assert setup.params.eps == 0.0


def test_init_benchmark_readoff():
    setup = canonical_setup(epsilon=1e-3)
    d = setup.decomp
    assert d.A == cosx(p=1, trunc=setup.decomp.A.trunc).scale(1e-3)
    assert all(b.is_zero() for b in d.B)
    assert d.C[0][0].coefficient((0,), (0,), 0, 0) == 1.0
    assert setup.freq.omega[0] == pytest.approx(1.0)


def test_init_finite_difference_oracle():
    # omega~ = h_y(y*) and C = h_yy(y*) against central differences of eval
    prob = benchmark_problem(epsilon=1e-3, y_star=1.3)
    setup = prob.initialize()
    h = prob.h
    step = 1e-5
    hy = (
        h.evaluate([1.3 + step], [0.0]) - h.evaluate([1.3 - step], [0.0])
    ).real / (2 * step)
    hyy = (
        h.evaluate([1.3 + step], [0.0])
        - 2 * h.evaluate([1.3], [0.0])
        + h.evaluate([1.3 - step], [0.0])
    ).real / step ** 2
    assert setup.freq.omega_tilde[0] == pytest.approx(hy, rel=1e-8)
    c00 = setup.decomp.C[0][0].coefficient((0,), (0,), 0, 0).real
    assert c00 == pytest.approx(hyy, rel=1e-5)


def test_init_rejects_eta_dependence():
    prob = benchmark_problem()
    bad_f = eta(trunc=prob.trunc) + cosx(p=1, trunc=prob.trunc)
    with pytest.raises(ProblemFormatError, match="must not depend on eta"):
        dataclasses.replace(prob, f=bad_f)


def test_init_rejects_non_decaying_perturbation():
    prob = benchmark_problem()
    with pytest.raises(ProblemFormatError, match="non-decaying term"):
        dataclasses.replace(prob, f=cosx(p=0, trunc=prob.trunc))


def test_init_rejects_angle_dependent_h():
    prob = benchmark_problem()
    with pytest.raises(ProblemFormatError, match="depend on y only"):
        dataclasses.replace(prob, h=prob.h + cosx(trunc=prob.trunc))


def test_init_rejects_resonant_frequency():
    from poisson_kam import two_dof_problem

    with pytest.raises(ResonanceError):
        two_dof_problem(omega=(1.0, 2.0)).initialize()


# ---- one step -------------------------------------------------------------------


def test_step_fixed_point_for_zero_perturbation():
    setup = canonical_setup(epsilon=0.0)
    d, chi, u1, row = normalization_step(setup, setup.decomp, setup.params, 0)
    assert chi.chi.is_zero()
    assert d.full == setup.decomp.full
    assert row["eps_out"] == 0.0


def test_step_pure_time_source():
    # A = c e^{-a xi}: chi = S(xi) only; new A, B empty or one decay order up
    setup = canonical_setup(epsilon=0.0)
    c = 1e-3
    trunc = setup.decomp.A.trunc
    extra = mk([((0,), (0,), 0, 1, c)], trunc=trunc)
    full = setup.decomp.full + extra
    from poisson_kam import HamiltonianDecomposition

    decomp = HamiltonianDecomposition.from_full(full, setup.decomp.omega_tilde)
    d, chi, u1, row = normalization_step(setup, decomp, setup.params, 0)
    # chi = S(xi) = c/a e^{-a xi}, no x dependence
    assert not chi.chi.kcols.any()
    assert chi.chi.coefficient((0,), (0,), 0, 1) == pytest.approx(c / A_DEFAULT)
    assert d.A.is_zero() or d.A.dominant_min_decay_index() >= 2
    assert all(b.is_zero() or b.dominant_min_decay_index() >= 2 for b in d.B)


def test_step_exactness_audit_and_invariant_slots():
    setup = canonical_setup(epsilon=1e-3)
    d0 = setup.decomp
    d1, chi, u1, row = normalization_step(setup, d0, setup.params, 0)
    # split/reassemble identity is exact
    assert d1.reassembled() == d1.full
    # eta and omega~.y slots bit-identical across the step
    n, m = d1.full.n, d1.full.m
    assert d1.full.coefficient((0,) * n, (0,) * m, 1, 0) == d0.full.coefficient(
        (0,) * n, (0,) * m, 1, 0
    )
    assert d1.full.coefficient((0,), (1,), 0, 0) == d0.full.coefficient(
        (0,), (1,), 0, 0
    )
    # homological residual at rounding level
    assert row["hom_residual_low"] <= 1e-10 * row["eps_in"]


def test_step_refuses_oversized_perturbation():
    setup = canonical_setup(epsilon=8e-3)
    with pytest.raises(StepRefusedError):
        normalization_step(setup, setup.decomp, setup.params, 0)


def test_step_quadratic_ratio():
    out = {}
    for eps in (1e-3, 5e-4):
        setup = canonical_setup(epsilon=eps)
        res = run(with_budget(setup, 1, 0.0))
        out[eps] = res.trace.rows[0]["eps_out"]
    assert 0.2 <= out[5e-4] / out[1e-3] <= 0.3


# ---- run -------------------------------------------------------------------------


def test_run_zero_perturbation_trivial():
    res = run(canonical_setup(epsilon=0.0))
    assert res.status == "converged"
    assert len(res.trace.rows) == 0


def test_run_benchmark_superlinear():
    res = run(with_budget(canonical_setup(epsilon=1e-3), 5, 0.0))
    eps = res.trace.eps_sequence()
    assert all(eps[j + 1] < eps[j] for j in range(len(eps) - 1))
    # quadratic signature on the numerically meaningful segment
    logs = [math.log(e) for e in eps[:4]]
    ratios = [logs[j + 1] / logs[j] for j in range(3)]
    assert min(ratios) >= 1.7


def test_run_empirical_mode_flag():
    res = run(with_budget(canonical_setup(epsilon=1e-3), 1, 0.0))
    assert res.trace.header["empirical_mode"] is True
    assert any("empirical" in w for w in res.trace.header["warnings"])


def test_run_flags_lie_series_stopped_by_cap(monkeypatch):
    setup = canonical_setup(epsilon=1e-3)
    with monkeypatch.context() as patch:
        patch.setattr(bracket, "LIE_MAX_TERMS", 2)
        capped = run(setup)
        row = capped.trace.rows[0]
        assert row["lie_converged"] is False and row["lie_terms"] == 2
        # the capped step's eps_out carries the tail the cap left out: the A
        # part at most the tail bound, the B part (y-derivatives) at most
        # 1/rho of it
        new_decomp, rec, u_next, _ = normalization_step(setup, setup.decomp, setup.params, 0)
        # the composed map's displacements are the same Lie series, stopped
        # by the same rule
        op = LieOperator(rec.chi, setup.structure, rec.norm_params())
        for coord in [("y", 0), ("x", 0)]:
            _, diag = op.displacement(coord)
            assert diag.s_stop == 2 and diag.converged is False
    measured = max(new_decomp.eps_parts(u_next.norm_params()))
    assert row["rho"] < 1.0 and row["lie_tail_bound"] > 0.0
    assert row["eps_out"] == u_next.eps == measured + row["lie_tail_bound"] / row["rho"]
    warnings = capped.trace.header["warnings"]
    assert any(w.startswith("step 0: Lie series stopped by its cap") for w in warnings)
    free = run(setup)
    assert all(row["lie_converged"] is True for row in free.trace.rows)
    assert not any("Lie series" in w for w in free.trace.header["warnings"])


def test_run_decay_order_growth():
    res = run(with_budget(canonical_setup(epsilon=1e-3), 3, 0.0))
    minps = [row["min_p_out"] for row in res.trace.rows]
    assert minps[0] >= 2
    assert all(minps[j + 1] >= minps[j] for j in range(len(minps) - 1))


def test_run_parameter_monotonicity_and_c_bound():
    res = run(with_budget(canonical_setup(epsilon=1e-3), 4, 0.0))
    rows = res.trace.rows
    for va, vb in zip(rows, rows[1:]):
        assert vb["rho"] < va["rho"]
        assert vb["sigma"] < va["sigma"]
        assert vb["upsilon"] < va["upsilon"]
    for row in rows:
        assert row["c_op_bound"] <= 1.0 / row["upsilon"]


# ---- constants ledger ---------------------------------------------------------------


def test_ledger_recomposition_and_positivity():
    setup = canonical_setup(epsilon=1e-3)
    led = setup.ledger
    assert led.M5 == pytest.approx(led.M0 + led.M3)
    assert led.M6 == pytest.approx(led.M1 + led.M4)
    d_printed = (
        32.0
        * math.e ** 2
        * led.omega_abs
        * led.M_B
        * (led.rho_star * led.sigma_star) ** -2
        * max(led.M6, led.M7, led.M8)
    )
    assert led.D == pytest.approx(d_printed)
    assert led.D >= max(led.M6, led.M7, led.M8)
    for name in ("M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "D", "M_B"):
        assert getattr(led, name) > 0
    assert led.Theta2 > led.Theta1 > 0


def test_ledger_explicit_thetas():
    setup = canonical_setup(epsilon=1e-3)
    led = constants_ledger(setup.structure, setup.params, setup.freq, M_h=1.0)
    theta1, theta2 = kolmogorov.measured_thetas(setup.freq, setup.structure.decay_rate)
    assert (led.Theta1, led.Theta2) == (theta1, theta2)
    tau = setup.freq.tau
    sigma_star = setup.params.sigma / 4.0
    assert led.M0 == pytest.approx(led.Theta1 * (2.0 / sigma_star) ** (2 * tau))
    assert led.M1 == pytest.approx(1 * led.Theta2 * (2.0 / sigma_star) ** (2 * tau + 1))


def _per_k_lattice_loops(omega, tau, K_max, a):
    """The per-k loops the per-shell lattice table replaced, kept as the
    brute force: gamma_K, Theta1, Theta2 and the check-diophantine rows."""
    gamma, inv_best, theta2_best = math.inf, 1.0 / a, 1.0 / a
    shells = {s: (math.inf, None) for s in range(1, K_max + 1)}
    for k in itertools.product(range(-K_max, K_max + 1), repeat=len(omega)):
        norm1 = sum(abs(v) for v in k)
        if 0 < norm1 <= K_max:
            dot = abs(float(np.dot(k, omega)))
            gamma = min(gamma, dot * norm1 ** tau)
            inv_best = max(inv_best, 1.0 / dot)
            theta2_best = max(theta2_best, (1.0 + norm1) / dot)
            if dot < shells[norm1][0]:
                shells[norm1] = (dot, k)
    theta1 = a * inv_best
    rows = [
        {"shell": s, "worst_divisor": dot, "gamma_at_shell": float(dot * s ** tau), "k": list(k)}
        for s, (dot, k) in shells.items()
    ]
    return float(gamma), theta1, max(a * theta2_best, 2.0 * theta1), rows


@pytest.mark.parametrize(
    "make, K_max",
    [
        (lambda: benchmark_problem(epsilon=1e-3), None),
        (rescaled_benchmark_problem, None),
        (two_dof_problem, None),
        # the omega, tau and K_max of the 3-DOF stress problem
        (lambda: _three_dof_problem(), 8),
    ],
    ids=["benchmark", "rescaled", "two_dof", "three_dof"],
)
def test_lattice_table_equals_the_per_k_loops(make, K_max):
    problem = make()
    K_max = K_max or problem.trunc.K_max
    S, _, freq = kolmogorov.torus_frequencies(problem, K_max)
    a = S.decay_rate
    gamma, theta1, theta2, rows = _per_k_lattice_loops(freq.omega, freq.tau, K_max, a)
    assert freq.gamma == gamma
    assert diophantine_profile(freq.omega, freq.tau, K_max) == gamma
    assert kolmogorov.measured_thetas(freq, a) == (theta1, theta2)
    assert divisor_shells(freq) == rows
    assert freq.omega_abs == float(np.abs(freq.omega).max())


def test_initialize_and_check_diophantine_scan_the_lattice_once(monkeypatch, tmp_path, capsys):
    # one scan per frequency vector, and one shift of the structure and of h
    problem = rescaled_benchmark_problem()
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(homological, "lattice_scan", spy("scan", homological.lattice_scan))
    monkeypatch.setattr(StructureMatrix, "shifted", spy("shifted", StructureMatrix.shifted))
    monkeypatch.setattr(
        kolmogorov, "shift_action_expansion", spy("shift", kolmogorov.shift_action_expansion)
    )
    setup = problem.initialize()
    assert [name for name, _ in calls] == ["shifted", "shift", "scan", "shift"]
    assert calls[1][1] is problem.h and calls[3][1] is problem.f
    assert calls[2][1] is setup.freq.omega
    calls.clear()
    path = tmp_path / "p.json"
    problem.save(path)
    assert cli.main(["check-diophantine", "--problem", str(path)]) == 0
    assert [name for name, _ in calls] == ["shifted", "shift", "scan"]
    assert json.loads(capsys.readouterr().out)["gamma_K"] == setup.freq.gamma


# ---- composed map ----------------------------------------------------------------------


def test_compose_map_empty_is_identity():
    setup = canonical_setup(epsilon=1e-3)
    pt = ExtendedPoint(np.array([0.2]), np.array([1.1]), 0.3, 0.7)
    out = compose_map([], pt, setup.structure)
    assert np.allclose(out.y, pt.y) and np.allclose(out.x, pt.x)
    assert out.eta == pt.eta and out.xi == pt.xi


def test_compose_map_displacement_bounds_and_xi():
    setup = canonical_setup(epsilon=1e-3)
    res = run(with_budget(setup, 2, 0.0))
    pt = ExtendedPoint(np.zeros(1), np.array([0.4]), 0.0, 0.0)
    out = compose_map(res.chi_records, pt, setup.structure)
    assert out.xi == pt.xi  # exact, not approximate
    rec = res.chi_records[0]
    bound = rec.d * rec.rho * math.exp(-A_DEFAULT * abs(pt.xi))
    assert abs(out.y[0] - pt.y[0]) <= bound
    assert abs(out.eta - pt.eta) <= bound


# ---- schedule audit ----------------------------------------------------------------------


def test_schedule_audit_limits():
    aud = schedule_audit(tau=1.0, upsilon0=0.5)
    r200 = aud.rows[200]
    assert abs(r200["rho"] - 0.25) <= 0.01 * 0.25
    assert abs(r200["sigma"] - 0.25) <= 0.01 * 0.25
    assert r200["upsilon"] >= 0.25
    assert aud.d_max_tail <= 1.0 / 6.0 + 1e-12
    ds = [r["d"] for r in aud.rows]
    assert all(ds[j + 1] < ds[j] for j in range(1, len(ds) - 1))


def test_run_divergence_abort(monkeypatch):
    import poisson_kam.kolmogorov as K

    setup = canonical_setup(epsilon=1e-3)
    state = {"eps": setup.params.eps}

    def fake_step(setup, decomp, u, step_index):
        state["eps"] *= 3.0
        u_next = K.IterationParams(
            d=u.d, eps=state["eps"], zeta=u.zeta, upsilon=u.upsilon,
            rho=u.rho, sigma=u.sigma,
        )
        row = {"step": step_index, "eps_in": u.eps, "eps_out": state["eps"], "lie_converged": True}
        chi = K.ChiRecord(step_index, decomp.A, u.rho, u.sigma, u.d)
        return decomp, chi, u_next, row

    monkeypatch.setattr(K, "normalization_step", fake_step)
    res = K.run(with_budget(setup, 10, 0.0))
    assert res.status == "diverged"
    assert len(res.trace.rows) == 2  # two consecutive growths, then abort


def test_noncanonical_rescaled_run_quadratic():
    from poisson_kam import rescaled_benchmark_problem

    setup = rescaled_benchmark_problem().initialize()
    # first-order structure data is genuinely nonzero on this instance
    assert np.abs(setup.structure.B1).max() > 0
    res = run(with_budget(setup, 3, 0.0))
    eps = res.trace.eps_sequence()
    assert all(eps[j + 1] < eps[j] for j in range(len(eps) - 1))
    assert math.log(eps[2]) / math.log(eps[1]) >= 1.7
    for row in res.trace.rows:
        assert row["hom_residual_low"] <= 1e-10 * row["eps_in"]


def test_noncanonical_rescaled_persistence_and_flow():
    from poisson_kam import (
        lie_vs_flow_check,
        rescaled_benchmark_problem,
        torus_persistence_report,
    )

    setup = rescaled_benchmark_problem().initialize()
    res = run(with_budget(setup, 3, 1e-10))
    assert res.status == "converged"
    rep = torus_persistence_report(
        setup.decomp.full, setup.structure, res.chi_records,
        t_end=60.0, tol=1e-10, n_angles=2,
    )
    assert rep.min_improvement >= 10.0
    assert all(a.xi_shift == 0.0 for a in rep.angles)
    pt = ExtendedPoint(np.zeros(1), np.array([0.4, 1.1]), 0.0, 0.0)
    for rec in res.chi_records:
        assert lie_vs_flow_check(rec, setup.structure, pt, tol=1e-12) <= 1e-8


def _noncanonical_3dof_problem():
    """The paper's case at n = m = 3: h = |y|^2/2, f = exp(-a xi) [cos x1 +
    cos(x1 + x2)/2 + cos(x2 + x3)/2], B12 = -diag(0.7 + 0.3 y_i) and B22 =
    0.2 between x1 and x2, in the ring (4, 2, 4) at a 1/2, epsilon 5e-5 and
    tau 1.2; y* solves (0.7 + 0.3 y_i) y_i = omega_i for omega = (1, phi,
    1 + sqrt 2)."""
    ring = (3, 3, 0.5, Truncation(4, 2, 4))
    zk = (0, 0, 0)
    units = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    zero = FourierTaylorSeries.zeros(*ring)
    b22 = FourierTaylorSeries.constant(0.2, zero)
    B12 = [
        [FourierTaylorSeries.from_terms(*ring, [(zk, zk, 0, 0, -0.7), (zk, u, 0, 0, -0.3)])
         if j == i else zero for j in range(3)]
        for i, u in enumerate(units)
    ]
    B22 = [[zero, b22, zero], [-b22, zero, zero], [zero, zero, zero]]
    h = [(zk, tuple(2 * v for v in u), 0, 0, 0.5) for u in units]
    f = [
        (tuple(s * v for v in k), zk, 0, 1, c)
        for k, c in (((1, 0, 0), 0.5), ((1, 1, 0), 0.25), ((0, 1, 1), 0.25))
        for s in (1, -1)
    ]
    omega = (1.0, GOLDEN, 1.0 + math.sqrt(2.0))
    y_star = [(-0.7 + math.sqrt(0.49 + 1.2 * w)) / 0.6 for w in omega]
    return problems._built_in(StructureMatrix(B12, B22), h, f, 5e-5, 1.2, y_star, {})


def test_noncanonical_3dof_normalizes_and_persists():
    """A non-canonical structure with three actions and three angles passes
    the Jacobi check at load, converges in two steps, and its normalizing
    map keeps the torus at both angles of the report."""
    from poisson_kam import torus_persistence_report

    setup = _noncanonical_3dof_problem().initialize()
    res = run(setup)
    assert res.status == "converged" and len(res.chi_records) == 2
    rep = torus_persistence_report(
        setup.decomp.full, setup.structure, res.chi_records, n_angles=2
    )
    assert rep.passed
    assert all(a.xi_shift == 0.0 for a in rep.angles)


def test_init_rejects_bad_decay_rate():
    prob = benchmark_problem()
    with pytest.raises(ProblemFormatError):
        dataclasses.replace(prob, a=1.5)


@pytest.mark.parametrize("y_star", [1e200, -1e200])
def test_initialize_refuses_an_overflowing_y_star(y_star):
    """A y_star whose shifted h overflows is refused by name, with no numpy
    overflow warning on the way (which this suite raises as an error)."""
    with pytest.raises(ParameterError, match="y_star"):
        benchmark_problem(epsilon=1e-3, y_star=y_star).initialize()


def test_built_problem_is_read_only():
    """A built Problem cannot be changed past its checks, not even through
    the array or the dict its caller passed in."""
    y_star = np.array([1.0])
    options = {"rho": 0.5}
    prob = dataclasses.replace(benchmark_problem(), y_star=y_star, options=options)
    with pytest.raises(TypeError):
        prob.options["rho"] = 1e300
    with pytest.raises(ValueError):
        prob.y_star[0] = math.nan
    y_star[0] = math.nan
    options["rho"] = 1e300
    assert prob.y_star.tolist() == [1.0] and prob.option("rho") == 0.5
    assert dataclasses.replace(prob, epsilon=0.0).echo()["options"] == {"rho": 0.5}


def test_problem_payload_roundtrip(tmp_path):
    from poisson_kam import Problem, rescaled_benchmark_problem

    prob = rescaled_benchmark_problem()
    path = tmp_path / "p.json"
    prob.save(path)
    back = Problem.load(path)
    assert back.h == prob.h and back.f == prob.f
    assert back.epsilon == prob.epsilon and back.tau == prob.tau
    assert all(
        back.structure.B12[i][l] == prob.structure.B12[i][l]
        for i in range(prob.m)
        for l in range(prob.n)
    )
    path.write_text(path.read_text().replace('"epsilon"', '"oops"'))
    with pytest.raises(ProblemFormatError):
        Problem.load(path)


def test_problem_file_sets_every_run_option(tmp_path):
    from dataclasses import fields

    from poisson_kam import Problem, RunOptions

    values = {"max_steps": 5, "target_eps": 1e-7}
    assert set(values) == {f.name for f in fields(RunOptions)}
    defaults = RunOptions()
    assert all(values[k] != getattr(defaults, k) for k in values)
    path = tmp_path / "p.json"
    benchmark_problem(**values).save(path)
    options = Problem.load(path).initialize().options
    assert {k: getattr(options, k) for k in values} == values
    with pytest.raises(ProblemFormatError, match="d_total"):
        Problem.load(path).initialize(d_total=2.0)


@pytest.mark.parametrize("factory", [rescaled_benchmark_problem, two_dof_problem])
def test_compose_map_of_a_batch_is_each_point_alone(rng, factory):
    """A batch point maps, bit for bit, as each of its points alone, and
    keeps its shapes; with no records a batch maps to itself."""
    setup = factory().initialize()
    S, P = setup.structure, 3
    batch = ExtendedPoint(
        rng.uniform(-0.05, 0.05, (P, S.m)),
        rng.uniform(-np.pi, np.pi, (P, S.n)),
        rng.uniform(-0.1, 0.1, P),
        rng.uniform(0.5, 4.0, P),
    )
    bits = lambda v: np.asarray(v, dtype=np.complex128).tobytes()
    records = run(setup).chi_records
    out = compose_map(records, batch, S)
    shapes = [np.shape(getattr(out, f)) for f in ("y", "x", "eta", "xi")]
    assert shapes == [(P, S.m), (P, S.n), (P,), (P,)]
    for i in range(P):
        point = ExtendedPoint(batch.y[i], batch.x[i], batch.eta[i], batch.xi[i])
        alone = compose_map(records, point, S)
        for f in ("y", "x", "eta", "xi"):
            assert bits(getattr(out, f)[i]) == bits(getattr(alone, f))
        assert bits(alone.y) != bits(point.y) and bits(alone.eta) != bits(point.eta)
    same = compose_map([], batch, S)
    for f in ("y", "x", "eta", "xi"):
        assert np.array_equal(getattr(same, f), getattr(batch, f))


def test_compose_map_matches_sequential_flows():
    # the map sends new coords to old: first step's flow applied last
    from scipy.integrate import solve_ivp

    setup = canonical_setup(epsilon=1e-3)
    res = run(with_budget(setup, 2, 0.0))
    S = setup.structure
    recs = res.chi_records
    pt = ExtendedPoint(np.array([0.05]), np.array([0.9]), 0.02, 0.4)

    def flow_of(chi, z0):
        chix = [chi.partial_x(l) for l in range(S.n)]
        chiy = [chi.partial_y(i) for i in range(S.m)]
        chixi = chi.partial_xi()

        def f(t, v):
            y, x, xi = v[:1], v[1:2], v[3]
            cx = np.array([g.evaluate(y, x, 0, xi) for g in chix])
            cy = np.array([g.evaluate(y, x, 0, xi) for g in chiy])
            B12 = np.array([[e.evaluate(y, x) for e in row] for row in S.B12])
            B22 = np.array([[e.evaluate(y, x) for e in row] for row in S.B22])
            return np.concatenate(
                [
                    np.real(-(B12 @ cx)),
                    np.real(B12.T @ cy + B22.T @ cx),
                    [np.real(chixi.evaluate(y, x, 0, xi))],
                    [0.0],
                ]
            )

        sol = solve_ivp(f, (0, 1), z0, method="DOP853", rtol=1e-12, atol=1e-14)
        return sol.y[:, -1]

    z = np.array([pt.y[0], pt.x[0], pt.eta, pt.xi])
    expected = flow_of(recs[0].chi, flow_of(recs[1].chi, z))
    out = compose_map(recs, pt, S)
    got = np.array([out.y[0].real, out.x[0].real, np.real(out.eta), out.xi])
    assert np.abs(got - expected).max() <= 1e-9


def test_optional_prune_keeps_quadratic_decay():
    from poisson_kam import rescaled_benchmark_problem

    # on a wide lattice, where terms leave a series only by truncation
    prob = rescaled_benchmark_problem(trunc=(12, 4, 12))
    res = run(with_budget(prob.initialize(), 2, 0.0))
    eps = res.trace.eps_sequence()
    assert eps[1] < 1e-3 * eps[0]
    assert eps[2] < 1e-5 * eps[1]


# ---- the homological residual on |alpha| <= 1 ----------------------------------


def _three_dof_problem():
    """Canonical 3-DOF problem: h = |y|^2/2 around y* = omega with omega =
    (1, phi, 1 + sqrt 2), and f = exp(-a xi) [cos(x1 + 1) + cos(x1 + x2 + 2)/2
    + cos(x2 + x3 + 3)/2], at truncation (6, 3, 6)."""
    a, trunc = 0.5, Truncation(6, 3, 6)
    z = (0, 0, 0)
    h = [(z, tuple(2 * (j == i) for j in range(3)), 0, 0, 0.5) for i in range(3)]
    f = []
    for k, amp, theta in (((1, 0, 0), 1.0, 1.0), ((1, 1, 0), 0.5, 2.0), ((0, 1, 1), 0.5, 3.0)):
        half = 0.5 * amp * complex(math.cos(theta), math.sin(theta))
        f += [(k, z, 0, 1, half), (tuple(-v for v in k), z, 0, 1, half.conjugate())]
    return Problem(
        n=3,
        m=3,
        a=a,
        epsilon=1e-4,
        tau=1.2,
        y_star=np.array([1.0, GOLDEN, 1.0 + math.sqrt(2.0)]),
        trunc=trunc,
        h=FourierTaylorSeries.from_terms(3, 3, a, trunc, h),
        f=FourierTaylorSeries.from_terms(3, 3, a, trunc, f),
        structure=StructureMatrix.canonical(3, a, trunc),
        options={"rho": 0.5, "sigma": 1.0},
    )


@pytest.mark.parametrize(
    "make",
    [lambda: benchmark_problem(epsilon=1e-3), rescaled_benchmark_problem, two_dof_problem,
     _three_dof_problem],
    ids=["benchmark", "rescaled", "two_dof", "three_dof"],
)
def test_residual_bracket_is_the_low_part_of_the_full_bracket(make, monkeypatch):
    # per step, the cut-ring bracket is bit for bit the |alpha| <= 1 part of
    # the full bracket, and forming it records no discard
    steps = []

    def spy(chi, h, S):
        with discards() as lost:
            low = low_degree_bracket(chi, h, S)
        steps.append((low, poisson_bracket(chi, h, S), lost))
        return low

    monkeypatch.setattr(kolmogorov, "low_degree_bracket", spy)
    result = run(make().initialize())
    assert len(steps) == len(result.chi_records) > 0
    for low, full, lost in steps:
        ref = kolmogorov._by_degree(full)[0]
        assert low.trunc == full.trunc._replace(L_max=1)
        assert np.array_equal(low.keys, ref.keys)
        assert np.array_equal(low.coeffs.view(np.uint64), ref.coeffs.view(np.uint64))
        assert (lost.total_mass, lost.events) == (0.0, 0)
    assert any(low.num_terms for low, _, _ in steps)


def test_low_degree_bracket_needs_a_linear_generator():
    F = mk([((1,), (2,), 0, 1, 1.0)])
    with pytest.raises(ValueError, match="degree at most 1"):
        low_degree_bracket(F, cosx(), StructureMatrix.canonical(1, A_DEFAULT, F.trunc))
