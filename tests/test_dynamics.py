import math

import numpy as np
import pytest

from poisson_kam import (
    ChiRecord,
    ExtendedPoint,
    StructureMatrix,
    benchmark_problem,
    integrate,
    lie_vs_flow_check,
    rescaled_benchmark_problem,
    run,
    torus_persistence_report,
    two_dof_problem,
    write_trajectory,
)
from poisson_kam.dynamics import _dop853, _GradientCache, _state_vector
from poisson_kam.errors import ParameterError, PoissonKamError, StiffnessError

from conftest import (
    A_DEFAULT,
    TR_DEFAULT,
    cosx,
    random_series,
    rescaled_bracket_instance,
    sinx,
    with_budget,
    zeros,
)


def _at_unit_domain(chi):
    """chi as a stored generator at (rho, sigma) = (1, 1)."""
    return ChiRecord(0, chi, 1.0, 1.0, 1.0 / 6.0)


def test_unperturbed_torus_is_invariant():
    setup = benchmark_problem(epsilon=0.0).initialize()
    start = ExtendedPoint(np.zeros(1), np.array([0.3]), 0.0, 0.0)
    traj = integrate(setup.decomp.full, setup.structure, [start], 20.0, 1e-10)[0]
    assert traj.torus_error.max() <= 1e-9
    assert np.abs(traj.phase_drift).max() <= 1e-8


def test_energy_conserved_autonomous():
    # no xi dependence: H constant along trajectories to 10 * tol
    setup = benchmark_problem(epsilon=0.0).initialize()
    H = setup.decomp.full + cosx(trunc=setup.decomp.full.trunc).scale(1e-2)
    start = ExtendedPoint(np.array([0.1]), np.array([0.3]), 0.0, 0.0)
    tol = 1e-10
    traj = integrate(H, setup.structure, [start], 30.0, tol)[0]
    # states are (y, x, eta, xi) with m = n = 1
    vals = [H.evaluate(v[:1], v[1:2], v[2], v[3]).real for v in traj.states]
    assert max(vals) - min(vals) <= 10 * tol * max(1.0, abs(vals[0]))


def test_time_coordinate_linear():
    setup = benchmark_problem(epsilon=1e-3).initialize()
    start = ExtendedPoint(np.zeros(1), np.array([1.0]), 0.0, 0.25)
    traj = integrate(setup.decomp.full, setup.structure, [start], 10.0, 1e-11)[0]
    assert traj.states[:, -1] == pytest.approx(0.25 + traj.t, abs=1e-9)


def _field_entry_by_entry(H, S, v):
    """The vector field from one evaluate call per gradient component and per
    structure entry, the blocks taken at x = 0, xi = 0."""
    m, n = S.m, S.n
    y, x, xi = v[:m], v[m : m + n], v[m + n + 1]
    Hy = np.array([H.partial_y(i).evaluate(y, x, 0.0, xi).real for i in range(m)])
    Hx = np.array([H.partial_x(l).evaluate(y, x, 0.0, xi).real for l in range(n)])
    x0 = np.zeros(n)
    B12 = np.array([[e.evaluate(y, x0) for e in row] for row in S.B12]).real
    B22 = np.array([[e.evaluate(y, x0) for e in row] for row in S.B22]).real
    etadot = -H.partial_xi().evaluate(y, x, 0.0, xi).real
    xidot = H.partial_eta().coefficient((0,) * n, (0,) * m, 0, 0).real
    return np.concatenate([B12 @ Hx, -B12.T @ Hy + B22 @ Hx, [etadot], [xidot]])


def test_field_equals_entry_by_entry_formula(rng):
    # y-dependent B12 and a skew B22 with zero entries: the one stacked pass
    # gives the per-entry formula bit for bit
    setup = rescaled_benchmark_problem().initialize()
    H, S = setup.decomp.full, setup.structure
    assert any(e.acols.any() for row in S.B12 for e in row)
    assert any(e.is_zero() for row in S.B22 for e in row)
    field = _GradientCache(H, S).field
    V = np.array([
        np.concatenate(
            [0.1 * rng.normal(size=S.m), rng.uniform(-7.0, 7.0, S.n), [0.0, rng.uniform(0, 50)]]
        )
        for _ in range(20)
    ])
    batch = field(V)
    assert batch.shape == V.shape
    for v, got in zip(V, batch):
        assert (got == _field_entry_by_entry(H, S, v)).all()
        assert (field(v[None, :])[0] == got).all()


def test_write_trajectory_format(tmp_path):
    setup = benchmark_problem(epsilon=0.0).initialize()
    start = ExtendedPoint(np.zeros(1), np.array([0.0]), 0.0, 0.0)
    traj = integrate(setup.decomp.full, setup.structure, [start], 1.0, 1e-9)[0]
    path = tmp_path / "traj.csv"
    write_trajectory(traj, path)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == len(traj.t)
    # t, y, x, eta, xi, torus_error, drift for m = n = 1
    assert len(rows[0].split(",")) == 7


def test_lie_vs_flow_zero_chi():
    S = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
    pt = ExtendedPoint(np.array([0.1]), np.array([0.4]), 0.0, 0.2)
    assert lie_vs_flow_check(_at_unit_domain(zeros()), S, pt, tol=1e-12) <= 1e-12


def test_lie_vs_flow_canonical_small():
    S = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
    chi = sinx().scale(1e-3)
    pt = ExtendedPoint(np.array([0.2]), np.array([0.7]), 0.1, 0.3)
    assert lie_vs_flow_check(_at_unit_domain(chi), S, pt, tol=1e-12) <= 1e-8


def test_lie_vs_flow_tightens_when_halved(rng):
    from poisson_kam import WeightedNormParams, weighted_norm

    S = rescaled_bracket_instance()
    chi = random_series(
        rng, n=2, m=1, nterms=5, real=True, k_budget=2, l_budget=1, p_budget=1
    )
    chi = chi.scale(1e-3 / weighted_norm(chi, WeightedNormParams(1.0, 1.0)).K)
    pt = ExtendedPoint(np.array([0.15]), np.array([0.4, 1.2]), 0.0, 0.1)
    d1 = lie_vs_flow_check(_at_unit_domain(chi), S, pt, tol=1e-12)
    d2 = lie_vs_flow_check(_at_unit_domain(chi.scale(0.5)), S, pt, tol=1e-12)
    assert d1 <= 1e-8
    assert d2 <= max(d1, 1e-12)


def test_lie_vs_flow_for_run_generators(rng):
    setup = benchmark_problem(epsilon=1e-3).initialize()
    res = run(with_budget(setup, 2, 0.0))
    pt = ExtendedPoint(np.zeros(1), np.array([0.9]), 0.0, 0.0)
    for rec in res.chi_records:
        assert lie_vs_flow_check(rec, setup.structure, pt, tol=1e-12) <= 1e-8


def test_persistence_zero_perturbation():
    setup = benchmark_problem(epsilon=0.0).initialize()
    res = run(setup)
    rep = torus_persistence_report(
        setup.decomp.full,
        setup.structure,
        res.chi_records,
        t_end=10.0,
        tol=1e-10,
        n_angles=2,
    )
    assert rep.min_improvement == math.inf
    assert rep.passed


def test_persistence_benchmark_improvement():
    setup = benchmark_problem(epsilon=1e-3).initialize()
    res = run(with_budget(setup, 4, 1e-9))
    rep = torus_persistence_report(
        setup.decomp.full,
        setup.structure,
        res.chi_records,
        t_end=40.0,
        tol=1e-10,
        n_angles=2,
    )
    assert rep.min_improvement >= 10.0
    for a in rep.angles:
        assert a.xi_shift == 0.0
        assert a.naive_settled == pytest.approx(8e-4, rel=0.5)


def test_persistence_naive_error_scales_linearly():
    settled = {}
    for eps in (1e-3, 5e-4):
        setup = benchmark_problem(epsilon=eps).initialize()
        start = ExtendedPoint(np.zeros(1), np.zeros(1), 0.0, 0.0)
        traj = integrate(setup.decomp.full, setup.structure, [start], 40.0, 1e-10)[0]
        settled[eps] = traj.torus_error[traj.t >= 20.0].max()
    assert settled[1e-3] / settled[5e-4] == pytest.approx(2.0, rel=0.2)


def test_persistence_rejects_no_angles():
    setup = benchmark_problem(epsilon=0.0).initialize()
    with pytest.raises(PoissonKamError):
        torus_persistence_report(
            setup.decomp.full, setup.structure, [], t_end=1.0, n_angles=0
        )


# ---- the DOP853 stepper against scipy's ------------------------------------


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    from poisson_kam import dynamics

    N = ref.N_STAGES
    assert np.array_equal(dynamics._A, ref.A[:N, :N])
    for ours, theirs in ((dynamics._B, ref.B), (dynamics._E3, ref.E3), (dynamics._E5, ref.E5)):
        assert np.array_equal(ours, theirs)


def _scipy_row(H, S, start, t_end, tol):
    """scipy's DOP853 from one start, on the package's field, as integrate
    calls it: rtol = tol, atol = tol / 100."""
    from scipy.integrate import solve_ivp

    field = _GradientCache(H, S).field
    (v0,) = _state_vector(start, S.m, S.n)
    return solve_ivp(
        lambda t, v: field(v[None, :])[0],
        (0.0, t_end),
        v0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
    )


def _spread_starts(rng, S, count):
    """Torus and off-torus starts at spread angles and times, so the
    trajectories need different numbers of steps."""
    return [
        ExtendedPoint(
            rng.uniform(-0.05, 0.05, S.m) * (i % 3),
            rng.uniform(-np.pi, np.pi, S.n),
            0.0,
            rng.uniform(0.0, 4.0) * (i % 2),
        )
        for i in range(count)
    ]


@pytest.mark.parametrize(
    "factory", [benchmark_problem, rescaled_benchmark_problem, two_dof_problem]
)
def test_batch_equals_scipy_per_trajectory(rng, factory):
    setup = factory().initialize()
    H, S = setup.decomp.full, setup.structure
    starts = _spread_starts(rng, S, 16)
    t_end, tol = 6.0, 1e-10
    trajs = integrate(H, S, starts, t_end, tol)
    assert len({traj.accepted_steps for traj in trajs}) > 1
    for start, traj in zip(starts, trajs):
        sol = _scipy_row(H, S, start, t_end, tol)
        assert np.array_equal(traj.t, sol.t)
        assert np.array_equal(traj.states, sol.y.T)


def test_solver_work_matches_scipy(rng):
    """Trajectory.nfev and accepted_steps count what scipy's solver counts
    for the same start, rejected steps included."""
    setup = two_dof_problem().initialize()
    H, S = setup.decomp.full, setup.structure
    starts = _spread_starts(rng, S, 4)
    trajs = integrate(H, S, starts, 6.0, 1e-10)
    # two right-hand sides pick the first step, then 12 per attempted step
    assert any(traj.nfev > 2 + 12 * traj.accepted_steps for traj in trajs)
    for start, traj in zip(starts, trajs):
        sol = _scipy_row(H, S, start, 6.0, 1e-10)
        assert (traj.nfev, traj.accepted_steps) == (sol.nfev, len(sol.t) - 1)


def test_one_start_equals_its_row_of_a_batch(rng):
    setup = two_dof_problem().initialize()
    H, S = setup.decomp.full, setup.structure
    starts = _spread_starts(rng, S, 5)
    batch = integrate(H, S, starts, 5.0, 1e-9)
    for start, row in zip(starts, batch):
        (alone,) = integrate(H, S, [start], 5.0, 1e-9)
        for name in ("t", "states", "torus_error", "phase_drift"):
            assert np.array_equal(getattr(alone, name), getattr(row, name))
        assert (alone.nfev, alone.accepted_steps) == (row.nfev, row.accepted_steps)


def test_a_batch_point_integrates_as_its_points(rng):
    """A start whose fields carry a batch axis gives one Trajectory per row,
    each what that point alone gives; no starts give no trajectories."""
    setup = two_dof_problem().initialize()
    H, S = setup.decomp.full, setup.structure
    starts = _spread_starts(rng, S, 3)
    fields = ("y", "x", "eta", "xi")
    batch = ExtendedPoint(*(np.array([getattr(p, f) for p in starts]) for f in fields))
    rows = integrate(H, S, [batch], 5.0, 1e-9)
    assert len(rows) == 3
    for row, alone in zip(rows, integrate(H, S, starts, 5.0, 1e-9)):
        for name in ("t", "states", "torus_error", "phase_drift"):
            assert np.array_equal(getattr(alone, name), getattr(row, name))
    assert integrate(H, S, [], 5.0, 1e-9) == []


def test_blow_up_raises_stiffness_error():
    # v' = v^2 from v = 1 reaches infinity at t = 1
    with pytest.raises(StiffnessError, match="float spacing"):
        _dop853(lambda V: V * V, np.ones((2, 1)), 2.0, 1e-10, 1e-12)


@pytest.mark.parametrize("tol, t_end", [(0.0, 1.0), (math.nan, 1.0), (1e-8, -1.0), (1e-8, math.inf)])
def test_stepper_rejects_bad_tol_and_t_end(tol, t_end):
    with pytest.raises(ParameterError):
        _dop853(lambda V: -V, np.ones((1, 2)), t_end, tol, tol)


def test_stepper_rejects_a_non_finite_start():
    with pytest.raises(ParameterError):
        _dop853(lambda V: -V, np.array([[1.0, 0.0], [math.nan, 1.0]]), 1.0, 1e-8, 1e-8)


def test_nan_first_step_ends_in_stiffness_error():
    """A field that is NaN at the start makes the first step NaN, which never
    falls below min_step: the stepper refuses it instead of looping on it."""
    with pytest.raises(StiffnessError, match="first step is not finite"):
        _dop853(lambda V: np.full_like(V, np.nan), np.ones((1, 2)), 1.0, 1e-8, 1e-10)
